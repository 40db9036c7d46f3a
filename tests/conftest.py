import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # naive_eval, naive_enum

from splogic import finder
from splogic import (
    load_fosl_model,
    load_v1_model,
    make_fosl_vocabulary,
    make_v1_vocabulary,
    parse_formula,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def no_kept_spaces():
    # the standpoint search keeps a space per level shape between
    # searches; each test starts with none, so no test's result depends
    # on what an earlier one left
    finder._spaces.clear()


def read_formula_text(name: str) -> str:
    lines = (FIXTURES / name).read_text().splitlines()
    return " ".join(line.split("#", 1)[0].strip() for line in lines).strip()


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def desert_fosl_vocab():
    return make_fosl_vocabulary(
        {"AridArea": 1, "Near": 2, "Desert": 1, "PartOf": 2}, ["house"], []
    )


@pytest.fixture(scope="session")
def desert_v1_vocab():
    return make_v1_vocabulary(
        ["Building", "Desert"], {"AridArea": 1}, {"PartOf": 2}, ["house", "a"], []
    )


@pytest.fixture(scope="session")
def area_v1_vocab():
    return make_v1_vocabulary(
        ["Area", "Building", "Desert"],
        {"AridArea": 1},
        {"PartOf": 2},
        ["house"],
        ["some", "others"],
    )


@pytest.fixture(scope="session")
def m0_vocab():
    return make_fosl_vocabulary({"P": 1}, ["c"], ["s"])


@pytest.fixture(scope="session")
def m0():
    return load_fosl_model(str(FIXTURES / "m0.json"))


@pytest.fixture(scope="session")
def v0():
    return load_v1_model(str(FIXTURES / "v0.json"))


@pytest.fixture(scope="session")
def vd():
    return load_v1_model(str(FIXTURES / "vd.json"))


@pytest.fixture(scope="session")
def formula_a(desert_fosl_vocab):
    return parse_formula(read_formula_text("formula_a.txt"), desert_fosl_vocab)


@pytest.fixture(scope="session")
def formula_b(desert_fosl_vocab):
    return parse_formula(read_formula_text("formula_b.txt"), desert_fosl_vocab)


@pytest.fixture(scope="session")
def formula_c(desert_fosl_vocab):
    return parse_formula(read_formula_text("formula_c.txt"), desert_fosl_vocab)


@pytest.fixture(scope="session")
def formula_c_v1(desert_v1_vocab):
    return parse_formula(read_formula_text("formula_c.txt"), desert_v1_vocab)


@pytest.fixture(scope="session")
def formula_c_rigid(desert_fosl_vocab):
    return parse_formula(read_formula_text("formula_c_rigid.txt"), desert_fosl_vocab)


@pytest.fixture(scope="session")
def formula_d(area_v1_vocab):
    return parse_formula(read_formula_text("formula_d.txt"), area_v1_vocab)
