import argparse
import json
import re
from pathlib import Path

import pytest

from splogic.cli import build_parser, main

FIXTURES = Path(__file__).parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_v1_model_of_formula_c(self, capsys):
        code, out, _ = run(
            capsys, "check",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--model", str(FIXTURES / "v0.json"),
            "--flavor", "v1",
        )
        assert code == 0
        assert "global: model" in out
        assert "p1: satisfied" in out and "p2: satisfied" in out

    def test_failing_formula_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("P(c) & !P(c)\n")
        code, out, _ = run(
            capsys, "check",
            "--formula", str(bad),
            "--model", str(FIXTURES / "m0.json"),
            "--flavor", "fosl",
        )
        assert code == 1
        assert "global: not a model" in out

    def test_per_point_verdicts(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("P(c)\n")
        code, out, _ = run(
            capsys, "check",
            "--formula", str(f),
            "--model", str(FIXTURES / "m0.json"),
            "--flavor", "fosl",
        )
        assert code == 1
        assert "p1: satisfied" in out
        assert "p2: not satisfied" in out

    def test_malformed_model_exits_two(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        data = json.loads((FIXTURES / "m0.json").read_text())
        data["sigma"] = {"s": ["p9"]}
        broken.write_text(json.dumps(data))
        f = tmp_path / "f.txt"
        f.write_text("P(c)\n")
        code, _, err = run(
            capsys, "check", "--formula", str(f),
            "--model", str(broken), "--flavor", "fosl",
        )
        assert code == 2
        assert "unknown precisification" in err

    def test_deeply_nested_formula_exits_two(self, capsys, tmp_path):
        f = tmp_path / "deep.txt"
        f.write_text("(" * 1000 + "P(c)" + ")" * 1000 + "\n")
        code, out, err = run(
            capsys, "check", "--formula", str(f),
            "--model", str(FIXTURES / "m0.json"), "--flavor", "fosl",
        )
        assert code == 2
        assert "not a model" not in out
        assert "error: formula nested too deeply" in err

    @pytest.mark.parametrize("flavor, model, atom", [
        ("fosl", "m0.json", "P(c)"),
        ("v1", "v0.json", "Desert(a)"),
    ])
    def test_deeply_nested_boxes_exit_two(self, capsys, tmp_path, flavor, model, atom):
        f = tmp_path / "deep.txt"
        f.write_text("[*] " * 1500 + atom + "\n")
        code, out, err = run(
            capsys, "check", "--formula", str(f),
            "--model", str(FIXTURES / model), "--flavor", flavor,
        )
        assert code == 2
        assert "not a model" not in out
        assert "error: formula nested too deeply" in err

    def test_undeclared_symbol_exits_two(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("Zap(c)\n")
        code, _, err = run(
            capsys, "check", "--formula", str(f),
            "--model", str(FIXTURES / "m0.json"), "--flavor", "fosl",
        )
        assert code == 2
        assert "Zap" in err


class TestTranslate:
    def test_writes_formula_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "out.txt"
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "translate",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--out", str(out_path),
            "--report", str(report_path),
        )
        assert code == 0
        text = out_path.read_text().strip()
        assert "ink" in text and "prec" in text and "[*]" in text
        report = json.loads(report_path.read_text())
        assert report["axiom_count"] == 10
        assert report["source_monodic"] is True

    def test_translated_output_reparses(self, capsys, tmp_path):
        from splogic import parse_formula, translated_vocabulary
        from splogic.cli import load_vocabulary

        out_path = tmp_path / "out.txt"
        run(
            capsys, "translate",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--out", str(out_path),
        )
        vocab = load_vocabulary(str(FIXTURES / "desert_v1_vocab.json"))
        parse_formula(out_path.read_text(), translated_vocabulary(vocab))

    def test_names_are_typed(self, capsys, tmp_path):
        # every name denotes an admitted individual, with no flag
        out_path = tmp_path / "t.txt"
        run(capsys, "translate", "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"), "--out", str(out_path))
        text = out_path.read_text()
        assert "ink(a)" in text and "ink(house)" in text

    @pytest.mark.parametrize("command", ["translate", "equisat"])
    def test_strict_names_option_is_gone(self, capsys, command):
        # every translation types names
        with pytest.raises(SystemExit) as exc:
            main([command,
                  "--formula", str(FIXTURES / "formula_c.txt"),
                  "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
                  "--strict-names"])
        assert exc.value.code == 2
        assert "--strict-names" in capsys.readouterr().err

    def test_fosl_vocab_rejected(self, capsys):
        code, _, err = run(
            capsys, "translate",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
        )
        assert code == 2
        assert "v1 vocabulary" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = []
        for tag in ("one", "two"):
            out_path = tmp_path / f"{tag}.txt"
            run(capsys, "translate", "--formula", str(FIXTURES / "formula_c.txt"),
                "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
                "--out", str(out_path))
            paths.append(out_path.read_bytes())
        assert paths[0] == paths[1]


class TestSolve:
    def test_satisfiable_formula_writes_model(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "solve",
            "--formula", str(FIXTURES / "formula_a.txt"),
            "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
            "--flavor", "fosl",
            "--bounds", "3,2",
            "--out", str(model_path),
        )
        assert code == 0
        assert out.startswith("sat")
        from splogic import is_model, load_fosl_model, parse_formula
        from splogic.cli import load_vocabulary, read_formula_file

        model = load_fosl_model(str(model_path))
        vocab = load_vocabulary(str(FIXTURES / "desert_fosl_vocab.json"))
        f = parse_formula(read_formula_file(str(FIXTURES / "formula_a.txt")), vocab)
        assert is_model(model, f)

    def test_unsat_reconstruction_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "solve",
            "--formula", str(FIXTURES / "formula_c_rigid.txt"),
            "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
            "--flavor", "fosl",
            "--bounds", "3,2",
        )
        assert code == 1
        assert out.startswith("unsat within bounds")

    def test_workers_option_is_gone(self, capsys):
        # every search runs serially in one thread; there is no worker
        # count to set
        with pytest.raises(SystemExit) as exc:
            main(["solve",
                  "--formula", str(FIXTURES / "formula_a.txt"),
                  "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
                  "--flavor", "fosl",
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_v1_solve(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "solve",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--flavor", "v1",
            "--bounds", "3,2,3,2",
            "--out", str(model_path),
        )
        assert code == 0
        from splogic import is_model_v1, load_v1_model, parse_formula
        from splogic.cli import load_vocabulary, read_formula_file

        model = load_v1_model(str(model_path))
        vocab = load_vocabulary(str(FIXTURES / "desert_v1_vocab.json"))
        f = parse_formula(read_formula_file(str(FIXTURES / "formula_c.txt")), vocab)
        assert is_model_v1(model, f)

    def test_timeout_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "solve",
            "--formula", str(FIXTURES / "formula_c_rigid.txt"),
            "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
            "--flavor", "fosl",
            "--bounds", "3,2",
            "--timeout", "1e-9",
        )
        assert code == 3
        assert out.startswith("timeout")

    def test_nan_timeout_exits_two(self, capsys):
        code, _, err = run(
            capsys, "solve",
            "--formula", str(FIXTURES / "formula_a.txt"),
            "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
            "--flavor", "fosl",
            "--bounds", "3,2",
            "--timeout", "nan",
        )
        assert code == 2
        assert "timeout" in err

    def test_flavor_vocab_mismatch(self, capsys):
        code, _, err = run(
            capsys, "solve",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--flavor", "fosl",
        )
        assert code == 2


class TestEquisatCommand:
    def test_formula_c_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "equisat",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--bounds", "3,2,3,2",
            "--timeout", "120",
            "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["agreement"] == "sat"
        assert [d["direction"] for d in report["directions"]] == ["v1", "fosl"]
        # found models are written beside the report and referenced by path
        from splogic import is_model_v1, load_v1_model, parse_formula
        from splogic.cli import load_vocabulary, read_formula_file

        v1_entry = report["directions"][0]
        assert "model" not in v1_entry
        model = load_v1_model(v1_entry["model_path"])
        vocab = load_vocabulary(str(FIXTURES / "desert_v1_vocab.json"))
        f = parse_formula(read_formula_file(str(FIXTURES / "formula_c.txt")), vocab)
        assert is_model_v1(model, f)

    def test_report_stable_modulo_elapsed(self, capsys, tmp_path):
        def strip(data):
            for entry in data["directions"]:
                entry.pop("elapsed_ms")
                entry.pop("model_path", None)
            return data

        reports = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.json"
            run(capsys, "equisat",
                "--formula", str(FIXTURES / "formula_c.txt"),
                "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
                "--bounds", "3,2,3,2", "--timeout", "120",
                "--out", str(path))
            reports.append(strip(json.loads(path.read_text())))
        assert reports[0] == reports[1]


class TestMonodic:
    def test_formula_c_is_monodic(self, capsys):
        code, out, _ = run(
            capsys, "monodic",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
        )
        assert code == 0
        assert out.strip() == "true"

    def test_two_variable_box_is_not(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("forall ?x forall ?y [*] Near(?x, ?y)\n")
        code, out, _ = run(
            capsys, "monodic",
            "--formula", str(f),
            "--vocab", str(FIXTURES / "desert_fosl_vocab.json"),
        )
        assert code == 1
        assert out.strip() == "false"


class TestGenerate:
    def test_prints_seeded_formulas(self, capsys):
        code, out, _ = run(
            capsys, "generate",
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--seed", "7", "--count", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        code2, out2, _ = run(
            capsys, "generate",
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--seed", "7", "--count", "3",
        )
        assert out == out2

    @pytest.mark.parametrize("option, value", [
        ("--depth", "-3"), ("--depth", "0"), ("--count", "-2"), ("--count", "0"),
    ])
    def test_settings_below_one_exit_two(self, capsys, option, value):
        code, out, err = run(
            capsys, "generate",
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            option, value,
        )
        assert code == 2
        assert out == ""
        assert option in err


class TestJsonTypes:
    """A model or vocabulary file with a value of the wrong JSON type is
    invalid input (exit 2), never "not a model" (exit 1)."""

    @pytest.mark.parametrize("flavor, fixture, formula, path, value", [
        ("fosl", "m0.json", "P(c)", ("interpretation", "p1"), []),
        ("fosl", "m0.json", "P(c)", ("interpretation", "p1", "constants", "c"), ["d1"]),
        ("fosl", "m0.json", "P(c)", ("domain",), "d1d2"),
        ("v1", "v0.json", "Desert(a)", ("sortals", "p1"), ["Building"]),
    ], ids=["interpretation-list", "constant-list", "domain-string", "sortals-list"])
    def test_model_exits_two(self, capsys, tmp_path, flavor, fixture, formula, path, value):
        data = json.loads((FIXTURES / fixture).read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        f = tmp_path / "f.txt"
        f.write_text(formula + "\n")
        code, _, err = run(capsys, "check", "--formula", str(f), "--model", str(model),
                           "--flavor", flavor)
        assert code == 2
        assert "must be a" in err

    @pytest.mark.parametrize("vocab", [[], {"logic": "v1", "sortals": "Kind"}],
                             ids=["list", "sortals-string"])
    def test_vocabulary_exits_two(self, capsys, tmp_path, vocab):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(vocab))
        code, _, err = run(capsys, "monodic", "--formula", str(FIXTURES / "formula_c.txt"),
                           "--vocab", str(path))
        assert code == 2
        assert "must be a" in err

    @pytest.mark.parametrize("argv", [
        ("monodic", "--vocab"),
        ("check", "--flavor", "fosl", "--model"),
        ("check", "--flavor", "v1", "--model"),
    ], ids=["vocabulary", "fosl-model", "v1-model"])
    def test_malformed_json_names_its_file(self, capsys, tmp_path, argv):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, *argv[:-1], "--formula", str(FIXTURES / "formula_c.txt"),
                           argv[-1], str(path))
        assert code == 2
        assert f"invalid JSON in {path}" in err



class TestUnknownKeys:
    """A key that the file format does not list is invalid input (exit 2),
    named with its path, never silently ignored."""

    def test_misspelled_model_key_exits_two(self, capsys, tmp_path):
        # with "predicates" misspelled, p1 would load with P empty and c
        # would fail there (exit 1), although the file puts c's image in P
        data = json.loads((FIXTURES / "m0.json").read_text())
        data["interpretation"]["p1"]["predicate"] = data["interpretation"]["p1"].pop("predicates")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        f = tmp_path / "f.txt"
        f.write_text("P(c)\n")
        code, out, err = run(capsys, "check", "--formula", str(f), "--model", str(model),
                             "--flavor", "fosl")
        assert code == 2
        assert out == ""
        assert "model.interpretation.p1.predicate" in err

    @pytest.mark.parametrize("fixture, key, renamed", [
        ("desert_v1_vocab.json", "sortals", "sortal"),
        ("desert_fosl_vocab.json", "constants", "names"),
    ], ids=["misspelled", "other-logic"])
    def test_unknown_vocabulary_key_exits_two(self, capsys, tmp_path, fixture, key, renamed):
        data = json.loads((FIXTURES / fixture).read_text())
        data[renamed] = data.pop(key)
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "monodic", "--formula", str(FIXTURES / "formula_c.txt"),
                           "--vocab", str(path))
        assert code == 2
        assert f"vocabulary.{renamed}" in err

class TestReadme:
    def test_synopsis_matches_parser(self):
        # each command line of the README's "Command line" block lists
        # exactly the options build_parser gives that subcommand
        text = (Path(__file__).parent.parent / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        listed = {}
        for line in block.replace("\\\n", " ").splitlines():
            listed[line.split()[1]] = set(re.findall(r"--[a-z-]+", line))
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        actual = {
            name: {option for action in sub._actions for option in action.option_strings
                   if option.startswith("--") and option != "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert listed == actual
