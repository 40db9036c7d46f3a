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

    def test_report_translates_once(self, capsys, tmp_path, monkeypatch):
        # the report is read off the translation the command prints
        import splogic.translate

        calls = []
        translate = splogic.translate.full_translation

        def counted(*args, **kwargs):
            calls.append(args)
            return translate(*args, **kwargs)

        monkeypatch.setattr(splogic.translate, "full_translation", counted)
        monkeypatch.setattr("splogic.cli.full_translation", counted)
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "translate",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--out", str(tmp_path / "out.txt"),
            "--report", str(report_path),
        )
        assert code == 0
        assert len(calls) == 1
        assert json.loads(report_path.read_text()) == {
            "axiom_count": 10, "full_monodic": False, "full_size": 181,
            "source_monodic": True, "source_size": 16, "translated_monodic": True,
            "translated_size": 40,
        }

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

    def test_six_hundred_names_translate_and_reparse(self, capsys, tmp_path):
        # the name typing is one flat conjunction with a member per name
        from splogic import parse_formula, translated_vocabulary
        from splogic.cli import load_vocabulary

        vocab_path, formula_path = tmp_path / "v.json", tmp_path / "f.txt"
        vocab_path.write_text(json.dumps({
            "logic": "v1", "sortals": ["Kind"], "indefinite": {}, "precise": {},
            "names": [f"n{k}" for k in range(600)], "standpoints": [],
        }))
        formula_path.write_text("Kind(n0)\n")
        code, out, _ = run(capsys, "translate", "--formula", str(formula_path),
                           "--vocab", str(vocab_path))
        assert code == 0
        vocab = load_vocabulary(str(vocab_path))
        parse_formula(out, translated_vocabulary(vocab))
        assert all(f"ink(n{k})" in out for k in range(600))

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


    def test_timeout_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "equisat",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--timeout", "1e-9",
        )
        assert code == 3
        assert json.loads(out)["agreement"] == "inconclusive"

    def test_discrepancy_exits_one(self, capsys, tmp_path, monkeypatch):
        # the V1 search is stubbed to come back exhausted while the
        # backward search finds a model
        from splogic import ExhaustedUnsat, finder

        monkeypatch.setattr(finder, "find_v1_model",
                            lambda vocab, f, bounds: ExhaustedUnsat(bounds, 0.0))
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"logic": "v1", "sortals": ["K"], "names": ["a", "b"]}))
        formula = tmp_path / "f.txt"
        formula.write_text("!(a = b)")
        code, out, _ = run(capsys, "equisat", "--formula", str(formula), "--vocab", str(vocab),
                           "--bounds", "2,1,1,2")
        assert code == 1
        assert json.loads(out)["agreement"] == "discrepancy"

    def test_three_bounds_exit_two(self, capsys):
        code, out, err = run(
            capsys, "equisat",
            "--formula", str(FIXTURES / "formula_c.txt"),
            "--vocab", str(FIXTURES / "desert_v1_vocab.json"),
            "--bounds", "1,2,3",
        )
        assert code == 2
        assert out == ""
        assert "--bounds expects" in err


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



class TestLoadErrorsNameTheFile:
    """Every error in a model or vocabulary file, from its JSON types to
    what the loader checks after them, puts the file's path in front of
    its message and keeps its type."""

    @staticmethod
    def v1_model_with_building_indefinite():
        data = json.loads((FIXTURES / "v0.json").read_text())
        for pi in ("p1", "p2"):
            data["indefinite"][pi]["Building"] = [["i_h"]]
        return data

    @staticmethod
    def fosl_model_off_its_domain():
        data = json.loads((FIXTURES / "m0.json").read_text())
        data["interpretation"]["p1"]["constants"]["c"] = "d9"
        return data

    @pytest.mark.parametrize("argv, data, message", [
        (("check", "--flavor", "v1", "--model"), v1_model_with_building_indefinite(),
         "predicate 'Building' is in both the sortal and the indefinite tables"),
        (("check", "--flavor", "fosl", "--model"), fosl_model_off_its_domain(),
         "constant 'c' at 'p1' denotes non-domain element 'd9'"),
        (("monodic", "--vocab"),
         {"logic": "v1", "sortals": ["Building"], "indefinite": {"Building": 1}},
         "sortal, indefinite and precise predicate sets must be disjoint"),
        (("monodic", "--vocab"), {"logic": "v1", "sortals": ["Building"], "names": 3},
         "vocabulary.names must be a list, not int"),
        (("monodic", "--vocab"), {"logic": "fol"},
         "vocabulary file must declare"),
        # JSON true is a Python bool, which Python counts an int
        (("solve", "--flavor", "fosl", "--vocab"), {"logic": "fosl", "predicates": {"P": True}},
         "predicate 'P' has invalid arity True"),
    ], ids=["v1-model-tables", "fosl-model-domain", "vocabulary-overlap",
            "vocabulary-names-type", "vocabulary-logic", "vocabulary-boolean-arity"])
    def test_cli_error_names_the_file(self, capsys, tmp_path, argv, data, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv[:-1], "--formula",
                             str(FIXTURES / "formula_c.txt"), argv[-1], str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: {message}")

    # a file with a 0xff byte, which no UTF-8 text holds, in place of
    # each input file in turn
    @pytest.mark.parametrize("argv, message", [
        (("translate", "--formula", str(FIXTURES / "formula_c.txt"), "--vocab"),
         "invalid JSON in "),
        (("check", "--flavor", "v1", "--formula", str(FIXTURES / "formula_c.txt"),
          "--model"), "invalid JSON in "),
        (("translate", "--vocab", str(FIXTURES / "desert_v1_vocab.json"), "--formula"), ""),
    ], ids=["vocabulary", "model", "formula"])
    def test_non_utf8_file_is_named(self, capsys, tmp_path, argv, message):
        path = tmp_path / "input"
        path.write_bytes(b'{"logic": "v1", "sortals": ["K\xff"]}')
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}{path}: 'utf-8' codec can't decode byte 0xff")

    def test_loaders_keep_the_error_type(self, tmp_path):
        from splogic import ModelFormatError, VocabularyError, load_v1_model
        from splogic.cli import load_vocabulary

        model = tmp_path / "model.json"
        model.write_text(json.dumps(self.v1_model_with_building_indefinite()))
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(model))}: predicate"):
            load_v1_model(str(model))
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"logic": "v1", "sortals": ["K"], "names": 3}))
        with pytest.raises(VocabularyError, match=f"^{re.escape(str(vocab))}: vocabulary"):
            load_vocabulary(str(vocab))


class TestOverDeepJson:
    """A JSON file nested deeper than the parser reaches is invalid JSON
    named with its file, not a formula nested too deeply."""

    @staticmethod
    def deep_file(tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        return path

    def test_loaders(self, tmp_path):
        from splogic import ModelFormatError, VocabularyError, load_fosl_model, load_v1_model
        from splogic.cli import load_vocabulary

        path = self.deep_file(tmp_path)
        message = f"^invalid JSON in {re.escape(str(path))}: nested too deeply$"
        for load in (load_fosl_model, load_v1_model):
            with pytest.raises(ModelFormatError, match=message):
                load(str(path))
        with pytest.raises(VocabularyError, match=message):
            load_vocabulary(str(path))

    def test_reader_nested_too_deeply(self, tmp_path):
        # a reader that reaches the recursion limit on a valid file
        from splogic import ModelFormatError
        from splogic.errors import load_json

        path = tmp_path / "model.json"
        path.write_text("[]")

        def read(value):
            return read([value])

        with pytest.raises(ModelFormatError, match="nested too deeply"):
            load_json(str(path), ModelFormatError, read)

    @pytest.mark.parametrize("argv", [
        ("monodic", "--vocab"),
        ("check", "--flavor", "fosl", "--model"),
    ], ids=["vocabulary", "fosl-model"])
    def test_cli_exits_two(self, capsys, tmp_path, argv):
        path = self.deep_file(tmp_path)
        code, out, err = run(capsys, *argv[:-1], "--formula", str(FIXTURES / "formula_c.txt"),
                             argv[-1], str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: invalid JSON in {path}: nested too deeply\n"


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
