import json

import pytest

from splogic import (
    Bounds,
    Box,
    EvaluationError,
    equisat_check,
    generate_formula,
    make_v1_vocabulary,
    parse_formula,
)

BOUNDS = Bounds(max_entities=2, max_individuals=2, max_precisifications=2,
                timeout=60)


class TestEquisatHarness:
    def test_formula_c_agrees_sat(self, desert_v1_vocab, formula_c_v1):
        bounds = Bounds(max_entities=3, max_individuals=2,
                        max_precisifications=2, timeout=120)
        report = equisat_check(desert_v1_vocab, formula_c_v1, bounds)
        assert report.agreement == "sat"
        outcomes = {d.direction: d for d in report.directions}
        assert outcomes["v1"].outcome == "sat" and outcomes["v1"].verified
        assert outcomes["fosl"].outcome == "sat" and outcomes["fosl"].verified

    def test_contradiction_agrees_unsat(self):
        vocab = make_v1_vocabulary(["Desert"], {}, {}, [], [])
        f = parse_formula("exists ?x (Desert(?x) & !Desert(?x))", vocab)
        report = equisat_check(vocab, f, BOUNDS)
        assert report.agreement == "unsat"
        assert [d.outcome for d in report.directions] == ["unsat", "unsat"]

    def test_name_typing_boundary_case(self):
        # the plain axiom set leaves proper names untyped; the harness's
        # name-typed backward search keeps both directions aligned on the
        # sentence that denies its own name a referent
        vocab = make_v1_vocabulary(["Desert"], {}, {}, ["n"], [])
        f = parse_formula("!exists ?x ?x = n", vocab)
        report = equisat_check(vocab, f, BOUNDS)
        assert report.agreement == "unsat"

    def test_wildcard_arities_pinned_by_use(self):
        # the bridge axioms for A and Q take the arity the sentence uses
        vocab = make_v1_vocabulary(["K"], {"A": None}, {"Q": None}, ["a", "b"], [])
        f = parse_formula("A(a, b) & Q(a, b) & !(a = b)", vocab)
        report = equisat_check(vocab, f, BOUNDS)
        assert report.agreement == "sat"
        assert all(d.outcome == "sat" and d.verified for d in report.directions)

    def test_lowering_skips_the_axiom_checks(self, monkeypatch):
        # the backward model was revalidated against the full translation,
        # whose boxed conjuncts are the bridge axioms: lowering it checks
        # none of them again, and each direction makes one is_model call
        from splogic import finder, translate

        calls = {"finder": 0, "translate": 0}

        def counting(module):
            evaluate = module.is_model

            def counted(m, f):
                calls[module.__name__.rsplit(".", 1)[1]] += 1
                return evaluate(m, f)

            monkeypatch.setattr(module, "is_model", counted)

        counting(finder)
        counting(translate)
        vocab = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
        f = parse_formula("Attr(n) & [s] Shape(n) & exists ?x !Attr(?x)", vocab)
        report = equisat_check(vocab, f, BOUNDS)
        assert report.agreement == "sat"
        assert all(d.verified for d in report.directions)
        assert calls == {"finder": 2, "translate": 0}

    def test_deep_nesting_is_an_evaluation_error(self, desert_v1_vocab):
        f = parse_formula("Desert(house)", desert_v1_vocab)
        for _ in range(1500):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            equisat_check(desert_v1_vocab, f, BOUNDS)

    def test_report_serializes(self, desert_v1_vocab, formula_c_v1):
        bounds = Bounds(max_entities=3, max_individuals=2,
                        max_precisifications=2, timeout=120)
        report = equisat_check(desert_v1_vocab, formula_c_v1, bounds)
        data = report.to_dict()
        text = json.dumps(data, sort_keys=True)
        parsed = json.loads(text)
        assert parsed["agreement"] == "sat"
        for entry in parsed["directions"]:
            assert {"direction", "outcome", "elapsed_ms", "bounds"} <= set(entry)

    def test_two_hundred_random_sentences_zero_discrepancies(self):
        vocab = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
        tallies = {}
        for seed in range(200):
            f = generate_formula(vocab, seed, 4)
            report = equisat_check(vocab, f, BOUNDS)
            tallies[report.agreement] = tallies.get(report.agreement, 0) + 1
        assert tallies.get("discrepancy", 0) == 0
        assert tallies.get("inconclusive", 0) == 0
        assert tallies.get("sat", 0) + tallies.get("unsat", 0) == 200
