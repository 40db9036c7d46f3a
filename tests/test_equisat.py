import json

import pytest

from splogic import (
    Bounds,
    Box,
    EvaluationError,
    ExhaustedUnsat,
    equisat_check,
    fosl_structure_to_dict,
    generate_formula,
    lift_model,
    make_v1_structure,
    make_v1_vocabulary,
    parse_formula,
    v1_structure_from_dict,
)
from splogic import finder

from naive_eval import naive_is_model_v1

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
        # the translation's name typing keeps both directions aligned on
        # the sentence that denies its own name a referent
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

    @pytest.mark.parametrize("seed", [27, 39, 94, 164])
    def test_corpus_sentences_needing_a_shared_map_agree_sat(self, seed):
        # at one entity these sentences need two individuals with one
        # extension map, which both directions find and verify
        vocab = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
        f = generate_formula(vocab, seed, 4)
        bounds = Bounds(max_entities=1, max_individuals=2, max_precisifications=2,
                        timeout=60)
        report = equisat_check(vocab, f, bounds)
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


class TestAgreementBranches:
    """Each way equisat_check combines its two directions, and the
    counterexample it reports for each kind of discrepancy."""

    @staticmethod
    def named_attribute():
        vocab = make_v1_vocabulary(["K"], {"A": 1}, {}, ["n"], [])
        return vocab, parse_formula("A(n)", vocab)

    @staticmethod
    def countermodel():
        # a V1 structure in which A(n) is false
        return make_v1_structure(["e0"], ["p0"], {}, {"i0": {"p0": "e0"}},
                                 {"p0": {"K": ["i0"]}}, {"p0": {"A": []}}, {},
                                 {"p0": {"n": "i0"}})

    def test_timeouts_are_inconclusive(self):
        vocab, f = self.named_attribute()
        report = equisat_check(vocab, f, Bounds(timeout=1e-9))
        assert report.agreement == "inconclusive"
        assert [d.outcome for d in report.directions] == ["timeout", "timeout"]
        assert all(d.model is None and d.verified is None for d in report.directions)
        assert report.counterexample is None
        assert list(report.to_dict()) == ["formula", "agreement", "directions"]

    def test_backward_model_beyond_the_v1_search_is_lowered(self, monkeypatch):
        # a backward model with no V1 model beside it (the V1 search is
        # stubbed to come back exhausted) is lowered, and the lowered
        # model of the sentence is the counterexample
        monkeypatch.setattr(finder, "find_v1_model",
                            lambda vocab, f, bounds: ExhaustedUnsat(bounds, 0.0))
        vocab = make_v1_vocabulary(["K"], {}, {}, ["a", "b"], [])
        f = parse_formula("!(a = b)", vocab)
        bounds = Bounds(max_entities=1, max_precisifications=1, max_individuals=2,
                        timeout=60)
        report = equisat_check(vocab, f, bounds)
        assert report.agreement == "discrepancy"
        v1, fosl = report.directions
        assert (v1.outcome, fosl.outcome, fosl.verified) == ("unsat", "sat", True)
        lowered = v1_structure_from_dict(report.counterexample)
        assert naive_is_model_v1(lowered, f)
        data = report.to_dict()
        assert list(data) == ["formula", "agreement", "directions", "counterexample"]
        assert [list(d) for d in data["directions"]] == [
            ["direction", "outcome", "elapsed_ms", "bounds"],
            ["direction", "outcome", "elapsed_ms", "bounds", "model", "verified"],
        ]
        assert list(data["directions"][1]["bounds"]) == [
            "max_domain", "max_precisifications", "max_entities", "max_individuals",
            "timeout", "symmetry_reduction",
        ]
        assert data["directions"][1]["bounds"]["max_domain"] == 3

    @pytest.mark.parametrize("failing", ["v1", "fosl"])
    def test_failed_check_reports_the_unverified_model(self, monkeypatch, failing):
        # both sides find a model, but one side's model does not map to a
        # model on the other: the lift, or the lowering, is replaced by
        # the countermodel
        vocab, f = self.named_attribute()
        countermodel = self.countermodel()
        if failing == "v1":
            monkeypatch.setattr(finder, "lift_model", lambda mv: lift_model(countermodel))
        else:
            monkeypatch.setattr(finder, "_lower", lambda mf, vocab: countermodel)
        report = equisat_check(vocab, f, BOUNDS)
        assert report.agreement == "discrepancy"
        assert [d.outcome for d in report.directions] == ["sat", "sat"]
        assert [d.verified for d in report.directions] == [failing != "v1", failing != "fosl"]
        outcomes = {d.direction: d for d in report.directions}
        assert report.counterexample == outcomes[failing].model

    @pytest.mark.parametrize("verified", [True, False], ids=["verified", "unverified"])
    def test_v1_model_without_a_backward_model_reports_its_lift(self, monkeypatch, verified):
        # a verified lift fits the backward bounds, so it is the model the
        # backward search missed; a lift that fails the translation is no
        # such model, so the V1 model itself is the counterexample
        vocab, f = self.named_attribute()
        monkeypatch.setattr(finder, "_search_fosl",
                            lambda vocab, f, bounds, caps=None: ExhaustedUnsat(bounds, 0.0))
        if not verified:
            countermodel = self.countermodel()
            monkeypatch.setattr(finder, "lift_model", lambda mv: lift_model(countermodel))
        report = equisat_check(vocab, f, BOUNDS)
        assert report.agreement == "discrepancy"
        v1, fosl = report.directions
        assert (v1.outcome, v1.verified, fosl.outcome) == ("sat", verified, "unsat")
        if verified:
            lifted = lift_model(v1_structure_from_dict(v1.model))
            assert report.counterexample == fosl_structure_to_dict(lifted)
        else:
            assert report.counterexample == v1.model

    def test_unverified_backward_model_without_a_v1_model_is_reported(self, monkeypatch):
        vocab, f = self.named_attribute()
        countermodel = self.countermodel()
        monkeypatch.setattr(finder, "find_v1_model",
                            lambda vocab, f, bounds: ExhaustedUnsat(bounds, 0.0))
        monkeypatch.setattr(finder, "_lower", lambda mf, vocab: countermodel)
        report = equisat_check(vocab, f, BOUNDS)
        assert report.agreement == "discrepancy"
        v1, fosl = report.directions
        assert (v1.outcome, fosl.outcome, fosl.verified) == ("unsat", "sat", False)
        assert report.counterexample == fosl.model
