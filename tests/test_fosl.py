import itertools
import json

import pytest

from splogic import (
    And,
    Atom,
    Bounds,
    Box,
    Const,
    EvaluationError,
    ModelFormatError,
    Not,
    Var,
    diamond,
    eval_term,
    fosl_structure_from_dict,
    fosl_structure_to_dict,
    free_variables,
    full_translation,
    generate_formula,
    generate_fosl_structure,
    generate_v1_structure,
    implies,
    is_model,
    labeled_axioms,
    lift_model,
    make_fosl_structure,
    make_fosl_vocabulary,
    make_v1_vocabulary,
    parse_formula,
    satisfies,
    satisfies_at,
    translated_vocabulary,
    vocabulary_of_fosl_model,
)

from naive_eval import naive_is_model, naive_satisfies

VOCAB = make_fosl_vocabulary({"P": 1}, ["c"], ["s"])


def pf(text):
    return parse_formula(text, VOCAB)


class TestEvalTerm:
    def test_constant_at_first_precisification(self, m0):
        assert eval_term(m0, "p1", {}, Const("c")) == "d1"

    def test_constant_is_non_rigid(self, m0):
        assert eval_term(m0, "p2", {}, Const("c")) == "d2"

    def test_variable_lookup(self, m0):
        assert eval_term(m0, "p1", {"x": "d2"}, Var("x")) == "d2"

    def test_unbound_variable(self, m0):
        with pytest.raises(EvaluationError):
            eval_term(m0, "p1", {}, Var("x"))

    def test_unknown_constant(self, m0):
        with pytest.raises(EvaluationError):
            eval_term(m0, "p1", {}, Const("zzz"))

    def test_unknown_precisification(self, m0):
        with pytest.raises(EvaluationError):
            eval_term(m0, "p9", {}, Const("c"))


class TestSatisfies:
    def test_box_restricted_standpoint(self, m0):
        assert satisfies(m0, "p1", {}, pf("[s] P(c)")) is True

    def test_box_universal_fails_at_second_point(self, m0):
        assert satisfies(m0, "p1", {}, pf("[*] P(c)")) is False

    def test_contradiction_is_false(self, m0):
        assert satisfies(m0, "p1", {}, pf("P(c) & !P(c)")) is False
        assert satisfies(m0, "p2", {}, pf("P(c) & !P(c)")) is False

    def test_naive_agrees_on_m0_examples(self, m0):
        for text, pi in [("[s] P(c)", "p1"), ("[*] P(c)", "p1"), ("P(?x)", "p1")]:
            f = pf(text)
            for x in m0.domain:
                env = {"x": x}
                assert satisfies(m0, pi, env, f) == naive_satisfies(m0, pi, env, f)


class TestSatisfiesAt:
    def test_open_formula_fails_on_witness(self, m0):
        assert satisfies_at(m0, "p1", pf("P(?x)")) is False

    def test_sentence_case_reduces_to_satisfies(self, m0):
        assert satisfies_at(m0, "p1", pf("P(c)")) is True

    def test_reflexivity(self, m0):
        assert satisfies_at(m0, "p2", pf("?x = ?x")) is True


class TestIsModel:
    def test_universal_box_implies_local(self, m0):
        assert is_model(m0, pf("[*] P(c) -> P(c)")) is True

    def test_plain_atom_fails_at_second_point(self, m0):
        assert is_model(m0, pf("P(c)")) is False

    def test_diamond_finds_witness(self, m0):
        assert is_model(m0, pf("<*> P(c)")) is True

    @pytest.mark.parametrize("entry", [
        pytest.param(lambda m, f: is_model(m, f), id="is_model"),
        pytest.param(lambda m, f: satisfies_at(m, "p1", f), id="satisfies_at"),
        pytest.param(lambda m, f: satisfies(m, "p1", {}, f), id="satisfies"),
    ])
    def test_deep_nesting_is_an_evaluation_error(self, m0, entry):
        f = pf("P(c)")
        for _ in range(1500):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            entry(m0, f)


class TestInvariants:
    BOUNDS = Bounds(max_domain=3, max_precisifications=3, timeout=60)

    def structures(self, vocab, n):
        return [generate_fosl_structure(vocab, seed, self.BOUNDS) for seed in range(n)]

    def test_sentences_do_not_depend_on_assignment(self):
        import random

        rng = random.Random(7)
        for seed in range(40):
            m = generate_fosl_structure(VOCAB, seed, self.BOUNDS)
            f = generate_formula(VOCAB, seed + 1000, 3)
            base = satisfies(m, m.precisifications[0], {}, f)
            for _ in range(5):
                v = {"x": rng.choice(m.domain), "y": rng.choice(m.domain)}
                assert satisfies(m, m.precisifications[0], v, f) == base

    def test_duality_of_box_and_diamond(self):
        for seed in range(60):
            m = generate_fosl_structure(VOCAB, seed, self.BOUNDS)
            body = generate_formula(VOCAB, seed + 2000, 2)
            for sp in ("*", "s"):
                dia = diamond(sp, body)
                box_neg = Box(sp, Not(body))
                for pi in m.precisifications:
                    assert satisfies(m, pi, {}, dia) == (
                        not satisfies(m, pi, {}, box_neg)
                    )

    def test_universal_box_validities(self):
        for seed in range(60):
            m = generate_fosl_structure(VOCAB, seed, self.BOUNDS)
            f = generate_formula(VOCAB, seed + 3000, 3)
            necessity = implies(Box("*", f), f)
            possibility = implies(f, diamond("*", f))
            for pi in m.precisifications:
                assert satisfies(m, pi, {}, necessity) is True
                assert satisfies(m, pi, {}, possibility) is True

    def test_box_is_independent_of_evaluation_point(self):
        for seed in range(40):
            m = generate_fosl_structure(VOCAB, seed, self.BOUNDS)
            f = Box("s", generate_formula(VOCAB, seed + 4000, 2))
            values = {satisfies(m, pi, {}, f) for pi in m.precisifications}
            assert len(values) == 1

    def test_agreement_with_reference_evaluator(self):
        import random

        rng = random.Random(99)
        checked = 0
        for seed in range(300):
            m = generate_fosl_structure(VOCAB, seed, self.BOUNDS)
            f = generate_formula(VOCAB, seed + 5000, 3, free_vars=("x",))
            for pi in m.precisifications:
                for _ in range(2):
                    v = {"x": rng.choice(m.domain)}
                    assert satisfies(m, pi, v, f) == naive_satisfies(m, pi, v, f)
                    checked += 1
        assert checked >= 1000


class TestStructureValidation:
    def test_sigma_star_forced_to_full_set(self, m0):
        assert m0.sigma["*"] == frozenset({"p1", "p2"})

    def test_sigma_star_mismatch_rejected(self):
        with pytest.raises(ModelFormatError):
            make_fosl_structure(
                ["d1"], ["p1", "p2"], {"*": ["p1"]},
                {"p1": {"predicates": {}, "constants": {}},
                 "p2": {"predicates": {}, "constants": {}}},
            )

    def test_empty_standpoint_is_permitted(self):
        m = make_fosl_structure(
            ["d1"], ["p1"], {"s": []},
            {"p1": {"predicates": {"P": [["d1"]]}, "constants": {}}},
        )
        # a box over an empty standpoint is vacuously true
        v = make_fosl_vocabulary({"P": 1}, [], ["s"])
        assert satisfies(m, "p1", {}, parse_formula("[s] !P(?x) & [s] P(?x)", v).left)

    def test_empty_domain_rejected(self):
        with pytest.raises(ModelFormatError):
            make_fosl_structure([], ["p1"], {}, {"p1": {}})

    def test_tuple_outside_domain_rejected(self):
        with pytest.raises(ModelFormatError):
            make_fosl_structure(
                ["d1"], ["p1"], {},
                {"p1": {"predicates": {"P": [["d9"]]}, "constants": {}}},
            )

    def test_constant_outside_domain_rejected(self):
        with pytest.raises(ModelFormatError):
            make_fosl_structure(
                ["d1"], ["p1"], {},
                {"p1": {"predicates": {}, "constants": {"c": "d9"}}},
            )

    def test_partial_constant_table_rejected(self):
        with pytest.raises(ModelFormatError):
            make_fosl_structure(
                ["d1"], ["p1", "p2"], {},
                {"p1": {"predicates": {}, "constants": {"c": "d1"}},
                 "p2": {"predicates": {}, "constants": {}}},
            )

    def test_mixed_arity_rejected(self):
        with pytest.raises(ModelFormatError):
            make_fosl_structure(
                ["d1"], ["p1"], {},
                {"p1": {"predicates": {"P": [["d1"], ["d1", "d1"]]}, "constants": {}}},
            )

    def test_unknown_interpretation_key_rejected(self):
        # a misspelled "predicates" would otherwise leave p1 empty
        with pytest.raises(ModelFormatError, match="predicate"):
            make_fosl_structure(["d1"], ["p1"], {},
                                {"p1": {"predicate": {"P": [["d1"]]}, "constants": {}}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ModelFormatError):
            fosl_structure_from_dict({"domain": ["d1"], "precisifications": ["p1"],
                                      "interpretation": {"p1": {}}, "bogus": 1})

    def test_roundtrip_through_json(self, m0):
        data = fosl_structure_to_dict(m0)
        again = fosl_structure_from_dict(json.loads(json.dumps(data)))
        assert again == m0

    def test_vocabulary_inference(self, m0):
        vocab = vocabulary_of_fosl_model(m0)
        assert vocab.arity("P") == 1
        assert vocab.has_constant("c")
        assert vocab.has_standpoint("s") and vocab.has_standpoint("*")

    def test_random_structures_revalidate(self):
        b = Bounds(max_domain=3, max_precisifications=3, timeout=60)
        for seed in range(30):
            m = generate_fosl_structure(VOCAB, seed, b)
            again = fosl_structure_from_dict(fosl_structure_to_dict(m))
            assert again == m

    def test_naive_is_model_agrees(self, m0):
        for text in ["[*] P(c) -> P(c)", "P(c)", "<*> P(c)", "[s] P(c)"]:
            f = pf(text)
            assert is_model(m0, f) == naive_is_model(m0, f)


class TestCompiledEvaluator:
    """The evaluator against tests/naive_eval.py on the cases it treats
    specially: boxed conjuncts, evaluated at the first precisification
    only; the bridge axioms, compiled once and reused; free variables;
    and the lazy errors, which must fire where the recursive definition
    meets them."""

    V1_VOCAB = make_v1_vocabulary(
        ["Kind", "Area"], {"Attr": 1, "Near": 2}, {"Shape": 1, "PartOf": 2}, ["n"], ["s"]
    )
    # lifted domains of up to 3 entities plus 3 individuals
    V1_BOUNDS = Bounds(max_entities=3, max_individuals=3, max_precisifications=2,
                       timeout=60)

    def test_full_translations_on_lifted_models(self):
        verdicts = set()
        for seed in range(200):
            mv = generate_v1_structure(self.V1_VOCAB, seed, self.V1_BOUNDS)
            f = generate_formula(self.V1_VOCAB, seed + 7000, 4)
            full = full_translation(f, self.V1_VOCAB)
            lifted = lift_model(mv)
            verdict = is_model(lifted, full)
            assert verdict == naive_is_model(lifted, full)
            for pi in lifted.precisifications:
                assert satisfies_at(lifted, pi, full) == naive_at(lifted, pi, full)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_bridge_axioms_on_random_structures(self):
        # structures over the translated vocabulary that need not satisfy
        # the axioms, so boxed and unboxed axioms both fail at some
        vocab = translated_vocabulary(self.V1_VOCAB)
        bounds = Bounds(max_domain=4, max_precisifications=2, timeout=60)
        axioms = [ax for _, ax in labeled_axioms(self.V1_VOCAB)]
        verdicts = set()
        for seed in range(100):
            m = generate_fosl_structure(vocab, seed, bounds)
            for ax in axioms:
                for g in (ax, Box("*", ax)):
                    verdict = is_model(m, g)
                    assert verdict == naive_is_model(m, g)
                    verdicts.add(verdict)
            f = generate_formula(self.V1_VOCAB, seed + 8000, 4)
            full = full_translation(f, self.V1_VOCAB)
            assert is_model(m, full) == naive_is_model(m, full)
        assert verdicts == {True, False}

    def test_open_formulas(self):
        import random

        rng = random.Random(5)
        bounds = Bounds(max_domain=3, max_precisifications=3, timeout=60)
        vocab = make_fosl_vocabulary({"P": 1, "R": 2}, ["c"], ["s"])
        for seed in range(300):
            m = generate_fosl_structure(vocab, seed, bounds)
            f = generate_formula(vocab, seed + 9000, 3, free_vars=("x", "y"))
            g = And(f, Box("s", generate_formula(vocab, seed + 9500, 2, free_vars=("x",))))
            for h in (f, g):
                assert is_model(m, h) == naive_is_model(m, h)
                for pi in m.precisifications:
                    assert satisfies_at(m, pi, h) == naive_at(m, pi, h)
                    v = {"x": rng.choice(m.domain), "y": rng.choice(m.domain)}
                    assert satisfies(m, pi, v, h) == naive_satisfies(m, pi, v, h)

    def test_false_conjunct_before_an_unknown_symbol(self, m0):
        # m0: P(c) holds at p1 only, so [*] P(c) is false everywhere
        unknown_constant = Atom("P", (Const("zzz"),))
        unknown_standpoint = Box("nope", pf("P(c)"))
        false = pf("[*] P(c)")
        for bad in (unknown_constant, unknown_standpoint):
            assert is_model(m0, And(false, bad)) is False
            assert satisfies_at(m0, "p1", And(false, bad)) is False
            assert satisfies(m0, "p1", {}, And(false, bad)) is False
            with pytest.raises(EvaluationError, match="unknown"):
                is_model(m0, And(bad, false))
            # P(c) is true at p1, false only at p2: the unknown symbol is
            # met at p1 first
            with pytest.raises(EvaluationError, match="unknown"):
                is_model(m0, And(pf("P(c)"), bad))

    def test_unbound_variable_is_met_lazily(self, m0):
        open_atom = pf("P(?x)")
        with pytest.raises(EvaluationError, match=r"unbound variable \?x"):
            satisfies(m0, "p1", {}, open_atom)
        assert satisfies(m0, "p1", {}, And(pf("[*] P(c)"), open_atom)) is False
        assert satisfies(m0, "p1", {"x": "d1"}, open_atom) is True



def naive_at(m, pi, f):
    """The reference evaluator's truth at pi under every assignment."""
    names = sorted(free_variables(f))
    return all(naive_satisfies(m, pi, dict(zip(names, values)), f)
               for values in itertools.product(m.domain, repeat=len(names)))
