"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

import pytest

from splogic import (
    Bounds,
    Box,
    Const,
    ExhaustedUnsat,
    ModelFound,
    Not,
    Var,
    diamond,
    eval_term,
    eval_term_v1,
    find_fosl_model,
    formula_size,
    fosl_structure_to_dict,
    full_translation,
    generate_formula,
    generate_fosl_structure,
    generate_v1_structure,
    implies,
    individuals_at,
    is_model,
    is_model_v1,
    is_monodic,
    labeled_axioms,
    lift_model,
    lower_model,
    make_fosl_vocabulary,
    make_v1_vocabulary,
    parse_formula,
    satisfies,
    satisfies_at,
    satisfies_v1,
    translate_formula,
)

from naive_eval import (
    naive_is_model,
    naive_satisfies,
    naive_satisfies_v1,
)
from naive_enum import naive_fosl_sat


def report(number: int, label: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s)")


def test_criterion_1_fixture_semantics(m0, v0, formula_c_v1, desert_v1_vocab, m0_vocab):
    start = time.monotonic()

    def pf(text):
        return parse_formula(text, m0_vocab)

    # hand fixture for the standpoint semantics
    assert eval_term(m0, "p1", {}, Const("c")) == "d1"
    assert eval_term(m0, "p2", {}, Const("c")) == "d2"
    assert eval_term(m0, "p1", {"x": "d2"}, Var("x")) == "d2"
    assert satisfies(m0, "p1", {}, pf("[s] P(c)")) is True
    assert satisfies(m0, "p1", {}, pf("[*] P(c)")) is False
    assert satisfies(m0, "p1", {}, pf("P(c) & !P(c)")) is False
    assert satisfies_at(m0, "p1", pf("P(?x)")) is False
    assert satisfies_at(m0, "p1", pf("P(c)")) is True
    assert satisfies_at(m0, "p2", pf("?x = ?x")) is True
    assert is_model(m0, pf("[*] P(c) -> P(c)")) is True
    assert is_model(m0, pf("P(c)")) is False
    assert is_model(m0, pf("<*> P(c)")) is True

    # hand fixture for the variable reference semantics
    def vf(text):
        return parse_formula(text, desert_v1_vocab)

    assert individuals_at(v0, "p1") == {"i_h", "i_d"}
    assert eval_term_v1(v0, "p1", {}, Const("house")) == "i_h"
    assert eval_term_v1(v0, "p2", {}, Const("a")) == "i_d"
    assert eval_term_v1(v0, "p1", {"x": "i_d"}, Var("x")) == "i_d"
    assert satisfies_v1(v0, "p1", {}, vf("PartOf(house, a)")) is True
    assert satisfies_v1(v0, "p2", {}, vf("PartOf(house, a)")) is False
    assert satisfies_v1(v0, "p1", {}, vf("forall ?x (Building(?x) | Desert(?x))")) is True
    assert satisfies_v1(v0, "p1", {}, formula_c_v1) is True
    assert is_model_v1(v0, formula_c_v1) is True

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "hand fixtures reproduce every derived example", elapsed)


def test_criterion_2_bounded_search_on_paper_formulas(
    desert_fosl_vocab, formula_a, formula_b, formula_c_rigid
):
    start = time.monotonic()
    bounds = Bounds(max_domain=3, max_precisifications=2, timeout=60)

    for f in (formula_a, formula_b):
        outcome = find_fosl_model(desert_fosl_vocab, f, bounds)
        assert isinstance(outcome, ModelFound)
        assert len(outcome.structure.domain) <= 3
        assert len(outcome.structure.precisifications) <= 2
        assert is_model(outcome.structure, f)
        assert naive_is_model(outcome.structure, f)

    outcome = find_fosl_model(desert_fosl_vocab, formula_c_rigid, bounds)
    assert isinstance(outcome, ExhaustedUnsat)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, "formulas (a)/(b) satisfiable, rigid reading exhausted", elapsed)


def test_criterion_3_translation_correspondence(desert_v1_vocab):
    start = time.monotonic()
    bounds = Bounds(max_entities=2, max_individuals=2, max_precisifications=2,
                    timeout=60)
    discrepancies = 0
    for seed in range(200):
        mv = generate_v1_structure(desert_v1_vocab, seed, bounds)
        f = generate_formula(desert_v1_vocab, 20000 + seed, 4)
        lifted = lift_model(mv)
        if is_model_v1(mv, f) != is_model(lifted, full_translation(f, desert_v1_vocab)):
            discrepancies += 1
    assert discrepancies == 0

    # the lowering of a lifted structure preserves every atom truth value
    atom_texts = ["Desert(?x)", "Building(?x)", "AridArea(?x)",
                  "PartOf(?x, ?y)", "?x = ?y"]
    for seed in range(40):
        mv = generate_v1_structure(desert_v1_vocab, seed, bounds)
        again = lower_model(lift_model(mv), desert_v1_vocab)
        idents = sorted(mv.registry)
        for text in atom_texts:
            f = parse_formula(text, desert_v1_vocab)
            for pi in mv.precisifications:
                for x, y in itertools.product(idents, repeat=2):
                    env = {"x": x, "y": y}
                    assert satisfies_v1(mv, pi, env, f) == satisfies_v1(
                        again, pi, env, f
                    )

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(3, "correspondence on 200 sentences/structures, atom-exact round-trip",
           elapsed)


def test_criterion_4_linearity(desert_v1_vocab):
    start = time.monotonic()
    max_precise_arity = max(desert_v1_vocab.precise.values())
    limit = 3 * max_precise_arity + 2
    for seed in range(500):
        f = generate_formula(desert_v1_vocab, seed, 4)
        assert formula_size(translate_formula(f, desert_v1_vocab)) <= (
            limit * formula_size(f)
        )

    overheads = set()
    for seed in range(50):
        f = generate_formula(desert_v1_vocab, seed, 4)
        overheads.add(
            formula_size(full_translation(f, desert_v1_vocab))
            - formula_size(translate_formula(f, desert_v1_vocab))
        )
    assert len(overheads) == 1

    elapsed = time.monotonic() - start
    report(4, f"size growth within factor {limit}, constant axiom overhead", elapsed)


def test_criterion_5_monodicity_preservation():
    start = time.monotonic()
    vocab = make_v1_vocabulary(
        ["Kind", "Sort"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"]
    )
    violations = 0
    for seed in range(500):
        f = generate_formula(vocab, seed, 4)
        if is_monodic(f) and not is_monodic(full_translation(f, vocab)):
            violations += 1
    assert violations == 0
    for label, ax in labeled_axioms(vocab, strict_names=True):
        assert is_monodic(ax), label

    elapsed = time.monotonic() - start
    report(5, "monodicity preserved on 500 sentences, every axiom monodic", elapsed)


def test_criterion_6_validities_and_reference_agreement():
    start = time.monotonic()
    fosl_vocab = make_fosl_vocabulary({"P": 1, "R": 2}, ["c"], ["s"])
    v1_vocab = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
    bounds = Bounds(max_domain=3, max_entities=3, max_individuals=3,
                    max_precisifications=3, timeout=60)
    rng = random.Random(17)

    triples = 0
    for seed in range(350):
        m = generate_fosl_structure(fosl_vocab, seed, bounds)
        f = generate_formula(fosl_vocab, 30000 + seed, 3)
        pi = rng.choice(m.precisifications)
        assert satisfies(m, pi, {}, implies(Box("*", f), f)) is True
        assert satisfies(m, pi, {}, implies(f, diamond("*", f))) is True
        for sp in ("*", "s"):
            assert satisfies(m, pi, {}, diamond(sp, f)) == (
                not satisfies(m, pi, {}, Box(sp, Not(f)))
            )
        triples += 1
    assert triples >= 333  # three validity checks per random triple

    agreements = 0
    for seed in range(150):
        m = generate_fosl_structure(fosl_vocab, seed, bounds)
        f = generate_formula(fosl_vocab, 40000 + seed, 3, free_vars=("x",))
        for pi in m.precisifications:
            for _ in range(2):
                v = {"x": rng.choice(m.domain)}
                assert satisfies(m, pi, v, f) == naive_satisfies(m, pi, v, f)
                agreements += 1
    for seed in range(150):
        m = generate_v1_structure(v1_vocab, seed, bounds)
        f = generate_formula(v1_vocab, 50000 + seed, 3, free_vars=("x",))
        idents = sorted(m.registry)
        for pi in m.precisifications:
            for _ in range(2):
                v = {"x": rng.choice(idents)}
                assert satisfies_v1(m, pi, v, f) == naive_satisfies_v1(m, pi, v, f)
                agreements += 1
    assert agreements >= 1000

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, f"validities on {triples * 3} checks, {agreements} reference agreements",
           elapsed)


def test_criterion_7_finder_integrity(desert_fosl_vocab):
    start = time.monotonic()
    bounds = Bounds(max_domain=3, max_precisifications=2, timeout=60)

    # soundness: every found model revalidates through the reference route
    found = 0
    for seed in range(30):
        f = generate_formula(desert_fosl_vocab, seed, 3)
        outcome = find_fosl_model(desert_fosl_vocab, f, bounds)
        if isinstance(outcome, ModelFound):
            assert naive_is_model(outcome.structure, f)
            found += 1
    assert found >= 10

    # micro-scale completeness against the unpruned enumerator
    micro_vocab = make_fosl_vocabulary({"P": 1, "Q": 1}, ["c"], ["s"])
    micro_bounds = Bounds(max_domain=2, max_precisifications=2, timeout=60)
    for seed in range(40):
        f = generate_formula(micro_vocab, seed, 3)
        assert isinstance(
            find_fosl_model(micro_vocab, f, micro_bounds), ModelFound
        ) == naive_fosl_sat(micro_vocab, f, 2, 2)

    # determinism across repeated runs
    for seed in range(8):
        f = generate_formula(desert_fosl_vocab, seed, 3)
        outcomes = []
        for _ in range(2):
            r = find_fosl_model(desert_fosl_vocab, f, bounds)
            outcomes.append(
                fosl_structure_to_dict(r.structure)
                if isinstance(r, ModelFound)
                else type(r).__name__
            )
        assert outcomes[0] == outcomes[1]

    # satisfiability is monotone in the bounds
    small = Bounds(max_domain=1, max_precisifications=1, timeout=60)
    for seed in range(20):
        f = generate_formula(desert_fosl_vocab, seed, 3)
        if isinstance(find_fosl_model(desert_fosl_vocab, f, small), ModelFound):
            assert isinstance(find_fosl_model(desert_fosl_vocab, f, bounds), ModelFound)

    elapsed = time.monotonic() - start
    report(7, "soundness, micro completeness, determinism, monotonicity", elapsed)
