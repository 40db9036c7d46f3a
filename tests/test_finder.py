import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from splogic import (
    Bounds,
    Box,
    EvaluationError,
    ExhaustedUnsat,
    ModelFound,
    SearchTimeout,
    conjoin,
    equisat_check,
    find_fosl_model,
    find_v1_model,
    fosl_structure_to_dict,
    full_translation,
    generate_formula,
    is_model,
    is_model_v1,
    labeled_axioms,
    lower_model,
    make_fosl_vocabulary,
    make_v1_structure,
    make_v1_vocabulary,
    parse_formula,
    print_formula,
    translated_vocabulary,
    v1_structure_to_dict,
)
from splogic import finder
from splogic.finder import _F, _U, _FoslSpace, _V1Space
from splogic.syntax import truth

from naive_eval import naive_is_model, naive_is_model_v1
from naive_enum import naive_fosl_sat, naive_v1_sat

DESERT_BOUNDS = Bounds(max_domain=3, max_precisifications=2, timeout=120)
CORPUS_BOUNDS = Bounds(max_entities=2, max_individuals=2, max_precisifications=2,
                       timeout=60)


def corpus_vocab():
    # the vocabulary of the equisat corpus in tests/test_equisat.py
    return make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])


class TestFoslSearch:
    def test_near_desert_formula_is_satisfiable(self, desert_fosl_vocab, formula_a):
        outcome = find_fosl_model(desert_fosl_vocab, formula_a, DESERT_BOUNDS)
        assert isinstance(outcome, ModelFound)
        m = outcome.structure
        assert len(m.domain) <= 3 and len(m.precisifications) <= 2
        assert is_model(m, formula_a)
        assert naive_is_model(m, formula_a)

    def test_unequivocally_not_part_formula_is_satisfiable(
        self, desert_fosl_vocab, formula_b
    ):
        outcome = find_fosl_model(desert_fosl_vocab, formula_b, DESERT_BOUNDS)
        assert isinstance(outcome, ModelFound)
        assert naive_is_model(outcome.structure, formula_b)

    def test_contradiction_exhausts(self, desert_fosl_vocab):
        f = parse_formula("AridArea(house) & !AridArea(house)", desert_fosl_vocab)
        outcome = find_fosl_model(desert_fosl_vocab, f, DESERT_BOUNDS)
        assert isinstance(outcome, ExhaustedUnsat)

    def test_two_constants_at_fresh_elements(self):
        # each P(.) instance alone admits a and b at any element: probing
        # them only at the first one would force both there
        vocab = make_fosl_vocabulary({"P": 1}, ["a", "b"], [])
        f = parse_formula("P(a) & P(b) & a != b", vocab)
        bounds = Bounds(max_domain=3, max_precisifications=1, timeout=60)
        assert isinstance(find_fosl_model(vocab, f, bounds), ModelFound)

    def test_rigid_reading_is_unsatisfiable(self, desert_fosl_vocab, formula_c_rigid):
        outcome = find_fosl_model(desert_fosl_vocab, formula_c_rigid, DESERT_BOUNDS)
        assert isinstance(outcome, ExhaustedUnsat)

    def test_plain_formula_c_is_satisfiable_without_side_conditions(
        self, desert_fosl_vocab, formula_c
    ):
        # without the rigidity reconstruction the standpoint reading admits
        # models (a non-rigid PartOf or house does the work)
        outcome = find_fosl_model(desert_fosl_vocab, formula_c, DESERT_BOUNDS)
        assert isinstance(outcome, ModelFound)

    def test_timeout_reported_distinctly(self, desert_fosl_vocab, formula_c_rigid):
        tight = Bounds(max_domain=3, max_precisifications=2, timeout=1e-9)
        outcome = find_fosl_model(desert_fosl_vocab, formula_c_rigid, tight)
        assert isinstance(outcome, SearchTimeout)

    def test_no_level_set_up_after_the_deadline(self, monkeypatch):
        # a fake clock passes the deadline as the second level's search
        # returns; the search checks the deadline before building each
        # level's space, so it builds no third one
        clock = [0.0]
        monkeypatch.setattr(finder, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        built = []
        depth = [0]  # dfs recurses: the level's search returns at depth 0

        class Counted(_FoslSpace):
            def __init__(self, vocab, f, n, m, symmetry, deadline, prec_cells):
                built.append((n, m))
                super().__init__(vocab, f, n, m, symmetry, deadline, prec_cells)

            def dfs(self, deadline):
                depth[0] += 1
                try:
                    return super().dfs(deadline)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0 and len(built) == 2:
                        clock[0] = 10.0

        monkeypatch.setattr(finder, "_FoslSpace", Counted)
        vocab = make_fosl_vocabulary({"P": 1}, ["a"], [])
        f = parse_formula("P(a) & forall ?x !P(?x)", vocab)
        bounds = Bounds(max_domain=3, max_precisifications=2, timeout=1.0)
        assert isinstance(find_fosl_model(vocab, f, bounds), SearchTimeout)
        assert built == [(1, 1), (1, 2)]

    def test_no_conjunct_ground_after_the_deadline(self, monkeypatch):
        # a fake clock passes the deadline while the first level's first
        # conjunct is ground; the space checks the deadline before each
        # conjunct, so it grounds no second one
        clock = [0.0]
        monkeypatch.setattr(finder, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        strip = finder._strip_ground_prefix
        ground = []

        def counted(part, n):
            ground.append(part)
            clock[0] = 10.0
            return strip(part, n)

        monkeypatch.setattr(finder, "_strip_ground_prefix", counted)
        vocab = make_fosl_vocabulary({"P": 1, "Q": 1}, ["a"], [])
        f = parse_formula("P(a) & Q(a) & forall ?x (P(?x) -> Q(?x))", vocab)
        bounds = Bounds(max_domain=3, max_precisifications=2, timeout=1.0)
        assert isinstance(find_fosl_model(vocab, f, bounds), SearchTimeout)
        assert len(ground) == 1

    def test_requires_sentence(self, desert_fosl_vocab):
        from splogic import EvaluationError

        f = parse_formula("Desert(?x)", desert_fosl_vocab)
        with pytest.raises(EvaluationError):
            find_fosl_model(desert_fosl_vocab, f, DESERT_BOUNDS)

    def test_deep_nesting_is_an_evaluation_error(self, desert_fosl_vocab):
        f = parse_formula("Desert(house)", desert_fosl_vocab)
        for _ in range(600):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            find_fosl_model(desert_fosl_vocab, f, DESERT_BOUNDS)


class TestV1Search:
    BOUNDS = Bounds(max_entities=3, max_individuals=2, max_precisifications=2,
                    timeout=120)

    def test_formula_c_satisfiable_in_v1(self, desert_v1_vocab, formula_c_v1):
        outcome = find_v1_model(desert_v1_vocab, formula_c_v1, self.BOUNDS)
        assert isinstance(outcome, ModelFound)
        m = outcome.structure
        assert len(m.entities) <= 3
        assert len(m.precisifications) <= 2
        assert len(m.registry) <= 2
        assert is_model_v1(m, formula_c_v1)
        assert naive_is_model_v1(m, formula_c_v1)

    def test_single_individual_model(self):
        vocab = make_v1_vocabulary(["Desert"], {}, {}, [], [])
        f = parse_formula("exists ?x Desert(?x)", vocab)
        outcome = find_v1_model(vocab, f, self.BOUNDS)
        assert isinstance(outcome, ModelFound)
        assert len(outcome.structure.entities) == 1
        assert len(outcome.structure.precisifications) == 1

    def test_contradiction_exhausts(self):
        vocab = make_v1_vocabulary(["Desert"], {}, {}, [], [])
        f = parse_formula("exists ?x (Desert(?x) & !Desert(?x))", vocab)
        outcome = find_v1_model(vocab, f, self.BOUNDS)
        assert isinstance(outcome, ExhaustedUnsat)

    def test_disambiguation_formula_is_satisfiable(self, area_v1_vocab, formula_d):
        bounds = Bounds(max_entities=3, max_individuals=4,
                        max_precisifications=2, timeout=120)
        outcome = find_v1_model(area_v1_vocab, formula_d, bounds)
        assert isinstance(outcome, ModelFound)
        assert naive_is_model_v1(outcome.structure, formula_d)

    def test_name_typing_makes_negated_sortal_unsatisfiable(self):
        # every name denotes an admitted individual, and with a single
        # sortal that forces the sortal atom to hold
        vocab = make_v1_vocabulary(["Kind"], {}, {}, ["n"], [])
        f = parse_formula("!Kind(n)", vocab)
        outcome = find_v1_model(vocab, f, self.BOUNDS)
        assert isinstance(outcome, ExhaustedUnsat)

    def test_timeout_holds(self):
        # tens of thousands of registries per level: the deadline must stop
        # the enumeration, not only the search inside one registry.  The
        # two timeouts end in different levels.
        vocab = corpus_vocab()
        f = parse_formula("Attr(n) & forall ?x !Attr(?x)", vocab)
        for timeout in (1.0, 2.0):
            bounds = Bounds(max_entities=5, max_precisifications=3,
                            max_individuals=5, timeout=timeout)
            start = time.monotonic()
            outcome = find_v1_model(vocab, f, bounds)
            assert isinstance(outcome, SearchTimeout)
            assert outcome.elapsed < timeout + 0.5
            assert time.monotonic() - start < timeout + 0.5

    def test_pool_stops_drawing_tasks_at_the_deadline(self, monkeypatch):
        # a fake clock passes the deadline while the fifth registry is
        # set up; the search checks the deadline before searching each
        # registry, so it sets up no more
        clock = [0.0]
        monkeypatch.setattr(finder, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        draws = []
        configure = _V1Space.configure

        def counted(space, maps):
            draws.append(maps)
            if len(draws) == 5:
                clock[0] = 10.0
            configure(space, maps)

        monkeypatch.setattr(_V1Space, "configure", counted)
        vocab = corpus_vocab()
        f = parse_formula("Attr(n) & forall ?x !Attr(?x)", vocab)
        bounds = Bounds(max_entities=5, max_precisifications=3, max_individuals=5,
                        timeout=1.0)
        outcome = find_v1_model(vocab, f, bounds)
        assert isinstance(outcome, SearchTimeout)
        assert len(draws) == 5

    def test_deep_nesting_is_an_evaluation_error(self, desert_v1_vocab):
        f = parse_formula("Desert(house)", desert_v1_vocab)
        for _ in range(600):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            find_v1_model(desert_v1_vocab, f, self.BOUNDS)

    def test_one_space_per_level(self, monkeypatch):
        # every registry of an (entities, precisifications, individuals)
        # level is searched in the same space
        levels = []

        class Counted(_V1Space):
            def __init__(self, vocab, f, ne, m, r):
                levels.append((ne, m, r))
                super().__init__(vocab, f, ne, m, r)

        monkeypatch.setattr(finder, "_V1Space", Counted)
        vocab = corpus_vocab()
        f = parse_formula("Attr(n) & forall ?x !Attr(?x)", vocab)
        bounds = Bounds(max_entities=3, max_precisifications=2, max_individuals=3,
                        timeout=60)
        assert isinstance(find_v1_model(vocab, f, bounds), ExhaustedUnsat)
        # a level with fewer map values (m * r) than entities has no
        # registry that uses every entity, so it builds no space
        assert levels == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3),
                          (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3),
                          (3, 1, 3), (3, 2, 2), (3, 2, 3)]

    def test_registries_use_every_entity(self, monkeypatch):
        # a registry that leaves an entity unused is, renumbered, one of a
        # level with fewer entities, searched earlier, so a level searches
        # each multiset of maps that uses all its entities once
        built, draws = [], []
        init, configure = _V1Space.__init__, _V1Space.configure

        def counted_init(space, vocab, f, ne, m, r):
            built.append((ne, m, r))
            init(space, vocab, f, ne, m, r)

        def counted(space, maps):
            draws.append((space.ne, space.m, tuple(sorted(maps))))
            configure(space, maps)

        monkeypatch.setattr(_V1Space, "__init__", counted_init)
        monkeypatch.setattr(_V1Space, "configure", counted)
        vocab = corpus_vocab()
        f = parse_formula("Attr(n) & forall ?x !Attr(?x)", vocab)
        bounds = Bounds(max_entities=3, max_precisifications=2, max_individuals=3,
                        timeout=60)
        assert isinstance(find_v1_model(vocab, f, bounds), ExhaustedUnsat)
        for ne, m, maps in draws:
            assert ne == 1 or {e for ext in maps for e in ext} == set(range(ne))
        assert len(draws) == len(set(draws)) == 164
        assert all(m * r >= ne for ne, m, r in built)

    def test_wildcard_arity_tables_follow_the_formula(self):
        # a wildcard arity is pinned by its use, here to two arguments
        vocab = make_v1_vocabulary(["K"], {"A": None}, {"Q": None}, ["a", "b"], [])
        f = parse_formula("A(a, b) & !A(b, a) & Q(a, b) & !(a = b)", vocab)
        outcome = find_v1_model(vocab, f, self.BOUNDS)
        assert isinstance(outcome, ModelFound)
        assert naive_is_model_v1(outcome.structure, f)

    # An indefinite predicate holds only of individuals some sortal admits
    # at the same precisification: at a precisification where ?x is not a
    # K, A(?x) is false.  The first two sentences ask for such a tuple,
    # which the generated micro-completeness sentences never do.
    @pytest.mark.parametrize("text, sat", [
        ("exists ?x ([*] A(?x) & <*> !K(?x))", False),
        ("exists ?x ([s] A(?x) & <s> !K(?x))", False),
        ("exists ?x (A(?x) & <*> !K(?x))", True),
    ])
    def test_indefinite_atoms_hold_only_of_admitted_individuals(self, text, sat):
        vocab = make_v1_vocabulary(["K"], {"A": 1}, {"Q": 1}, ["c"], ["s"])
        f = parse_formula(text, vocab)
        bounds = Bounds(max_entities=2, max_precisifications=2, max_individuals=2,
                        timeout=60)
        outcome = find_v1_model(vocab, f, bounds)
        assert isinstance(outcome, ModelFound if sat else ExhaustedUnsat)
        assert naive_v1_sat(vocab, f, 2, 2, 2) == sat
        if sat:
            assert naive_is_model_v1(outcome.structure, f)

    @pytest.mark.parametrize("text, before", [
        ("exists ?x ([*] A(?x) & <*> !K(?x))", 536),
        ("exists ?x ([s] A(?x) & <s> !K(?x))", 1032),
    ])
    def test_indefinite_bits_wait_for_admission(self, monkeypatch, text, before):
        # an indefinite atom branches on its bit only once its arguments
        # are admitted, so a non-admitted argument refutes it without
        # searching both values of the bit; branching on the bit first
        # took the dfs call counts in `before`
        calls = []
        dfs = _V1Space.dfs

        def counted(space, deadline):
            calls.append(space)
            return dfs(space, deadline)

        monkeypatch.setattr(_V1Space, "dfs", counted)
        vocab = make_v1_vocabulary(["K"], {"A": 1}, {"Q": 1}, ["c"], ["s"])
        bounds = Bounds(max_entities=2, max_precisifications=2, max_individuals=2,
                        timeout=60)
        outcome = find_v1_model(vocab, parse_formula(text, vocab), bounds)
        assert isinstance(outcome, ExhaustedUnsat)
        assert len(calls) < before

    # Two individuals may share an extension map (they stay distinct
    # individuals): at one entity and one precisification every
    # individual has the same map, so `a` and `b` denote different
    # individuals only when two individuals share it.
    SHARED_MAP = Bounds(max_entities=1, max_precisifications=1, max_individuals=2,
                        timeout=60)

    @staticmethod
    def shared_map_case():
        vocab = make_v1_vocabulary(["K"], {}, {}, ["a", "b"], [])
        return vocab, parse_formula("!(a = b)", vocab)

    def test_individuals_sharing_a_map_model_distinct_names(self):
        vocab, f = self.shared_map_case()
        m = make_v1_structure(
            ["e0"], ["p0"], {}, {"i0": {"p0": "e0"}, "i1": {"p0": "e0"}},
            {"p0": {"K": ["i0", "i1"]}}, {}, {}, {"p0": {"a": "i0", "b": "i1"}},
        )
        assert is_model_v1(m, f)
        assert naive_is_model_v1(m, f)

    def test_finds_individuals_sharing_a_map(self):
        vocab, f = self.shared_map_case()
        assert isinstance(find_v1_model(vocab, f, self.SHARED_MAP), ModelFound)

    def test_found_models_pass_strict_validation(self, desert_v1_vocab):
        from splogic import v1_structure_from_dict

        for seed in range(25):
            f = generate_formula(desert_v1_vocab, seed, 3)
            outcome = find_v1_model(desert_v1_vocab, f, self.BOUNDS)
            if isinstance(outcome, ModelFound):
                data = v1_structure_to_dict(outcome.structure)
                assert v1_structure_from_dict(data) == outcome.structure


class TestSoundness:
    def test_every_found_model_revalidates_under_reference(self, desert_fosl_vocab):
        found = 0
        for seed in range(40):
            f = generate_formula(desert_fosl_vocab, seed, 3)
            outcome = find_fosl_model(desert_fosl_vocab, f, DESERT_BOUNDS)
            if isinstance(outcome, ModelFound):
                found += 1
                assert naive_is_model(outcome.structure, f)
        assert found > 10

    def test_v1_models_revalidate_under_reference(self, desert_v1_vocab):
        bounds = Bounds(max_entities=2, max_individuals=2, timeout=120)
        found = 0
        for seed in range(40):
            f = generate_formula(desert_v1_vocab, seed, 3)
            outcome = find_v1_model(desert_v1_vocab, f, bounds)
            if isinstance(outcome, ModelFound):
                found += 1
                assert naive_is_model_v1(outcome.structure, f)
        assert found > 10


class TestShadowedVariables:
    """A quantifier that rebinds a variable gets an env slot of its own,
    so the variable it shadows keeps its value."""

    TEXTS = [
        # a ground prefix rebinds ?x
        "forall ?x forall ?x exists ?y Q(?x, ?y) & !exists ?z Q(?z, ?z)",
        # a nested quantifier rebinds ?x
        "!forall ?x forall ?x forall ?y (P(?x) -> P(?y))",
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_agrees_with_unpruned_enumeration(self, text):
        vocab = make_fosl_vocabulary({"P": 1, "Q": 2}, [], [])
        f = parse_formula(text, vocab)
        bounds = Bounds(max_domain=2, max_precisifications=2, timeout=60)
        found = isinstance(find_fosl_model(vocab, f, bounds), ModelFound)
        assert found == naive_fosl_sat(vocab, f, 2, 2)

    def test_v1_twin_agrees_sat(self):
        vocab = make_v1_vocabulary(["K"], {"A": 1}, {}, [], [])
        f = parse_formula("!forall ?x forall ?x forall ?y (A(?x) -> A(?y))", vocab)
        bounds = Bounds(max_entities=2, max_individuals=2, max_precisifications=1,
                        timeout=60)
        report = equisat_check(vocab, f, bounds)
        assert report.agreement == "sat"
        assert all(d.outcome == "sat" and d.verified for d in report.directions)


class TestMicroCompleteness:
    @pytest.mark.parametrize("constants, seeds", [(["c"], 60), (["a", "b"], 300)],
                             ids=["c", "a-b"])
    def test_agrees_with_unpruned_enumeration(self, constants, seeds):
        vocab = make_fosl_vocabulary({"P": 1, "Q": 1}, constants, ["s"])
        bounds = Bounds(max_domain=2, max_precisifications=2, timeout=120)
        for seed in range(seeds):
            f = generate_formula(vocab, seed, 3)
            pruned = isinstance(find_fosl_model(vocab, f, bounds), ModelFound)
            naive = naive_fosl_sat(vocab, f, 2, 2)
            assert pruned == naive, f"seed {seed}"

    @pytest.mark.parametrize("names, entities, precisifications, seeds", [
        (["c"], 2, 1, 200), (["c"], 1, 2, 100), (["c", "d"], 1, 2, 100),
    ], ids=["2-1-200", "1-2-100", "c-d-1-2-100"])
    def test_v1_agrees_with_unpruned_enumeration(self, names, entities, precisifications,
                                                 seeds):
        # the enumerator tries every multiset of extension maps, those
        # that leave an entity unused included, so it checks the search's
        # rule that a registry uses every entity; with two names at one
        # entity, individuals that share a map are needed
        vocab = make_v1_vocabulary(["K"], {"A": 1}, {"Q": 1}, names, ["s"])
        bounds = Bounds(max_entities=entities, max_precisifications=precisifications,
                        max_individuals=2, timeout=120)
        unsat = 0
        for seed in range(seeds):
            f = generate_formula(vocab, seed, 3)
            found = isinstance(find_v1_model(vocab, f, bounds), ModelFound)
            naive = naive_v1_sat(vocab, f, entities, precisifications, 2)
            assert found == naive, f"seed {seed}"
            unsat += not naive
        assert unsat > 0

    def test_agrees_without_symmetry_reduction(self):
        vocab = make_fosl_vocabulary({"P": 1, "Q": 1}, ["c"], ["s"])
        on = Bounds(max_domain=2, max_precisifications=2, timeout=120)
        off = Bounds(max_domain=2, max_precisifications=2, timeout=120,
                     symmetry_reduction=False)
        for seed in range(40):
            f = generate_formula(vocab, seed, 3)
            assert type(find_fosl_model(vocab, f, on)) == type(
                find_fosl_model(vocab, f, off)
            )


class TestDeterminism:
    @staticmethod
    def fingerprint(outcome, to_dict):
        if isinstance(outcome, ModelFound):
            return to_dict(outcome.structure)
        return type(outcome).__name__

    # Searches are serial and take no worker count. The two tests below keep
    # their names from when they compared worker counts; they now compare
    # repeated runs in one process, whose caches are warm after the first.
    @pytest.mark.parametrize("repeats", [1, 2, 4])
    def test_fosl_outcome_independent_of_worker_count(
        self, desert_fosl_vocab, formula_a, repeats
    ):
        runs = [self.fingerprint(find_fosl_model(desert_fosl_vocab, formula_a,
                                                 DESERT_BOUNDS),
                                 fosl_structure_to_dict)
                for _ in range(1 + repeats)]
        assert isinstance(runs[0], dict)
        assert runs[1:] == runs[:1] * repeats

    def test_random_batch_identical_across_worker_counts(self, desert_fosl_vocab):
        for seed in range(12):
            f = generate_formula(desert_fosl_vocab, seed, 3)
            runs = [self.fingerprint(find_fosl_model(desert_fosl_vocab, f,
                                                     DESERT_BOUNDS),
                                     fosl_structure_to_dict)
                    for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]

    def test_v1_runs_repeat(self, desert_v1_vocab):
        bounds = Bounds(max_entities=2, max_individuals=2, timeout=120)
        formulas = [generate_formula(desert_v1_vocab, seed, 3) for seed in range(8)]
        runs = [[self.fingerprint(find_v1_model(desert_v1_vocab, f, bounds),
                                  v1_structure_to_dict) for f in formulas]
                for _ in range(2)]
        assert runs[0] == runs[1]

    # equisat reports on corpus sentences (seed 167 is a hard unsat one)
    # and V1 searches, printed without their elapsed fields
    HASH_SEED_SCRIPT = """
import json
import splogic as sp

vocab = sp.make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
bounds = sp.Bounds(max_entities=2, max_individuals=2, max_precisifications=2)
for seed in [*range(9), 167]:
    report = sp.equisat_check(vocab, sp.generate_formula(vocab, seed, 4), bounds)
    data = report.to_dict()
    for d in data["directions"]:
        del d["elapsed_ms"]
    print(json.dumps(data))
bounds = sp.Bounds(max_entities=3, max_individuals=3, max_precisifications=2)
for seed in range(20, 25):
    outcome = sp.find_v1_model(vocab, sp.generate_formula(vocab, seed, 4), bounds)
    found = isinstance(outcome, sp.ModelFound)
    print(json.dumps(sp.v1_structure_to_dict(outcome.structure) if found
                     else type(outcome).__name__))
"""

    def test_outcomes_independent_of_hash_seed(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run([sys.executable, "-c", self.HASH_SEED_SCRIPT],
                                  env=env, capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        lines = outputs[0].splitlines()
        assert len(lines) == 15
        assert json.loads(lines[9])["agreement"] == "unsat"
        assert outputs[0] == outputs[1]

    def test_searches_start_no_thread(self, desert_fosl_vocab, formula_a,
                                      desert_v1_vocab, monkeypatch):
        # the thread count seen inside every search node is the caller's
        counts = []
        for cls in (finder._FoslSpace, finder._V1Space):
            def counted(space, deadline, _dfs=cls.dfs):
                counts.append(threading.active_count())
                return _dfs(space, deadline)

            monkeypatch.setattr(cls, "dfs", counted)
        before = threading.active_count()
        fosl = find_fosl_model(desert_fosl_vocab, formula_a, DESERT_BOUNDS)
        searched = len(counts)
        f = generate_formula(desert_v1_vocab, 0, 3)
        find_v1_model(desert_v1_vocab, f, Bounds(max_entities=2, max_individuals=2,
                                                 timeout=120))
        assert isinstance(fosl, ModelFound)
        assert 0 < searched < len(counts)
        assert set(counts) == {before}


class TestMonotonicity:
    def test_sat_preserved_under_larger_bounds(self, desert_fosl_vocab):
        small = Bounds(max_domain=1, max_precisifications=1, timeout=120)
        for seed in range(30):
            f = generate_formula(desert_fosl_vocab, seed, 3)
            if isinstance(find_fosl_model(desert_fosl_vocab, f, small), ModelFound):
                for bigger in [
                    Bounds(max_domain=2, max_precisifications=1, timeout=120),
                    Bounds(max_domain=2, max_precisifications=2, timeout=120),
                    Bounds(max_domain=3, max_precisifications=2, timeout=120),
                ]:
                    assert isinstance(
                        find_fosl_model(desert_fosl_vocab, f, bigger), ModelFound
                    )

    def test_v1_sat_preserved_under_larger_bounds(self, desert_v1_vocab):
        small = Bounds(max_entities=1, max_individuals=1,
                       max_precisifications=1, timeout=120)
        big = Bounds(max_entities=2, max_individuals=2,
                     max_precisifications=2, timeout=120)
        for seed in range(20):
            f = generate_formula(desert_v1_vocab, seed, 3)
            if isinstance(find_v1_model(desert_v1_vocab, f, small), ModelFound):
                assert isinstance(find_v1_model(desert_v1_vocab, f, big), ModelFound)


class TestBounds:
    def test_maxima_validated(self):
        with pytest.raises(ValueError):
            Bounds(max_domain=0)
        with pytest.raises(ValueError):
            Bounds(timeout=0)

    def test_invalid_settings_rejected(self):
        # a NaN deadline is never passed; a fractional or boolean bound
        # would fail later in range() or count as 1; a timeout that is not
        # a number would fail in the comparison, and a non-bool symmetry
        # setting would read as on
        for settings in ({"timeout": float("nan")}, {"timeout": True},
                         {"timeout": "5"}, {"timeout": None},
                         {"symmetry_reduction": "no"}, {"symmetry_reduction": 0},
                         {"max_domain": 2.5}, {"max_entities": True},
                         {"max_precisifications": 2.0}, {"max_individuals": "2"}):
            with pytest.raises(ValueError):
                Bounds(**settings)
        assert Bounds(timeout=float("inf")).timeout == float("inf")


class TestMemoInvariant:
    """A memo entry that is still valid (made at or after the last touch
    of its instance) must equal a fresh evaluation or probe: read sets
    that miss a cell leave stale entries behind."""

    @staticmethod
    def cells(space):
        # predicates, then constants, then standpoints; a split space's
        # prec cells are the caller's
        for pred, k in space.preds.items():
            for pi in range(space.m):
                for rank in range(space.n ** k):
                    if space.tables["p", pred][pi][rank] == 0:
                        yield ("p", pred, pi, rank)
        for kind, unset in (("f", None), ("s", 0)):
            for (k, symbol), rows in space.tables.items():
                if k != kind or symbol == "prec":
                    continue
                for pi, row in enumerate(rows):
                    if row[0] == unset:
                        yield (kind, symbol, pi, 0)

    @staticmethod
    def check_memos(space):
        checked = 0
        for ci, fn in enumerate(space.conjuncts):
            preset = space.presets[ci]
            touched = space.conj_touch[ci]
            for pi in range(space.m):
                memo = space.u_memo[ci][pi]
                if memo is None or memo[1] < touched:
                    continue
                for slot, elem in preset:
                    space.env[slot] = elem
                space.culprit = None
                assert fn(pi, space.env) == _U, (ci, pi)
                cul = space.culprit
                assert cul == memo[0], (ci, pi)
                checked += 1
                probe = space.probe_memo[ci][pi]
                if probe is not None and probe[2] >= touched:
                    fresh = space._probe(cul, fn, pi, preset)
                    assert fresh == probe[:2], (ci, pi, cul)
                    checked += 1
        return checked

    @pytest.mark.parametrize("seed", [1044, 167, 42])
    def test_valid_memos_match_fresh_evaluation(self, seed):
        vocab = corpus_vocab()
        f = full_translation(generate_formula(vocab, seed, 4), vocab)
        self.walk(_FoslSpace(translated_vocabulary(vocab), f, 3, 2, True), seed)

    @pytest.mark.parametrize("first, seed", [(1044, 167), (167, 42)])
    def test_valid_memos_match_fresh_evaluation_on_a_kept_space(self, first, seed):
        # the search of a first sentence leaves memos in the instances of
        # the bridge axioms, which the space keeps for the next sentence
        vocab = corpus_vocab()
        trans_vocab = translated_vocabulary(vocab)
        shape = (3, 2, True, float("inf"), False)
        space = finder._fosl_space(
            trans_vocab, full_translation(generate_formula(vocab, first, 4), vocab), *shape)
        space.configure(None)
        space.trail.append([])
        space.dfs(float("inf"))
        space.pop_frame()
        finder._keep_space(space)
        assert any(memo is not None for row in space.u_memo for memo in row)
        f = full_translation(generate_formula(vocab, seed, 4), vocab)
        assert finder._fosl_space(trans_vocab, f, *shape) is space
        self.check_memos(space)
        self.walk(space, seed)

    def walk(self, space, seed):
        # random assignments and retractions, every memo checked after
        # each scan
        checked = []
        scan = space._scan

        def checked_scan():
            result = scan()
            checked.append(self.check_memos(space))
            return result

        space._scan = checked_scan
        rng = random.Random(seed)
        steps: list[list[tuple]] = []
        refuted = False
        for _ in range(300):
            if steps and (refuted or rng.random() < 0.3):
                for cell in reversed(steps.pop()):
                    space.unassign(cell)
                refuted = False
                continue
            open_cells = list(self.cells(space))
            if not open_cells:
                break
            cell = rng.choice(open_cells)
            space.assign(cell, rng.choice(space.branch_values(cell)))
            assigned = [cell]
            v, _ = space.propagate(assigned)
            steps.append(assigned)
            refuted = v == _F
        assert len(checked) > 100 and sum(checked) > 1000

    def test_box_prefix_sentence_is_sat(self):
        # [s] forall ?x Shape(n): the box prefix standpoint must be in the
        # read set of every ground instance under it
        vocab = corpus_vocab()
        f = generate_formula(vocab, 1044, 4)
        report = equisat_check(vocab, f, CORPUS_BOUNDS)
        assert report.agreement == "sat"


class TestFinishedSearch:
    """A finished search leaves every cell unset: one V1 space searches
    every registry of its level, writing only its prec rows in between,
    and a space reused for another search relies on the same."""

    @staticmethod
    def assert_unset(space):
        for (kind, symbol), rows in space.tables.items():
            if isinstance(space, _V1Space) and symbol == "prec":
                continue  # the registry's maps, written by configure
            unset = None if kind == "f" else 0
            assert all(v == unset for row in rows for v in row), (kind, symbol)

    def test_every_cell_is_unset_after_the_outermost_dfs(self, monkeypatch):
        depth = 0
        finished = []
        dfs = finder._Space.dfs

        def checked(space, deadline):
            nonlocal depth
            depth += 1
            result = dfs(space, deadline)
            depth -= 1
            if depth == 0:
                self.assert_unset(space)
                finished.append(type(space))
            return result

        monkeypatch.setattr(finder._Space, "dfs", checked)
        vocab = corpus_vocab()
        for seed in range(60):
            equisat_check(vocab, generate_formula(vocab, seed, 4), CORPUS_BOUNDS)
        assert len(finished) > 200 and set(finished) == {_FoslSpace, _V1Space}

    def test_every_configuration_starts_clean(self, monkeypatch):
        # _search sets up every configuration of a level (a split point,
        # a registry) in the level's one space: each starts with every
        # instance undecided, every cell unset and no trail frame open
        # beyond the space's first
        configured = []
        for cls in (_FoslSpace, _V1Space):
            def checked(space, config, _configure=cls.configure):
                assert all(v == _U for row in space.status for v in row)
                self.assert_unset(space)
                assert len(space.trail) == 1
                configured.append(type(space))
                _configure(space, config)

            monkeypatch.setattr(cls, "configure", checked)
        vocab = corpus_vocab()
        for seed in range(60):
            equisat_check(vocab, generate_formula(vocab, seed, 4), CORPUS_BOUNDS)
        assert len(configured) > 200 and set(configured) == {_FoslSpace, _V1Space}


class TestSpaceReuse:
    """The standpoint search keeps one space per level shape (vocabulary,
    n, m, symmetry, split) between searches: the space grounds the parts
    of the level formula that are shared bridge axioms once, and each
    search adds only its sentence's instances, which the level's close
    drops again.  A kept space searches as a new one does."""

    @staticmethod
    def reports(seeds, mode):
        # per seed, the equisat report without its elapsed fields and the
        # backward dfs calls.  mode "kept" keeps the spaces between
        # searches, "emptied" empties the cache before each search, and
        # "unshared" takes no part for a bridge axiom, so each space
        # grounds its whole level formula in order and keeps nothing
        calls = [0]
        dfs = _FoslSpace.dfs

        def counted(space, deadline):
            calls[0] += 1
            return dfs(space, deadline)

        vocab = corpus_vocab()
        out = {}
        finder._spaces.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_FoslSpace, "dfs", counted)
            if mode == "unshared":
                level = finder._level
                patch.setattr(finder, "_level", lambda f, m: (level(f, m)[0], frozenset()))
            for seed in seeds:
                if mode == "emptied":
                    finder._spaces.clear()
                calls[0] = 0
                report = equisat_check(vocab, generate_formula(vocab, seed, 4), CORPUS_BOUNDS)
                for direction in report.directions:
                    direction.elapsed_ms = None
                out[seed] = (report.to_dict(), calls[0])
        return out

    @pytest.mark.parametrize("seeds", [range(40), range(39, -1, -1)],
                             ids=["forward", "reverse"])
    def test_kept_spaces_search_as_new_ones(self, monkeypatch, seeds):
        built = []
        init = _FoslSpace.__init__

        def recorded(space, *args):
            init(space, *args)
            built.append(space.shape)

        monkeypatch.setattr(_FoslSpace, "__init__", recorded)
        kept = self.reports(seeds, "kept")
        # one space per shape: levels n = 2..4 at m = 1, 2, each with
        # every bridge axiom; a false level formula (seed 14) has no space
        assert len(built) == len(set(built)) == 6
        assert kept == self.reports(seeds, "emptied")
        assert kept == self.reports(seeds, "unshared")

    def test_spaces_are_kept_per_bridge_axioms(self):
        # bridge axiom 7 for an indefinite predicate of open arity takes
        # the arity the sentence pins, or 1 where the sentence leaves it
        # out, and sortal K and indefinite K/1 translate to one signature
        # with different axioms: each search equals a cold one, and each
        # kept space holds exactly its shape's axioms
        wild = make_v1_vocabulary(["K"], {"A": None}, {}, ["c"], [])
        sortal = make_v1_vocabulary(["K", "S"], {}, {}, ["c"], [])
        indefinite = make_v1_vocabulary(["S"], {"K": 1}, {}, ["c"], [])
        runs = [(wild, "exists ?x K(?x)"), (wild, "exists ?x A(?x)"),
                (wild, "exists ?x exists ?y (A(?x, ?y) & !A(?y, ?x))"),
                (wild, "exists ?x !A(?x)"), (sortal, "exists ?x K(?x)"),
                (indefinite, "exists ?x K(?x)"), (sortal, "exists ?x !K(?x)")]

        def report(vocab, text):
            out = equisat_check(vocab, parse_formula(text, vocab), CORPUS_BOUNDS)
            for direction in out.directions:
                direction.elapsed_ms = None
            return out.to_dict()

        warm = [report(*run) for run in runs]
        assert len(finder._spaces) > 4
        for space in finder._spaces.values():
            dropped = finder._split_level_axioms(space.m) if space.prec_cells else ()
            assert set(space.kept) == space.shape[-1] - dropped
        cold = []
        for run in runs:
            finder._spaces.clear()
            cold.append(report(*run))
        assert warm == cold

    def test_interrupted_level_leaves_no_space(self, monkeypatch):
        # a fake clock passes the deadline in the middle of level n=3,
        # m=2's search of an unsat sentence, so the levels before it close
        # their spaces and that level's is dropped; searched again, the
        # sentence gives the result and the dfs calls of a new search
        vocab = corpus_vocab()
        trans_vocab = translated_vocabulary(vocab)
        f = full_translation(generate_formula(vocab, 167, 4), vocab)
        bounds = Bounds(max_domain=4, max_precisifications=2, timeout=1.0)

        def search():
            calls = {}
            dfs = _FoslSpace.dfs

            def counted(space, deadline):
                level = (space.n, space.m)
                calls[level] = calls.get(level, 0) + 1
                if level == (3, 2) and calls[level] == 3:
                    clock[0] = 10.0
                return dfs(space, deadline)

            monkeypatch.setattr(_FoslSpace, "dfs", counted)
            outcome = find_fosl_model(trans_vocab, f, bounds)
            monkeypatch.setattr(_FoslSpace, "dfs", dfs)
            return type(outcome), calls

        clock = [0.0]
        monkeypatch.setattr(finder, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        assert search()[0] is SearchTimeout
        assert sorted(key[3:5] for key in finder._spaces) == [(2, 1), (2, 2), (3, 1)]
        monkeypatch.setattr(finder, "time", time)
        warm = search()
        finder._spaces.clear()
        cold = search()
        assert warm == cold
        assert warm[0] is ExhaustedUnsat and warm[1][3, 2] > 3

    def test_two_checkouts_get_two_spaces(self):
        # a space is out of the cache while a search uses it
        vocab = corpus_vocab()
        f = full_translation(generate_formula(vocab, 0, 4), vocab)
        args = (translated_vocabulary(vocab), f, 2, 2, True, float("inf"), True)
        first = finder._fosl_space(*args)
        assert finder._fosl_space(*args) is not first
        finder._keep_space(first)
        assert finder._fosl_space(*args) is first
        assert finder._fosl_space(*args) is not first

    def test_searches_in_threads_share_no_space(self):
        # more threads than cores, switching often: each search takes its
        # spaces out of the cache, so every thread's reports are the
        # serial ones
        vocab = corpus_vocab()
        sentences = [generate_formula(vocab, seed, 4) for seed in range(10)]

        def reports():
            out = []
            for f in sentences:
                report = equisat_check(vocab, f, CORPUS_BOUNDS)
                for direction in report.directions:
                    direction.elapsed_ms = None
                out.append(report.to_dict())
            return out

        expected = reports()
        results = [None] * 4

        def worker(i):
            results[i] = reports()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_close_leaves_what_the_axioms_alone_leave(self, symmetry):
        # after a search of seed 167, unsat, every level's kept space
        # holds what a new space of the bridge axioms alone holds
        vocab = corpus_vocab()
        trans_vocab = translated_vocabulary(vocab)
        f = full_translation(generate_formula(vocab, 167, 4), vocab)
        axioms = full_translation(truth(), vocab)
        bounds = Bounds(max_domain=3, max_precisifications=2, timeout=60,
                        symmetry_reduction=symmetry)
        assert isinstance(find_fosl_model(trans_vocab, f, bounds), ExhaustedUnsat)
        assert len(finder._spaces) == (4 if symmetry else 6)
        for space in finder._spaces.values():
            alone = _FoslSpace(trans_vocab, axioms, space.n, space.m, symmetry,
                               float("inf"), space.prec_cells)
            assert space.kept == alone.kept and space.kept
            assert len(space.conjuncts) == len(alone.conjuncts)
            for name in ("presets", "pi_indep", "status", "watch", "tables", "preds"):
                assert getattr(space, name) == getattr(alone, name), name
            for name in ("conj_touch", "u_memo", "probe_memo"):
                assert len(getattr(space, name)) == len(alone.conjuncts), name


class TestCulpritRule:
    """An unknown result reports only cells it depends on: in
    !(P(c) & R(c)) & Q(c) with R(c) false, the unset P(c) read inside the
    false conjunction must not be the culprit."""

    TEXT = "!(P(c) & R(c)) & Q(c)"

    @staticmethod
    def evaluate(space, f):
        # compiled as written: the level formula would reorder conjuncts
        fn = space._compile(f, {})
        space.culprit = None
        assert fn(0, space.env) == _U
        return space.culprit

    def test_standpoint_space(self):
        vocab = make_fosl_vocabulary({"P": 1, "Q": 1, "R": 1}, ["c"], [])
        f = parse_formula(self.TEXT, vocab)
        space = _FoslSpace(vocab, f, 1, 1, True)
        space.assign(("f", "c", 0, 0), 0)
        space.assign(("p", "R", 0, 0), 2)
        assert self.evaluate(space, f) == ("p", "Q", 0, 0)

    def test_v1_space(self):
        vocab = make_v1_vocabulary(["K"], {"P": 1, "Q": 1, "R": 1}, {}, ["c"], [])
        f = parse_formula(self.TEXT, vocab)
        space = _V1Space(vocab, f, 1, 1, 1)
        space.configure(((0,),))
        space.assign(("f", "c", 0, 0), 0)
        # an indefinite atom over an individual of open admission blames
        # the sortal cell; with c admitted, only the atoms' bits are open
        space.assign(("p", "K", 0, 0), 1)
        space.assign(("p", "R", 0, 0), 2)
        assert self.evaluate(space, f) == ("p", "Q", 0, 0)


class TestProbing:
    """Every undecided instance has its blocking cell probed, however many
    times it reads unset cells."""

    TEXT = "(P(c) -> !P(c) & forall ?x !P(c)) & (!P(c) -> P(c) & forall ?x P(c))"

    def test_instances_reading_a_cell_three_times_refute_the_node(self):
        # each conjunct reads P(c) three times (a vacuous universal keeps
        # the level formula from merging the repeated reads); probed
        # alone, the first forces P(c) false and the second forces it
        # true, and without the probes the node stays open
        vocab = make_fosl_vocabulary({"P": 1}, ["c"], [])
        f = parse_formula(self.TEXT, vocab)
        outcomes = []
        for stubbed in (False, True):
            space = _FoslSpace(vocab, f, 1, 1, True)
            assert len(space.conjuncts) == 2
            space.assign(("f", "c", 0, 0), 0)
            probed = []
            probe = space._probe

            def recorded(cell, *args, _probe=probe, _stubbed=stubbed):
                probed.append(cell)
                return (2, None) if _stubbed else _probe(cell, *args)

            space._probe = recorded
            outcomes.append(space.propagate([]))
            assert probed == [("p", "P", 0, 0)] * 2
        assert outcomes == [(_F, None), (_U, ("p", "P", 0, 0))]

    def test_a_constant_named_prec_is_probed_at_every_element(self):
        # only the split space's function prec starts at the entities; a
        # constant may have that name where prec is no predicate
        vocab = make_fosl_vocabulary({"P": 1}, ["prec", "c"], [])
        f = parse_formula("P(prec) & !P(c)", vocab)
        outcome = find_fosl_model(vocab, f, Bounds(max_domain=2, max_precisifications=1))
        assert isinstance(outcome, ModelFound)
        assert outcome.structure.interpretation["p0"].constants["prec"] == "d0"


class TestSortSplit:
    """A sentence with bridge axioms 1, 2 and 4-6 among its top-level
    conjuncts makes ind/ext a rigid partition and prec a total function
    from ind to ext, and the standpoint search fixes the partition,
    individuals first, instead of branching on it element by element."""

    @staticmethod
    def count_splits(monkeypatch):
        # the split points configured; an unsplit space's one
        # configuration is None
        calls = []
        configure = _FoslSpace.configure

        def counted(space, r):
            if r is not None:
                calls.append((space.n, space.m, r))
            return configure(space, r)

        monkeypatch.setattr(_FoslSpace, "configure", counted)
        return calls

    @staticmethod
    def count_levels(monkeypatch, record):
        # record(space) for each level searched, as the search takes the
        # level's space, new or kept from an earlier search
        levels = []
        fosl_space = finder._fosl_space

        def counted(*args):
            space = fosl_space(*args)
            levels.append(record(space))
            return space

        monkeypatch.setattr(finder, "_fosl_space", counted)
        return levels

    @staticmethod
    def hard_translation():
        # seed 167 is unsat, so every level and every split is searched
        vocab = corpus_vocab()
        f = full_translation(generate_formula(vocab, 167, 4), vocab)
        return translated_vocabulary(vocab), f

    def test_full_translation_and_its_round_trip_split(self, monkeypatch):
        calls = self.count_splits(monkeypatch)
        vocab, f = self.hard_translation()
        again = parse_formula(print_formula(f), vocab)
        bounds = Bounds(max_domain=4, max_precisifications=2, timeout=60)
        for g in (f, again):
            calls.clear()
            assert isinstance(find_fosl_model(vocab, g, bounds), ExhaustedUnsat)
            # levels n = 2..4 at m = 1, 2, each split once per r = 1..n-1:
            # the name n denotes an individual, which has a precise version
            assert calls == [(n, m, r) for n in (2, 3, 4) for m in (1, 2)
                             for r in range(1, n)]

    def test_no_space_at_one_element(self, monkeypatch):
        # the name n denotes an individual, and every individual has a
        # precise version, so a one-element level is unsat before any
        # space is set up; the search without symmetry reduction is not
        # split and searches every level
        levels = self.count_levels(monkeypatch, lambda space: (space.n, space.m))
        vocab, f = self.hard_translation()
        for symmetry, sizes in ((True, (2, 3)), (False, (1, 2, 3))):
            levels.clear()
            bounds = Bounds(max_domain=3, max_precisifications=2, timeout=60,
                            symmetry_reduction=symmetry)
            assert isinstance(find_fosl_model(vocab, f, bounds), ExhaustedUnsat)
            assert levels == [(n, m) for n in sizes for m in (1, 2)]

    def test_floors_fall_back_without_their_axioms(self, monkeypatch):
        # without the name-typing axiom a model may have no individual
        # (r = 0), so the one-element level is split like the others
        calls = self.count_splits(monkeypatch)
        vocab, f = self.hard_translation()
        parts = finder.conjuncts(f)
        axioms = dict(labeled_axioms(corpus_vocab()))
        bounds = Bounds(max_domain=3, max_precisifications=2, timeout=60)
        axiom = Box("*", axioms["names:n"])
        assert axiom in parts
        g = conjoin([p for p in parts if p != axiom])
        assert isinstance(find_fosl_model(vocab, g, bounds), ExhaustedUnsat)
        assert calls == [(n, m, r) for n in (1, 2, 3) for m in (1, 2) for r in range(n)]

    def test_nameless_one_element_level_is_split_with_prec_cells(self, monkeypatch):
        # without names the ind floor is 0, so the one-element level is
        # split at r = 0, all entities, and holds prec as value cells.
        # Seed 3 needs an individual, so it is unsat there at m = 1 and
        # m = 2; seed 5, forall ?x Shape(?x), holds vacuously there.
        calls = self.count_splits(monkeypatch)
        flat = self.count_levels(monkeypatch, lambda space: (space.n, space.prec_cells))
        vocab = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, [], ["s"])
        trans_vocab = translated_vocabulary(vocab)
        bounds = Bounds(max_domain=2, max_precisifications=2, timeout=60)
        for seed, levels, domain in ((3, 2, 2), (5, 1, 1)):
            f = full_translation(generate_formula(vocab, seed, 4), vocab)
            calls.clear()
            flat.clear()
            outcome = find_fosl_model(trans_vocab, f, bounds)
            assert calls[:levels] == [(1, m, 0) for m in range(1, levels + 1)]
            assert flat[:levels] == [(1, True)] * levels
            assert isinstance(outcome, ModelFound)
            assert naive_is_model(outcome.structure, f)
            assert len(outcome.structure.domain) == domain

    @pytest.mark.parametrize("label", ["1", "2", "4", "5", "6"])
    def test_no_split_without_axiom(self, label, monkeypatch):
        # a split reads ind, ext and prec off its split point, which only
        # all five axioms together allow
        calls = self.count_splits(monkeypatch)
        vocab, f = self.hard_translation()
        axiom = Box("*", dict(labeled_axioms(corpus_vocab()))[label])
        parts = finder.conjuncts(f)
        assert axiom in parts
        g = conjoin([p for p in parts if p != axiom])
        bounds = Bounds(max_domain=3, max_precisifications=2, timeout=60)
        find_fosl_model(vocab, g, bounds)
        assert calls == []

    def test_split_space_reads_the_split_point(self, monkeypatch):
        # a split space holds no table of ind, ext or prec bits;
        # configure(r) opens no trail frame and assigns no cell, and the
        # individuals of a model are the first r elements at every
        # precisification
        vocab, f = self.hard_translation()
        space = _FoslSpace(vocab, f, 4, 2, True, prec_cells=True)
        assert not {("p", "ind"), ("p", "ext"), ("p", "prec")} & set(space.tables)
        assigned = []
        monkeypatch.setattr(space, "assign", lambda *args: assigned.append(args))
        frames = len(space.trail)
        assert space.configure(2) is None
        assert len(space.trail) == frames and space.trail[-1] == []
        assert assigned == []
        assert space.first_ext == 2 and space.blocks == ((0, 2), (2, 4))
        monkeypatch.undo()

        models = []
        materialize = _FoslSpace.materialize

        def recorded(space):
            model = materialize(space)
            models.append((space.first_ext, model))
            return model

        monkeypatch.setattr(_FoslSpace, "materialize", recorded)
        source = corpus_vocab()
        bounds = Bounds(max_domain=3, max_precisifications=2, timeout=60)
        for seed in range(40):
            f = full_translation(generate_formula(source, seed, 4), source)
            find_fosl_model(vocab, f, bounds)
        assert len(models) > 20
        for r, model in models:
            for pi in model.precisifications:
                table = model.interpretation[pi].predicates
                assert sorted(table["ind"]) == [(f"d{i}",) for i in range(r)]
                assert sorted(table["ext"]) == [(e,) for e in model.domain[r:]]

    # the corpus at domain 3, and the six equisat_hard sentences
    # (bench/data/equisat_hard.json) at domain 4, the level they exhaust
    @pytest.mark.parametrize("seeds, domain, outcomes", [
        (range(60), 3, {ModelFound, ExhaustedUnsat}),
        ((1272, 1878, 333, 2746, 672, 167), 4, {ExhaustedUnsat}),
    ], ids=["corpus", "hard"])
    def test_split_outcomes_match_unsplit_search(self, seeds, domain, outcomes, monkeypatch):
        # the split search holds prec as value cells and drops axioms 4-6;
        # the unsplit one, without symmetry reduction, keeps the bits
        calls = self.count_splits(monkeypatch)
        flat = self.count_levels(monkeypatch, lambda space: space.prec_cells)
        vocab = corpus_vocab()
        trans_vocab = translated_vocabulary(vocab)
        on = Bounds(max_domain=domain, max_precisifications=2, timeout=60)
        off = Bounds(max_domain=domain, max_precisifications=2, timeout=60,
                     symmetry_reduction=False)
        seen = set()
        splitting = 0
        for seed in seeds:
            f = full_translation(generate_formula(vocab, seed, 4), vocab)
            calls.clear()
            flat.clear()
            split = find_fosl_model(trans_vocab, f, on)
            splitting += bool(calls)
            assert all(flat), seed
            calls.clear()
            flat.clear()
            plain = find_fosl_model(trans_vocab, f, off)
            assert not calls and not any(flat), seed
            assert type(split) == type(plain), seed
            seen.add(type(split))
        assert seen == outcomes
        assert splitting > 0.75 * len(seeds)

    @pytest.mark.parametrize("entities, individuals", [(1, 2), (2, 1)])
    def test_backward_outcome_same_with_and_without_lnh(self, entities, individuals):
        # the backward search is split and capped at the V1 bounds in both
        # modes; symmetry reduction only switches the least-number heuristic
        vocab = corpus_vocab()
        on = Bounds(max_entities=entities, max_individuals=individuals,
                    max_precisifications=2, timeout=60)
        off = Bounds(max_entities=entities, max_individuals=individuals,
                     max_precisifications=2, timeout=60, symmetry_reduction=False)
        seen = set()
        for seed in range(60):
            f = generate_formula(vocab, seed, 4)
            split = equisat_check(vocab, f, on).directions[1]
            plain = equisat_check(vocab, f, off).directions[1]
            assert split.outcome == plain.outcome, seed
            seen.add(split.outcome)
        assert seen == {"sat", "unsat"}

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_backward_search_stays_within_the_v1_bounds(self, symmetry):
        # these sentences have standpoint models only beyond entities 2,
        # individuals 1 (r = 2 ind elements), which the backward search no
        # longer searches
        vocab = corpus_vocab()
        bounds = Bounds(max_entities=2, max_individuals=1, max_precisifications=2,
                        timeout=60, symmetry_reduction=symmetry)
        for seed in (27, 39, 94, 164):
            report = equisat_check(vocab, generate_formula(vocab, seed, 4), bounds)
            assert report.agreement == "unsat", seed
            assert [d.outcome for d in report.directions] == ["unsat", "unsat"], seed
            assert all("note" not in d for d in report.to_dict()["directions"]), seed

    def test_backward_outcome_matches_the_uncapped_reference(self):
        # the public search, unsplit without symmetry reduction, at domain
        # E + I on the same translation: the capped backward search is
        # unsat where it is, and sat where its first model lowers within
        # the bounds
        vocab = corpus_vocab()
        trans_vocab = translated_vocabulary(vocab)
        verdicts = {"unsat": 0, "within": 0, "beyond": 0}
        for entities, individuals in ((1, 2), (2, 1)):
            bounds = Bounds(max_entities=entities, max_individuals=individuals,
                            max_precisifications=2, timeout=60)
            reference = Bounds(max_domain=entities + individuals, max_precisifications=2,
                               timeout=60, symmetry_reduction=False)
            for seed in range(60):
                f = generate_formula(vocab, seed, 4)
                capped = equisat_check(vocab, f, bounds).directions[1].outcome
                ref = find_fosl_model(trans_vocab, full_translation(f, vocab),
                                      reference)
                if isinstance(ref, ExhaustedUnsat):
                    verdicts["unsat"] += 1
                    assert capped == "unsat", (entities, individuals, seed)
                    continue
                lowered = lower_model(ref.structure, vocab)
                if (len(lowered.entities) <= entities
                        and len(lowered.registry) <= individuals):
                    verdicts["within"] += 1
                    assert capped == "sat", (entities, individuals, seed)
                else:
                    verdicts["beyond"] += 1
        assert min(verdicts.values()) > 0, verdicts

    def test_flattened_prec_is_a_total_function(self, monkeypatch):
        # every model has two individuals whose precise versions swap
        # between two precisifications: a is a Shape at one and b at the
        # other, so prec is decided per individual and precisification
        vocab = make_v1_vocabulary(["K"], {}, {"Shape": 1}, ["a", "b"], [])
        f = parse_formula("<*>(Shape(a) & !Shape(b)) & <*>(!Shape(a) & Shape(b))", vocab)
        found = []  # (prec_cells, model) per materialized model
        materialize = _FoslSpace.materialize

        def recorded(space):
            model = materialize(space)
            found.append((space.prec_cells, model))
            return model

        monkeypatch.setattr(_FoslSpace, "materialize", recorded)
        report = equisat_check(vocab, f, CORPUS_BOUNDS)
        assert report.agreement == "sat"
        assert [flat for flat, _ in found] == [True]
        model = found[0][1]
        assert report.directions[1].model == fosl_structure_to_dict(model)
        assert naive_is_model(model, full_translation(f, vocab))
        images = {}
        for pi in model.precisifications:
            table = model.interpretation[pi].predicates
            ind = {row[0] for row in table["ind"]}
            ext = {row[0] for row in table["ext"]}
            pairs = table["prec"]
            assert {x for x, _ in pairs} == ind and len(pairs) == len(ind)
            assert all(y in ext for _, y in pairs)
            images[pi] = dict(pairs)
        moved = [x for x in ind if len({images[pi][x] for pi in images}) > 1]
        assert len(moved) >= 2

    @pytest.mark.parametrize("seed", [167, 1044, 42])
    def test_valid_memos_with_prec_cells(self, seed):
        # TestMemoInvariant's random walk on a space with prec's value
        # cells, in short rounds at a random split each: a new split moves
        # where the entities start, which every prec atom reads
        vocab = corpus_vocab()
        f = full_translation(generate_formula(vocab, seed, 4), vocab)
        space = _FoslSpace(translated_vocabulary(vocab), f, 4, 2, True, prec_cells=True)
        checked = []
        scan = space._scan

        def checked_scan():
            result = scan()
            checked.append(TestMemoInvariant.check_memos(space))
            return result

        space._scan = checked_scan
        rng = random.Random(seed)
        function_cells = 0  # assigned or forced
        for _ in range(40):
            r = rng.randint(1, 3)
            space.configure(r)
            space.trail.append([])
            steps: list[list[tuple]] = []
            for _ in range(rng.randint(1, 8)):
                open_cells = list(TestMemoInvariant.cells(space))
                open_cells += [("f", "prec", pi, i) for pi in range(space.m) for i in range(r)
                               if space.tables["f", "prec"][pi][i] is None]
                if not open_cells:
                    break
                cell = rng.choice(open_cells)
                space.assign(cell, rng.choice(space.branch_values(cell)))
                assigned = [cell]
                v, _ = space.propagate(assigned)
                steps.append(assigned)
                function_cells += sum(c[:2] == ("f", "prec") for c in assigned)
                if v == _F:
                    break
            for step in reversed(steps):
                for cell in reversed(step):
                    space.unassign(cell)
            space.pop_frame()
        assert len(checked) > 100 and sum(checked) > 1000
        assert function_cells > 0

    def test_constant_values_per_block(self):
        vocab = corpus_vocab()
        f = full_translation(generate_formula(vocab, 167, 4), vocab)
        space = _FoslSpace(translated_vocabulary(vocab), f, 4, 2, True, prec_cells=True)
        cell = ("f", "n", 0, 0)
        assert space.branch_values(cell) == (0,)
        space.configure(2)
        assert space.branch_values(cell) == (0, 2)
        space.decide(("p", "Kind", 1, 3), 1)
        assert space.branch_values(cell) == (0, 2, 3)
        space.decide(("f", "n", 1, 0), 0)
        assert space.branch_values(cell) == (0, 1, 2, 3)
        space.unassign(("f", "n", 1, 0))
        space.unassign(("p", "Kind", 1, 3))
        assert space.branch_values(cell) == (0, 2)

    def test_function_cell_values_per_block(self):
        vocab = corpus_vocab()
        f = full_translation(generate_formula(vocab, 167, 4), vocab)
        space = _FoslSpace(translated_vocabulary(vocab), f, 5, 2, True, prec_cells=True)
        assert ("p", "prec") not in space.tables
        space.configure(3)
        constant, function = ("f", "n", 0, 0), ("f", "prec", 1, 0)
        # a function cell takes the entity block's values only
        assert space.branch_values(constant) == (0, 3)
        assert space.branch_values(function) == (3,)
        # a decision names both the individual and its precise version
        space.decide(("f", "prec", 0, 1), 4)
        assert space.branch_values(constant) == (0, 1, 2, 3, 4)
        assert space.branch_values(function) == (3, 4)
        space.unassign(("f", "prec", 0, 1))
        assert space.branch_values(constant) == (0, 3)
        assert space.tables["f", "prec"][0][1] is None

    @staticmethod
    def expected_choices(space, decisions):
        # from scratch: every element a decision on the current path
        # names; per block, values up to the largest of them plus one
        mentioned = set()
        for cell in decisions:
            if cell[0] == "f":
                # a constant names its value, and a prec cell its
                # individual and its value
                kind, symbol, pi, rank = cell
                if symbol == "prec":
                    mentioned.add(rank)
                mentioned.add(space.tables[kind, symbol][pi][rank])
            elif cell[0] == "p":
                rank = cell[3]
                for _ in range(space.preds[cell[1]]):
                    mentioned.add(rank % space.n)
                    rank //= space.n
        out = []
        for lo, hi in space.blocks:
            top = max((e for e in mentioned if lo <= e < hi), default=lo - 1)
            out.extend(range(lo, min(top + 1, hi - 1) + 1))
        return tuple(out)

    # seed 167 decides prec's function cells (78 decisions at domain 5);
    # every one seed 42 meets is forced, and it needs domain 7 for the
    # checks to stay many now that prec's bits, axioms 1, 2 and 4-6 and
    # the sort cells are gone
    @pytest.mark.parametrize("seed, domain, decides_functions",
                             [(167, 5, True), (42, 7, False)], ids=["167", "42"])
    def test_search_keeps_block_values_in_step(self, seed, domain, decides_functions,
                                               monkeypatch):
        checked = []
        decisions = []  # the decided cells on the current path
        function_decisions = 0
        for name in ("assign", "decide", "unassign"):
            method = getattr(_FoslSpace, name)

            def checked_method(space, cell, *args, _name=name, _method=method):
                nonlocal function_decisions
                _method(space, cell, *args)
                if _name == "decide":
                    decisions.append(cell)
                    function_decisions += cell[:2] == ("f", "prec")
                elif _name == "unassign" and decisions and decisions[-1] == cell:
                    decisions.pop()
                assert space.choices == self.expected_choices(space, decisions)
                checked.append(len(space.blocks))

            monkeypatch.setattr(_FoslSpace, name, checked_method)
        vocab = corpus_vocab()
        f = full_translation(generate_formula(vocab, seed, 4), vocab)
        # level n=4 is the one the equisat_hard sentences exhaust
        bounds = Bounds(max_domain=domain, max_precisifications=2, timeout=60)
        find_fosl_model(translated_vocabulary(vocab), f, bounds)
        assert checked.count(2) > 1000
        assert (function_decisions > 0) == decides_functions


class TestFalseLevels:
    """A level formula that simplifies to false has no model at its
    precisification count, whatever the domain size: neither engine
    sets up a level of that count."""

    @staticmethod
    def search(monkeypatch, text):
        # find_v1_model's outcome, equisat_check's report, and the kind and
        # precisification count of every space either sets up: each V1
        # space built and each standpoint space loaded, new or kept
        set_up = []
        init, load = _V1Space.__init__, _FoslSpace.load

        def built(space, vocab, f, ne, m, r):
            set_up.append(("v1", m))
            init(space, vocab, f, ne, m, r)

        def loaded(space, f, deadline=float("inf")):
            set_up.append(("fosl", space.m))
            load(space, f, deadline)

        monkeypatch.setattr(_V1Space, "__init__", built)
        monkeypatch.setattr(_FoslSpace, "load", loaded)
        vocab = corpus_vocab()
        f = parse_formula(text, vocab)
        outcome = find_v1_model(vocab, f, CORPUS_BOUNDS)
        return outcome, equisat_check(vocab, f, CORPUS_BOUNDS), set_up

    def test_false_at_every_count_sets_up_no_level(self, monkeypatch):
        outcome, report, set_up = self.search(monkeypatch, "Attr(n) & !Attr(n)")
        assert isinstance(outcome, ExhaustedUnsat)
        assert [d.outcome for d in report.directions] == ["unsat", "unsat"]
        assert set_up == [] and not finder._spaces

    def test_false_at_one_count_searches_the_others(self, monkeypatch):
        # [*] collapses at m = 1, where the sentence folds to false; at
        # m = 2 it is unsat too, but only a search shows it
        outcome, report, set_up = self.search(monkeypatch, "Attr(n) & [*] !Attr(n)")
        assert isinstance(outcome, ExhaustedUnsat)
        assert report.agreement == "unsat"
        assert {kind for kind, _ in set_up} == {"v1", "fosl"}
        assert {m for _, m in set_up} == {2}


class TestLevelFormula:
    """The level formula simplifies each top-level conjunct on its own,
    the shared bridge axioms through their cache, and merges the results
    as _simplify merges a conjunction."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_equals_the_whole_simplification(self, m):
        vocab = corpus_vocab()
        for seed in range(40):
            sentence = generate_formula(vocab, seed, 4)
            for f in (sentence, full_translation(sentence, vocab)):
                s = finder._simplify(f, m)[0]
                expected = truth() if s is True else s
                assert finder._level(f, m)[0] == expected

    def test_shared_axioms_are_simplified_once_per_m(self):
        vocab = corpus_vocab()
        one, two = (full_translation(generate_formula(vocab, seed, 4), vocab)
                    for seed in (1, 2))
        finder._level(one, 2)
        before = finder._simplify_shared.cache_info()
        finder._level(two, 2)
        after = finder._simplify_shared.cache_info()
        assert after.misses == before.misses
        assert after.hits - before.hits == len(labeled_axioms(vocab))

    def test_unchanged_formula_is_returned_as_is(self):
        vocab = make_fosl_vocabulary({"P": 1, "Q": 1}, [], ["s"])
        f = parse_formula("forall ?x (P(?x) -> [s] Q(?x))", vocab)
        assert finder._level(f, 2)[0] is f
        assert finder._level(f, 1)[0] is f
