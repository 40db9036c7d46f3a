import json
import warnings

import pytest

from splogic import (
    Bounds,
    Box,
    Const,
    EvaluationError,
    ModelFormatError,
    Var,
    eval_term_v1,
    is_model,
    print_formula,
    generate_formula,
    generate_v1_structure,
    individuals_at,
    is_model_v1,
    make_fosl_structure,
    make_fosl_vocabulary,
    make_v1_structure,
    make_v1_vocabulary,
    parse_formula,
    satisfies,
    satisfies_at_v1,
    satisfies_v1,
    v1_structure_from_dict,
    v1_structure_to_dict,
    vocabulary_of_v1_model,
)

from naive_eval import naive_is_model_v1, naive_satisfies_v1

BOUNDS = Bounds(max_entities=3, max_individuals=3, max_precisifications=2, timeout=60)


def pf(text, vocab):
    return parse_formula(text, vocab)


class TestIndividualsAt:
    def test_union_of_sortal_extensions(self, v0):
        assert individuals_at(v0, "p1") == {"i_h", "i_d"}

    def test_empty_when_all_sortals_empty(self):
        m = make_v1_structure(
            ["e0"], ["p1"], {}, {"i0": {"p1": "e0"}},
            {"p1": {"Kind": []}},
        )
        assert individuals_at(m, "p1") == frozenset()

    def test_reads_only_sortals(self, v0):
        # identical sortal tables with different indefinite/precise parts
        # give the same quantifier domain
        other = make_v1_structure(
            list(v0.entities), list(v0.precisifications), {},
            {i: dict(ind.extent) for i, ind in v0.registry.items()},
            {pi: {k: sorted(ids) for k, ids in v0.sortals[pi].items()}
             for pi in v0.precisifications},
            {}, {}, {pi: dict(v0.names[pi]) for pi in v0.precisifications},
        )
        for pi in v0.precisifications:
            assert individuals_at(other, pi) == individuals_at(v0, pi)


class TestEvalTerm:
    def test_name_lookup(self, v0):
        assert eval_term_v1(v0, "p1", {}, Const("house")) == "i_h"
        assert eval_term_v1(v0, "p2", {}, Const("a")) == "i_d"

    def test_variable_lookup(self, v0):
        assert eval_term_v1(v0, "p1", {"x": "i_d"}, Var("x")) == "i_d"

    def test_variable_bound_outside_registry_rejected(self, v0):
        with pytest.raises(EvaluationError):
            eval_term_v1(v0, "p1", {"x": "ghost"}, Var("x"))

    def test_unknown_name(self, v0):
        with pytest.raises(EvaluationError):
            eval_term_v1(v0, "p1", {}, Const("zzz"))


class TestSatisfies:
    def test_precise_atom_dereferences_per_precisification(self, v0, desert_v1_vocab):
        f = pf("PartOf(house, a)", desert_v1_vocab)
        assert satisfies_v1(v0, "p1", {}, f) is True
        assert satisfies_v1(v0, "p2", {}, f) is False

    def test_formula_c_holds_in_v0(self, v0, formula_c_v1):
        assert satisfies_v1(v0, "p1", {}, formula_c_v1) is True
        assert is_model_v1(v0, formula_c_v1) is True

    @pytest.mark.parametrize("entry", [
        pytest.param(lambda m, f: is_model_v1(m, f), id="is_model_v1"),
        pytest.param(lambda m, f: satisfies_at_v1(m, "p1", f), id="satisfies_at_v1"),
        pytest.param(lambda m, f: satisfies_v1(m, "p1", {}, f), id="satisfies_v1"),
    ])
    def test_deep_nesting_is_an_evaluation_error(self, v0, desert_v1_vocab, entry):
        f = pf("Desert(a)", desert_v1_vocab)
        for _ in range(1500):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            entry(v0, f)

    def test_quantifier_covers_sortal_domain(self, v0, desert_v1_vocab):
        f = pf("forall ?x (Building(?x) | Desert(?x))", desert_v1_vocab)
        assert satisfies_v1(v0, "p1", {}, f) is True

    def test_repaired_disambiguation_fixture(self, vd, formula_d):
        assert satisfies_v1(vd, "p1", {}, formula_d) is True
        assert is_model_v1(vd, formula_d) is True

    def test_satisfies_at_over_registry(self, v0, desert_v1_vocab):
        # ?x ranges over the registry when free, so the sortal atom fails
        # for the building individual
        assert satisfies_at_v1(v0, "p1", pf("Desert(?x)", desert_v1_vocab)) is False
        assert satisfies_at_v1(v0, "p1", pf("?x = ?x", desert_v1_vocab)) is True


class TestLocality:
    def test_precise_atom_depends_only_on_current_extent(self, v0, desert_v1_vocab):
        f = pf("PartOf(house, a)", desert_v1_vocab)
        # change i_d's extension only at p2: the p1 verdict is unaffected
        tweaked = make_v1_structure(
            list(v0.entities), list(v0.precisifications), {},
            {"i_h": {"p1": "e_h", "p2": "e_h"}, "i_d": {"p1": "e1", "p2": "e1"}},
            {pi: {k: sorted(ids) for k, ids in v0.sortals[pi].items()}
             for pi in v0.precisifications},
            {pi: {a: sorted(list(r) for r in rows) for a, rows in v0.indefinite[pi].items()}
             for pi in v0.precisifications},
            {q: sorted(list(r) for r in rows) for q, rows in v0.precise.items()},
            {pi: dict(v0.names[pi]) for pi in v0.precisifications},
        )
        assert satisfies_v1(tweaked, "p1", {}, f) == satisfies_v1(v0, "p1", {}, f)

    def test_sortal_and_indefinite_atoms_ignore_extents(self, v0, desert_v1_vocab):
        # rigidly remap every individual to one entity: classification atoms
        # keep their truth values
        remapped = make_v1_structure(
            list(v0.entities), list(v0.precisifications), {},
            {"i_h": {"p1": "e2", "p2": "e2"}, "i_d": {"p1": "e2", "p2": "e2"}},
            {pi: {k: sorted(ids) for k, ids in v0.sortals[pi].items()}
             for pi in v0.precisifications},
            {pi: {a: sorted(list(r) for r in rows) for a, rows in v0.indefinite[pi].items()}
             for pi in v0.precisifications},
            {q: sorted(list(r) for r in rows) for q, rows in v0.precise.items()},
            {pi: dict(v0.names[pi]) for pi in v0.precisifications},
        )
        for text in ["Desert(a)", "Building(house)", "AridArea(a)"]:
            f = pf(text, desert_v1_vocab)
            for pi in v0.precisifications:
                assert satisfies_v1(remapped, pi, {}, f) == satisfies_v1(v0, pi, {}, f)

    def test_existential_false_over_empty_domain(self):
        vocab = make_v1_vocabulary(["Kind"], {}, {}, [], [])
        m = make_v1_structure(
            ["e0"], ["p1"], {}, {"i0": {"p1": "e0"}}, {"p1": {"Kind": []}},
        )
        assert satisfies_v1(m, "p1", {}, pf("exists ?x Kind(?x)", vocab)) is False


class TestReferenceAgreement:
    def test_thousand_random_instances(self):
        import random

        vocab = make_v1_vocabulary(
            ["Kind", "Sort"], {"Attr": 1, "Rel": 2}, {"Shape": 1}, ["n"], ["s"]
        )
        rng = random.Random(5)
        checked = 0
        for seed in range(400):
            m = generate_v1_structure(vocab, seed, BOUNDS)
            f = generate_formula(vocab, seed + 7000, 3, free_vars=("x",))
            idents = sorted(m.registry)
            for pi in m.precisifications:
                for _ in range(2):
                    v = {"x": rng.choice(idents)}
                    assert satisfies_v1(m, pi, v, f) == naive_satisfies_v1(m, pi, v, f)
                    checked += 1
        assert checked >= 1000

    def test_is_model_agreement(self, v0, formula_c_v1):
        assert is_model_v1(v0, formula_c_v1) == naive_is_model_v1(v0, formula_c_v1)


class TestFoslEmbedding:
    def test_rigid_full_domain_structures_match_fosl(self):
        # with no precise predicates, one shared entity, and every
        # individual admitted by a sortal everywhere, the variable
        # reference semantics collapses to the standpoint semantics over
        # the registry
        vocab = make_v1_vocabulary(["Kind", "Sort"], {"Attr": 1}, {}, ["n"], ["s"])
        fosl_vocab = make_fosl_vocabulary(
            {"Kind": 1, "Sort": 1, "Attr": 1}, ["n"], ["s"]
        )
        for seed in range(60):
            m = generate_v1_structure(vocab, seed, BOUNDS)
            idents = sorted(m.registry)
            sortals = {
                pi: {"Kind": idents,
                     "Sort": sorted(m.sortals[pi]["Sort"])}
                for pi in m.precisifications
            }
            full = make_v1_structure(
                list(m.entities), list(m.precisifications),
                {sp: sorted(ps) for sp, ps in m.sigma.items() if sp != "*"},
                {i: dict(ind.extent) for i, ind in m.registry.items()},
                sortals,
                {pi: {a: sorted(list(r) for r in rows)
                      for a, rows in m.indefinite[pi].items()}
                 for pi in m.precisifications},
                {},
                {pi: dict(m.names[pi]) for pi in m.precisifications},
            )
            twin = make_fosl_structure(
                idents, list(full.precisifications),
                {sp: sorted(ps) for sp, ps in full.sigma.items() if sp != "*"},
                {pi: {"predicates": {
                        "Kind": [[i] for i in sorted(full.sortals[pi]["Kind"])],
                        "Sort": [[i] for i in sorted(full.sortals[pi]["Sort"])],
                        "Attr": [list(r) for r in sorted(full.indefinite[pi]["Attr"])],
                      },
                      "constants": dict(full.names[pi])}
                 for pi in full.precisifications},
            )
            f = generate_formula(vocab, seed + 8000, 3)
            twin_f = parse_formula(print_formula(f), fosl_vocab)
            assert is_model_v1(full, f) == is_model(twin, twin_f)


class TestStructureValidation:
    def test_entity_individual_collision_rejected(self):
        with pytest.raises(ModelFormatError):
            make_v1_structure(
                ["x"], ["p1"], {}, {"x": {"p1": "x"}}, {"p1": {"Kind": []}},
            )

    def test_partial_extent_rejected(self):
        with pytest.raises(ModelFormatError):
            make_v1_structure(
                ["e0"], ["p1", "p2"], {}, {"i0": {"p1": "e0"}}, {"p1": {}},
            )

    def test_indefinite_outside_domain_rejected(self, v0):
        with pytest.raises(ModelFormatError):
            make_v1_structure(
                ["e0"], ["p1"], {}, {"i0": {"p1": "e0"}},
                {"p1": {"Kind": []}},
                {"p1": {"Attr": [["i0"]]}},
            )

    def test_name_outside_domain_rejected(self):
        with pytest.raises(ModelFormatError):
            make_v1_structure(
                ["e0"], ["p1"], {}, {"i0": {"p1": "e0"}},
                {"p1": {"Kind": []}},
                {}, {}, {"p1": {"n": "i0"}},
            )

    @pytest.mark.parametrize("entities, precs, match", [
        ([], ["p1"], "entity set must be non-empty"),
        (["e0", "e0"], ["p1"], "duplicate entity identifiers"),
        (["e0"], [], "precisification set must be non-empty"),
        (["e0"], ["p1", "p1"], "duplicate precisification identifiers"),
    ])
    def test_bad_identifier_list_rejected(self, entities, precs, match):
        with pytest.raises(ModelFormatError, match=match):
            make_v1_structure(entities, precs, {}, {}, {})

    @pytest.mark.parametrize("indefinite, precise, table", [
        ({"p1": {"Attr": [["i0"], ["i0", "i0"]]}}, {}, "indefinite table at 'p1'"),
        ({"p1": {"Attr": [["i0"]]}, "p2": {"Attr": [["i0", "i0"]]}}, {},
         "indefinite table at 'p2'"),
        ({}, {"Attr": [["e0"], ["e0", "e0"]]}, "precise table"),
        ({"p1": {"Attr": [["i0"]]}}, {"Attr": [["e0", "e0"]]}, "precise table"),
    ])
    def test_mixed_arity_rejected(self, indefinite, precise, table):
        with pytest.raises(ModelFormatError, match=f"{table} gives 'Attr' arity"):
            make_v1_structure(
                ["e0"], ["p1", "p2"], {}, {"i0": {"p1": "e0", "p2": "e0"}},
                {"p1": {"Kind": ["i0"]}, "p2": {"Kind": ["i0"]}},
                indefinite, precise,
            )

    def test_unknown_sortal_members_listed_in_order(self):
        with pytest.raises(ModelFormatError, match=r"sortal 'K' .* \['x1', 'x2', 'x3'\]"):
            make_v1_structure(["e0"], ["p1"], {}, {}, {"p1": {"K": ["x3", "x1", "x2"]}})

    @pytest.mark.parametrize("sortals, indefinite, precise, tables", [
        ({"p0": {"K": ["i0"]}}, {"p0": {"K": []}}, {}, "sortal and the indefinite"),
        ({"p0": {"Kind": ["i0"]}}, {"p0": {"K": [["i0"]]}}, {"K": [["e0"]]},
         "indefinite and the precise"),
    ])
    def test_predicate_in_two_tables_rejected(self, sortals, indefinite, precise, tables):
        # a sortal read as indefinite too would be lifted with the
        # indefinite rows alone, so the loader accepts one table per predicate
        with pytest.raises(ModelFormatError, match=f"predicate 'K' is in both the {tables} tables"):
            make_v1_structure(
                ["e0"], ["p0"], {}, {"i0": {"p0": "e0"}}, sortals, indefinite, precise,
                {"p0": {"n": "i0"}},
            )

    def test_shared_maps_load_without_warning(self):
        # individuals with one extension map are distinct individuals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = make_v1_structure(
                ["e0"], ["p1"], {},
                {"i0": {"p1": "e0"}, "i1": {"p1": "e0"}},
                {"p1": {"Kind": ["i0", "i1"]}},
            )
        assert sorted(m.registry) == ["i0", "i1"]

    def test_precise_tuple_outside_entities_rejected(self):
        with pytest.raises(ModelFormatError):
            make_v1_structure(
                ["e0"], ["p1"], {}, {"i0": {"p1": "e0"}},
                {"p1": {"Kind": ["i0"]}},
                {}, {"Shape": [["е_бад"]]},
            )

    def test_json_roundtrip(self, v0):
        data = v1_structure_to_dict(v0)
        again = v1_structure_from_dict(json.loads(json.dumps(data)))
        assert again == v0

    def test_unknown_key_rejected(self):
        with pytest.raises(ModelFormatError):
            v1_structure_from_dict({"entities": ["e0"], "precisifications": ["p1"],
                                    "individuals": {}, "sortals": {}, "junk": 0})

    def test_vocabulary_of_model(self, v0):
        vocab = vocabulary_of_v1_model(v0)
        assert vocab.sortals == {"Building", "Desert"}
        assert vocab.indefinite == {"AridArea": 1}
        assert vocab.precise == {"PartOf": 2}
        assert vocab.names == {"house", "a"}

    def test_generated_structures_pass_loader_validation(self):
        vocab = make_v1_vocabulary(
            ["Kind", "Sort"], {"Attr": 1}, {"Shape": 2}, ["n"], ["s"]
        )
        for seed in range(40):
            m = generate_v1_structure(vocab, seed, BOUNDS)
            again = v1_structure_from_dict(v1_structure_to_dict(m))
            assert again == m
