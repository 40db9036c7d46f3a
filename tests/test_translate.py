import itertools

import pytest

from splogic import (
    AxiomViolationError,
    Bounds,
    Box,
    EvaluationError,
    ExhaustedUnsat,
    ModelFormatError,
    SplError,
    axiom_set,
    conjoin,
    equisat_check,
    find_fosl_model,
    find_v1_model,
    formula_size,
    fosl_structure_to_dict,
    fosl_structure_from_dict,
    full_translation,
    generate_formula,
    generate_v1_structure,
    is_model,
    is_model_v1,
    is_monodic,
    labeled_axioms,
    lift_model,
    lower_model,
    make_fosl_structure,
    make_v1_vocabulary,
    parse_formula,
    print_formula,
    satisfies_v1,
    translate_formula,
    translated_vocabulary,
    translation_report,
    v1_structure_from_dict,
    v1_structure_to_dict,
)
from splogic import translate
from splogic.parser import parse_raw
from splogic.syntax import conjuncts


def pr(text):
    return parse_raw(text)


class TestTranslateFormula:
    def test_sortal_atom_passes_through(self, desert_v1_vocab):
        f = parse_formula("Desert(a)", desert_v1_vocab)
        assert translate_formula(f, desert_v1_vocab) == f

    def test_indefinite_atom_passes_through(self):
        vocab = make_v1_vocabulary(["Desert"], {"Dry": 1}, {}, [], [])
        f = parse_formula("Dry(?x) & Dry(?x)", vocab)
        assert translate_formula(f, vocab) == f

    def test_universal_relativizes_to_admitted_individuals(self):
        vocab = make_v1_vocabulary(["Desert"], {"Dry": 1}, {}, [], [])
        f = parse_formula("forall ?x Dry(?x)", vocab)
        assert translate_formula(f, vocab) == pr("forall ?x (ink(?x) -> Dry(?x))")

    def test_precise_atom_projects_through_prec(self, desert_v1_vocab):
        f = parse_formula("PartOf(house, a)", desert_v1_vocab)
        expected = pr(
            "exists ?e1 exists ?e2 (PartOf(?e1, ?e2) & prec(house, ?e1) & prec(a, ?e2))"
        )
        assert translate_formula(f, desert_v1_vocab) == expected

    def test_fresh_witnesses_never_reused(self, desert_v1_vocab):
        f = parse_formula("PartOf(house, a) & PartOf(a, house)", desert_v1_vocab)
        out = print_formula(translate_formula(f, desert_v1_vocab))
        for name in ("?e1", "?e2", "?e3", "?e4"):
            assert name in out

    def test_fresh_witnesses_avoid_source_variables(self, desert_v1_vocab):
        f = parse_formula("exists ?e1 PartOf(?e1, a)", desert_v1_vocab)
        out = translate_formula(f, desert_v1_vocab)
        text = print_formula(out)
        assert "prec(?e1, ?e2)" in text  # witnesses start after the taken name

    def test_equality_passes_through(self, desert_v1_vocab):
        f = parse_formula("house = a", desert_v1_vocab)
        assert translate_formula(f, desert_v1_vocab) == f

    def test_homomorphic_on_connectives_and_boxes(self, desert_v1_vocab):
        from splogic.syntax import And, Not

        g = parse_formula("Desert(a)", desert_v1_vocab)
        t = lambda x: translate_formula(x, desert_v1_vocab)
        assert t(Not(g)) == Not(t(g))
        assert t(And(g, g)) == And(t(g), t(g))
        assert t(Box("*", g)) == Box("*", t(g))


class TestAxiomSet:
    def test_fixed_order_and_labels(self, desert_v1_vocab):
        labels = [lab for lab, _ in labeled_axioms(desert_v1_vocab)]
        assert labels == [
            "1", "2", "3:PartOf", "4", "5", "6", "7:AridArea", "8",
            "names:a", "names:house",
        ]

    def test_precise_rigidity_instance(self, desert_v1_vocab):
        ax3 = dict(labeled_axioms(desert_v1_vocab))["3:PartOf"]
        assert ax3 == pr("forall ?x forall ?y (PartOf(?x,?y) <-> [*] PartOf(?x,?y))")

    def test_singleton_sortal_disjunction(self):
        vocab = make_v1_vocabulary(["Desert"], {}, {}, [], [])
        ax8 = dict(labeled_axioms(vocab))["8"]
        assert ax8 == pr(
            "forall ?x ((ink(?x) -> ind(?x)) & (ink(?x) <-> Desert(?x)))"
        )

    def test_one_typing_axiom_per_indefinite_predicate(self):
        vocab = make_v1_vocabulary(["Desert"], {"Dry": 1, "Near": 2}, {}, [], [])
        labels = [lab for lab, _ in labeled_axioms(vocab)]
        assert labels.count("7:Dry") == 1 and labels.count("7:Near") == 1
        ax7 = dict(labeled_axioms(vocab))["7:Near"]
        assert ax7 == pr("forall ?x forall ?y (Near(?x,?y) -> ink(?x) & ink(?y))")

    def test_unique_precise_version(self, desert_v1_vocab):
        ax6 = dict(labeled_axioms(desert_v1_vocab))["6"]
        assert ax6 == pr(
            "forall ?x forall ?y forall ?z (prec(?x,?y) & prec(?x,?z) -> ?y = ?z)"
        )

    def test_empty_sortal_set_reported(self):
        vocab = make_v1_vocabulary([], {"Dry": 1}, {}, [], [])
        with pytest.raises(ModelFormatError):
            axiom_set(vocab)

    def test_strict_names_appends_typing(self, desert_v1_vocab):
        # name typing is part of every axiom set now, with no keyword
        axioms = labeled_axioms(desert_v1_vocab)
        assert axioms[-2:] == [("names:a", pr("ink(a)")), ("names:house", pr("ink(house)"))]

    def test_every_axiom_is_a_sentence(self, desert_v1_vocab):
        from splogic.syntax import free_variables

        for _, ax in labeled_axioms(desert_v1_vocab):
            assert free_variables(ax) == frozenset()



def _desert(indefinite=None, precise=None, names=("house", "a"), standpoints=()):
    """The desert vocabulary, built anew, with the given changes."""
    return make_v1_vocabulary(
        ["Building", "Desert"],
        {"AridArea": 1} if indefinite is None else indefinite,
        {"PartOf": 2} if precise is None else precise,
        names,
        standpoints,
    )


class TestAxiomCache:
    """Equal vocabularies share their bridge axioms' node objects, built
    once (translate._bridge_axioms)."""

    def test_equal_vocabularies_share_axiom_objects(self):
        one = labeled_axioms(_desert(names=("house", "a")))
        two = labeled_axioms(_desert(names=("a", "house")))
        assert one == two
        assert all(a is b for (_, a), (_, b) in zip(one, two))
        boxed_one = conjuncts(full_translation(pr("Desert(a)"), _desert()))[1:]
        boxed_two = conjuncts(full_translation(pr("Building(house)"), _desert()))[1:]
        assert len(boxed_one) == 10
        assert all(a is b for a, b in zip(boxed_one, boxed_two))

    def test_cached_axioms_equal_a_fresh_build(self):
        vocab = _desert(indefinite={"AridArea": 1, "Near": 2}, precise={"PartOf": 3})
        cached = labeled_axioms(vocab)
        translate._bridge_axioms.cache_clear()
        fresh = labeled_axioms(vocab)
        assert fresh == cached
        assert all(a is not b for (lab, a), (_, b) in zip(fresh, cached)
                   if lab not in ("1", "2", "4", "5", "6"))

    def test_a_different_arity_gets_its_own_axioms(self):
        base = dict(labeled_axioms(_desert()))
        wider = dict(labeled_axioms(_desert(precise={"PartOf": 3})))
        assert wider["3:PartOf"] == pr(
            "forall ?x forall ?y forall ?z (PartOf(?x,?y,?z) <-> [*] PartOf(?x,?y,?z))")
        assert base["3:PartOf"] == pr(
            "forall ?x forall ?y (PartOf(?x,?y) <-> [*] PartOf(?x,?y))")
        assert {k for k in base if base[k] != wider[k]} == {"3:PartOf"}

    def test_a_different_name_gets_its_own_axioms(self):
        base = [lab for lab, _ in labeled_axioms(_desert())]
        other = labeled_axioms(_desert(names=("house", "b")))
        assert base[-2:] == ["names:a", "names:house"]
        assert other[-2:] == [("names:b", pr("ink(b)")), ("names:house", pr("ink(house)"))]

    def test_mutating_a_returned_list_does_not_leak(self):
        vocab = _desert()
        first = labeled_axioms(vocab)
        expected = list(first)
        first.clear()
        axioms = axiom_set(vocab)
        axioms.append(pr("Desert(a)"))
        assert labeled_axioms(vocab) == expected
        assert axiom_set(vocab) == [ax for _, ax in expected]
        assert len(conjuncts(full_translation(pr("Desert(a)"), vocab))) == 1 + len(expected)

    def test_equisat_reports_identical_under_equal_vocabularies(self):
        bounds = Bounds(max_entities=2, max_individuals=2, max_precisifications=2)
        one = _desert(indefinite={"AridArea": 1, "Near": 2}, names=("house", "a"))
        two = _desert(indefinite={"Near": 2, "AridArea": 1}, names=("a", "house"))
        for seed in range(6):
            f = generate_formula(one, seed, 3)
            reports = []
            for vocab in (one, two):
                data = equisat_check(vocab, f, bounds).to_dict()
                for d in data["directions"]:
                    del d["elapsed_ms"]
                reports.append(data)
            assert reports[0] == reports[1]

class TestFullTranslation:
    @pytest.mark.filterwarnings("error")
    def test_strict_names_keyword_is_kept_for_compatibility(self, desert_v1_vocab,
                                                            formula_c_v1):
        # True means what every translation means; a translation without
        # name typing no longer exists
        typed = full_translation(formula_c_v1, desert_v1_vocab, strict_names=True)
        assert typed == full_translation(formula_c_v1, desert_v1_vocab)
        with pytest.raises(ValueError, match="strict_names"):
            full_translation(formula_c_v1, desert_v1_vocab, strict_names=False)

    def test_vacuous_schemata_drop_out(self):
        vocab = make_v1_vocabulary(["Desert"], {}, {}, ["a"], [])
        f = parse_formula("Desert(a)", vocab)
        full = full_translation(f, vocab)
        labels = [lab for lab, _ in labeled_axioms(vocab)]
        assert labels == ["1", "2", "4", "5", "6", "8", "names:a"]
        assert formula_size(full) == formula_size(f) + 1 + formula_size(
            conjoin(
                [Box("*", ax) for ax in axiom_set(vocab)]
            )
        )

    def test_axiom_overhead_is_constant_per_vocabulary(self, desert_v1_vocab):
        sizes = set()
        for seed in range(30):
            f = generate_formula(desert_v1_vocab, seed, 3)
            overhead = formula_size(
                full_translation(f, desert_v1_vocab)
            ) - formula_size(translate_formula(f, desert_v1_vocab))
            sizes.add(overhead)
        assert len(sizes) == 1

    def test_requires_sentence(self, desert_v1_vocab):
        f = parse_formula("Desert(?x)", desert_v1_vocab)
        with pytest.raises(ModelFormatError):
            full_translation(f, desert_v1_vocab)

    def test_deep_nesting_is_an_evaluation_error(self, desert_v1_vocab):
        f = parse_formula("Desert(house)", desert_v1_vocab)
        for _ in range(1500):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            full_translation(f, desert_v1_vocab)

    def test_report_fields(self, desert_v1_vocab, formula_c_v1):
        report = translation_report(formula_c_v1, desert_v1_vocab)
        assert report["source_size"] == formula_size(formula_c_v1)
        assert report["axiom_count"] == 10
        assert set(report) == {
            "source_size", "translated_size", "full_size", "axiom_count",
            "source_monodic", "translated_monodic", "full_monodic",
        }
        assert report["source_monodic"] is True
        assert report["translated_monodic"] is True
        # the rigidity schema for the binary precise predicate embeds a box
        # over two free variables
        assert report["full_monodic"] is False


class TestLinearity:
    def test_growth_bounded_by_arity_constant(self, desert_v1_vocab):
        # bound from the worst per-node growth: 3*(max precise arity) + 2
        limit = 3 * 2 + 2
        for seed in range(500):
            f = generate_formula(desert_v1_vocab, seed, 4)
            ratio = formula_size(translate_formula(f, desert_v1_vocab)) / formula_size(f)
            assert ratio <= limit, print_formula(f)

    def test_bare_precise_atom_is_the_boundary_case(self, desert_v1_vocab):
        # a lone binary precise atom translates to 11 nodes, above the
        # corpus bound; generated sentences are compound, which keeps the
        # pointwise ratio within it
        f = parse_formula("PartOf(house, a)", desert_v1_vocab)
        assert formula_size(f) == 1
        assert formula_size(translate_formula(f, desert_v1_vocab)) == 11


class TestMonodicity:
    UNARY_VOCAB = make_v1_vocabulary(
        ["Kind", "Sort"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"]
    )

    def test_preserved_on_corpus(self):
        for seed in range(500):
            f = generate_formula(self.UNARY_VOCAB, seed, 4)
            if is_monodic(f):
                assert is_monodic(full_translation(f, self.UNARY_VOCAB))

    def test_every_axiom_monodic_for_unary_precise_predicates(self):
        for _, ax in labeled_axioms(self.UNARY_VOCAB):
            assert is_monodic(ax)

    def test_binary_precise_rigidity_breaks_monodicity(self, desert_v1_vocab):
        # documented boundary: the rigidity schema for arity >= 2 puts a box
        # in front of a two-variable atom
        ax3 = dict(labeled_axioms(desert_v1_vocab))["3:PartOf"]
        assert not is_monodic(ax3)

    def test_translation_itself_preserves_monodicity(self, desert_v1_vocab):
        for seed in range(200):
            f = generate_formula(desert_v1_vocab, seed, 4)
            assert is_monodic(translate_formula(f, desert_v1_vocab)) == is_monodic(f)


class TestLiftModel:
    def test_domain_is_disjoint_union(self, v0):
        lifted = lift_model(v0)
        assert len(lifted.domain) == 3 + 2

    def test_lift_satisfies_every_axiom(self, v0, desert_v1_vocab):
        lifted = lift_model(v0)
        for label, ax in labeled_axioms(desert_v1_vocab):
            assert is_model(lifted, ax), label

    def test_lift_models_full_translation_of_formula_c(self, v0, desert_v1_vocab, formula_c_v1):
        lifted = lift_model(v0)
        assert is_model(lifted, full_translation(formula_c_v1, desert_v1_vocab))

    def test_correspondence_on_random_structures(self, desert_v1_vocab):
        bounds = Bounds(max_entities=2, max_individuals=2, max_precisifications=2,
                        timeout=60)
        for seed in range(200):
            mv = generate_v1_structure(desert_v1_vocab, seed, bounds)
            f = generate_formula(desert_v1_vocab, seed + 9000, 4)
            lifted = lift_model(mv)
            assert is_model_v1(mv, f) == is_model(
                lifted, full_translation(f, desert_v1_vocab)
            )


class TestLowerModel:
    def test_roundtrip_recovers_the_original(self, v0, desert_v1_vocab):
        again = lower_model(lift_model(v0), desert_v1_vocab)
        assert again == v0

    def test_roundtrip_is_isomorphic(self, v0, desert_v1_vocab):
        again = lower_model(lift_model(v0), desert_v1_vocab)
        assert _v1_isomorphic(again, v0)

    def test_axiom_violation_names_the_axiom(self, desert_v1_vocab):
        # two precise versions for one individual break functionality
        bad = make_fosl_structure(
            ["e0", "e1", "i0"], ["p1"], {},
            {"p1": {"predicates": {
                "ind": [["i0"]], "ext": [["e0"], ["e1"]], "ink": [["i0"]],
                "prec": [["i0", "e0"], ["i0", "e1"]],
                "Building": [["i0"]], "Desert": [], "AridArea": [], "PartOf": [],
            }, "constants": {"house": "i0", "a": "i0"}}},
        )
        with pytest.raises(AxiomViolationError) as err:
            lower_model(bad, desert_v1_vocab)
        assert err.value.axiom_label == "6"

    def test_wildcard_arity_axioms_take_the_structure_arity(self):
        # A: None is used at arity 2; a row A(e0, e0) over a precise
        # entity breaks axiom 7:A, which must be checked at arity 2
        vocab = make_v1_vocabulary(["K"], {"A": None}, {}, ["a", "b"], [])
        f = parse_formula("A(a, b)", vocab)
        bounds = Bounds(max_entities=1, max_precisifications=1, max_individuals=2)
        found = find_v1_model(vocab, f, bounds)
        data = fosl_structure_to_dict(lift_model(found.structure))
        data["interpretation"]["p0"]["predicates"]["A"].append(["e0", "e0"])
        bad = make_fosl_structure(
            data["domain"], data["precisifications"], data["sigma"], data["interpretation"]
        )
        assert not is_model(bad, full_translation(f, vocab))
        with pytest.raises(AxiomViolationError) as err:
            lower_model(bad, vocab)
        assert err.value.axiom_label == "7:A"

    def test_name_at_precise_entity_is_rejected(self, desert_v1_vocab):
        shifted = make_fosl_structure(
            ["e0", "i0"], ["p1"], {},
            {"p1": {"predicates": {
                "ind": [["i0"]], "ext": [["e0"]], "ink": [["i0"]],
                "prec": [["i0", "e0"]],
                "Building": [["i0"]], "Desert": [["i0"]],
                "AridArea": [], "PartOf": [],
            }, "constants": {"house": "e0", "a": "i0"}}},
        )
        with pytest.raises(AxiomViolationError) as err:
            lower_model(shifted, desert_v1_vocab)
        assert err.value.axiom_label == "names:house"

    def test_name_at_precise_entity_can_change_the_verdict(self):
        # n must denote an admitted individual in V1, so the sentence is
        # unsat; a name at a precise entity would make its translation
        # sat, and the name-typing axiom names:n of every full
        # translation rules that out
        vocab = make_v1_vocabulary(["K"], {}, {}, ["n"], [])
        f = parse_formula("!K(n) & exists ?x K(?x)", vocab)
        trans_vocab = translated_vocabulary(vocab)
        bounds = Bounds(max_domain=3, max_precisifications=1,
                        max_entities=2, max_individuals=2, timeout=60)
        assert isinstance(find_v1_model(vocab, f, bounds), ExhaustedUnsat)
        full = full_translation(f, vocab)
        assert isinstance(find_fosl_model(trans_vocab, full, bounds), ExhaustedUnsat)
        assert equisat_check(vocab, f, bounds).agreement == "unsat"

    @staticmethod
    def unadmitted_name(constants):
        # every bridge axiom but names:n holds; i1 is an individual no
        # sortal admits
        return make_fosl_structure(
            ["e0", "i0", "i1"], ["p0"], {},
            {"p0": {"predicates": {
                "ind": [["i0"], ["i1"]], "ext": [["e0"]], "ink": [["i0"]],
                "prec": [["i0", "e0"], ["i1", "e0"]], "K": [["i0"]],
            }, "constants": constants}},
        )

    def test_name_at_unadmitted_individual_is_rejected(self):
        vocab = make_v1_vocabulary(["K"], {}, {}, ["n"], [])
        model = self.unadmitted_name({"n": "i1"})
        failing = [lab for lab, ax in labeled_axioms(vocab) if not is_model(model, ax)]
        assert failing == ["names:n"]
        with pytest.raises(AxiomViolationError) as err:
            lower_model(model, vocab)
        assert err.value.axiom_label == "names:n"

    def test_uninterpreted_name_is_an_error(self):
        vocab = make_v1_vocabulary(["K"], {}, {}, ["n"], [])
        with pytest.raises(SplError, match="unknown constant 'n'"):
            lower_model(self.unadmitted_name({}), vocab)

    def test_lowered_structures_reload(self):
        # every structure lower_model returns passes the V1 loader: the
        # lowering of each lifted generated structure, and of each
        # backward model the equisat harness finds, over the corpus
        # vocabulary at the corpus bounds
        vocab = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
        bounds = Bounds(max_entities=2, max_individuals=2, max_precisifications=2,
                        timeout=60)
        lowered = []
        for seed in range(200):
            mv = generate_v1_structure(vocab, seed, bounds)
            lowered.append(lower_model(lift_model(mv), vocab))
        for seed in range(40):
            fosl = equisat_check(vocab, generate_formula(vocab, seed, 4), bounds).directions[1]
            if fosl.model is not None:
                lowered.append(lower_model(fosl_structure_from_dict(fosl.model), vocab))
        assert len(lowered) > 220
        for mv in lowered:
            assert v1_structure_from_dict(v1_structure_to_dict(mv)) == mv

    def test_roundtrip_preserves_satisfaction(self, desert_v1_vocab):
        bounds = Bounds(max_entities=2, max_individuals=2, max_precisifications=2,
                        timeout=60)
        for seed in range(200):
            mv = generate_v1_structure(desert_v1_vocab, seed, bounds)
            f = generate_formula(desert_v1_vocab, seed + 11000, 4)
            again = lower_model(lift_model(mv), desert_v1_vocab)
            assert is_model_v1(again, f) == is_model_v1(mv, f)

    def test_lowering_holds_on_perturbed_axiom_models(self, desert_v1_vocab):
        # enrich lifted structures with junk: rigid precise-predicate rows
        # over individual ids, which the axioms allow but no translated
        # sentence can observe
        bounds = Bounds(max_entities=2, max_individuals=2,
                        max_precisifications=2, timeout=60)
        for seed in range(60):
            mv = generate_v1_structure(desert_v1_vocab, seed, bounds)
            if not mv.registry:
                continue
            lifted = lift_model(mv)
            junk_row = [sorted(mv.registry)[0], sorted(mv.registry)[0]]
            interp = {
                pi: {
                    "predicates": {
                        p: sorted(list(r) for r in rows) + (
                            [junk_row] if p == "PartOf" else []
                        )
                        for p, rows in lifted.interpretation[pi].predicates.items()
                    },
                    "constants": dict(lifted.interpretation[pi].constants),
                }
                for pi in lifted.precisifications
            }
            perturbed = make_fosl_structure(
                list(lifted.domain), list(lifted.precisifications),
                {sp: sorted(ps) for sp, ps in lifted.sigma.items() if sp != "*"},
                interp,
            )
            f = generate_formula(desert_v1_vocab, seed + 13000, 4)
            full = full_translation(f, desert_v1_vocab)
            lowered = lower_model(perturbed, desert_v1_vocab)
            assert is_model(perturbed, full) == is_model_v1(lowered, f)

    def test_roundtrip_preserves_atom_truth_values(self, v0, desert_v1_vocab):
        again = lower_model(lift_model(v0), desert_v1_vocab)
        atoms = ["Desert(?x)", "Building(?x)", "AridArea(?x)",
                 "PartOf(?x, ?y)", "?x = ?y", "PartOf(house, a)"]
        idents = sorted(v0.registry)
        for text in atoms:
            f = parse_formula(text, desert_v1_vocab)
            for pi in v0.precisifications:
                for x, y in itertools.product(idents, repeat=2):
                    env = {"x": x, "y": y}
                    assert satisfies_v1(v0, pi, env, f) == satisfies_v1(
                        again, pi, env, f
                    )


def _v1_isomorphic(a, b) -> bool:
    """Brute-force isomorphism over entity and individual renamings."""
    if (len(a.entities) != len(b.entities)
            or len(a.registry) != len(b.registry)
            or a.precisifications != b.precisifications):
        return False
    a_inds = sorted(a.registry)
    b_inds = sorted(b.registry)
    for ent_perm in itertools.permutations(b.entities):
        ent_map = dict(zip(a.entities, ent_perm))
        for ind_perm in itertools.permutations(b_inds):
            ind_map = dict(zip(a_inds, ind_perm))
            if _v1_matches(a, b, ent_map, ind_map):
                return True
    return False


def _v1_matches(a, b, ent_map, ind_map) -> bool:
    if a.sigma != b.sigma:
        return False
    for i, ind in a.registry.items():
        other = b.registry[ind_map[i]]
        if {pi: ent_map[e] for pi, e in ind.extent.items()} != dict(other.extent):
            return False
    for pi in a.precisifications:
        for k, ids in a.sortals[pi].items():
            if {ind_map[i] for i in ids} != b.sortals[pi].get(k, frozenset()):
                return False
        for p, rows in a.indefinite[pi].items():
            mapped = {tuple(ind_map[i] for i in row) for row in rows}
            if mapped != b.indefinite[pi].get(p, frozenset()):
                return False
        for n, i in a.names[pi].items():
            if b.names[pi].get(n) != ind_map[i]:
                return False
    for q, rows in a.precise.items():
        mapped = {tuple(ent_map[e] for e in row) for row in rows}
        if mapped != b.precise.get(q, frozenset()):
            return False
    return True


class TestTranslatedVocabulary:
    def test_reserved_predicates_added(self, desert_v1_vocab):
        tv = translated_vocabulary(desert_v1_vocab)
        for pred, arity in [("ind", 1), ("ext", 1), ("ink", 1), ("prec", 2)]:
            assert tv.arity(pred) == arity
        assert tv.arity("Desert") == 1
        assert tv.arity("PartOf") == 2
        assert tv.has_constant("house")
