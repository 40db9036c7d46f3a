import pytest

from splogic import (
    And,
    Atom,
    Bounds,
    Box,
    Equal,
    Forall,
    Not,
    VocabularyError,
    free_variables,
    generate_formula,
    generate_structure,
    generate_fosl_structure,
    generate_v1_structure,
    make_fosl_vocabulary,
    make_v1_vocabulary,
    v1_structure_from_dict,
    v1_structure_to_dict,
    fosl_structure_from_dict,
    fosl_structure_to_dict,
    validate_formula,
)

FOSL_VOCAB = make_fosl_vocabulary({"P": 1, "R": 2}, ["c"], ["s"])
V1_VOCAB = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
BOUNDS = Bounds(max_domain=3, max_precisifications=2, max_entities=3,
                max_individuals=3, timeout=60)


class TestFormulaGenerator:
    def test_same_seed_same_formula(self):
        for seed in range(50):
            assert generate_formula(FOSL_VOCAB, seed, 4) == generate_formula(
                FOSL_VOCAB, seed, 4
            )

    def test_output_is_validated_sentence_with_compound_root(self):
        for seed in range(200):
            f = generate_formula(FOSL_VOCAB, seed, 4)
            validate_formula(f, FOSL_VOCAB)
            assert free_variables(f) == frozenset()
            assert not isinstance(f, (Atom, Equal))

    def test_all_constructors_appear_at_depth_four(self):
        seen = set()

        def visit(f):
            seen.add(type(f).__name__)
            if isinstance(f, (Not, Forall, Box)):
                visit(f.body)
            elif isinstance(f, And):
                visit(f.left)
                visit(f.right)

        for seed in range(1000):
            visit(generate_formula(FOSL_VOCAB, seed, 4))
        assert seen == {"Atom", "Equal", "Not", "And", "Forall", "Box"}

    def test_both_quantifier_polarities_appear(self):
        saw_plain_forall = saw_negated_forall = False
        for seed in range(300):
            stack = [generate_formula(FOSL_VOCAB, seed, 4)]
            while stack:
                f = stack.pop()
                if isinstance(f, Forall):
                    saw_plain_forall = True
                    stack.append(f.body)
                elif isinstance(f, Not) and isinstance(f.body, Forall):
                    saw_negated_forall = True
                    stack.append(f.body.body)
                elif isinstance(f, Not):
                    stack.append(f.body)
                elif isinstance(f, (And,)):
                    stack.extend([f.left, f.right])
                elif isinstance(f, Box):
                    stack.append(f.body)
        assert saw_plain_forall and saw_negated_forall

    def test_v1_flavour_validates(self):
        for seed in range(200):
            f = generate_formula(V1_VOCAB, seed, 4)
            validate_formula(f, V1_VOCAB)

    def test_free_variable_request(self):
        f = generate_formula(FOSL_VOCAB, 3, 3, free_vars=("x",))
        validate_formula(f, FOSL_VOCAB)

    @pytest.mark.parametrize("depth", [0, -3, True, 2.0, "4", None])
    def test_invalid_depth_rejected(self, depth):
        with pytest.raises(ValueError):
            generate_formula(FOSL_VOCAB, 0, depth)

    def test_depth_one_has_a_compound_root(self):
        for seed in range(50):
            assert not isinstance(generate_formula(FOSL_VOCAB, seed, 1), (Atom, Equal))


class TestStructureGenerators:
    def test_determinism(self):
        for seed in range(30):
            assert generate_fosl_structure(FOSL_VOCAB, seed, BOUNDS) == (
                generate_fosl_structure(FOSL_VOCAB, seed, BOUNDS)
            )
            assert generate_v1_structure(V1_VOCAB, seed, BOUNDS) == (
                generate_v1_structure(V1_VOCAB, seed, BOUNDS)
            )

    def test_sizes_within_bounds(self):
        for seed in range(50):
            m = generate_fosl_structure(FOSL_VOCAB, seed, BOUNDS)
            assert 1 <= len(m.domain) <= BOUNDS.max_domain
            assert 1 <= len(m.precisifications) <= BOUNDS.max_precisifications
            v = generate_v1_structure(V1_VOCAB, seed, BOUNDS)
            assert 1 <= len(v.entities) <= BOUNDS.max_entities
            assert len(v.registry) <= BOUNDS.max_individuals

    def test_loader_accepts_generated_structures(self):
        for seed in range(40):
            m = generate_fosl_structure(FOSL_VOCAB, seed, BOUNDS)
            assert fosl_structure_from_dict(fosl_structure_to_dict(m)) == m
            v = generate_v1_structure(V1_VOCAB, seed, BOUNDS)
            assert v1_structure_from_dict(v1_structure_to_dict(v)) == v

    def test_names_without_a_sortal_are_rejected(self):
        # a name denotes an admitted individual, and only sortals admit one
        vocab = make_v1_vocabulary([], {"Attr": 1}, {}, ["n"], [])
        with pytest.raises(VocabularyError, match="without sortals"):
            generate_v1_structure(vocab, 0, BOUNDS)

    def test_dispatch_by_vocabulary_kind(self):
        from splogic import FoslStructure, V1Structure

        assert isinstance(generate_structure(FOSL_VOCAB, 0, BOUNDS), FoslStructure)
        assert isinstance(generate_structure(V1_VOCAB, 0, BOUNDS), V1Structure)

    def test_registry_extents_distinct(self):
        for seed in range(40):
            v = generate_v1_structure(V1_VOCAB, seed, BOUNDS)
            extents = [
                tuple(ind.extent[pi] for pi in v.precisifications)
                for ind in v.registry.values()
            ]
            assert len(set(extents)) == len(extents)
