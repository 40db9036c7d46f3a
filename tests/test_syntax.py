import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import splogic as sp
from splogic import (
    And,
    ArityMismatchError,
    Atom,
    Box,
    Const,
    Equal,
    EvaluationError,
    Forall,
    FormulaSyntaxError,
    Not,
    UndeclaredSymbolError,
    Var,
    VocabularyError,
    all_variables,
    formula_size,
    free_variables,
    full_translation,
    generate_formula,
    is_monodic,
    is_sentence,
    make_fosl_vocabulary,
    make_v1_vocabulary,
    parse_formula,
    print_formula,
    translated_vocabulary,
    validate_formula,
)
from splogic.parser import parse_raw
from splogic.syntax import conjuncts

VOCAB = make_fosl_vocabulary(
    {"P": 1, "Q": 0, "R": 2, "AridArea": 1, "Near": 2, "Desert": 1},
    ["c", "house"],
    ["s"],
)


class TestParsing:
    def test_box_over_conjunction(self):
        f = parse_formula("[*] (AridArea(?a) & Near(house, ?a))", VOCAB)
        assert f == Box(
            "*",
            And(
                Atom("AridArea", (Var("a"),)),
                Atom("Near", (Const("house"), Var("a"))),
            ),
        )

    def test_diamond_is_negated_box(self):
        f = parse_formula("<s> P(c)", VOCAB)
        assert f == Not(Box("s", Not(Atom("P", (Const("c"),)))))

    def test_exists_is_negated_forall(self):
        f = parse_formula("exists ?x P(?x)", VOCAB)
        assert f == Not(Forall("x", Not(Atom("P", (Var("x"),)))))

    def test_quantifier_dot_is_optional(self):
        assert parse_raw("forall ?x. P(?x)") == parse_raw("forall ?x P(?x)")

    def test_implication_desugars(self):
        f = parse_raw("P(c) -> Q")
        assert f == Not(And(Atom("P", (Const("c"),)), Not(Atom("Q"))))

    def test_disjunction_desugars(self):
        f = parse_raw("P(c) | Q")
        assert f == Not(And(Not(Atom("P", (Const("c"),))), Not(Atom("Q"))))

    def test_binary_operators_right_associate(self):
        assert parse_raw("P -> Q -> R0") == parse_raw("P -> (Q -> R0)")
        assert parse_raw("P & Q & R0") == And(
            Atom("P"), And(Atom("Q"), Atom("R0"))
        )

    def test_conjunction_binds_tighter_than_disjunction(self):
        assert parse_raw("P | Q & R0") == parse_raw("P | (Q & R0)")

    def test_inequality_desugars_to_negated_equality(self):
        f = parse_raw("?x != c")
        assert f == Not(Equal(Var("x"), Const("c")))

    def test_nullary_atom(self):
        assert parse_formula("Q", VOCAB) == Atom("Q")

    def test_lowercase_translation_predicates_parse_when_declared(self):
        v = make_fosl_vocabulary({"prec": 2, "ink": 1}, ["n"], [])
        f = parse_formula("prec(n, ?e) & ink(n)", v)
        assert f == And(
            Atom("prec", (Const("n"), Var("e"))), Atom("ink", (Const("n"),))
        )

    def test_truth_constants_are_closed(self):
        assert free_variables(parse_raw("true")) == frozenset()
        assert free_variables(parse_raw("false")) == frozenset()
        assert parse_raw("false") == Not(parse_raw("true"))


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("P(c) &", VOCAB)
        assert err.value.position == 6

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("P(c) @ Q", VOCAB)
        assert err.value.position == 5

    @pytest.mark.parametrize("text, message, position, token", [
        ("", "expected a formula, found end of input", 0, None),
        ("   ", "expected a formula, found end of input", 3, None),
        ("P(c) @ Q", "unexpected character '@'", 5, "@"),
        ("P(c", "expected ')', found end of input", 3, None),
        ("P(c))", "unexpected trailing input ')'", 4, ")"),
        ("[*P(c)", "expected ']', found 'P'", 2, "P"),
        ("<s P(c)", "expected '>', found 'P'", 3, "P"),
        ("forall P(c)", "expected 'VAR', found 'P'", 7, "P"),
        ("c", "expected '=' or '!=', found 'end of input'", 1, None),
        ("?x", "expected '=' or '!=', found 'end of input'", 2, None),
        ("P(,c)", "expected a term, found ','", 2, ","),
        ("P(c) <- P(c)", "unexpected character '-'", 6, "-"),
        ("P(c) = c", "unexpected trailing input '='", 5, "="),
        ("P = c", "predicate 'P' cannot appear in an equality", 0, "P"),
    ])
    def test_error_message_position_and_token(self, text, message, position, token):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_raw(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert (err.value.position, err.value.token) == (position, token)

    def test_undeclared_predicate(self):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_formula("Missing(c)", VOCAB)
        assert err.value.symbol == "Missing"

    def test_undeclared_constant(self):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_formula("P(zzz)", VOCAB)
        assert err.value.symbol == "zzz"

    def test_undeclared_standpoint(self):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_formula("[nope] P(c)", VOCAB)
        assert err.value.symbol == "nope"

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError) as err:
            parse_formula("P(c, c)", VOCAB)
        assert err.value.symbol == "P"

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("P(c) P(c)", VOCAB)

    def test_deep_nesting_is_a_syntax_error(self):
        # no depth limit of its own: Python's recursion limit surfaces as
        # a syntax error, not a RecursionError
        text = "(" * 1000 + "P(c)" + ")" * 1000
        for parse in (parse_raw, lambda t: parse_formula(t, VOCAB)):
            with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
                parse(text)
        assert parse_formula("!" * 500 + "P(c)", VOCAB) is not None

    def test_validating_deep_nesting_is_an_evaluation_error(self):
        f = Atom("P", (Const("c"),))
        for _ in range(1500):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            validate_formula(f, VOCAB)


class TestPrinting:
    def test_direct_rendering(self):
        assert print_formula(Box("*", Atom("P", (Const("c"),)))) == "[*] P(c)"

    def test_printer_resugars_diamond(self):
        f = Not(Box("s", Not(Atom("P", (Const("c"),)))))
        assert print_formula(f) == "<s> P(c)"

    def test_printer_resugars_exists(self):
        f = Not(Forall("x", Not(Atom("P", (Var("x"),)))))
        assert print_formula(f) == "exists ?x P(?x)"

    def test_deep_nesting_is_an_evaluation_error(self):
        f = Atom("P", (Const("c"),))
        for _ in range(600):
            f = Box("*", f)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            print_formula(f)

    def test_roundtrip_on_a_thousand_random_formulas(self):
        from splogic import generate_formula, make_v1_vocabulary

        v1 = make_v1_vocabulary(
            ["Kind"], {"Attr": 1}, {"Shape": 2}, ["n"], ["s"]
        )
        for seed in range(500):
            f = generate_formula(VOCAB, seed, 4, free_vars=("x",))
            assert parse_raw(print_formula(f)) == f
            g = generate_formula(v1, seed, 4)
            assert parse_raw(print_formula(g)) == g

    def test_roundtrip_on_corpus_translations(self):
        # lowercase ind/ext/ink/prec applications, diamonds, exists and <->
        v1 = make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
        target = translated_vocabulary(v1)
        for seed in range(200):
            f = full_translation(generate_formula(v1, seed, 4), v1)
            assert parse_formula(print_formula(f), target) == f

    def test_flat_conjunction_of_two_thousand_members(self):
        # a conjunction's length is not nesting: it parses, validates,
        # prints and parses back however long it is
        members = ["P(c)", "Q", "R(c, house)", "[s] P(c)", "(P(c) | Q)"]
        text = " & ".join(members[k % 5] for k in range(2000))
        f = parse_formula(text, VOCAB)
        validate_formula(f, VOCAB)
        assert len(conjuncts(f)) == 2000
        assert print_formula(f) == text
        assert conjuncts(parse_formula(print_formula(f), VOCAB)) == conjuncts(f)

    @pytest.mark.parametrize(
        "text",
        [
            "P(c) & Q & R(c, c)",
            "(P(c) & Q) & R(c, c)",
            "!(P(c) | Q)",
            "forall ?x (P(?x) -> exists ?y R(?x, ?y))",
            "[s] <s> [*] P(c)",
            "?x = ?y & c != house",
            "P(c) <-> Q <-> R(c, c)",
            "!!P(c)",
            "true & false",
        ],
    )
    def test_parse_print_parse_fixed_point(self, text):
        first = parse_raw(text)
        printed = print_formula(first)
        assert parse_raw(printed) == first


class TestDesugaringTotality:
    def test_parser_output_uses_only_core_constructors(self):
        texts = [
            "P(c) -> Q | R(c, c) <-> <s> exists ?x P(?x)",
            "true | false",
            "?x != c & !forall ?y. P(?y)",
        ]
        core = (Atom, Equal, Not, And, Forall, Box)

        def walk(f):
            assert isinstance(f, core)
            if isinstance(f, (Not, Forall, Box)):
                walk(f.body)
            elif isinstance(f, And):
                walk(f.left)
                walk(f.right)

        for text in texts:
            walk(parse_raw(text))


class TestQueries:
    def test_free_variables_atom(self):
        assert free_variables(Atom("P", (Var("x"),))) == {"x"}

    def test_free_variables_forall_removes_bound(self):
        f = Forall("x", Atom("R", (Var("x"), Var("y"))))
        assert free_variables(f) == {"y"}

    def test_formula_a_is_sentence(self, formula_a):
        assert free_variables(formula_a) == frozenset()
        assert is_sentence(formula_a)

    def test_free_variables_invariant_under_box(self):
        body = Atom("R", (Var("x"), Var("y")))
        assert free_variables(Box("s", body)) == free_variables(body)

    def test_all_variables_includes_bound(self):
        f = Forall("x", Atom("R", (Var("x"), Var("y"))))
        assert all_variables(f) == {"x", "y"}

    def test_binding_is_scoped_to_the_quantifier_body(self):
        f = And(Forall("x", Atom("P", (Var("x"),))), Equal(Var("x"), Var("y")))
        assert free_variables(f) == {"x", "y"}
        assert all_variables(f) == {"x", "y"}

    def test_variables_of_a_non_formula_are_a_type_error(self):
        for query in (free_variables, all_variables):
            with pytest.raises(TypeError, match="not a formula"):
                query(Not(Var("x")))

    def test_deeply_nested_free_variable(self):
        f = Atom("P", (Var("x"),))
        for _ in range(5000):
            f = Not(f)
        assert free_variables(f) == {"x"}
        assert all_variables(Forall("x", f)) == {"x"}

    def test_formula_size(self):
        assert formula_size(Atom("P", (Const("c"),))) == 1
        p = Atom("P", (Const("c"),))
        assert formula_size(And(p, p)) == 3
        assert formula_size(Box("*", Forall("x", Atom("P", (Var("x"),))))) == 3

    def test_monodic_single_free_variable_under_box(self):
        assert is_monodic(Box("s", Atom("P", (Var("x"),))))

    def test_not_monodic_two_free_variables_under_box(self):
        assert not is_monodic(Box("s", Atom("R", (Var("x"), Var("y")))))

    def test_formula_c_is_monodic(self, formula_c):
        # every box body in the arguably-part-of sentence keeps one free
        # variable at most
        assert is_monodic(formula_c)

    def test_deeply_nested_size_and_monodicity(self):
        f = Atom("P", (Var("x"),))
        for _ in range(5000):
            f = Not(f)
        assert formula_size(f) == 5001
        assert is_monodic(f)

    @pytest.mark.parametrize("inner, monodic", [(("x",), True), (("x", "y"), False)])
    def test_deep_box_chain_is_monodic_iff_its_bodies_are(self, inner, monodic):
        # every box body reads ?x, and the innermost also what inner names
        f = Atom("R" if len(inner) > 1 else "P", tuple(Var(v) for v in inner))
        for _ in range(800):
            f = Box("*", And(f, Atom("P", (Var("x"),))))
        assert is_monodic(f) is monodic

    def test_size_and_monodicity_of_a_non_formula_are_a_type_error(self):
        for query in (formula_size, is_monodic):
            with pytest.raises(TypeError, match="not a formula"):
                query(And(Atom("P", (Var("x"),)), Var("x")))


class TestVocabularies:
    def test_universal_standpoint_always_present(self):
        v = make_fosl_vocabulary({"P": 1}, [], [])
        assert v.has_standpoint("*")

    def test_predicate_constant_name_overlap_rejected(self):
        with pytest.raises(VocabularyError):
            make_fosl_vocabulary({"P": 1, "c": 0}, ["c"], [])

    def test_lowercase_user_predicate_rejected(self):
        with pytest.raises(VocabularyError):
            make_fosl_vocabulary({"pred": 1}, [], [])

    def test_reserved_symbols_blocked_in_v1(self):
        with pytest.raises(VocabularyError):
            make_v1_vocabulary(["Kind"], {}, {}, ["prec"], [])

    def test_v1_partition_must_be_disjoint(self):
        with pytest.raises(VocabularyError):
            make_v1_vocabulary(["Kind"], {"Kind": 1}, {}, [], [])

    def test_v1_indefinite_arity_positive(self):
        with pytest.raises(VocabularyError):
            make_v1_vocabulary(["Kind"], {"Bad": 0}, {}, [], [])

    @pytest.mark.parametrize("word", ["true", "false", "forall", "exists"])
    def test_keywords_rejected(self, word):
        # a keyword symbol would print as text that does not parse back
        makers = [
            lambda: make_fosl_vocabulary({"P": 1}, [word], []),
            lambda: make_fosl_vocabulary({"P": 1}, [], [word]),
            lambda: make_v1_vocabulary(["K"], {}, {}, [word], []),
            lambda: make_v1_vocabulary(["K"], {}, {}, [], [word]),
        ]
        for make in makers:
            with pytest.raises(VocabularyError, match="keyword"):
                make()

    @pytest.mark.parametrize("arity", [True, False])
    def test_boolean_arity_rejected(self, arity):
        # a bool is an int to Python: True would read as arity 1
        with pytest.raises(VocabularyError, match="invalid arity"):
            make_fosl_vocabulary({"P": arity}, [], [])
        with pytest.raises(VocabularyError, match="invalid arity"):
            make_v1_vocabulary(["K"], {"A": arity}, {}, [], [])
        with pytest.raises(VocabularyError, match="invalid arity"):
            make_v1_vocabulary(["K"], {}, {"A": arity}, [], [])


def _nodes(f):
    """Every term and formula node of f, with repeats."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        out.append(g)
        if isinstance(g, Atom):
            stack += g.args
        elif isinstance(g, Equal):
            stack += (g.left, g.right)
        elif isinstance(g, (Not, Forall, Box)):
            stack.append(g.body)
        elif isinstance(g, And):
            stack += (g.left, g.right)
    return out


HASH_TEXT = "forall ?x ([*] (P(?x) -> exists ?y R(?x, ?y)) & <s> ?x = c & !Q)"


class TestHashing:
    """Each node keeps its hash after the first use; equality stays
    structural."""

    def test_equal_nodes_built_apart_hash_equal(self):
        f, g = parse_formula(HASH_TEXT, VOCAB), parse_formula(HASH_TEXT, VOCAB)
        hash(f)  # f's nodes keep their hashes, g's are computed afresh
        for a, b in zip(_nodes(f), _nodes(g)):
            assert a is not b or isinstance(a, (Var, Const))
            assert a == b and hash(a) == hash(b)
        assert f in {g} and g in {f}

    def test_distinct_constructors_with_equal_fields_differ(self):
        body = Atom("P", (Var("x"),))
        assert Forall("x", body) != Box("x", body)
        assert Var("c") != Const("c")
        assert len({Forall("x", body), Box("x", body), Var("c"), Const("c")}) == 4

    def test_replace_gives_a_fresh_hash(self):
        f = parse_formula("[s] (P(c) & Q)", VOCAB)
        hash(f)
        g = dataclasses.replace(f, standpoint="*")
        assert g == Box("*", f.body)
        assert hash(g) == hash(Box("*", And(Atom("P", (Const("c"),)), Atom("Q"))))
        h = dataclasses.replace(f.body, right=Atom("P", (Const("house"),)))
        assert h in {parse_formula("P(c) & P(house)", VOCAB)}

    def test_pickle_leaves_the_hash_behind(self):
        f = parse_formula(HASH_TEXT, VOCAB)
        hash(f)
        again = pickle.loads(pickle.dumps(f))
        assert again == f and again._hash is None
        assert hash(again) == hash(f)

    LOAD_SCRIPT = """
import pickle, sys
import splogic as sp
vocab = sp.make_fosl_vocabulary({"P": 1, "Q": 0, "R": 2}, ["c"], ["s"])
if sys.argv[1] == "dump":
    f = sp.parse_formula(sys.argv[2], vocab)
    hash(f)
    sys.stdout.buffer.write(pickle.dumps(f))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    fresh = sp.parse_formula(sys.argv[2], vocab)
    print(loaded in {fresh}, fresh in {loaded}, hash(loaded) == hash(fresh))
"""

    def test_pickled_node_found_under_another_hash_seed(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(seed, mode, data=None):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
            return subprocess.run([sys.executable, "-c", self.LOAD_SCRIPT, mode, HASH_TEXT],
                                  input=data, env=env, capture_output=True, check=True).stdout

        dumped = run("1", "dump")
        assert run("2", "load", dumped).decode().split() == ["True", "True", "True"]


class TestDeepNestingAtEveryEntryPoint:
    """A formula nested past Python's recursion limit is an
    EvaluationError at every library entry point that takes a formula,
    whether or not its nodes already hold their hashes."""

    BOUNDS = sp.Bounds(max_domain=2, max_precisifications=2, max_entities=1,
                       max_individuals=1, timeout=10)

    ENTRIES = {
        "validate_formula": lambda c: validate_formula(c["fosl"], c["fosl_vocab"]),
        "print_formula": lambda c: print_formula(c["fosl"]),
        "is_model": lambda c: sp.is_model(c["m0"], c["fosl"]),
        "satisfies": lambda c: sp.satisfies(c["m0"], "p1", {}, c["fosl"]),
        "satisfies_at": lambda c: sp.satisfies_at(c["m0"], "p1", c["fosl"]),
        "find_fosl_model": lambda c: sp.find_fosl_model(
            c["fosl_vocab"], c["fosl"], TestDeepNestingAtEveryEntryPoint.BOUNDS),
        "is_model_v1": lambda c: sp.is_model_v1(c["v0"], c["v1"]),
        "satisfies_v1": lambda c: sp.satisfies_v1(c["v0"], "p1", {}, c["v1"]),
        "satisfies_at_v1": lambda c: sp.satisfies_at_v1(c["v0"], "p1", c["v1"]),
        "translate_formula": lambda c: sp.translate_formula(c["v1"], c["v1_vocab"]),
        "full_translation": lambda c: sp.full_translation(c["v1"], c["v1_vocab"]),
        "translation_report": lambda c: sp.translation_report(c["v1"], c["v1_vocab"]),
        "find_v1_model": lambda c: sp.find_v1_model(
            c["v1_vocab"], c["v1"], TestDeepNestingAtEveryEntryPoint.BOUNDS),
        "equisat_check": lambda c: sp.equisat_check(
            c["v1_vocab"], c["v1"], TestDeepNestingAtEveryEntryPoint.BOUNDS),
    }

    @pytest.mark.parametrize("hashed", [False, True], ids=["fresh", "hashed"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_evaluation_error(self, entry, hashed, m0, m0_vocab, v0, desert_v1_vocab):
        fosl, v1 = Atom("P", (Const("c"),)), Atom("Desert", (Const("a"),))
        for _ in range(1500):
            fosl, v1 = Box("*", fosl), Box("*", v1)
            if hashed:  # one level at a time, so no hash recurses
                hash(fosl), hash(v1)
        context = {"fosl": fosl, "v1": v1, "m0": m0, "v0": v0,
                   "fosl_vocab": m0_vocab, "v1_vocab": desert_v1_vocab}
        with pytest.raises(EvaluationError, match="nested too deeply"):
            self.ENTRIES[entry](context)
