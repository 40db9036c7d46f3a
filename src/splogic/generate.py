"""Seeded random generators for formulas and structures.

Everything is reproducible: the same seed yields the identical object.
Generated formulas are sentences with a compound root (the root is never
a bare atom), exercise all six core constructors and both quantifier
polarities, and validate against the vocabulary they were drawn from.
Generated structures always pass loader validation.
"""

from __future__ import annotations

import itertools
import random
from typing import Union

from .finder import Bounds
from .fosl import FoslStructure, make_fosl_structure
from .syntax import (
    And,
    Atom,
    Box,
    Const,
    Equal,
    Forall,
    Formula,
    FoslVocabulary,
    Not,
    UNIVERSAL_STANDPOINT,
    V1Vocabulary,
    Var,
    Vocabulary,
    diamond,
    exists,
    iff,
    implies,
    or_,
    validate_formula,
)
from .v1 import V1Structure, make_v1_structure

_VAR_POOL = ["x", "y", "z", "u", "w"] + [f"v{i}" for i in range(1, 30)]

_COMPOUND = (
    ("not", 2),
    ("and", 3),
    ("or", 2),
    ("implies", 2),
    ("iff", 1),
    ("forall", 2),
    ("exists", 2),
    ("box", 2),
    ("dia", 2),
)


def _ground_terms(vocab: Vocabulary) -> list[str]:
    if isinstance(vocab, V1Vocabulary):
        return sorted(vocab.names)
    return sorted(vocab.constants)


def _predicate_pool(vocab: Vocabulary) -> list[tuple[str, int]]:
    if isinstance(vocab, V1Vocabulary):
        pool = [(k, 1) for k in sorted(vocab.sortals)]
        pool += [(a, 1 if n is None else n) for a, n in sorted(vocab.indefinite.items())]
        pool += [(q, 1 if n is None else n) for q, n in sorted(vocab.precise.items())]
        return pool
    return [(p, 1 if n is None else n) for p, n in sorted(vocab.predicates.items())]


def generate_formula(
    vocab: Vocabulary,
    seed: int,
    max_depth: int = 4,
    free_vars: tuple[str, ...] = (),
) -> Formula:
    """A random sentence over vocab (a formula when free_vars are supplied).

    The root is always a connective, quantifier or modality, so generated
    formulas have at least two AST nodes.  max_depth must be an int of
    at least 1 (ValueError otherwise).
    """
    if not isinstance(max_depth, int) or isinstance(max_depth, bool) or max_depth < 1:
        raise ValueError(f"max_depth must be an integer of at least 1, got {max_depth!r}")
    rng = random.Random(seed)
    preds = _predicate_pool(vocab)
    grounds = _ground_terms(vocab)
    standpoints = sorted(vocab.standpoints)

    def term(scope: list[str]):
        if scope and (not grounds or rng.random() < 0.6):
            return Var(rng.choice(scope))
        if grounds:
            return Const(rng.choice(grounds))
        return None

    def leaf(scope: list[str]) -> Formula:
        want_equal = rng.random() < 0.12 and (scope or grounds)
        if not want_equal and preds:
            pred, arity = rng.choice(preds)
            args = []
            for _ in range(arity):
                t = term(scope)
                if t is None:
                    break
                args.append(t)
            if len(args) == arity:
                return Atom(pred, tuple(args))
        left = term(scope)
        right = term(scope)
        if left is not None and right is not None:
            return Equal(left, right)
        # no way to ground an atom here: fall back to a closed tautology
        fresh = next(v for v in _VAR_POOL if v not in scope)
        return Forall(fresh, Equal(Var(fresh), Var(fresh)))

    def gen(depth: int, scope: list[str], force_compound: bool) -> Formula:
        if depth <= 0:
            return leaf(scope)
        kinds = _COMPOUND if force_compound else _COMPOUND + (("atom", 7),)
        kind = rng.choices([k for k, _ in kinds], weights=[w for _, w in kinds])[0]
        if kind == "atom":
            return leaf(scope)
        if kind == "not":
            return Not(gen(depth - 1, scope, False))
        if kind == "and":
            return And(gen(depth - 1, scope, False), gen(depth - 1, scope, False))
        if kind == "or":
            return or_(gen(depth - 1, scope, False), gen(depth - 1, scope, False))
        if kind == "implies":
            return implies(gen(depth - 1, scope, False), gen(depth - 1, scope, False))
        if kind == "iff":
            return iff(gen(depth - 2, scope, False), gen(depth - 2, scope, False))
        if kind in ("forall", "exists"):
            var = next(v for v in _VAR_POOL if v not in scope)
            body = gen(depth - 1, scope + [var], False)
            return Forall(var, body) if kind == "forall" else exists(var, body)
        sp = rng.choice(standpoints)
        body = gen(depth - 1, scope, False)
        return Box(sp, body) if kind == "box" else diamond(sp, body)

    f = gen(max_depth, list(free_vars), True)
    validate_formula(f, vocab)
    return f


def generate_fosl_structure(
    vocab: FoslVocabulary, seed: int, bounds: Bounds
) -> FoslStructure:
    rng = random.Random(seed)
    n = rng.randint(1, bounds.max_domain)
    m = rng.randint(1, bounds.max_precisifications)
    domain = [f"d{i}" for i in range(n)]
    precs = [f"p{i}" for i in range(m)]
    sigma = {
        sp: [p for p in precs if rng.random() < 0.6]
        for sp in sorted(vocab.standpoints)
        if sp != UNIVERSAL_STANDPOINT
    }
    interpretation = {}
    for pi in precs:
        preds = {}
        for p, arity in sorted(vocab.predicates.items()):
            k = 1 if arity is None else arity
            preds[p] = [
                list(row)
                for row in itertools.product(domain, repeat=k)
                if rng.random() < 0.4
            ]
        constants = {c: rng.choice(domain) for c in sorted(vocab.constants)}
        interpretation[pi] = {"predicates": preds, "constants": constants}
    return make_fosl_structure(domain, precs, sigma, interpretation)


def generate_v1_structure(
    vocab: V1Vocabulary, seed: int, bounds: Bounds
) -> V1Structure:
    rng = random.Random(seed)
    ne = rng.randint(1, bounds.max_entities)
    m = rng.randint(1, bounds.max_precisifications)
    entities = [f"e{i}" for i in range(ne)]
    precs = [f"p{i}" for i in range(m)]
    all_maps = list(itertools.product(range(ne), repeat=m))
    min_r = 1 if vocab.names else 0
    r = rng.randint(min_r, min(bounds.max_individuals, len(all_maps)))
    chosen = sorted(rng.sample(range(len(all_maps)), r))
    idents = [f"i{j}" for j in range(r)]
    individuals = {
        idents[j]: {precs[pi]: entities[all_maps[chosen[j]][pi]] for pi in range(m)}
        for j in range(r)
    }

    sigma = {
        sp: [p for p in precs if rng.random() < 0.6]
        for sp in sorted(vocab.standpoints)
        if sp != UNIVERSAL_STANDPOINT
    }

    sortal_names = sorted(vocab.sortals)
    sortals: dict[str, dict[str, list[str]]] = {}
    for pi in precs:
        sortals[pi] = {
            k: [i for i in idents if rng.random() < 0.5] for k in sortal_names
        }
        if vocab.names:
            # names must denote admitted individuals: keep the domain inhabited
            admitted = set().union(*sortals[pi].values()) if sortal_names else set()
            if not admitted:
                sortals[pi][rng.choice(sortal_names)] = [rng.choice(idents)]

    domains = {
        pi: sorted(set().union(*sortals[pi].values())) if sortals[pi] else []
        for pi in precs
    }

    indefinite = {}
    for pi in precs:
        table = {}
        for a, arity in sorted(vocab.indefinite.items()):
            k = 1 if arity is None else arity
            table[a] = [
                list(row)
                for row in itertools.product(domains[pi], repeat=k)
                if rng.random() < 0.4
            ]
        indefinite[pi] = table

    precise = {}
    for q, arity in sorted(vocab.precise.items()):
        k = 1 if arity is None else arity
        precise[q] = [
            list(row)
            for row in itertools.product(entities, repeat=k)
            if rng.random() < 0.4
        ]

    names = {
        pi: {nm: rng.choice(domains[pi]) for nm in sorted(vocab.names)}
        for pi in precs
    }
    return make_v1_structure(
        entities, precs, sigma, individuals, sortals, indefinite, precise, names
    )


def generate_structure(
    vocab: Vocabulary, seed: int, bounds: Bounds
) -> Union[FoslStructure, V1Structure]:
    if isinstance(vocab, V1Vocabulary):
        return generate_v1_structure(vocab, seed, bounds)
    return generate_fosl_structure(vocab, seed, bounds)
