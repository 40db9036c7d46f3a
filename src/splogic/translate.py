"""Source-to-source translation from variable reference logic into
first-order standpoint logic, with the bridge axiom set and the model
correspondence in both directions.

The target vocabulary extends the source predicates with four reserved
ones: ind(x) marks indefinite individuals, ext(x) precise entities,
ink(x) the individuals admitted by some sortal at the current
precisification, and prec(x, y) relates an individual to its precise
version there.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import replace

from .errors import AxiomViolationError, ModelFormatError, nesting_guard
from .fosl import FoslStructure, is_model, make_fosl_structure
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
    all_variables,
    conjoin,
    disjoin,
    exists,
    formula_size,
    free_variables,
    iff,
    implies,
    is_monodic,
    make_fosl_vocabulary,
    validate_formula,
    _validate,
)
from .v1 import V1Structure, individuals_at, make_v1_structure


def translated_vocabulary(vocab: V1Vocabulary) -> FoslVocabulary:
    """The standpoint-logic vocabulary the translation targets."""
    predicates: dict[str, int | None] = {k: 1 for k in vocab.sortals}
    predicates.update(vocab.indefinite)
    predicates.update(vocab.precise)
    predicates.update({"ind": 1, "ext": 1, "ink": 1, "prec": 2})
    return make_fosl_vocabulary(predicates, vocab.names, vocab.standpoints)


class _FreshVars:
    """Existential witnesses e1, e2, ... never reused and never colliding
    with variables already present in the source formula."""

    def __init__(self, taken: frozenset[str]):
        self.taken = taken
        self.counter = 0

    def next(self) -> str:
        while True:
            self.counter += 1
            name = f"e{self.counter}"
            if name not in self.taken:
                return name


def translate_formula(f: Formula, vocab: V1Vocabulary) -> Formula:
    """Map a V1 formula to a standpoint-logic formula over the translated
    vocabulary.  Sortal and indefinite atoms pass through; universal
    quantifiers relativize to ink; precise atoms existentially project
    each argument to a prec-related entity.  Equalities pass through."""
    validate_formula(f, vocab)
    fresh = _FreshVars(all_variables(f))
    return _translate(f, vocab, fresh)


def _translate(f: Formula, vocab: V1Vocabulary, fresh: _FreshVars) -> Formula:
    if isinstance(f, Atom):
        if f.pred in vocab.precise:
            witnesses = [fresh.next() for _ in f.args]
            parts = [Atom(f.pred, tuple(Var(w) for w in witnesses))]
            parts.extend(
                Atom("prec", (arg, Var(w))) for arg, w in zip(f.args, witnesses)
            )
            out = conjoin(parts)
            for w in reversed(witnesses):
                out = exists(w, out)
            return out
        return f
    if isinstance(f, Equal):
        return f
    if isinstance(f, Not):
        return Not(_translate(f.body, vocab, fresh))
    if isinstance(f, And):
        return And(_translate(f.left, vocab, fresh), _translate(f.right, vocab, fresh))
    if isinstance(f, Forall):
        return Forall(
            f.var,
            implies(Atom("ink", (Var(f.var),)), _translate(f.body, vocab, fresh)),
        )
    if isinstance(f, Box):
        return Box(f.standpoint, _translate(f.body, vocab, fresh))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Bridge axioms
# ---------------------------------------------------------------------------

def _vars(arity: int) -> list[str]:
    if arity <= 3:
        return ["x", "y", "z"][:arity]
    return [f"x{i}" for i in range(1, arity + 1)]


def _forall_all(names: list[str], body: Formula) -> Formula:
    for name in reversed(names):
        body = Forall(name, body)
    return body


def _box(f: Formula) -> Formula:
    return Box(UNIVERSAL_STANDPOINT, f)


def _fixed_axioms():
    """Bridge axioms 1, 2 and 4-6 with their labels, and the first
    conjunct of axiom 8's body: no vocabulary changes them, so they are
    built once, and every translation shares these node objects."""
    x = Var("x")
    y = Var("y")
    z = Var("z")
    ind_x = Atom("ind", (x,))
    ext_x = Atom("ext", (x,))
    sort = (
        ("1", Forall("x", iff(ind_x, Not(ext_x)))),
        ("2", Forall("x", And(iff(ind_x, _box(ind_x)), iff(ext_x, _box(ext_x))))),
    )
    prec = (
        (
            "4",
            _forall_all(
                ["x", "y"],
                implies(Atom("prec", (x, y)), And(ind_x, Atom("ext", (y,)))),
            ),
        ),
        ("5", Forall("x", implies(ind_x, exists("y", Atom("prec", (x, y)))))),
        (
            "6",
            _forall_all(
                ["x", "y", "z"],
                implies(
                    And(Atom("prec", (x, y)), Atom("prec", (x, z))),
                    Equal(y, z),
                ),
            ),
        ),
    )
    return sort, prec, implies(Atom("ink", (x,)), ind_x)


_SORT_AXIOMS, _PREC_AXIOMS, _INK_IND = _fixed_axioms()
# the fixed axioms under the universal box, as full_translation conjoins
# them; the model finder reads these objects among a sentence's conjuncts
_FIXED_BOXED = {label: _box(ax) for label, ax in _SORT_AXIOMS + _PREC_AXIOMS}
# every boxed bridge axiom that something still holds (structurally, so a
# sentence with an equal conjunct matches too): the model finder
# simplifies these once per precisification count for all translations
_SHARED_AXIOMS: weakref.WeakSet = weakref.WeakSet(_FIXED_BOXED.values())


def labeled_axioms(vocab: V1Vocabulary) -> list[tuple[str, Formula]]:
    """The bridge axioms with schema labels, in their fixed order.

    1. ind/ext partition the domain;  2. both are rigid;  3. each precise
    predicate is rigid;  4. prec relates individuals to entities;  5. every
    individual has a precise version;  6. at most one;  7. indefinite
    predicates apply only to admitted individuals;  8. admitted individuals
    are individuals of some sort;  names:n. the proper name n denotes an
    admitted individual, one axiom per name, as in V1 a name refers to an
    individual some sortal admits.

    Equal vocabularies get the same node objects (see _bridge_axioms), in
    a new list on each call.
    """
    return list(_bridge_axioms(_vocabulary_key(vocab))[0])


def axiom_set(vocab: V1Vocabulary) -> list[Formula]:
    return [f for _, f in labeled_axioms(vocab)]


def _vocabulary_key(vocab: V1Vocabulary) -> tuple:
    return (
        frozenset(vocab.sortals),
        tuple(sorted(vocab.indefinite.items())),
        tuple(sorted(vocab.precise.items())),
        frozenset(vocab.names),
        frozenset(vocab.standpoints),
    )


# vocabularies whose bridge axioms are kept: a run over one vocabulary
# builds them once, and a few more cost little
_AXIOM_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_AXIOM_CACHE_SIZE)
def _bridge_axioms(key: tuple) -> tuple[tuple[tuple[str, Formula], ...], Formula]:
    """The labelled bridge axioms of a vocabulary key (_vocabulary_key),
    and the conjunction of them under the universal box, as
    full_translation conjoins it."""
    sortals, indefinite, precise, names, _ = key
    if not sortals:
        raise ModelFormatError("translation requires at least one sortal")
    x = Var("x")
    ink_x = Atom("ink", (x,))

    out = list(_SORT_AXIOMS)
    for q, arity in precise:
        vs = _vars(arity or 1)
        atom = Atom(q, tuple(Var(n) for n in vs))
        out.append((f"3:{q}", _forall_all(vs, iff(atom, _box(atom)))))
    out.extend(_PREC_AXIOMS)
    for a, arity in indefinite:
        vs = _vars(arity or 1)
        atom = Atom(a, tuple(Var(n) for n in vs))
        guards = conjoin([Atom("ink", (Var(n),)) for n in vs])
        out.append((f"7:{a}", _forall_all(vs, implies(atom, guards))))
    sortal_disjunction = disjoin([Atom(k, (x,)) for k in sorted(sortals)])
    out.append(("8", Forall("x", And(_INK_IND, iff(ink_x, sortal_disjunction)))))
    out.extend((f"names:{n}", Atom("ink", (Const(n),))) for n in sorted(names))
    boxed = [_FIXED_BOXED.get(label) or _box(ax) for label, ax in out]
    _SHARED_AXIOMS.update(boxed)
    return tuple(out), conjoin(boxed)


def _pin_wildcards(vocab: V1Vocabulary, pinned: dict[str, int]) -> V1Vocabulary:
    """vocab with each wildcard (None) arity that pinned names fixed, so
    that the bridge axioms are built at that arity."""

    def pin(arities):
        return {p: k if k is not None else pinned.get(p) for p, k in arities.items()}

    return replace(vocab, indefinite=pin(vocab.indefinite), precise=pin(vocab.precise))


@nesting_guard
def full_translation(
    f: Formula, vocab: V1Vocabulary, *, strict_names: bool = True
) -> Formula:
    """Translated formula conjoined with the box-prefixed bridge axioms,
    name typing included.  A wildcard (None) arity that f uses is pinned by
    that use, so that the axioms and the translated sentence agree on it.

    strict_names exists only for the benchmark's equisat workload, which
    still passes strict_names=True: True means what every translation
    means, and False, a translation without name typing, is rejected.
    """
    if strict_names is not True:
        raise ValueError(f"strict_names must be True (every translation "
                         f"types names), got {strict_names!r}")
    if free_variables(f):
        raise ModelFormatError(
            f"full translation requires a sentence; free: {sorted(free_variables(f))}"
        )
    pinned: dict[str, int] = {}
    _validate(f, vocab, pinned)
    core = _translate(f, vocab, _FreshVars(all_variables(f)))
    vocab = _pin_wildcards(vocab, pinned)
    return And(core, _bridge_axioms(_vocabulary_key(vocab))[1])


def translation_report(f: Formula, vocab: V1Vocabulary) -> dict:
    """Sizes, monodicity flags and axiom count for a translation run."""
    core = translate_formula(f, vocab)
    full = full_translation(f, vocab)
    return {
        "source_size": formula_size(f),
        "translated_size": formula_size(core),
        "full_size": formula_size(full),
        "axiom_count": len(labeled_axioms(vocab)),
        "source_monodic": is_monodic(f),
        "translated_monodic": is_monodic(core),
        "full_monodic": is_monodic(full),
    }


# ---------------------------------------------------------------------------
# Model correspondence
# ---------------------------------------------------------------------------

def lift_model(mv: V1Structure) -> FoslStructure:
    """Build the standpoint structure corresponding to a V1 structure.

    The domain is the disjoint union of entities and individual ids; ind,
    ext, ink and prec are interpreted from the registry, and every bridge
    axiom holds in the result by construction.
    """
    idents = sorted(mv.registry)
    domain = list(mv.entities) + idents
    interpretation: dict[str, dict] = {}
    for pi in mv.precisifications:
        admitted = individuals_at(mv, pi)
        preds: dict[str, set[tuple[str, ...]]] = {}
        for k, members in mv.sortals[pi].items():
            preds[k] = {(i,) for i in members}
        for a, rows in mv.indefinite[pi].items():
            preds[a] = set(rows)
        for q, rows in mv.precise.items():
            preds[q] = set(rows)
        preds["ind"] = {(i,) for i in idents}
        preds["ext"] = {(e,) for e in mv.entities}
        preds["ink"] = {(i,) for i in admitted}
        preds["prec"] = {(i, mv.registry[i].at(pi)) for i in idents}
        interpretation[pi] = {
            "predicates": {p: sorted(rows) for p, rows in preds.items()},
            "constants": dict(mv.names[pi]),
        }
    return make_fosl_structure(
        domain, mv.precisifications, dict(mv.sigma), interpretation
    )


def lower_model(mf: FoslStructure, vocab: V1Vocabulary) -> V1Structure:
    """Recover a V1 structure from a standpoint structure satisfying the
    bridge axioms (checked first; the violated axiom is reported, names:n
    for a name n that denotes no admitted individual, and a name mf does
    not interpret is an EvaluationError).
    So every structure returned is one the V1 loader accepts.  A wildcard
    (None) arity is pinned by the structure's rows before the axioms are
    built.
    """
    _check_bridge_axioms(mf, vocab)
    return _lower(mf, vocab)


def _check_bridge_axioms(mf: FoslStructure, vocab: V1Vocabulary) -> None:
    """Raise AxiomViolationError, with the label of the first bridge axiom
    mf falsifies, unless mf satisfies them all.  The axioms are checked
    together first, in one evaluation of their conjunction, and one by one
    only to name a violated one."""
    pinned = {
        p: len(next(iter(rows)))
        for interp in mf.interpretation.values()
        for p, rows in interp.predicates.items()
        if rows
    }
    axioms = labeled_axioms(_pin_wildcards(vocab, pinned))
    if is_model(mf, conjoin([ax for _, ax in axioms])):
        return
    for label, ax in axioms:
        if not is_model(mf, ax):
            raise AxiomViolationError(
                f"structure violates bridge axiom {label}", label
            )


def _lower(mf: FoslStructure, vocab: V1Vocabulary) -> V1Structure:
    """lower_model without the axiom check: mf must satisfy the bridge
    axioms, for example because it is a model of a full translation.  Each
    name keeps its denotation."""
    pi0 = mf.precisifications[0]
    base = mf.interpretation[pi0].predicates
    ind_ids = sorted(e for (e,) in base.get("ind", frozenset()))
    ext_ids = [e for e in mf.domain if e not in set(ind_ids)]
    if not ext_ids:
        raise ModelFormatError("cannot lower: no precise entities (ext is empty)")

    individuals: dict[str, dict[str, str]] = {}
    for i in ind_ids:
        extent = {}
        for pi in mf.precisifications:
            partners = [
                e
                for (a, e) in mf.interpretation[pi].predicates.get("prec", frozenset())
                if a == i
            ]
            # existence and uniqueness guaranteed by axioms 5 and 6
            extent[pi] = partners[0]
        individuals[i] = extent

    ind_set = set(ind_ids)
    sortals = {
        pi: {
            k: [e for (e,) in mf.interpretation[pi].predicates.get(k, frozenset()) if e in ind_set]
            for k in sorted(vocab.sortals)
        }
        for pi in mf.precisifications
    }
    indefinite = {
        pi: {
            a: [row for row in mf.interpretation[pi].predicates.get(a, frozenset())
                if all(e in ind_set for e in row)]
            for a in sorted(vocab.indefinite)
        }
        for pi in mf.precisifications
    }
    ext_set = set(ext_ids)
    precise = {
        q: [row for row in base.get(q, frozenset()) if all(e in ext_set for e in row)]
        for q in sorted(vocab.precise)
    }

    names = {
        pi: {n: mf.interpretation[pi].constants[n] for n in sorted(vocab.names)}
        for pi in mf.precisifications
    }

    return make_v1_structure(
        ext_ids,
        mf.precisifications,
        dict(mf.sigma),
        individuals,
        sortals,
        indefinite,
        precise,
        names,
    )
