"""Finite first-order standpoint structures and their satisfaction relation.

A structure interprets every predicate and constant separately at each
precisification (constants are non-rigid); all precisifications share one
domain.  The box modality quantifies over the precisifications a standpoint
admits, ignoring the current one; the universal standpoint ``*`` always
admits every precisification.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import EvaluationError, ModelFormatError, check_shape, load_json, nesting_guard
from .syntax import (
    And,
    Atom,
    Box,
    Equal,
    Forall,
    Formula,
    FoslVocabulary,
    Not,
    Term,
    Var,
    conjuncts,
    make_fosl_vocabulary,
    relation_arities,
    structure_ids,
    structure_relation,
    structure_sigma,
)

Assignment = Mapping[str, str]


@dataclass(frozen=True)
class PrecInterp:
    """Interpretation at one precisification: relations and constant images."""

    predicates: Mapping[str, frozenset[tuple[str, ...]]]
    constants: Mapping[str, str]


@dataclass(frozen=True)
class FoslStructure:
    domain: tuple[str, ...]
    precisifications: tuple[str, ...]
    sigma: Mapping[str, frozenset[str]]
    interpretation: Mapping[str, PrecInterp]


def make_fosl_structure(
    domain: Iterable[str],
    precisifications: Iterable[str],
    sigma: Mapping[str, Iterable[str]],
    interpretation: Mapping[str, Mapping],
) -> FoslStructure:
    """Normalize and validate the pieces of a structure.

    interpretation gives each precisification a dict with optional keys
    "predicates" (rows of domain elements; one arity per predicate) and
    "constants" (the same constants at every precisification).  sigma may
    omit '*'; if present it must equal the full precisification set.
    Missing predicate entries default to the empty extension.
    """
    dom = structure_ids(domain, "domain")
    precs = structure_ids(precisifications, "precisification")
    dom_set = frozenset(dom)

    sig = structure_sigma(sigma, precs)

    if set(interpretation) != set(precs):
        raise ModelFormatError(
            "interpretation must cover exactly the declared precisifications"
        )

    pred_names: set[str] = set()
    arities: dict[str, int] = {}
    raw: dict[str, tuple[dict[str, frozenset[tuple[str, ...]]], dict[str, str]]] = {}
    for pi in precs:
        entry = interpretation[pi]
        unknown = entry.keys() - {"predicates", "constants"}
        if unknown:
            raise ModelFormatError(
                f"interpretation[{pi!r}] has unknown key(s) {sorted(unknown)}"
            )
        preds = {
            p: structure_relation(f"predicate table at {pi!r}", p, rows, dom_set,
                                  "the domain", arities)
            for p, rows in entry.get("predicates", {}).items()
        }
        pred_names.update(preds)
        consts = dict(entry.get("constants", {}))
        for c, e in consts.items():
            if e not in dom_set:
                raise ModelFormatError(
                    f"constant {c!r} at {pi!r} denotes non-domain element {e!r}"
                )
        if raw and consts.keys() != raw[precs[0]][1].keys():
            raise ModelFormatError(
                "constant tables must interpret the same constants at every precisification"
            )
        raw[pi] = (preds, consts)

    interp = {
        pi: PrecInterp({p: preds.get(p, frozenset()) for p in pred_names}, consts)
        for pi, (preds, consts) in raw.items()
    }
    return FoslStructure(dom, precs, sig, interp)


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def eval_term(m: FoslStructure, pi: str, v: Assignment, t: Term) -> str:
    if pi not in m.interpretation:
        raise EvaluationError(f"unknown precisification {pi!r}")
    if isinstance(t, Var):
        if t.name not in v:
            raise EvaluationError(f"unbound variable ?{t.name}")
        if v[t.name] not in m.domain:
            raise EvaluationError(f"variable ?{t.name} bound to unknown element {v[t.name]!r}")
        return v[t.name]
    try:
        return m.interpretation[pi].constants[t.name]
    except KeyError:
        raise EvaluationError(f"unknown constant {t.name!r}") from None


# satisfies, satisfies_at and is_model share one evaluator.  A call
# indexes the structure once (_index): elements become ints, and each
# precisification (_Prec) gets its predicate extensions as sets of tuple
# ranks, keyed "pred/arity", and its constant images; each standpoint
# maps to the precisifications it admits.  Each top-level conjunct of the
# formula is compiled once into a closure fn(pt, env) -> bool over a
# _Prec and a list of element ints, one slot per variable (_Conjunct).
# Compiled conjuncts stay in a small LRU cache keyed by the conjunct, so
# recurring ones, such as the bridge axioms, compile once; a node keeps
# its hash, and equal vocabularies share their axioms' nodes, so a hit on
# one costs O(1).
#
# Evaluation keeps the order of the recursive definition: precisification,
# then assignment, then conjunct, each left to right with its short
# circuits.  So a lazy EvaluationError (unknown constant, unknown
# standpoint, a variable unbound or bound outside the domain) is raised
# exactly where that definition meets it.

_UNBOUND = -1  # an env value no element has
_NO_ROWS: frozenset[int] = frozenset()
# compiled conjuncts kept: room for the boxed bridge axioms of a full
# translation and the unboxed ones lower_model checks (about 10 each for a
# small vocabulary), with the top-level conjuncts of a few sentences; a
# larger cache keeps more one-off conjuncts, and the formulas that key
# them, alive
_CACHE_SIZE = 32


class _Prec:
    """One precisification of an indexed structure."""

    __slots__ = ("rows", "consts", "elems", "base", "sigma")

    def __init__(self, rows, consts, elems, base, sigma):
        self.rows = rows  # "pred/arity" -> ranks of its tuples
        self.consts = consts  # constant -> element int
        self.elems = elems  # range over the domain's ints
        self.base = base  # rank radix: the number of element ints
        self.sigma = sigma  # standpoint -> admitted _Precs, shared


def _index(m: FoslStructure, keys) -> tuple[dict[str, _Prec], dict[str, int]]:
    """m's precisifications indexed for evaluation, in order, and the
    element ints of the domain.  Every table in keys exists, empty where
    m has no such tuples."""
    ids = {e: i for i, e in enumerate(m.domain)}
    base = len(ids)
    elems = range(base)
    sigma: dict[str, list[_Prec]] = {}
    pts: dict[str, _Prec] = {}
    for pi in m.precisifications:
        interp = m.interpretation[pi]
        rows: dict[str, frozenset[int] | set[int]] = {}
        for p, tuples in interp.predicates.items():
            for row in tuples:
                rank = 0
                for e in row:
                    rank = rank * base + ids[e]
                rows.setdefault(f"{p}/{len(row)}", set()).add(rank)
        for key in keys:
            rows.setdefault(key, _NO_ROWS)
        consts = {c: ids[e] for c, e in interp.constants.items()}
        pts[pi] = _Prec(rows, consts, elems, base, sigma)
    for sp, admitted in m.sigma.items():
        sigma[sp] = [pt for pi, pt in pts.items() if pi in admitted]
    return pts, ids


class _Conjunct:
    """A compiled top-level conjunct: fn(pt, env) -> bool, an env of width
    ints, each free variable at its own negative slot (free), the tables
    it reads (keys), and whether its value cannot depend on the
    precisification it is evaluated at (indep): the case of a box."""

    __slots__ = ("fn", "free", "width", "keys", "indep")

    def __init__(self, fn, free, width, keys, indep):
        self.fn, self.free, self.width, self.keys, self.indep = fn, free, width, keys, indep


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _compile(f: Formula) -> _Conjunct:
    c = _Compiler()
    fn, indep = c.formula(f, {}, 0, True)
    return _Conjunct(fn, c.free, c.width + len(c.free), tuple(c.keys), indep)


class _Compiler:
    """One walk over a formula.  A quantifier's variable gets the slot of
    its nesting depth, a free variable the next negative slot.  Negation
    is compiled away: formula(f, ..., positive=False) returns a closure
    for not-f, with the same evaluation order, so a conjunction becomes
    a disjunction, a universal an existential, a box a diamond."""

    def __init__(self):
        self.free: dict[str, int] = {}
        self.width = 0
        self.keys: set[str] = set()

    def formula(self, f: Formula, slots: dict[str, int], depth: int, positive: bool):
        """(fn, indep) for f, or for not-f unless positive."""
        stop = not positive  # the value that decides a conjunction-like node
        if isinstance(f, Atom):
            key = f"{f.pred}/{len(f.args)}"
            self.keys.add(key)
            return self._atom(key, [self.term(t, slots) for t in f.args], positive), False
        if isinstance(f, Equal):
            a, b = self.term(f.left, slots), self.term(f.right, slots)
            indep = isinstance(f.left, Var) and isinstance(f.right, Var)
            if isinstance(a, int) and isinstance(b, int):
                if positive:
                    return (lambda pt, env: env[a] == env[b]), indep
                return (lambda pt, env: env[a] != env[b]), indep
            get_a, get_b = self._getter(a), self._getter(b)
            return (lambda pt, env: (get_a(pt, env) == get_b(pt, env)) is positive), indep
        if isinstance(f, Not):
            return self.formula(f.body, slots, depth, not positive)
        if isinstance(f, And):
            parts = [self.formula(g, slots, depth, positive) for g in conjuncts(f)]
            fns = [fn for fn, _ in parts]
            indep = all(i for _, i in parts)
            def every(pt, env):
                for fn in fns:
                    if fn(pt, env) is stop:
                        return stop
                return positive

            return every, indep
        if isinstance(f, Forall):
            self.width = max(self.width, depth + 1)
            body, indep = self.formula(f.body, {**slots, f.var: depth}, depth + 1, positive)

            def forall(pt, env):
                for e in pt.elems:
                    env[depth] = e
                    if body(pt, env) is stop:
                        return stop
                return positive

            return forall, indep
        if isinstance(f, Box):
            body, _ = self.formula(f.body, slots, depth, positive)
            sp = f.standpoint

            def box(pt, env):
                try:
                    admitted = pt.sigma[sp]
                except KeyError:
                    raise EvaluationError(f"unknown standpoint {sp!r}") from None
                for other in admitted:
                    if body(other, env) is stop:
                        return stop
                return positive

            return box, True

        def bad(pt, env):
            raise TypeError(f"not a formula: {f!r}")

        return bad, False

    def term(self, t: Term, slots: dict[str, int]):
        """A bound variable's slot, or a getter fn(pt, env) -> int."""
        name = t.name
        if not isinstance(t, Var):
            def constant(pt, env):
                try:
                    return pt.consts[name]
                except KeyError:
                    raise EvaluationError(f"unknown constant {name!r}") from None

            return constant
        if name in slots:
            return slots[name]
        slot = self.free.setdefault(name, -1 - len(self.free))

        def free(pt, env):
            e = env[slot]
            if e == _UNBOUND:
                raise EvaluationError(f"unbound variable ?{name}")
            if e.__class__ is str:
                raise EvaluationError(f"variable ?{name} bound to unknown element {e}")
            return e

        return free

    @staticmethod
    def _getter(term):
        if isinstance(term, int):
            return lambda pt, env: env[term]
        return term

    def _atom(self, key: str, terms: list, positive: bool):
        if all(isinstance(t, int) for t in terms):
            if len(terms) == 1:
                (a,) = terms
                if positive:
                    return lambda pt, env: env[a] in pt.rows[key]
                return lambda pt, env: env[a] not in pt.rows[key]
            if len(terms) == 2:
                a, b = terms
                if positive:
                    return lambda pt, env: env[a] * pt.base + env[b] in pt.rows[key]
                return lambda pt, env: env[a] * pt.base + env[b] not in pt.rows[key]
        getters = [self._getter(t) for t in terms]

        def atom(pt, env):
            rank = 0
            for get in getters:
                rank = rank * pt.base + get(pt, env)
            return (rank in pt.rows[key]) is positive

        return atom


def _prepare(m: FoslStructure, f: Formula):
    parts = [_compile(g) for g in conjuncts(f)]
    pts, ids = _index(m, {key for c in parts for key in c.keys})
    return parts, pts, ids


def _holds(m: FoslStructure, f: Formula, pis) -> bool:
    """f true at each precisification of pis, in order, under every
    assignment of its free variables into the domain.  A conjunct whose
    value cannot depend on the precisification is evaluated at the first
    one only: it does the same work at every other."""
    parts, pts, _ = _prepare(m, f)
    names = sorted({name for c in parts for name in c.free})
    envs = [(c.fn, [_UNBOUND] * c.width, [(s, names.index(x)) for x, s in c.free.items()])
            for c in parts]
    later = [e for c, e in zip(parts, envs) if not c.indep]
    todo = envs
    for pi in pis:
        pt = pts[pi]
        for values in itertools.product(pt.elems, repeat=len(names)):
            for fn, env, fill in todo:
                for slot, pos in fill:
                    env[slot] = values[pos]
                if not fn(pt, env):
                    return False
        todo = later
        if not todo:
            break
    return True


def _check_prec(m: FoslStructure, pi: str) -> None:
    if pi not in m.interpretation:
        raise EvaluationError(f"unknown precisification {pi!r}")


@nesting_guard
def satisfies(m: FoslStructure, pi: str, v: Assignment, f: Formula) -> bool:
    """Truth at pi under the assignment v."""
    _check_prec(m, pi)
    parts, pts, ids = _prepare(m, f)
    for c in parts:
        env = [_UNBOUND] * c.width
        for name, slot in c.free.items():
            if name in v:  # a value off the domain goes in as its repr (see _Compiler.term)
                env[slot] = ids[v[name]] if v[name] in ids else repr(v[name])
        if not c.fn(pts[pi], env):
            return False
    return True


@nesting_guard
def satisfies_at(m: FoslStructure, pi: str, f: Formula) -> bool:
    """Truth at a precisification under every assignment of the free variables."""
    _check_prec(m, pi)
    return _holds(m, f, (pi,))


@nesting_guard
def is_model(m: FoslStructure, f: Formula) -> bool:
    """Truth at every precisification under every assignment."""
    return _holds(m, f, m.precisifications)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

_SHAPE = {
    "domain": [str],
    "precisifications": [str],
    "sigma": {str: [str]},
    "interpretation": {str: {"predicates": {str: [[str]]}, "constants": {str: str}}},
}


def fosl_structure_from_dict(data: Mapping) -> FoslStructure:
    check_shape(data, _SHAPE, ModelFormatError, "model")
    missing = _SHAPE.keys() - {"sigma"} - set(data)
    if missing:
        raise ModelFormatError(f"missing required key(s) {sorted(missing)}")
    return make_fosl_structure(
        data["domain"],
        data["precisifications"],
        data.get("sigma", {}),
        data["interpretation"],
    )


def load_fosl_model(path: str) -> FoslStructure:
    return load_json(path, ModelFormatError, fosl_structure_from_dict)


def fosl_structure_to_dict(m: FoslStructure) -> dict:
    return {
        "domain": list(m.domain),
        "precisifications": list(m.precisifications),
        "sigma": {sp: sorted(ps) for sp, ps in sorted(m.sigma.items())},
        "interpretation": {
            pi: {
                "predicates": {
                    p: sorted(list(row) for row in rows)
                    for p, rows in sorted(m.interpretation[pi].predicates.items())
                },
                "constants": dict(sorted(m.interpretation[pi].constants.items())),
            }
            for pi in m.precisifications
        },
    }


def vocabulary_of_fosl_model(m: FoslStructure) -> FoslVocabulary:
    """Derive the vocabulary a model file carries implicitly.

    Predicate arities come from interpreted tuples; a predicate whose
    extension is empty everywhere keeps a wildcard arity, pinned later by
    its first use in a formula.  The constants are those of the first
    precisification, since the loader makes every constant table interpret
    the same ones.
    """
    arities = relation_arities(m.interpretation[pi].predicates for pi in m.precisifications)
    consts = m.interpretation[m.precisifications[0]].constants
    return make_fosl_vocabulary(arities, consts, m.sigma)
