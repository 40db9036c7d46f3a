"""Bounded exhaustive model search for both logics, plus the
equisatisfiability harness built on the translation.

The search assigns interpretation "cells" (a membership bit per
predicate, tuple and precisification, a standpoint membership bit per
precisification, and a value per function, argument and precisification,
a constant being a 0-ary function) and evaluates the query three-valued
after each assignment: definitely-false prunes the branch,
definitely-true completes the remaining cells with defaults, and an
unknown result names a blocking cell to branch on next.  Domains
grow from size 1, false comes before true, and smaller elements come
first, so the first model found is canonical for the enumeration order.

The standpoint space and the V1 space share one cell store, one
depth-first search, one cell write and one three-valued compiler, which
also creates their cells and read sets (see _Space).  Every cell is
(kind, symbol, precisification, rank); in both spaces an individual's
precise version is the function prec, which V1's registries preset
(multisets of extension maps that use every entity, see find_v1_model).
Each space supplies its universal quantifier and tables, V1 also its
indefinite atoms and its atoms over precise entities.  Every constraint of
a level is a compiled instance, V1's typing of names included.  An
unknown result names as its blocking cell the first unset cell read by a
subformula it depends on: a subformula that turns out decided leaves no
trace.

One level loop, _search, runs both engines: a level is a space and the
configurations it is searched under, the split points of a split
standpoint level or the registries of extension maps of a V1 level, each
searched in the level's one space; a precisification count at which the
sentence simplifies to false has no level (see _level).  A passed
deadline is _DeadlinePassed, in set-up and in search alike.  Every
search runs serially in the calling thread.

A standpoint level's space outlives one search.  Spaces are kept by
shape (vocabulary, n, m, symmetry, split and the level formula's shared
bridge axioms) in a small LRU: a space grounds the parts of its level
formula that are shared bridge axioms once, each search loads only its
sentence's own instances, and the end of the level unloads them again.
The instances are scanned in the level formula's conjunct order, so a
kept space searches exactly as a new one.
"""

from __future__ import annotations

import collections
import functools
import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import Union

from .errors import EvaluationError, SplError, nesting_guard
from .fosl import FoslStructure, fosl_structure_to_dict, is_model, make_fosl_structure
from .parser import print_formula
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
    conjoin,
    conjuncts,
    disjoin,
    falsity,
    formula_size,
    free_variables,
    truth,
    validate_formula,
)
from .translate import (
    _FIXED_BOXED,
    _INK_IND,
    _SHARED_AXIOMS,
    _lower,
    full_translation,
    lift_model,
    translated_vocabulary,
)
from .v1 import V1Structure, is_model_v1, make_v1_structure, v1_structure_to_dict

_U, _T, _F = 0, 1, 2  # three-valued: unknown / true / false


@dataclass(frozen=True)
class Bounds:
    """Search limits, each maximum inclusive; the timeout is per search.
    find_fosl_model reads max_domain, not max_entities or max_individuals;
    find_v1_model reads those two, not max_domain or symmetry_reduction
    (it searches each multiset of extension maps once, in lexicographic
    order); equisat_check searches the translation up to max_entities +
    max_individuals elements in place of max_domain."""

    max_domain: int = 3
    max_precisifications: int = 2
    max_entities: int = 2
    max_individuals: int = 2
    timeout: float = 60.0
    symmetry_reduction: bool = True

    def __post_init__(self):
        for name in ("max_domain", "max_precisifications", "max_entities", "max_individuals"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        timeout = self.timeout  # a number, not a bool; NaN fails the comparison
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or not timeout > 0:
            raise ValueError(f"timeout must be a positive number, got {timeout!r}")
        if not isinstance(self.symmetry_reduction, bool):
            raise ValueError(f"symmetry_reduction must be a bool, got {self.symmetry_reduction!r}")

    def to_dict(self) -> dict:
        return dict(vars(self))  # no field is None


@dataclass(frozen=True)
class ModelFound:
    structure: Union[FoslStructure, V1Structure]
    elapsed: float
    verdict = "sat"  # the outcome's name in an equisat report (not a field)


@dataclass(frozen=True)
class ExhaustedUnsat:
    bounds: Bounds
    elapsed: float
    verdict = "unsat"


@dataclass(frozen=True)
class SearchTimeout:
    elapsed: float
    verdict = "timeout"


SearchOutcome = Union[ModelFound, ExhaustedUnsat, SearchTimeout]


# ---------------------------------------------------------------------------
# Per-level preprocessing
# ---------------------------------------------------------------------------

def _simplify(f: Formula, m: int) -> tuple:
    """Constant-fold for a level with m precisifications: collapse the
    universal box at m == 1, fold trivial equalities, drop double
    negations, and give a bool when the value is forced.  A universal
    with a false body stays a universal over falsity, since a V1
    quantifier range may be empty.  Conjunction members are flattened,
    deduplicated and stably sorted by size, cheap decisive parts first.
    A subformula that comes out unchanged is the same object, which
    keeps its hash, not a copy.

    One pass: the result comes as a triple (formula or bool, its node
    count, inner), where inner holds the member triples of a
    conjunction, the triple of a negation's body and None otherwise, so
    no size is counted twice."""
    if isinstance(f, Atom):
        return f, 1, None
    if isinstance(f, Equal):
        if f.left == f.right:
            return True, 0, None
        return f, 1, None
    if isinstance(f, Not):
        body = _simplify(f.body, m)
        s, size, inner = body
        if isinstance(s, bool):
            return not s, 0, None
        if isinstance(s, Not):
            return inner
        return (f if s is f.body else Not(s)), size + 1, body
    if isinstance(f, And):
        return _conjunction(f, (_simplify(g, m) for g in conjuncts(f)))
    if isinstance(f, Forall):
        s, size, _ = _simplify(f.body, m)
        if s is True:
            return True, 0, None
        if s is False:
            out = Forall(f.var, falsity())
            return out, formula_size(out), None
        return (f if s is f.body else Forall(f.var, s)), size + 1, None
    if isinstance(f, Box):
        body = _simplify(f.body, m)
        s, size, _ = body
        if s is True:
            return True, 0, None
        if f.standpoint == UNIVERSAL_STANDPOINT:
            if s is False:
                return False, 0, None
            if m == 1:
                return body
        if s is False:
            out = Box(f.standpoint, falsity())  # true iff the standpoint is empty
            return out, formula_size(out), None
        return (f if s is f.body else Box(f.standpoint, s)), size + 1, None
    raise TypeError(f"not a formula: {f!r}")


def _conjunction(f: And, parts) -> tuple:
    """The triple (see _simplify) of the conjunction f with its members
    simplified, given lazily as triples: members flattened, deduplicated
    and stably sorted by size, and no part simplified after a false one."""
    members: dict[Formula, tuple] = {}  # first occurrences, in order
    for part in parts:
        s = part[0]
        if s is False:
            return False, 0, None
        if s is True:
            continue
        for member in part[2] if isinstance(s, And) else (part,):
            members.setdefault(member[0], member)
    if not members:
        return True, 0, None
    for g in members:
        if isinstance(g, Not) and g.body in members:
            return False, 0, None
    if len(members) == 1:
        return next(iter(members.values()))
    ordered = sorted(members.values(), key=lambda part: part[1])  # stable
    size = len(ordered) - 1 + sum(part[1] for part in ordered)
    formulas = [part[0] for part in ordered]
    return (f if _is_chain(f, formulas) else conjoin(formulas)), size, ordered


def _is_chain(f: Formula, parts: list) -> bool:
    """Whether f is conjoin(parts) already, built of these very objects."""
    for part in parts[:-1]:
        if f.__class__ is not And or f.left is not part:
            return False
        f = f.right
    return f is parts[-1]


# bridge axioms simplified for a precisification count: a full translation
# shares its axioms with every other of its vocabulary (see
# translate._bridge_axioms), so each is simplified once per m; room for
# the axioms of a few vocabularies at m = 1, 2
_simplify_shared = functools.lru_cache(maxsize=64)(_simplify)


@functools.lru_cache(maxsize=8)
def _level(f: Formula, m: int) -> tuple[Formula | bool, frozenset]:
    """The formula specialized to a level with m precisifications, and
    its conjuncts that are simplified shared bridge axioms of f.  Those
    parts depend on the vocabulary and on the arities the sentence pins
    for its wildcard predicates, so they are part of a standpoint space's
    shape (_shape), and the space grounds them once for all the sentences
    of that shape (see _FoslSpace.load).  The levels of one search share
    both for each m.

    The formula is _simplify(f, m), a shared bridge axiom among the
    conjuncts of f simplified through _simplify_shared, or False, with no
    parts: all precisifications share one domain, so f then has no model
    with m precisifications at any size, and no level of m is searched."""
    axioms: set = set()

    def simplified(g: Formula) -> tuple:
        if g.__class__ is not Box or g not in _SHARED_AXIOMS:
            return _simplify(g, m)
        triple = _simplify_shared(g, m)
        if not isinstance(triple[0], bool):
            axioms.add(triple[0])
        return triple

    if isinstance(f, And):
        s = _conjunction(f, map(simplified, conjuncts(f)))[0]
    else:
        s = _simplify(f, m)[0]
    if isinstance(s, bool):  # a constant level has no parts
        return (truth() if s else False), frozenset()
    return s, frozenset(axioms.intersection(conjuncts(s)))


_GROUND_LIMIT = 256


def _strip_ground_prefix(f: Formula, n: int) -> tuple[list[str], list[str], Formula]:
    """Split a conjunct into leading universal-box symbols, groundable
    quantifier variables and the residual body.  Boxes and universals
    commute under the constant-domain semantics, so the prefix order is
    immaterial; grounding stops once the instance count would exceed the
    limit."""
    boxes: list[str] = []
    qvars: list[str] = []
    body = f
    count = 1
    while True:
        if isinstance(body, Box):
            boxes.append(body.standpoint)
            body = body.body
        elif isinstance(body, Forall) and count * n <= _GROUND_LIMIT:
            qvars.append(body.var)
            count *= n
            body = body.body
        else:
            break
    return boxes, qvars, body


# ---------------------------------------------------------------------------
# What both search spaces share
# ---------------------------------------------------------------------------

class _DeadlinePassed(Exception):
    """The deadline passed while a space was ground or searched."""


class _Space:
    """Depth-first search over the cells of a partial structure, and the
    three-valued compiler both logics share.

    A space keeps its cells in one store, tables[(kind, symbol)], with
    one row per precisification, or a single row for a rigid symbol.  A
    cell is (kind, symbol, pi, rank), the rank-th entry of row pi:
      "p"  a predicate's membership bit, tuple ranks in base self.base;
      "s"  a standpoint's membership bit, a 0-ary symbol at rank 0;
      "f"  a function's value, an element or None: a constant is 0-ary,
           at rank 0, and prec, each individual's precise version, is
           1-ary, ranked by the individual.
    A bit stores its three-valued value, unset being unknown.  A space
    provides _table, propagate, materialize, configure (which sets up
    one configuration of the level, see _search), _quantify (the
    universal over its domain) and self.choices, the values a function
    branches over from its least one (_least); it may extend assign,
    decide (the one branching step) and unassign.  Both spaces write
    every cell through _poke.

    The compiler is the one walk over a level's formula.  It creates a
    symbol's cells when it first meets it (a predicate's table through
    _table(pred, arity)) and adds the read-set keys of what it compiles
    to self.reads: ("p", pred, env slots) for an atom over variables
    only, ("p", pred) for any other, ("f", name) and ("s", sp).  A bound
    variable takes an env slot above every slot in scope (_bind), so a
    rebound variable never overwrites the one it shadows.  The walk also
    sets self.varies when the value may depend on the precisification:
    outside every box, an atom, a constant or a universal over a domain
    that varies with it (V1's _quantify) reads the evaluation point.

    Compiled closures fn(pi, env) return a three-valued int.  An unset
    cell read is reported through _note: if no cell is recorded yet, it
    becomes self.culprit, the cell an unknown result names for the search
    to branch on.  A closure that returns a decided value after an
    unknown child restores the culprit it found at its entry, so the
    culprit always comes from a subformula an unknown result depends
    on.  An atom whose predicate _table gives no table compiles through
    the space's _precise_atom, which adds its own read keys: V1's
    indefinite and rigid precise predicates, and ind, ext and prec in a
    split standpoint space.
    """

    def __init__(self, vocab, f: Formula, m: int, base: int):
        self.vocab = vocab
        self.formula = f
        self.m = m
        self.base = base
        # the compiler creates the cells of the symbols the level formula
        # mentions, a predicate's table through _table, which records its
        # arity in preds
        self.preds: dict[str, int] = {}
        self.tables: dict[tuple[str, str], list] = {}
        self.env: list[int] = []
        self.culprit: tuple | None = None
        self.reads: set[tuple] = set()
        self.conjuncts: list = []  # compiled instances
        self.pi_indep: list[bool] = []
        self.trail: list[list[tuple[int, int]]] = [[]]

    def dfs(self, deadline: float):
        """The first model below this node, materialized, or None when
        there is none.  A finished search leaves every cell it assigned
        unset; past the deadline it raises _DeadlinePassed and leaves the
        space as it is, for the caller to drop."""
        if time.monotonic() > deadline:
            raise _DeadlinePassed
        propagated: list[tuple] = []
        v, culprit = self.propagate(propagated)
        found = None
        if v == _T:
            found = self.materialize()
        elif v == _U:
            for value in self.branch_values(culprit):
                self.decide(culprit, value)
                found = self.dfs(deadline)
                self.unassign(culprit)
                if found is not None:
                    break
        for cell in reversed(propagated):
            self.unassign(cell)
        return found

    def branch_values(self, cell: tuple) -> tuple[int, ...]:
        if cell[0] != "f":
            return (_F, _T)  # absent before present
        least = self._least(cell[1])
        return tuple(e for e in self.choices if e >= least) if least else self.choices

    def _least(self, symbol: str) -> int:
        # a function's least value: prec maps an individual to an entity,
        # and the entities of a standpoint space start at first_ext (V1
        # presets its prec rows, so it never branches on them)
        return self.first_ext if symbol == "prec" else 0

    def decide(self, cell: tuple, value: int) -> None:
        self.assign(cell, value)

    def assign(self, cell: tuple, value: int) -> None:
        self.trail.append([])
        self._poke(cell, value)

    def unassign(self, cell: tuple) -> None:
        self.pop_frame()
        self._poke(cell, None)

    def pop_frame(self) -> None:
        # close the newest trail frame: the instances found true since it
        # opened are undecided again
        for ci, pi in self.trail.pop():
            self.status[ci][pi] = _U

    def _poke(self, cell: tuple, value) -> None:
        # the one cell write, for both spaces; None unsets
        kind, symbol, pi, rank = cell
        if kind == "f":
            self.tables[kind, symbol][pi][rank] = value
        else:
            self.tables[kind, symbol][pi][rank] = 0 if value is None else value

    # ---- compilation to closures: fn(pi, env) -> three-valued int ----

    def _note(self, cell) -> None:
        if self.culprit is None:
            self.culprit = cell

    def _bind(self, slots: dict[str, int], var: str) -> dict[str, int]:
        slot = max(slots.values(), default=-1) + 1
        while len(self.env) <= slot:
            self.env.append(0)
        return {**slots, var: slot}

    def _compile(self, f: Formula, slots: dict[str, int]):
        if isinstance(f, Atom):
            self.varies = True
            resolvers = [self._compile_term(t, slots) for t in f.args]
            arrays = self._table(f.pred, len(f.args))
            if arrays is None:
                return self._precise_atom(f, slots, resolvers)
            if all(isinstance(t, Var) for t in f.args):
                self.reads.add(("p", f.pred, tuple(slots[t.name] for t in f.args)))
            else:
                self.reads.add(("p", f.pred))
            pred = f.pred
            base = self.base

            def fn(pi, env):
                rank = 0
                for resolve in resolvers:
                    e = resolve(pi, env)
                    if e is None:
                        return _U
                    rank = rank * base + e
                b = arrays[pi][rank]
                if b == 0:
                    self._note(("p", pred, pi, rank))
                return b

            return fn
        if isinstance(f, Equal):
            left = self._compile_term(f.left, slots)
            right = self._compile_term(f.right, slots)

            def fn(pi, env):
                a = left(pi, env)
                if a is None:
                    return _U
                b = right(pi, env)
                if b is None:
                    return _U
                return _T if a == b else _F

            return fn
        if isinstance(f, Not):
            child = self._compile(f.body, slots)

            def fn(pi, env):
                v = child(pi, env)
                if v == _U:
                    return _U
                return _F if v == _T else _T

            return fn
        if isinstance(f, And):
            lf = self._compile(f.left, slots)
            rf = self._compile(f.right, slots)

            def fn(pi, env):
                cul = self.culprit
                lv = lf(pi, env)
                if lv == _F:
                    return _F
                rv = rf(pi, env)
                if rv == _F:
                    self.culprit = cul
                    return _F
                return _U if (lv == _U or rv == _U) else _T

            return fn
        if isinstance(f, Forall):
            inner = self._bind(slots, f.var)
            return self._quantify(inner[f.var], self._compile(f.body, inner))
        if isinstance(f, Box):
            varies = self.varies
            child = self._compile(f.body, slots)
            self.varies = varies  # the box requantifies the precisification
            sp = f.standpoint
            m = self.m
            if sp == UNIVERSAL_STANDPOINT:

                def fn(pi, env):
                    cul = self.culprit
                    unknown = False
                    for p2 in range(m):
                        v = child(p2, env)
                        if v == _F:
                            self.culprit = cul
                            return _F
                        if v == _U:
                            unknown = True
                    return _U if unknown else _T

                return fn

            self.reads.add(("s", sp))
            rows = self.tables.setdefault(("s", sp), [bytearray(1) for _ in range(m)])

            def fn(pi, env):
                cul = self.culprit
                unknown = False
                for p2 in range(m):
                    b = rows[p2][0]
                    if b == 2:
                        continue
                    v = child(p2, env)
                    if v == _F:
                        if b == 1:
                            self.culprit = cul
                            return _F
                        self._note(("s", sp, p2, 0))  # membership still open
                        unknown = True
                    elif v == _U:
                        unknown = True
                return _U if unknown else _T

            return fn
        raise TypeError(f"not a formula: {f!r}")

    def _compile_term(self, t, slots: dict[str, int]):
        if isinstance(t, Var):
            slot = slots[t.name]
            return lambda pi, env: env[slot]
        self.varies = True
        name = t.name
        self.reads.add(("f", name))
        rows = self.tables.setdefault(("f", name), [[None] for _ in range(self.m)])

        def resolve(pi, env):
            v = rows[pi][0]
            if v is None:
                self._note(("f", name, pi, 0))
                return None
            return v

        return resolve


def _rows(bits, arity: int, names: list[str]) -> list[tuple[str, ...]]:
    """The sorted tuples a table of membership bits holds true; tuple
    ranks are numerals in base len(names), first argument leading."""
    base = len(names)
    rows = []
    for rank, b in enumerate(bits):
        if b == 1:
            row = []
            for _ in range(arity):
                row.append(names[rank % base])
                rank //= base
            rows.append(tuple(reversed(row)))
    return sorted(rows)


def _sigma(standpoints, tables: dict, precs: list[str]) -> dict[str, list[str]]:
    """Each standpoint's precisifications; one the formula does not
    mention (no table) admits none."""
    return {
        sp: [p for p, row in zip(precs, tables.get(("s", sp), ())) if row[0] == 1]
        for sp in sorted(standpoints)
        if sp != UNIVERSAL_STANDPOINT
    }


# ---------------------------------------------------------------------------
# Standpoint-logic search space
# ---------------------------------------------------------------------------

class _FoslSpace(_Space):
    """Partial standpoint structure over n domain elements and m
    precisifications, restricted to the symbols the formula mentions.

    Symmetry is broken only at decisions: with symmetry reduction on, a
    value cell branches over each block's elements (see set_blocks) up to
    the largest one a decision on the path names, plus one fresh one
    (the least-number heuristic, LNH).  Propagation derives only values
    every model below the node shares (_probe), which keep the models'
    symmetry, so forced cells mention nothing.

    With prec_cells, the space is split at the point its configuration
    sets (see configure), and it has no table of ind, ext or prec bits.
    ind(s) is s < first_ext and ext(s) is s >= first_ext, and prec is a
    function like a constant, 1-ary: one value cell ("f", "prec", pi, i)
    per individual i and precisification, ranging over the entities (see
    _least); an atom prec(s, t) reads s's cell, and is false when s is an
    entity or t an individual.  So bridge axioms 1, 2 and 4-6 hold and are
    not ground; materialize writes the three predicates, and the
    revalidation against the whole sentence still checks the five.  A
    prec cell branches over the entity block's LNH values, is probed at
    every entity, and a decision on it mentions its individual and value.
    Without prec_cells the space's one configuration is None.

    A space outlives the search of one sentence: load makes a sentence
    the one searched, and unload, once its level is over, drops that
    sentence's instances and leaves those of the shared bridge axioms,
    so the space can be kept for the next search of its shape (see
    _fosl_space and _keep_space).  _scan visits the instances in
    self.order, the level formula's conjunct order, whatever order they
    were ground in."""

    def __init__(self, vocab: FoslVocabulary, f: Formula, n: int, m: int, symmetry: bool,
                 deadline: float = float("inf"), prec_cells: bool = False):
        _Space.__init__(self, vocab, f, m, n)
        self.n = n
        self.symmetry = symmetry
        self.prec_cells = prec_cells
        if prec_cells:
            self.tables["f", "prec"] = [[None] * n for _ in range(m)]
        # the split point, set by configure; 0 until then, no individuals,
        # so a constant that is named prec takes every element (_least)
        self.first_ext = 0

        # the LNH state: the largest element of each block a decision
        # mentioned, and self.choices (see set_blocks)
        self.set_blocks(((0, n),))
        self.lnh_stack: list[tuple] = []  # (maxima, choices) per assignment

        # Universal blocks at the top of a conjunct (boxes commute with
        # them under the constant-domain semantics) are ground into one
        # instance per element tuple, so the probe machinery sees small,
        # nearly-decided constraints instead of one monolithic quantifier
        # (_ground).  The instances of the parts that are shared bridge
        # axioms are kept for every later sentence (see load and unload);
        # self.kept maps each such part to its instances.
        self.presets: list[tuple[tuple[int, int], ...]] = []  # (slot, elem)*
        self.watch: dict[tuple, list[int]] = {}  # read-set key -> instances
        self.status: list[list[int]] = []
        self.kept: dict[Formula, range] = {}
        self.shape = _shape(vocab, f, n, m, symmetry, prec_cells)

        # memos: an instance is re-evaluated only when a cell it can read
        # changes, i.e. when a key of its read set is touched
        self.tick = 0
        self.conj_touch: list[int] = []
        self.u_memo: list[list[tuple | None]] = []
        self.probe_memo: list[list[tuple | None]] = []
        self.load(f, deadline)

    def load(self, f: Formula, deadline: float = float("inf")) -> None:
        """Make f, a sentence of the space's shape (_shape), the one it
        searches, while no cell is assigned and no sentence is loaded
        since the last unload.  The parts of f's level formula that are
        shared bridge axioms (see _level) are ground first, by the
        space's first load, and kept; then the others are ground, up to
        unload.  So the kept instances come first in every list, and
        self.order, the instances in the level formula's conjunct order,
        is the order _scan visits them in, as if the space were new.  A
        split space drops bridge axioms 1, 2 and 4-6.  The deadline is
        checked before each part is ground (_DeadlinePassed)."""
        self.formula = f
        m = self.m
        level, axioms = _level(f, m)
        parts = conjuncts(level)
        dropped = _split_level_axioms(m) if self.prec_cells else ()
        for part in parts:
            if part in axioms and part not in self.kept and part not in dropped:
                self.kept[part] = self._ground(part, deadline)
        # what unload truncates back to: the instances, tables and
        # predicates the kept parts left
        self.kept_sizes = (len(self.conjuncts), len(self.tables), len(self.preds))
        self.order: list[int] = []
        for part in parts:
            if part not in dropped:
                span = self.kept.get(part)
                self.order.extend(span if span is not None else self._ground(part, deadline))

    def unload(self) -> None:
        """Drop the loaded sentence's own instances with their watch
        entries, memo rows and the tables (so the cells) they created,
        leaving what the kept bridge axioms left.  Valid only once the
        level's search is over, every cell unset and every instance
        undecided (see _keep_space)."""
        count, tables, preds = self.kept_sizes
        for rows in (self.conjuncts, self.presets, self.pi_indep, self.status,
                     self.conj_touch, self.u_memo, self.probe_memo):
            del rows[count:]
        # each watch list holds its instances in ascending order
        for key, cis in list(self.watch.items()):
            while cis and cis[-1] >= count:
                cis.pop()
            if not cis:
                del self.watch[key]
        # the sentence's tables are the newest entries (dicts keep order)
        while len(self.tables) > tables:
            self.tables.popitem()
        while len(self.preds) > preds:
            self.preds.popitem()

    def _ground(self, part: Formula, deadline: float) -> range:
        """Ground one part of the level formula into instances, appended
        to every per-instance list; returns their indices.

        Each instance also gets its read set, from the compiler's keys
        for the rebuilt formula (so it has the box prefix's standpoints):
        an atom over ground variables only (slots below len(qvars)) is
        keyed by its own cell, ("p", pred, rank), any other atom by its
        whole predicate.  In a split space every ind, ext and prec atom
        reads the split point, ("x", "split"), and a prec atom also its
        first argument's cell, keyed ("f", "prec", i) when that argument
        is a ground variable."""
        if time.monotonic() > deadline:
            raise _DeadlinePassed
        n, m = self.n, self.m
        boxes, qvars, body = _strip_ground_prefix(part, n)
        rebuilt = body
        for sp in reversed(boxes):
            rebuilt = Box(sp, rebuilt)
        slots: dict[str, int] = {}
        for v in qvars:
            slots = self._bind(slots, v)
        self.reads = set()
        self.varies = False
        fn = self._compile(rebuilt, slots)
        wide: set[tuple] = set()
        exact: list[tuple[str, str, tuple[int, ...]]] = []
        for key in self.reads:
            if len(key) == 3 and all(s < len(qvars) for s in key[2]):
                exact.append(key)
            else:
                wide.add(key[:2])
        indep = not self.varies
        start = len(self.conjuncts)
        for combo in itertools.product(range(n), repeat=len(qvars)):
            ci = len(self.conjuncts)
            self.conjuncts.append(fn)
            self.presets.append(tuple(enumerate(combo)))
            self.pi_indep.append(indep)
            self.status.append([_U] * m)
            self.conj_touch.append(0)
            self.u_memo.append([None] * m)
            self.probe_memo.append([None] * m)
            keys = set(wide)
            for kind, pred, arg_slots in exact:
                rank = 0
                for s in arg_slots:
                    rank = rank * n + combo[s]
                keys.add((kind, pred, rank))
            for key in keys:
                self.watch.setdefault(key, []).append(ci)
        return range(start, len(self.conjuncts))

    def _table(self, pred: str, arity: int) -> list[bytearray] | None:
        if self.prec_cells and pred in _SPLIT_PREDS:
            return None  # compiled by _precise_atom
        if pred not in self.preds:
            self.preds[pred] = arity
            self.tables["p", pred] = [bytearray(self.n ** arity) for _ in range(self.m)]
        return self.tables["p", pred]

    def _precise_atom(self, f: Atom, slots, resolvers):
        # ind, ext and prec in a split space, read off the split point
        self.reads.add(("x", "split"))
        if f.pred != "prec":
            (arg,) = resolvers
            ind = f.pred == "ind"  # else ext

            def fn(pi, env):
                s = arg(pi, env)
                if s is None:
                    return _U
                return _T if (s < self.first_ext) == ind else _F

            return fn
        # prec(s, t) over value cells: s must be an individual and t its
        # precise version, so of the cells the atom reads s's alone
        head = f.args[0]
        self.reads.add(("f", "prec", (slots[head.name],)) if isinstance(head, Var)
                       else ("f", "prec"))
        first, second = resolvers
        vals = self.tables["f", "prec"]

        def fn(pi, env):
            s = first(pi, env)
            if s is None:
                return _U
            if s >= self.first_ext:
                return _F
            t = second(pi, env)
            if t is None:
                return _U
            if t < self.first_ext:
                return _F
            v = vals[pi][s]
            if v is None:
                self._note(("f", "prec", pi, s))
                return _U
            return _T if v == t else _F

        return fn

    def _quantify(self, slot: int, child):
        # the universal ranges over all n elements
        n = self.n

        def fn(pi, env):
            cul = self.culprit
            unknown = False
            for e in range(n):
                env[slot] = e
                v = child(pi, env)
                if v == _F:
                    self.culprit = cul
                    return _F
                if v == _U:
                    unknown = True
            return _U if unknown else _T

        return fn

    # ---- three-valued status of the whole query ----

    def _scan(self) -> tuple[int, tuple | None, dict]:
        """One evaluation pass over all undecided instances.

        Returns (value, first blocking cell, entailed assignments).  Every
        unknown instance has its blocking cell probed against the
        instance alone (see _probe): no surviving value refutes the node;
        a single one is an entailed value, and all are forced together.
        """
        first_culprit = None
        probes = []
        frame = self.trail[-1]
        tick = self.tick
        env = self.env
        conjuncts = self.conjuncts
        for ci in self.order:
            fn = conjuncts[ci]
            row = self.status[ci]
            memo_row = self.u_memo[ci]
            touched = self.conj_touch[ci]
            span = 1 if self.pi_indep[ci] else self.m
            preset = self.presets[ci]
            for pi in range(span):
                if row[pi] == _T:
                    continue
                memo = memo_row[pi]
                if memo is not None and memo[1] >= touched:
                    cul = memo[0]
                else:
                    for slot, elem in preset:
                        env[slot] = elem
                    self.culprit = None
                    v = fn(pi, env)
                    if v == _F:
                        return _F, None, {}
                    if v == _T:
                        row[pi] = _T
                        frame.append((ci, pi))
                        continue
                    cul = self.culprit
                    memo_row[pi] = (cul, tick)
                if first_culprit is None:
                    first_culprit = cul
                probes.append((ci, cul, fn, pi, preset))
        if first_culprit is None:
            return _T, None, {}
        forced: dict[tuple, int] = {}
        for ci, cul, fn, pi, preset in probes:
            memo = self.probe_memo[ci][pi]
            if memo is not None and memo[2] >= self.conj_touch[ci]:
                survivors, keep = memo[0], memo[1]
            else:
                survivors, keep = self._probe(cul, fn, pi, preset)
                self.probe_memo[ci][pi] = (survivors, keep, tick)
            if survivors == 0:
                return _F, None, {}
            if survivors == 1:
                if forced.setdefault(cul, keep) != keep:
                    # two instances force this cell to different values
                    return _F, None, {}
        return _U, first_culprit, forced

    def propagate(self, assigned: list) -> tuple[int, tuple | None]:
        """Scan and apply entailed assignments to a fixpoint.  Cells
        assigned here are appended to `assigned`; the caller unassigns
        them when leaving the node."""
        while True:
            v, culprit, forced = self._scan()
            if v != _U or not forced:
                return v, culprit
            for cell, keep in forced.items():
                self.assign(cell, keep)
                assigned.append(cell)

    def _probe(self, cell, fn, pi, preset) -> tuple[int, int | None]:
        """How many values of cell keep this one instance satisfiable,
        and the last value that did.  A value cell is tried at every
        element from its function's least value on, whatever the LNH cap,
        so one survivor is entailed."""
        survivors = 0
        keep = None
        env = self.env
        if cell[0] == "f":
            values = range(self._least(cell[1]), self.n)
        else:
            values = (_F, _T)
        for value in values:
            self._poke(cell, value)
            for slot, elem in preset:
                env[slot] = elem
            self.culprit = None
            v = fn(pi, env)
            self._poke(cell, None)
            if v != _F:
                survivors += 1
                keep = value
        return survivors, keep

    # ---- assignment trail; probes write through _poke alone ----

    def _touch(self, cell: tuple) -> None:
        # the read-set keys of a cell: its symbol's, (kind, symbol), and
        # its own, (kind, symbol, rank)
        self.tick += 1
        kind, symbol, _, rank = cell
        for key in ((kind, symbol), (kind, symbol, rank)):
            for ci in self.watch.get(key, ()):
                self.conj_touch[ci] = self.tick

    def set_blocks(self, blocks: tuple[tuple[int, int], ...]) -> None:
        """Partition the domain into blocks [start, end) whose elements are
        interchangeable apart from what decisions mention; only valid
        while no cell is assigned."""
        self.blocks = blocks
        self.block_of = [b for b, (lo, hi) in enumerate(blocks) for _ in range(lo, hi)]
        self.maxima = tuple(lo - 1 for lo, _ in blocks)
        self.choices = self._choices()

    def configure(self, r: int | None) -> None:
        """Make the elements below r the individuals and the rest the
        entities, with blocks [0, r) and [r, n), while no cell is
        assigned; no cell is written.  An unsplit space's one
        configuration, None, changes nothing."""
        if r is not None:
            self.set_blocks(((0, r), (r, self.n)))
            self.first_ext = r
            self._touch(("x", "split", 0, 0))  # the key ("x", "split") alone is read

    def _choices(self) -> tuple[int, ...]:
        # per block: the elements up to its largest mentioned one, plus
        # one fresh element while the block has any left
        out: list[int] = []
        for (lo, hi), top in zip(self.blocks, self.maxima):
            cap = min(top + 1, hi - 1) if self.symmetry else hi - 1
            out.extend(range(lo, cap + 1))
        return tuple(out)

    def _mention(self, e: int) -> None:
        b = self.block_of[e]
        if e > self.maxima[b]:
            self.maxima = self.maxima[:b] + (e,) + self.maxima[b + 1:]
            self.choices = self._choices()

    def assign(self, cell: tuple, value: int) -> None:
        self.lnh_stack.append((self.maxima, self.choices))
        _Space.assign(self, cell, value)
        self._touch(cell)

    def decide(self, cell: tuple, value: int) -> None:
        # a decision mentions the elements its cell's rank encodes, one
        # base-n digit per argument (a row holds n ** arity cells), and
        # the value of a value cell
        self.assign(cell, value)
        kind, symbol, pi, rank = cell
        size = len(self.tables[kind, symbol][pi])
        while size > 1:
            self._mention(rank % self.n)
            rank //= self.n
            size //= self.n
        if kind == "f":
            self._mention(value)

    def unassign(self, cell: tuple) -> None:
        self.maxima, self.choices = self.lnh_stack.pop()
        _Space.unassign(self, cell)
        self._touch(cell)

    def materialize(self) -> FoslStructure:
        domain = [f"d{i}" for i in range(self.n)]
        precs = [f"p{i}" for i in range(self.m)]
        interpretation = {}
        tables = self.tables
        for pi in range(self.m):
            preds = {p: _rows(tables["p", p][pi], k, domain) for p, k in self.preds.items()}
            if self.prec_cells:
                first = self.first_ext
                preds["ind"] = [(domain[i],) for i in range(first)]
                preds["ext"] = [(domain[i],) for i in range(first, self.n)]
                preds["prec"] = sorted(
                    (domain[i], domain[first if v is None else v])
                    for i, v in enumerate(tables["f", "prec"][pi][:first])
                )
            for p, k in self.vocab.predicates.items():
                if p not in preds and k is not None:
                    preds[p] = []
            constants = {}
            for c in sorted(self.vocab.constants):
                rows = tables.get(("f", c))  # none if f does not mention c
                constants[c] = domain[(rows[pi][0] if rows else None) or 0]
            interpretation[precs[pi]] = {"predicates": preds, "constants": constants}
        sigma = _sigma(self.vocab.standpoints, tables, precs)
        structure = make_fosl_structure(domain, precs, sigma, interpretation)
        if not is_model(structure, self.formula):
            raise SplError("internal error: candidate failed revalidation")
        return structure


# bridge axioms 1, 2 and 4-6 under the universal box, the objects
# full_translation conjoins: ind/ext is a rigid partition of the domain,
# and prec a total function from ind to ext
_SPLIT_AXIOMS = frozenset(_FIXED_BOXED.values())
_SPLIT_PREDS = frozenset(("ind", "ext", "prec"))


@functools.lru_cache(maxsize=8)
def _split_level_axioms(m: int) -> frozenset:
    """Bridge axioms 1, 2 and 4-6 as the level formula for m
    precisifications holds them (see _level), for a split space
    to drop."""
    return frozenset(_simplify_shared(ax, m)[0] for ax in _SPLIT_AXIOMS)


def _shape(vocab: FoslVocabulary, f: Formula, n: int, m: int, symmetry: bool,
           split: bool) -> tuple:
    # the key of a standpoint space's shape: its vocabulary's symbols and
    # arities, its level, its kind and the shared bridge axioms of f's
    # level formula, which fix the instances and tables the space keeps
    return (frozenset(vocab.predicates.items()), frozenset(vocab.constants),
            frozenset(vocab.standpoints), n, m, symmetry, split, _level(f, m)[1])


# unloaded standpoint spaces by shape, least recently kept first, each
# holding its shape's bridge axioms: room for the levels of a few
# vocabularies
_SPACES_KEPT = 16
_spaces: collections.OrderedDict = collections.OrderedDict()
_spaces_lock = threading.Lock()  # searches may run in several threads


def _fosl_space(vocab: FoslVocabulary, f: Formula, n: int, m: int, symmetry: bool,
                deadline: float, split: bool) -> _FoslSpace:
    """A standpoint space of f's shape loaded with f: a kept one, taken
    out of the cache until its level ends and _keep_space returns it, or
    a new one.  So two searches never share a space, and one whose
    search was interrupted is dropped."""
    with _spaces_lock:
        space = _spaces.pop(_shape(vocab, f, n, m, symmetry, split), None)
    if space is None:
        return _FoslSpace(vocab, f, n, m, symmetry, deadline, split)
    space.load(f, deadline)
    return space


def _keep_space(space: _FoslSpace) -> None:
    """Unload a standpoint space whose level is over and keep it for the
    next search of its shape (see _search)."""
    space.unload()
    with _spaces_lock:
        _spaces.pop(space.shape, None)
        _spaces[space.shape] = space
        if len(_spaces) > _SPACES_KEPT:
            _spaces.popitem(last=False)


def _sort_floors(parts: set) -> int | None:
    """The least number of ind elements every model has, read from the
    top-level conjuncts of its sentence, or None unless they include
    bridge axioms 1, 2 and 4-6 under the universal box, which make
    ind/ext a rigid partition of the domain and prec a total function
    from ind to ext.  Those axioms also fix the least number of ext
    elements at 1: an ind element has a prec partner in ext, and with no
    ind element the domain, never empty, is all ext.

    The ind floor is 1 when they include a name-typing axiom [*] ink(c)
    and axiom 8, [*] forall x((ink(x) -> ind(x)) & ...): c denotes an
    ind element."""
    if not _SPLIT_AXIOMS <= parts:
        return None
    named = axiom_8 = False
    for part in parts:
        if not (isinstance(part, Box) and part.standpoint == UNIVERSAL_STANDPOINT):
            continue
        body = part.body
        if (isinstance(body, Atom) and body.pred == "ink" and len(body.args) == 1
                and isinstance(body.args[0], Const)):
            named = True
        elif (isinstance(body, Forall) and body.var == "x"
              and isinstance(body.body, And) and body.body.left == _INK_IND):
            axiom_8 = True
    return int(named and axiom_8)


def _search(levels, bounds: Bounds, keep=None) -> SearchOutcome:
    """The one level loop of both engines.  levels(deadline) yields,
    level by level, a function that gives the level's space and the
    configurations the space is searched under; each configuration is
    set up (configure) and searched in one trail frame, closed after its
    search, so the next one starts from a space with every cell unset
    and every instance undecided.  The deadline is checked before each
    configuration, so no space is set up and no configuration searched
    once it has passed; a space is set up at its level's first
    configuration, so a level with none sets up no space.  levels yields
    no level at a precisification count where the sentence is false
    (see _level).  When a level ends, with no configuration left or a
    model found, keep, if given, takes its space for a later search; a
    space whose level an exception ends is not kept.  Returns the first
    model, ExhaustedUnsat when every configuration is refuted, or
    SearchTimeout when the deadline passes (_DeadlinePassed, raised
    while a space is ground or searched)."""
    start = time.monotonic()
    deadline = start + bounds.timeout
    try:
        for build, configs in levels(deadline):
            space = found = None
            for config in configs:
                if time.monotonic() > deadline:
                    raise _DeadlinePassed
                if space is None:
                    space = build()
                space.configure(config)
                space.trail.append([])
                found = space.dfs(deadline)
                space.pop_frame()
                if found is not None:
                    break
            if space is not None and keep is not None:
                keep(space)
            if found is not None:
                return ModelFound(found, time.monotonic() - start)
    except _DeadlinePassed:
        return SearchTimeout(time.monotonic() - start)
    return ExhaustedUnsat(bounds, time.monotonic() - start)


def _search_fosl(vocab, f, bounds: Bounds, caps=None) -> SearchOutcome:
    """The levels of find_fosl_model over a validated sentence, n
    elements and m precisifications, searched by _search.

    floor, when not None, is the least number of ind elements of the
    models of f, whose top-level conjuncts make ind/ext a rigid
    partition of the domain and prec a total function from ind to ext
    (see _sort_floors); they are read once, here, for every level.  Any
    model with r elements in ind can be renumbered so that those are the
    elements 0..r-1.  So with symmetry reduction on, a level is one split
    space (see _FoslSpace) configured once per r from the ind floor to
    n - 1, which leaves prec an entity to take, each block [0, r),
    [r, n) with its own least-number heuristic, instead of branching on
    the sorts through every permutation of the same split.  Otherwise a
    level is one search over every cell.  No level is yielded that no r
    fits, such as n = 1 when the floor is 1, or whose m makes f false
    (_level), which is read only once some r fits.

    caps, the most ext and ind elements a model may have, also bound r
    and split the level in both symmetry modes."""
    symmetry = bounds.symmetry_reduction
    floor = _sort_floors(set(conjuncts(f)))
    split = floor is not None and (symmetry or caps is not None)

    def levels(deadline):
        for n in range(1, bounds.max_domain + 1):
            sizes = (None,)
            if split:
                low, high = floor, n - 1
                if caps is not None:
                    low, high = max(low, n - caps[0]), min(high, caps[1])
                sizes = range(low, high + 1)
            for m in range(1, bounds.max_precisifications + 1):
                if sizes and _level(f, m)[0] is not False:
                    yield functools.partial(_fosl_space, vocab, f, n, m, symmetry,
                                            deadline, split), sizes

    return _search(levels, bounds, _keep_space)


@nesting_guard
def find_fosl_model(vocab: FoslVocabulary, f: Formula, bounds: Bounds) -> SearchOutcome:
    """Search for a standpoint structure making f globally true, growing
    the domain and precisification count from 1 up to the bounds.  When
    f has bridge axioms 1, 2 and 4-6 among its top-level conjuncts, as a
    full translation does, each level is split on ind/ext, starting each
    sort at the least size the bridge axioms among them force, and prec
    is searched as a function (see _sort_floors and _search_fosl);
    a sentence that lacks any of the five is searched unsplit."""
    validate_formula(f, vocab)
    if free_variables(f):
        raise EvaluationError("model search requires a sentence")
    return _search_fosl(vocab, f, bounds)


# ---------------------------------------------------------------------------
# Variable-reference search space
# ---------------------------------------------------------------------------

class _V1Space(_Space):
    """Partial V1 structure for registries of r extension maps.

    An individual's precise version is the function prec, as in a split
    standpoint space: self.prec, the ("f", "prec") rows, holds the maps
    of one registry, prec[pi][i] the entity of individual i at
    precisification pi; individuals may share a map.  A level's
    registries are its configurations (see find_v1_model), all searched
    in one space: configure writes a registry's maps into those rows,
    whose cells are never assigned.
    The sortal and indefinite tables are over individuals (base r), a
    rigid precise table over entities (base ne) is a single row, with
    cells ("p", pred, 0, rank), and a proper name is a 0-ary function
    over the individuals.  Every constraint is an instance: one per name
    n, K1(n) | ... | Kk(n) over the sorted sortals (false without
    sortals), comes first, and an indefinite atom is true only of
    individuals admitted at its precisification.  Its bit is branched on
    only once every argument is known to be admitted (see _precise_atom),
    so every true bit lies over admitted individuals.
    """

    def __init__(self, vocab: V1Vocabulary, f: Formula, ne: int, m: int, r: int):
        _Space.__init__(self, vocab, f, m, r)
        self.ne = ne
        self.r = r
        self.choices = tuple(range(r))  # a name may denote any individual
        self.prec = self.tables["f", "prec"] = []  # written by configure

        # member3 reads every sortal, so each has a table whether or not f
        # mentions it; the compiler creates the indefinite and precise
        # tables (whose arities preds holds), the name and the standpoint
        # cells (_table); this space keeps no read sets
        self.sortal_rows = [(k, [bytearray(self.r) for _ in range(m)])
                            for k in sorted(vocab.sortals)]
        self.tables.update((("p", k), rows) for k, rows in self.sortal_rows)
        for part in _name_typing(vocab.sortals, vocab.names) + conjuncts(_level(f, m)[0]):
            self.varies = False
            self.conjuncts.append(self._compile(part, {}))
            self.pi_indep.append(not self.varies)
        self.status = [[_U] * m for _ in self.conjuncts]

    def configure(self, maps: tuple[tuple[int, ...], ...]) -> None:
        """Search the registry whose individual i has the extension map
        maps[i], a tuple of entities by precisification."""
        self.prec[:] = zip(*maps)

    def _table(self, pred: str, arity: int) -> list[bytearray] | None:
        table = self.tables.get(("p", pred))
        if table is None:  # an indefinite or a precise predicate
            self.preds[pred] = arity
            if pred in self.vocab.precise:
                self.tables["p", pred] = [bytearray(self.ne ** arity)]  # rigid
            else:
                self.tables["p", pred] = [bytearray(self.r ** arity) for _ in range(self.m)]
        return None if pred in self.preds else table  # see _precise_atom

    def member3(self, i: int, pi: int) -> tuple[int, tuple | None]:
        """Is individual i admitted by some sortal at pi?  An unknown
        answer comes with the first open sortal cell."""
        culprit = None
        for k, rows in self.sortal_rows:
            b = rows[pi][i]
            if b == 1:
                return _T, None
            if b == 0 and culprit is None:
                culprit = ("p", k, pi, i)
        return (_U, culprit) if culprit is not None else (_F, None)

    def _quantify(self, slot: int, child):
        # the universal ranges over the individuals some sortal admits at
        # pi; a false body counts only once its individual is admitted
        self.varies = True
        r = self.r
        member3 = self.member3

        def fn(pi, env):
            cul = self.culprit
            unknown = False
            for i in range(r):
                mv, mc = member3(i, pi)
                if mv == _F:
                    continue
                env[slot] = i
                v = child(pi, env)
                if v == _T:
                    continue
                if v == _F:
                    if mv == _T:
                        self.culprit = cul
                        return _F
                    self._note(mc)
                unknown = True
            return _U if unknown else _T

        return fn

    def _precise_atom(self, f: Atom, slots, resolvers):
        # this space keeps no read sets
        pred = f.pred
        bits = self.tables["p", pred]
        if pred not in self.vocab.precise:
            # an indefinite atom holds only of individuals admitted at pi:
            # a known non-admitted argument makes it false, an open
            # admission names its first open sortal cell (last argument
            # first), and only then is the atom's own bit the culprit, so
            # a true bit always lies over admitted individuals
            base = self.r
            member3 = self.member3

            def fn(pi, env):
                rank = 0
                for resolve in resolvers:
                    i = resolve(pi, env)
                    if i is None:
                        return _U
                    rank = rank * base + i
                b = bits[pi][rank]
                if b == 2:
                    return _F
                culprit = None
                rest = rank
                for _ in resolvers:
                    mv, mc = member3(rest % base, pi)
                    if mv == _F:
                        return _F
                    culprit = culprit or mc
                    rest //= base
                if culprit is None:
                    if b == 1:
                        return _T
                    culprit = ("p", pred, pi, rank)
                self._note(culprit)
                return _U

            return fn
        # a precise atom dereferences each argument to its individual's
        # precise version at pi
        row = bits[0]
        prec = self.prec
        ne = self.ne

        def fn(pi, env):
            rank = 0
            for resolve in resolvers:
                i = resolve(pi, env)
                if i is None:
                    return _U
                rank = rank * ne + prec[pi][i]
            b = row[rank]
            if b == 0:
                self._note(("p", pred, 0, rank))
            return b

        return fn

    def propagate(self, assigned: list) -> tuple[int, tuple | None]:
        """One evaluation pass over the instances; this space entails no
        assignments, so `assigned` is left as it is."""
        culprit = None
        frame = self.trail[-1]
        for ci, fn in enumerate(self.conjuncts):
            row = self.status[ci]
            span = 1 if self.pi_indep[ci] else self.m
            for pi in range(span):
                if row[pi] == _T:
                    continue
                self.culprit = None
                v = fn(pi, self.env)
                if v == _F:
                    return _F, None
                if v == _T:
                    row[pi] = _T
                    frame.append((ci, pi))
                elif culprit is None:
                    culprit = self.culprit
        return (_U, culprit) if culprit is not None else (_T, None)

    def materialize(self) -> V1Structure:
        entities = [f"e{i}" for i in range(self.ne)]
        precs = [f"p{i}" for i in range(self.m)]
        idents = [f"i{i}" for i in range(self.r)]
        individuals = {
            idents[i]: {precs[pi]: entities[self.prec[pi][i]] for pi in range(self.m)}
            for i in range(self.r)
        }
        sortals = {
            precs[pi]: {
                k: [idents[i] for i in range(self.r) if rows[pi][i] == 1]
                for k, rows in self.sortal_rows
            }
            for pi in range(self.m)
        }
        indefinite = {
            p: {
                a: _rows(self.tables["p", a][pi], self.preds[a], idents)
                if a in self.preds else []
                for a in sorted(self.vocab.indefinite)
            }
            for pi, p in enumerate(precs)
        }
        precise = {
            q: _rows(self.tables["p", q][0], self.preds[q], entities)
            if q in self.preds else []
            for q in sorted(self.vocab.precise)
        }
        names = {
            precs[pi]: {
                nm: idents[self.tables["f", nm][pi][0]] for nm in sorted(self.vocab.names)
            }
            for pi in range(self.m)
        }
        sigma = _sigma(self.vocab.standpoints, self.tables, precs)
        structure = make_v1_structure(
            entities, precs, sigma, individuals, sortals, indefinite, precise, names
        )
        if not is_model_v1(structure, self.formula):
            raise SplError("internal error: candidate failed revalidation")
        return structure


@functools.lru_cache(maxsize=8)
def _name_typing(sortals: frozenset, names: frozenset) -> list[Formula]:
    # the name-typing instances of _V1Space, shared by the spaces of all levels
    return [disjoin(Atom(k, (Const(nm),)) for k in sorted(sortals)) if sortals else falsity()
            for nm in sorted(names)]


def _registries(ne: int, m: int, r: int):
    # the configurations of V1 level (ne, m, r), see find_v1_model
    maps = itertools.product(range(ne), repeat=m)
    for registry in itertools.combinations_with_replacement(maps, r):
        if ne == 1 or len(set(itertools.chain(*registry))) == ne:
            yield registry


@nesting_guard
def find_v1_model(vocab: V1Vocabulary, f: Formula, bounds: Bounds) -> SearchOutcome:
    """Search for a variable reference structure making f globally true.

    Entity counts, precisification counts and registry sizes grow from the
    smallest, one search space per level (ne, m, r); a level's
    configurations are its registries, the multisets of r extension maps
    (individuals may share a map) in lexicographic order, enumerated
    lazily (see _search), that together use all ne entities; at ne = 1
    the empty registry is one too.  The rule loses no model and does not
    change which one is found first: V1 reaches an entity only through an
    individual's map (precise atoms read prec[pi][i], quantifiers range
    over individuals, names denote individuals), so a registry that
    leaves entities unused, renumbered onto those it uses, is a registry
    of a level (k, m, r) with k < ne, searched earlier.  A level with
    m * r < ne has no such registry and builds no space."""
    validate_formula(f, vocab)
    if free_variables(f):
        raise EvaluationError("model search requires a sentence")
    min_r = 1 if vocab.names else 0

    def levels(deadline):  # a V1 space is not ground, so it needs no deadline
        for ne in range(1, bounds.max_entities + 1):
            for m in range(1, bounds.max_precisifications + 1):
                if _level(f, m)[0] is False:
                    continue
                for r in range(min_r, bounds.max_individuals + 1):
                    yield functools.partial(_V1Space, vocab, f, ne, m, r), _registries(ne, m, r)

    return _search(levels, bounds)


# ---------------------------------------------------------------------------
# Equisatisfiability harness
# ---------------------------------------------------------------------------

def _record(obj) -> dict:
    """The fields of a dataclass instance in declaration order, those that
    are None left out; a list field holds such instances."""
    return {k: [_record(x) for x in v] if isinstance(v, list) else v
            for k, v in vars(obj).items() if v is not None}


@dataclass
class DirectionOutcome:
    direction: str  # "v1" | "fosl"
    outcome: str  # "sat" | "unsat" | "timeout"
    elapsed_ms: int
    bounds: dict
    model: dict | None = None
    verified: bool | None = None  # cross-verification through lift/lower

    to_dict = _record


@dataclass
class EquisatReport:
    formula: str
    agreement: str  # "sat" | "unsat" | "discrepancy" | "inconclusive"
    directions: list[DirectionOutcome]
    counterexample: dict | None = None

    to_dict = _record


def _direction(direction: str, search, bounds: Bounds, to_dict, image, holds):
    """One side of equisat_check: search(bounds) and, when it finds a
    model, the model's image on the other side and whether the other
    side's sentence holds in it.  Returns the outcome and the image."""
    start = time.monotonic()
    result = search(bounds)
    outcome = DirectionOutcome(direction, result.verdict,
                               int((time.monotonic() - start) * 1000), bounds.to_dict())
    mapped = None
    if isinstance(result, ModelFound):
        outcome.model = to_dict(result.structure)
        mapped = image(result.structure)
        outcome.verified = holds(mapped)
    return outcome, mapped


@nesting_guard
def equisat_check(vocab: V1Vocabulary, f: Formula, bounds: Bounds) -> EquisatReport:
    """Test a sentence and its translation on both sides of the
    correspondence.

    Forward: a V1 model found within bounds must lift to a standpoint model
    of the full translation.  Backward: a standpoint model of the full
    translation must lower to a V1 model of the original sentence.  A V1
    structure with E entities and I individuals lifts to one with E ext
    and I ind elements, so the backward search is the lift of the V1
    search space: in both symmetry modes each level is split on ind/ext,
    with at most max_individuals ind and max_entities ext elements (see
    _search_fosl and _sort_floors), and every model found lowers
    within the V1 bounds.  Either verification failing, or one side
    satisfiable where the other is not, is a discrepancy, so an "unsat"
    agreement checks the V1 search's "unsat" independently.  Both
    searches give two individuals one extension map where a sentence
    needs that.

    Both directions use the one full translation, whose boxed conjuncts
    are the bridge axioms, name typing included, so a standpoint model the
    search has verified is lowered (_lower) without checking them again,
    each name keeping its denotation, and only the lowered model is
    checked, against f.
    """
    trans_f = full_translation(f, vocab)  # validates f
    trans_vocab = translated_vocabulary(vocab)
    caps = (bounds.max_entities, bounds.max_individuals)
    v1, lifted = _direction(
        "v1", lambda b: find_v1_model(vocab, f, b), bounds,
        v1_structure_to_dict, lift_model, lambda mf: is_model(mf, trans_f))
    fosl, lowered = _direction(
        "fosl", lambda b: _search_fosl(trans_vocab, trans_f, b, caps),
        replace(bounds, max_domain=sum(caps)),
        fosl_structure_to_dict, lambda mf: _lower(mf, vocab),
        lambda mv: is_model_v1(mv, f))

    counterexample = None
    if "timeout" in (v1.outcome, fosl.outcome):
        agreement = "inconclusive"
    elif v1.outcome == fosl.outcome and v1.verified is not False and fosl.verified is not False:
        agreement = v1.outcome
    else:
        agreement = "discrepancy"
        if v1.outcome == fosl.outcome:
            # both sides found a model; the first whose image failed
            counterexample = v1.model if v1.verified is False else fosl.model
        elif lifted is not None:
            # a verified lift fits the backward bounds, so that search had
            # to find it; an unverified one fails the translation
            counterexample = fosl_structure_to_dict(lifted) if v1.verified else v1.model
        else:
            # a standpoint model lowers within the V1 bounds
            counterexample = v1_structure_to_dict(lowered) if fosl.verified else fosl.model
    return EquisatReport(print_formula(f), agreement, [v1, fosl], counterexample)
