"""Vocabularies, terms and the formula AST.

The AST has exactly six formula constructors: Atom, Equal, Not, And,
Forall and Box.  Disjunction, implication, biconditional, the existential
quantifier, the diamond modality and the truth constants exist only in
concrete syntax (and as the helper constructors below); they are
represented by their classical definitions in terms of the six cores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, Union

from .errors import (
    ArityMismatchError,
    ModelFormatError,
    UndeclaredSymbolError,
    VocabularyError,
    nesting_guard,
)

UNIVERSAL_STANDPOINT = "*"

# Predicates introduced by the V1 -> FOSL translation; they may never occur
# in a user vocabulary and are the only lowercase predicate names accepted.
RESERVED_PREDICATES = ("ind", "ext", "ink", "prec")

# The words of the concrete syntax; no constant, name or standpoint may
# take one, or its formulas would not print as text that parses back.
KEYWORDS = frozenset({"forall", "exists", "true", "false"})

_PRED_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class _Node:
    """Base of the term and formula nodes, which are slotted frozen
    dataclasses.  Each node hashes its fields, after a small int that
    tells the classes apart, once, at first use, and keeps the value in
    its _hash field (each class's __hash__); equality stays the
    dataclasses' structural one, which skips _hash.  Nodes are weakly
    referable.  str hashes differ between processes (PYTHONHASHSEED), so
    pickling rebuilds a node from its fields and leaves the kept hash
    behind."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


_store = object.__setattr__  # writes the kept hash of a frozen node


def _hash_field():
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Var(_Node):
    """A variable; written ``?name`` in concrete syntax."""

    name: str
    _hash: int | None = _hash_field()

    def __str__(self) -> str:
        return f"?{self.name}"

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((0, self.name))
            _store(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class Const(_Node):
    """A constant symbol (a proper name in the V1 reading)."""

    name: str
    _hash: int | None = _hash_field()

    def __str__(self) -> str:
        return self.name

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((1, self.name))
            _store(self, "_hash", h)
        return h


Term = Union[Var, Const]


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Atom(_Node):
    pred: str
    args: tuple[Term, ...] = ()
    _hash: int | None = _hash_field()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((2, self.pred, self.args))
            _store(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class Equal(_Node):
    left: Term
    right: Term
    _hash: int | None = _hash_field()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((3, self.left, self.right))
            _store(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class Not(_Node):
    body: "Formula"
    _hash: int | None = _hash_field()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((4, self.body))
            _store(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class And(_Node):
    left: "Formula"
    right: "Formula"
    _hash: int | None = _hash_field()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((5, self.left, self.right))
            _store(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class Forall(_Node):
    var: str
    body: "Formula"
    _hash: int | None = _hash_field()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((6, self.var, self.body))
            _store(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class Box(_Node):
    standpoint: str
    body: "Formula"
    _hash: int | None = _hash_field()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((7, self.standpoint, self.body))
            _store(self, "_hash", h)
        return h


Formula = Union[Atom, Equal, Not, And, Forall, Box]


# ---------------------------------------------------------------------------
# Derived constructors (desugar immediately)
# ---------------------------------------------------------------------------

def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def iff(left: Formula, right: Formula) -> Formula:
    return And(implies(left, right), implies(right, left))


def exists(var: str, body: Formula) -> Formula:
    return Not(Forall(var, Not(body)))


def diamond(standpoint: str, body: Formula) -> Formula:
    return Not(Box(standpoint, Not(body)))


def conjoin(parts: Iterable[Formula]) -> Formula:
    """Right-associated conjunction of one or more formulas."""
    items = list(parts)
    if not items:
        raise ValueError("conjoin requires at least one conjunct")
    out = items[-1]
    for part in reversed(items[:-1]):
        out = And(part, out)
    return out


def conjuncts(f: Formula) -> list[Formula]:
    """The top-level conjuncts of f, left to right."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


def disjoin(parts: Iterable[Formula]) -> Formula:
    items = list(parts)
    if not items:
        raise ValueError("disjoin requires at least one disjunct")
    out = items[-1]
    for part in reversed(items[:-1]):
        out = or_(part, out)
    return out


def truth() -> Formula:
    # Closed tautology built from the logical equality symbol; needs no
    # vocabulary at all and stays true over an empty quantifier domain.
    return Forall("taut", Equal(Var("taut"), Var("taut")))


def falsity() -> Formula:
    return Not(truth())


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def free_variables(f: Formula) -> frozenset[str]:
    """Free variable names (without the ``?`` sigil)."""
    return _variables(f, True)


def all_variables(f: Formula) -> frozenset[str]:
    """Every variable name occurring in f, free or bound."""
    return _variables(f, False)


def _variables(f: Formula, free: bool) -> frozenset[str]:
    """The variable names of f, those bound above their occurrence left
    out when free is set.  One walk over an explicit stack fills one set,
    so nesting depth costs no recursion; node classes are matched exactly,
    as none is subclassed."""
    out: set[str] = set()
    stack = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        kind = type(g)
        if kind is And:
            stack.append((g.right, bound))
            stack.append((g.left, bound))
        elif kind is Not or kind is Box:
            stack.append((g.body, bound))
        elif kind is Atom or kind is Equal:
            for t in g.args if kind is Atom else (g.left, g.right):
                if type(t) is Var and t.name not in bound:
                    out.add(t.name)
        elif kind is Forall:
            if free:
                bound = bound | {g.var}
            else:
                out.add(g.var)
            stack.append((g.body, bound))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return frozenset(out)


def formula_size(f: Formula) -> int:
    """Number of AST nodes (terms are not counted), counted over an
    explicit stack, so nesting depth costs no recursion."""
    size = 0
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        size += 1
        if kind is And:
            stack.append(g.right)
            stack.append(g.left)
        elif kind is Not or kind is Forall or kind is Box:
            stack.append(g.body)
        elif kind is not Atom and kind is not Equal:
            raise TypeError(f"not a formula: {g!r}")
    return size


def is_monodic(f: Formula) -> bool:
    """True iff every Box subformula binds a body with at most one free
    variable.  One post-order walk over an explicit stack computes the
    free variables of each node from its children's, so each box body's
    once and with no recursion."""
    free: list[frozenset[str]] = []  # of the finished nodes, in order
    stack = [(f, False)]
    while stack:
        g, finished = stack.pop()
        kind = type(g)
        if kind is Atom or kind is Equal:
            free.append(frozenset(t.name for t in (g.args if kind is Atom else (g.left, g.right))
                                  if type(t) is Var))
        elif not finished:
            if kind is And:
                stack += ((g, True), (g.right, False), (g.left, False))
            elif kind is Not or kind is Forall or kind is Box:
                stack += ((g, True), (g.body, False))
            else:
                raise TypeError(f"not a formula: {g!r}")
        elif kind is And:
            right = free.pop()
            free[-1] |= right
        elif kind is Forall:
            free[-1] -= {g.var}
        elif kind is Box and len(free[-1]) > 1:
            return False
        # else a negation or a box, which keeps its body's free variables
    return True


def is_sentence(f: Formula) -> bool:
    return not free_variables(f)


# ---------------------------------------------------------------------------
# Vocabularies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FoslVocabulary:
    """Predicate symbols with arities, constant symbols, standpoint symbols.

    A predicate arity of None marks a symbol whose arity could not be pinned
    down (it appears in a structure with an everywhere-empty extension); the
    validator then accepts any single arity used consistently.
    """

    predicates: Mapping[str, int | None]
    constants: frozenset[str]
    standpoints: frozenset[str]

    def arity(self, pred: str) -> int | None:
        return self.predicates.get(pred)

    def has_predicate(self, pred: str) -> bool:
        return pred in self.predicates

    def has_constant(self, name: str) -> bool:
        return name in self.constants

    def has_standpoint(self, sp: str) -> bool:
        return sp in self.standpoints


@dataclass(frozen=True, slots=True)
class V1Vocabulary:
    """Sortals (all unary), indefinite predicates, precise-entity predicates,
    proper names and standpoints."""

    sortals: frozenset[str]
    indefinite: Mapping[str, int | None]
    precise: Mapping[str, int | None]
    names: frozenset[str]
    standpoints: frozenset[str]

    def arity(self, pred: str) -> int | None:
        if pred in self.sortals:
            return 1
        if pred in self.indefinite:
            return self.indefinite[pred]
        return self.precise.get(pred)

    def has_predicate(self, pred: str) -> bool:
        return pred in self.sortals or pred in self.indefinite or pred in self.precise

    def has_constant(self, name: str) -> bool:
        return name in self.names

    def has_standpoint(self, sp: str) -> bool:
        return sp in self.standpoints


Vocabulary = Union[FoslVocabulary, V1Vocabulary]


def _reject_keywords(symbols: AbstractSet[str], label: str) -> None:
    clash = KEYWORDS & symbols
    if clash:
        raise VocabularyError(f"{label} {min(clash)!r} is a keyword of the concrete syntax")


def _check_standpoints(standpoints: Iterable[str]) -> frozenset[str]:
    sps = frozenset(standpoints) | {UNIVERSAL_STANDPOINT}
    for sp in sps:
        if sp != UNIVERSAL_STANDPOINT and not _IDENT_RE.match(sp):
            raise VocabularyError(f"standpoint symbol {sp!r} must be a lowercase identifier or '*'")
    _reject_keywords(sps, "standpoint symbol")
    return sps


def structure_ids(ids: Iterable[str], table: str) -> tuple[str, ...]:
    """An identifier list of a structure of either logic (its domain,
    entities or precisifications, named by table): non-empty, with no
    duplicates."""
    out = tuple(ids)
    if not out:
        raise ModelFormatError(f"{table} set must be non-empty")
    if len(set(out)) != len(out):
        raise ModelFormatError(f"duplicate {table} identifiers")
    return out


def structure_relation(table: str, name: str, rows: Iterable[Iterable[str]],
                       members: AbstractSet[str], scope: str,
                       arities: dict[str, int]) -> frozenset[tuple[str, ...]]:
    """The rows that one table of a structure of either logic gives the
    relation name, as tuples over members (described by scope in errors),
    all of the one arity that arities keeps for name across the structure.
    table names the table in errors."""
    out = frozenset(map(tuple, rows))
    for k in {len(row) for row in out}:
        if arities.setdefault(name, k) != k:
            raise ModelFormatError(
                f"{table} gives {name!r} arity {k}, but another row has arity {arities[name]}"
            )
    outside = {e for row in out for e in row} - members
    if outside:
        raise ModelFormatError(f"{table} gives {name!r} row(s) outside {scope}: {sorted(outside)}")
    return out


def relation_arities(
    tables: Iterable[Mapping[str, AbstractSet[tuple[str, ...]]]]
) -> dict[str, int | None]:
    """Each relation's arity, read off a row of a loaded structure's tables
    (the loaders keep one arity per relation), or None when it has no row."""
    arities: dict[str, int | None] = {}
    for table in tables:
        for name, rows in table.items():
            arities[name] = len(next(iter(rows))) if rows else arities.get(name)
    return arities


def structure_sigma(sigma: Mapping[str, Iterable[str]],
                    precs: tuple[str, ...]) -> dict[str, frozenset[str]]:
    """The standpoint map of a structure of either logic over the
    precisifications precs: each standpoint's precisifications, all among
    precs, with '*' admitting every one (sigma may omit it)."""
    prec_set = frozenset(precs)
    sig: dict[str, frozenset[str]] = {}
    for sp, members in sigma.items():
        mset = frozenset(members)
        unknown = mset - prec_set
        if unknown:
            raise ModelFormatError(
                f"sigma[{sp!r}] mentions unknown precisification(s) {sorted(unknown)}"
            )
        sig[sp] = mset
    if UNIVERSAL_STANDPOINT in sig and sig[UNIVERSAL_STANDPOINT] != prec_set:
        raise ModelFormatError("sigma['*'] must admit every precisification")
    sig[UNIVERSAL_STANDPOINT] = prec_set
    return sig


def _check_arity(name: str, arity, least: int) -> None:
    # None is a wildcard; a bool is an int to Python, but no arity
    if arity is not None and (not isinstance(arity, int) or isinstance(arity, bool)
                              or arity < least):
        raise VocabularyError(f"predicate {name!r} has invalid arity {arity!r}")


def make_fosl_vocabulary(
    predicates: Mapping[str, int | None],
    constants: Iterable[str] = (),
    standpoints: Iterable[str] = (),
) -> FoslVocabulary:
    preds = dict(predicates)
    for name, arity in preds.items():
        if not _PRED_RE.match(name) and name not in RESERVED_PREDICATES:
            raise VocabularyError(f"predicate {name!r} must be capitalized")
        _check_arity(name, arity, 0)
    consts = frozenset(constants)
    for name in consts:
        if not _IDENT_RE.match(name):
            raise VocabularyError(f"constant {name!r} must be a lowercase identifier")
    _reject_keywords(consts, "constant")
    overlap = consts & preds.keys()
    if overlap:
        raise VocabularyError(f"symbols declared both predicate and constant: {sorted(overlap)}")
    return FoslVocabulary(preds, consts, _check_standpoints(standpoints))


def make_v1_vocabulary(
    sortals: Iterable[str],
    indefinite: Mapping[str, int | None] = {},
    precise: Mapping[str, int | None] = {},
    names: Iterable[str] = (),
    standpoints: Iterable[str] = (),
) -> V1Vocabulary:
    srt = frozenset(sortals)
    ind = dict(indefinite)
    prc = dict(precise)
    nms = frozenset(names)
    for group, label in ((srt, "sortal"), (ind, "indefinite predicate"), (prc, "precise predicate")):
        for name in group:
            if not _PRED_RE.match(name):
                raise VocabularyError(f"{label} {name!r} must be capitalized")
    for table in (ind, prc):
        for name, arity in table.items():
            _check_arity(name, arity, 1)
    if srt & ind.keys() or srt & prc.keys() or ind.keys() & prc.keys():
        raise VocabularyError("sortal, indefinite and precise predicate sets must be disjoint")
    for name in nms:
        if not _IDENT_RE.match(name):
            raise VocabularyError(f"name {name!r} must be a lowercase identifier")
    _reject_keywords(nms, "name")
    sps = _check_standpoints(standpoints)
    for reserved in RESERVED_PREDICATES:
        if reserved in srt or reserved in ind or reserved in prc or reserved in nms or reserved in sps:
            raise VocabularyError(f"symbol {reserved!r} is reserved for the translation")
    return V1Vocabulary(srt, ind, prc, nms, sps)


# ---------------------------------------------------------------------------
# Validation of formulas against a vocabulary
# ---------------------------------------------------------------------------

@nesting_guard
def validate_formula(f: Formula, vocab: Vocabulary) -> None:
    """Raise UndeclaredSymbolError/ArityMismatchError if f does not fit vocab.

    Wildcard (None) arities are pinned by their first use and must stay
    consistent across the formula.
    """
    pinned: dict[str, int] = {}
    _validate(f, vocab, pinned)


def _validate(f: Formula, vocab: Vocabulary, pinned: dict[str, int]) -> None:
    while isinstance(f, And):  # a conjunction's right spine costs no recursion
        _validate(f.left, vocab, pinned)
        f = f.right
    if isinstance(f, Atom):
        if not vocab.has_predicate(f.pred):
            raise UndeclaredSymbolError(f"undeclared predicate {f.pred!r}", f.pred)
        declared = vocab.arity(f.pred)
        if declared is None:
            declared = pinned.setdefault(f.pred, len(f.args))
        if len(f.args) != declared:
            raise ArityMismatchError(
                f"predicate {f.pred!r} expects {declared} argument(s), got {len(f.args)}",
                f.pred,
            )
        for t in f.args:
            _validate_term(t, vocab)
    elif isinstance(f, Equal):
        _validate_term(f.left, vocab)
        _validate_term(f.right, vocab)
    elif isinstance(f, Not):
        _validate(f.body, vocab, pinned)
    elif isinstance(f, Forall):
        _validate(f.body, vocab, pinned)
    elif isinstance(f, Box):
        if not vocab.has_standpoint(f.standpoint):
            raise UndeclaredSymbolError(f"undeclared standpoint {f.standpoint!r}", f.standpoint)
        _validate(f.body, vocab, pinned)
    else:
        raise TypeError(f"not a formula: {f!r}")


def _validate_term(t: Term, vocab: Vocabulary) -> None:
    if isinstance(t, Const) and not vocab.has_constant(t.name):
        raise UndeclaredSymbolError(f"undeclared constant {t.name!r}", t.name)
