"""Finite first-order standpoint structures and their satisfaction relation.

A structure interprets every predicate and constant separately at each
precisification (constants are non-rigid); all precisifications share one
domain.  The box modality quantifies over the precisifications a standpoint
admits, ignoring the current one; the universal standpoint ``*`` always
admits every precisification.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import EvaluationError, ModelFormatError, nesting_guard
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
    UNIVERSAL_STANDPOINT,
    Var,
    free_variables,
    make_fosl_vocabulary,
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

    sigma may omit '*'; if present it must equal the full precisification
    set.  Missing predicate entries default to the empty extension; the
    constant tables must agree on their key set across precisifications.
    """
    dom = tuple(domain)
    precs = tuple(precisifications)
    if not dom:
        raise ModelFormatError("domain must be non-empty")
    if not precs:
        raise ModelFormatError("precisification set must be non-empty")
    if len(set(dom)) != len(dom):
        raise ModelFormatError("domain contains duplicate elements")
    if len(set(precs)) != len(precs):
        raise ModelFormatError("duplicate precisification identifiers")
    prec_set = frozenset(precs)
    dom_set = frozenset(dom)

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

    if set(interpretation) != set(precs):
        raise ModelFormatError(
            "interpretation must cover exactly the declared precisifications"
        )

    pred_names: set[str] = set()
    const_names: set[str] | None = None
    arities: dict[str, int] = {}
    raw: dict[str, tuple[dict[str, frozenset[tuple[str, ...]]], dict[str, str]]] = {}
    for pi in precs:
        entry = interpretation[pi]
        preds_in = entry.get("predicates", {}) if isinstance(entry, Mapping) else entry.predicates
        consts_in = entry.get("constants", {}) if isinstance(entry, Mapping) else entry.constants
        preds: dict[str, frozenset[tuple[str, ...]]] = {}
        for p, tuples in preds_in.items():
            rows = frozenset(tuple(row) for row in tuples)
            for row in rows:
                if arities.setdefault(p, len(row)) != len(row):
                    raise ModelFormatError(
                        f"predicate {p!r} interpreted with mixed arities"
                    )
                bad = [e for e in row if e not in dom_set]
                if bad:
                    raise ModelFormatError(
                        f"predicate {p!r} at {pi!r} mentions non-domain element(s) {bad}"
                    )
            preds[p] = rows
            pred_names.add(p)
        consts = dict(consts_in)
        for c, e in consts.items():
            if e not in dom_set:
                raise ModelFormatError(
                    f"constant {c!r} at {pi!r} denotes non-domain element {e!r}"
                )
        if const_names is None:
            const_names = set(consts)
        elif set(consts) != const_names:
            raise ModelFormatError(
                "constant tables must interpret the same constants at every precisification"
            )
        raw[pi] = (preds, consts)

    interp = {
        pi: PrecInterp(
            {p: raw[pi][0].get(p, frozenset()) for p in pred_names},
            raw[pi][1],
        )
        for pi in precs
    }
    return FoslStructure(dom, precs, sig, interp)


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def eval_term(m: FoslStructure, pi: str, v: Assignment, t: Term) -> str:
    if pi not in m.interpretation:
        raise EvaluationError(f"unknown precisification {pi!r}")
    if isinstance(t, Var):
        try:
            return v[t.name]
        except KeyError:
            raise EvaluationError(f"unbound variable ?{t.name}") from None
    try:
        return m.interpretation[pi].constants[t.name]
    except KeyError:
        raise EvaluationError(f"unknown constant {t.name!r}") from None


def satisfies(m: FoslStructure, pi: str, v: Assignment, f: Formula) -> bool:
    if pi not in m.interpretation:
        raise EvaluationError(f"unknown precisification {pi!r}")
    if isinstance(f, Atom):
        row = tuple(eval_term(m, pi, v, t) for t in f.args)
        return row in m.interpretation[pi].predicates.get(f.pred, frozenset())
    if isinstance(f, Equal):
        return eval_term(m, pi, v, f.left) == eval_term(m, pi, v, f.right)
    if isinstance(f, Not):
        return not satisfies(m, pi, v, f.body)
    if isinstance(f, And):
        return satisfies(m, pi, v, f.left) and satisfies(m, pi, v, f.right)
    if isinstance(f, Forall):
        return all(
            satisfies(m, pi, {**v, f.var: e}, f.body) for e in m.domain
        )
    if isinstance(f, Box):
        try:
            admitted = m.sigma[f.standpoint]
        except KeyError:
            raise EvaluationError(f"unknown standpoint {f.standpoint!r}") from None
        # evaluation is independent of the current precisification
        return all(satisfies(m, p2, v, f.body) for p2 in m.precisifications if p2 in admitted)
    raise TypeError(f"not a formula: {f!r}")


def satisfies_at(m: FoslStructure, pi: str, f: Formula) -> bool:
    """Truth at a precisification under every assignment of the free variables."""
    fv = sorted(free_variables(f))
    for values in itertools.product(m.domain, repeat=len(fv)):
        if not satisfies(m, pi, dict(zip(fv, values)), f):
            return False
    return True


@nesting_guard
def is_model(m: FoslStructure, f: Formula) -> bool:
    return all(satisfies_at(m, pi, f) for pi in m.precisifications)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

_TOP_KEYS = {"domain", "precisifications", "sigma", "interpretation"}


def fosl_structure_from_dict(data: Mapping) -> FoslStructure:
    if not isinstance(data, Mapping):
        raise ModelFormatError("model file must contain a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ModelFormatError(f"unknown top-level key(s) {sorted(unknown)}")
    missing = _TOP_KEYS - {"sigma"} - set(data)
    if missing:
        raise ModelFormatError(f"missing required key(s) {sorted(missing)}")
    return make_fosl_structure(
        data["domain"],
        data["precisifications"],
        data.get("sigma", {}),
        data["interpretation"],
    )


def load_fosl_model(path: str) -> FoslStructure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON in {path}: {exc}") from None
    return fosl_structure_from_dict(data)


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
    its first use in a formula.
    """
    arities: dict[str, int | None] = {}
    consts: set[str] = set()
    for pi in m.precisifications:
        interp = m.interpretation[pi]
        for p, rows in interp.predicates.items():
            arities.setdefault(p, None)
            for row in rows:
                arities[p] = len(row)
        consts.update(interp.constants)
    standpoints = set(m.sigma)
    return make_fosl_vocabulary(arities, consts, standpoints)
