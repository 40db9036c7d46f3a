"""Finite variable reference structures and their satisfaction relation.

The quantifier domain at a precisification is generated by the sortal
extensions; names and variables denote indefinite individuals (finite
maps from precisifications to precise entities, materialized in the
registry).  Sortal and indefinite atoms test the individuals themselves;
precise atoms first dereference each individual through its extension
map at the current precisification.
"""

from __future__ import annotations

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
    Not,
    Term,
    V1Vocabulary,
    Var,
    free_variables,
    make_v1_vocabulary,
    relation_arities,
    structure_ids,
    structure_relation,
    structure_sigma,
)

Assignment = Mapping[str, str]


@dataclass(frozen=True)
class IndefiniteIndividual:
    """An individual identifier with its total extension map."""

    ident: str
    extent: Mapping[str, str]  # precisification -> precise entity

    def at(self, pi: str) -> str:
        return self.extent[pi]


@dataclass(frozen=True)
class V1Structure:
    entities: tuple[str, ...]
    precisifications: tuple[str, ...]
    sigma: Mapping[str, frozenset[str]]
    registry: Mapping[str, IndefiniteIndividual]
    sortals: Mapping[str, Mapping[str, frozenset[str]]]  # pi -> K -> individual ids
    indefinite: Mapping[str, Mapping[str, frozenset[tuple[str, ...]]]]  # pi -> A -> id tuples
    precise: Mapping[str, frozenset[tuple[str, ...]]]  # Q -> entity tuples
    names: Mapping[str, Mapping[str, str]]  # pi -> name -> individual id


def make_v1_structure(
    entities: Iterable[str],
    precisifications: Iterable[str],
    sigma: Mapping[str, Iterable[str]],
    individuals: Mapping[str, Mapping[str, str]],
    sortals: Mapping[str, Mapping[str, Iterable[str]]],
    indefinite: Mapping[str, Mapping[str, Iterable]] = {},
    precise: Mapping[str, Iterable] = {},
    names: Mapping[str, Mapping[str, str]] = {},
) -> V1Structure:
    """Normalize and validate a variable reference structure.

    A predicate sits in exactly one of the sortal, indefinite (both per
    precisification) and precise (rigid) tables, with one arity.
    Indefinite rows and names at a precisification hold individuals some
    sortal admits there; precise rows hold entities.  Individuals may share
    an extension map: they stay distinct individuals.
    """
    ents = structure_ids(entities, "entity")
    precs = structure_ids(precisifications, "precisification")
    ent_set = frozenset(ents)
    prec_set = frozenset(precs)

    sig = structure_sigma(sigma, precs)

    registry: dict[str, IndefiniteIndividual] = {}
    for ident, extent in individuals.items():
        if ident in ent_set:
            raise ModelFormatError(
                f"individual id {ident!r} collides with an entity identifier"
            )
        ext = dict(extent)
        if set(ext) != prec_set:
            raise ModelFormatError(
                f"individual {ident!r} must map every precisification to an entity"
            )
        for pi, e in ext.items():
            if e not in ent_set:
                raise ModelFormatError(
                    f"individual {ident!r} maps {pi!r} to unknown entity {e!r}"
                )
        registry[ident] = IndefiniteIndividual(ident, ext)

    for kind, tables in (("sortal", sortals), ("indefinite", indefinite), ("name", names)):
        unknown = tables.keys() - prec_set
        if unknown:
            raise ModelFormatError(f"{kind} table for unknown precisification {min(unknown)!r}")

    sortal_names = set()
    srt: dict[str, dict[str, frozenset[str]]] = {pi: {} for pi in precs}
    for pi, table in sortals.items():
        for k, ids in table.items():
            members = frozenset(ids)
            bad = sorted(members - registry.keys())
            if bad:
                raise ModelFormatError(
                    f"sortal {k!r} at {pi!r} contains unknown individual(s) {bad}"
                )
            srt[pi][k] = members
            sortal_names.add(k)
    for pi in precs:
        for k in sortal_names:
            srt[pi].setdefault(k, frozenset())

    domains = {
        pi: frozenset().union(*srt[pi].values()) if srt[pi] else frozenset()
        for pi in precs
    }

    indef_names: set[str] = set()
    arities: dict[str, int] = {}
    ind: dict[str, dict[str, frozenset[tuple[str, ...]]]] = {pi: {} for pi in precs}
    for pi, table in indefinite.items():
        for a, rows in table.items():
            ind[pi][a] = structure_relation(
                f"indefinite table at {pi!r}", a, rows, domains[pi],
                "the individuals the sortals admit there", arities,
            )
            indef_names.add(a)
    for pi in precs:
        for a in indef_names:
            ind[pi].setdefault(a, frozenset())

    prc = {
        q: structure_relation("precise table", q, rows, ent_set, "the entities", arities)
        for q, rows in precise.items()
    }

    owner: dict[str, str] = {}
    for kind, preds in (("sortal", sortal_names), ("indefinite", indef_names), ("precise", prc)):
        for p in sorted(preds):
            if owner.setdefault(p, kind) != kind:
                raise ModelFormatError(
                    f"predicate {p!r} is in both the {owner[p]} and the {kind} tables"
                )

    nms = {pi: dict(names.get(pi, {})) for pi in precs}
    for pi, table in nms.items():
        if table.keys() != nms[precs[0]].keys():
            raise ModelFormatError("name tables must denote the same names at every precisification")
        for n, ident in table.items():
            if ident not in registry:
                raise ModelFormatError(
                    f"name {n!r} at {pi!r} denotes unknown individual {ident!r}"
                )
            if ident not in domains[pi]:
                raise ModelFormatError(
                    f"name {n!r} at {pi!r} denotes {ident!r}, which no sortal admits there"
                )

    return V1Structure(ents, precs, sig, registry, srt, ind, prc, nms)


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def individuals_at(m: V1Structure, pi: str) -> frozenset[str]:
    """Quantifier domain at pi: the union of all sortal extensions there."""
    try:
        table = m.sortals[pi]
    except KeyError:
        raise EvaluationError(f"unknown precisification {pi!r}") from None
    return frozenset().union(*table.values()) if table else frozenset()


def eval_term_v1(m: V1Structure, pi: str, v: Assignment, t: Term) -> str:
    if pi not in m.names:
        raise EvaluationError(f"unknown precisification {pi!r}")
    if isinstance(t, Var):
        try:
            ident = v[t.name]
        except KeyError:
            raise EvaluationError(f"unbound variable ?{t.name}") from None
        if ident not in m.registry:
            raise EvaluationError(
                f"variable ?{t.name} bound to unknown individual {ident!r}"
            )
        return ident
    try:
        return m.names[pi][t.name]
    except KeyError:
        raise EvaluationError(f"unknown name {t.name!r}") from None


@nesting_guard
def satisfies_v1(m: V1Structure, pi: str, v: Assignment, f: Formula) -> bool:
    """Truth at pi under the assignment v."""
    return _satisfies_v1(m, pi, v, f)


def _satisfies_v1(m: V1Structure, pi: str, v: Assignment, f: Formula) -> bool:
    if pi not in m.names:
        raise EvaluationError(f"unknown precisification {pi!r}")
    if isinstance(f, Atom):
        ids = tuple(eval_term_v1(m, pi, v, t) for t in f.args)
        if f.pred in m.sortals[pi]:
            return ids[0] in m.sortals[pi][f.pred]
        if f.pred in m.indefinite[pi]:
            return ids in m.indefinite[pi][f.pred]
        if f.pred in m.precise:
            # extra dereference: individuals resolve to their precise
            # version at the current precisification
            row = tuple(m.registry[i].at(pi) for i in ids)
            return row in m.precise[f.pred]
        raise EvaluationError(f"predicate {f.pred!r} is not interpreted by this structure")
    if isinstance(f, Equal):
        return eval_term_v1(m, pi, v, f.left) == eval_term_v1(m, pi, v, f.right)
    if isinstance(f, Not):
        return not _satisfies_v1(m, pi, v, f.body)
    if isinstance(f, And):
        return _satisfies_v1(m, pi, v, f.left) and _satisfies_v1(m, pi, v, f.right)
    if isinstance(f, Forall):
        return all(
            _satisfies_v1(m, pi, {**v, f.var: i}, f.body)
            for i in sorted(individuals_at(m, pi))
        )
    if isinstance(f, Box):
        try:
            admitted = m.sigma[f.standpoint]
        except KeyError:
            raise EvaluationError(f"unknown standpoint {f.standpoint!r}") from None
        return all(
            _satisfies_v1(m, p2, v, f.body)
            for p2 in m.precisifications
            if p2 in admitted
        )
    raise TypeError(f"not a formula: {f!r}")


def _holds_v1(m: V1Structure, pis, f: Formula) -> bool:
    """f true at each precisification of pis under every assignment of its
    free variables into the registry."""
    fv = sorted(free_variables(f))
    assignments = [dict(zip(fv, values))
                   for values in itertools.product(sorted(m.registry), repeat=len(fv))]
    return all(_satisfies_v1(m, pi, v, f) for pi in pis for v in assignments)


@nesting_guard
def satisfies_at_v1(m: V1Structure, pi: str, f: Formula) -> bool:
    """Truth at pi under every assignment of free variables into the registry."""
    return _holds_v1(m, (pi,), f)


@nesting_guard
def is_model_v1(m: V1Structure, f: Formula) -> bool:
    return _holds_v1(m, m.precisifications, f)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

_SHAPE = {
    "entities": [str],
    "precisifications": [str],
    "sigma": {str: [str]},
    "individuals": {str: {str: str}},
    "sortals": {str: {str: [str]}},
    "indefinite": {str: {str: [[str]]}},
    "precise": {str: [[str]]},
    "names": {str: {str: str}},
}


def v1_structure_from_dict(data: Mapping) -> V1Structure:
    check_shape(data, _SHAPE, ModelFormatError, "model")
    required = {"entities", "precisifications", "individuals", "sortals"}
    missing = required - set(data)
    if missing:
        raise ModelFormatError(f"missing required key(s) {sorted(missing)}")
    return make_v1_structure(
        data["entities"],
        data["precisifications"],
        data.get("sigma", {}),
        data["individuals"],
        data["sortals"],
        data.get("indefinite", {}),
        data.get("precise", {}),
        data.get("names", {}),
    )


def load_v1_model(path: str) -> V1Structure:
    return load_json(path, ModelFormatError, v1_structure_from_dict)


def v1_structure_to_dict(m: V1Structure) -> dict:
    return {
        "entities": list(m.entities),
        "precisifications": list(m.precisifications),
        "sigma": {sp: sorted(ps) for sp, ps in sorted(m.sigma.items())},
        "individuals": {
            ident: {pi: ind.extent[pi] for pi in m.precisifications}
            for ident, ind in sorted(m.registry.items())
        },
        "sortals": {
            pi: {k: sorted(ids) for k, ids in sorted(m.sortals[pi].items())}
            for pi in m.precisifications
        },
        "indefinite": {
            pi: {a: sorted(list(row) for row in rows) for a, rows in sorted(m.indefinite[pi].items())}
            for pi in m.precisifications
        },
        "precise": {q: sorted(list(row) for row in rows) for q, rows in sorted(m.precise.items())},
        "names": {pi: dict(sorted(m.names[pi].items())) for pi in m.precisifications},
    }


def vocabulary_of_v1_model(m: V1Structure) -> V1Vocabulary:
    """Derive the vocabulary (including the predicate partition) from a model.

    Arities come from the rows; a predicate with no row keeps a wildcard
    arity.  Sortals and names are those of the first precisification, since
    the loader makes those tables agree at every precisification.
    """
    pi0 = m.precisifications[0]
    indefinite = relation_arities(m.indefinite[pi] for pi in m.precisifications)
    precise = relation_arities([m.precise])
    return make_v1_vocabulary(m.sortals[pi0], indefinite, precise, m.names[pi0], m.sigma)
