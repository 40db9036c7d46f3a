"""Unpruned exhaustive enumeration of complete structures.

Serves as the second route for the micro-scale completeness check of the
bounded model finder: every structure within the bounds is generated and
tested with the reference evaluator, with no symmetry reduction and no
partial-assignment pruning.
"""

import itertools

from splogic.fosl import make_fosl_structure
from splogic.v1 import make_v1_structure

from naive_eval import naive_is_model, naive_is_model_v1


def all_fosl_structures(vocab, max_domain, max_precs):
    preds = sorted((p, a) for p, a in vocab.predicates.items() if a is not None)
    consts = sorted(vocab.constants)
    sps = sorted(sp for sp in vocab.standpoints if sp != "*")
    for n in range(1, max_domain + 1):
        domain = [f"d{i}" for i in range(n)]
        for m in range(1, max_precs + 1):
            precs = [f"p{i}" for i in range(m)]
            subset_pool = []
            for k in range(m + 1):
                subset_pool.extend(itertools.combinations(precs, k))
            ext_pool = {}
            for p, arity in preds:
                rows = list(itertools.product(domain, repeat=arity))
                exts = []
                for k in range(len(rows) + 1):
                    exts.extend(itertools.combinations(rows, k))
                ext_pool[p] = exts
            for sigma_choice in itertools.product(subset_pool, repeat=len(sps)):
                sigma = {sp: list(ps) for sp, ps in zip(sps, sigma_choice)}
                const_space = itertools.product(
                    itertools.product(domain, repeat=len(consts)), repeat=m
                )
                for const_rows in const_space:
                    per_pred = itertools.product(
                        *(
                            itertools.product(ext_pool[p], repeat=m)
                            for p, _ in preds
                        )
                    )
                    for chosen in per_pred:
                        interpretation = {}
                        for i, pi in enumerate(precs):
                            interpretation[pi] = {
                                "predicates": {
                                    p: [list(row) for row in chosen[j][i]]
                                    for j, (p, _) in enumerate(preds)
                                },
                                "constants": dict(zip(consts, const_rows[i])),
                            }
                        yield make_fosl_structure(domain, precs, sigma, interpretation)


def _subsets(items):
    return [c for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


def all_v1_structures(vocab, max_entities, max_precs, max_individuals):
    """Every V1 structure within the bounds whose registry holds distinct
    extension maps, with names denoting admitted individuals."""
    indefinite = sorted((a, k) for a, k in vocab.indefinite.items() if k is not None)
    precise = sorted((q, k) for q, k in vocab.precise.items() if k is not None)
    sortals = sorted(vocab.sortals)
    names = sorted(vocab.names)
    sps = sorted(sp for sp in vocab.standpoints if sp != "*")
    for ne in range(1, max_entities + 1):
        entities = [f"e{i}" for i in range(ne)]
        for m in range(1, max_precs + 1):
            precs = [f"p{i}" for i in range(m)]
            maps = list(itertools.product(entities, repeat=m))
            sigmas = list(itertools.product(_subsets(precs), repeat=len(sps)))
            precise_tables = list(itertools.product(*(
                _subsets(list(itertools.product(entities, repeat=k))) for _, k in precise
            )))
            for r in range(min(max_individuals, len(maps)) + 1):
                idents = [f"i{i}" for i in range(r)]
                # what one precisification may hold: sortal members, then
                # indefinite rows and names over the individuals admitted
                local = []
                for members in itertools.product(_subsets(idents), repeat=len(sortals)):
                    admitted = sorted(set().union(*members))
                    rows = list(itertools.product(*(
                        _subsets(list(itertools.product(admitted, repeat=k)))
                        for _, k in indefinite
                    )))
                    refs = list(itertools.product(admitted, repeat=len(names)))
                    local.extend(itertools.product([members], rows, refs))
                for registry, sigma, table, choice in itertools.product(
                    itertools.combinations(maps, r), sigmas, precise_tables,
                    list(itertools.product(local, repeat=m)),
                ):
                    yield make_v1_structure(
                        entities, precs,
                        {sp: list(ps) for sp, ps in zip(sps, sigma)},
                        {i: dict(zip(precs, ext)) for i, ext in zip(idents, registry)},
                        {pi: dict(zip(sortals, c[0])) for pi, c in zip(precs, choice)},
                        {pi: {a: list(rows) for (a, _), rows in zip(indefinite, c[1])}
                         for pi, c in zip(precs, choice)},
                        {q: list(rows) for (q, _), rows in zip(precise, table)},
                        {pi: dict(zip(names, c[2])) for pi, c in zip(precs, choice)},
                    )


def naive_v1_sat(vocab, formula, max_entities, max_precs, max_individuals):
    """True iff some V1 structure of all_v1_structures is a model."""
    for struct in all_v1_structures(vocab, max_entities, max_precs, max_individuals):
        if naive_is_model_v1(struct, formula):
            return True
    return False


def naive_fosl_sat(vocab, formula, max_domain, max_precs):
    """True iff some complete structure within the bounds is a model."""
    for struct in all_fosl_structures(vocab, max_domain, max_precs):
        if naive_is_model(struct, formula):
            return True
    return False
