"""Regenerate the committed pools under bench/data/.

    python3 bench/screen.py equisat_corpus    # likewise equisat_hard,
                                              # solve_v1, check_translate

Each pool lists, per generator seed, the verdict the benchmark expects and
the cost measured while screening.  POOLS fixes how each is made: the
generator seeds screened, the time limit of each search (equisat_hard
screens again, with a longer limit, the sentences that ran out of time),
and which rows a workload may use.  Of those, the pool keeps the pairs of
cost neighbours spaced evenly over the cost range that make up one block
(workloads.spread_pairs).  The costs only pair the items; they are never
compared with a run.  Verdicts are cross-checked here: equisat answers by
both directions of the translation, solve_v1 models and check_translate
answers by the reference evaluator.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import splogic as sp  # noqa: E402
import naive_eval as naive  # noqa: E402
import workloads as wl  # noqa: E402


def screen_equisat(seed: int, timeout: float) -> list:
    vocab = wl.corpus_vocab(sp)
    b = wl.equisat_bounds(sp)
    bounds = sp.Bounds(max_entities=b.max_entities, max_individuals=b.max_individuals,
                       max_precisifications=b.max_precisifications, timeout=timeout)
    f = sp.generate_formula(vocab, seed, wl.CORPUS_DEPTH)
    t = time.perf_counter()
    report = sp.equisat_check(vocab, f, bounds)
    ms = (time.perf_counter() - t) * 1000
    verdict = report.agreement if report.agreement in ("sat", "unsat") else "timeout"
    if report.agreement == "discrepancy":
        raise SystemExit(f"seed {seed}: discrepancy")
    return [seed, verdict, round(ms, 2), report.directions[1].elapsed_ms]


def screen_solve_v1(seed: int, timeout: float) -> list:
    vocab = wl.corpus_vocab(sp)
    b = wl.solve_v1_bounds(sp)
    bounds = sp.Bounds(max_entities=b.max_entities, max_individuals=b.max_individuals,
                       max_precisifications=b.max_precisifications, timeout=timeout)
    f = sp.generate_formula(vocab, seed, wl.CORPUS_DEPTH)
    t = time.perf_counter()
    outcome = sp.find_v1_model(vocab, f, bounds)
    ms = (time.perf_counter() - t) * 1000
    if isinstance(outcome, sp.ModelFound):
        if not naive.naive_is_model_v1(outcome.structure, f):
            raise SystemExit(f"seed {seed}: model rejected by the reference evaluator")
        verdict = "sat"
    else:
        verdict = "unsat" if isinstance(outcome, sp.ExhaustedUnsat) else "timeout"
    return [seed, verdict, round(ms, 3)]


def screen_check_translate(seed: int) -> list:
    ct = wl.CheckTranslate()
    ctx = {"fosl_vocab": wl.ct_fosl_vocab(sp), "v1_vocab": wl.ct_v1_vocab(sp)}
    f = sp.generate_formula(ctx["fosl_vocab"], seed, wl.CT_DEPTH)
    h = sp.generate_formula(ctx["v1_vocab"], seed, wl.CT_DEPTH)
    inputs = (f, sp.generate_fosl_structure(ctx["fosl_vocab"], seed, wl.ct_fosl_bounds(sp)),
              h, sp.generate_v1_structure(ctx["v1_vocab"], seed, wl.ct_v1_bounds(sp)))
    t = time.perf_counter()
    out = ct.pipeline(sp, ctx, *inputs)
    ms = (time.perf_counter() - t) * 1000
    item = wl.Item(seed, (out[1], out[2]), inputs, 0)
    problems, _ = ct.check(sp, naive, ctx, item, out)
    if problems:
        raise SystemExit(f"seed {seed}: {problems}")
    return [seed, int(out[1]), int(out[2]), round(ms, 3)]


class Pool(NamedTuple):
    screen: Callable[[int], list]
    columns: list[str]
    stop: int                   # screen generator seeds 0..stop-1
    keep: Callable[[list], bool]
    retry: Optional[Callable[[int], list]] = None  # for rows that ran out of time


EQUISAT_COLUMNS = ["seed", "verdict", "total_ms", "fosl_ms"]

POOLS = {
    # sat sentences decided within 6 s
    "equisat_corpus": Pool(partial(screen_equisat, timeout=6), EQUISAT_COLUMNS, 3000,
                           keep=lambda r: r[1] == "sat"),
    # unsat sentences whose backward search took 1-12 s: none takes
    # between 0.7 s and 6 s, and slower ones, whose block of three would
    # far outlast a run, run out of time at 16 s
    "equisat_hard": Pool(partial(screen_equisat, timeout=6), EQUISAT_COLUMNS, 3000,
                         keep=lambda r: r[1] == "unsat" and 1000 <= r[3] <= 12000,
                         retry=partial(screen_equisat, timeout=16)),
    "solve_v1": Pool(partial(screen_solve_v1, timeout=20), ["seed", "verdict", "ms"], 2000,
                     keep=lambda r: r[1] != "timeout"),
    "check_translate": Pool(screen_check_translate,
                            ["seed", "fosl_verdict", "v1_verdict", "ms"], 6000,
                            keep=lambda r: True),
}


def select(name: str, rows: list) -> list:
    """The rows of one block of cost pairs among those the pool keeps."""
    workload = wl.WORKLOADS[name]
    return wl.spread_pairs([r for r in rows if POOLS[name].keep(r)], workload.cost,
                           workload.block)


def write_pool(name: str, data: dict) -> None:
    wl.DATA.mkdir(exist_ok=True)
    with open(wl.DATA / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key, value in data.items():
            if key != "rows":
                fh.write(f"  {json.dumps(key)}: {json.dumps(value)},\n")
        fh.write('  "rows": [\n')
        fh.write(",\n".join("    " + json.dumps(r) for r in data["rows"]))
        fh.write("\n  ]\n}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pool", choices=sorted(POOLS))
    name = ap.parse_args().pool
    pool = POOLS[name]
    rows = []
    for seed in range(pool.stop):
        row = pool.screen(seed)
        if row[1] == "timeout" and pool.retry is not None:
            row = pool.retry(seed)
        rows.append(row)
        if seed % 100 == 99:
            print(f"{name}: {seed + 1}/{pool.stop}", file=sys.stderr, flush=True)
    write_pool(name, {
        "pool": name,
        "seeds": [0, pool.stop],
        "screened_on": f"{platform.machine()} Python {platform.python_version()}",
        "columns": pool.columns,
        "rows": select(name, rows),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
