"""splogic benchmark: one workload per process, every answer checked.

    python3 bench/run.py --workload equisat_corpus --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

  equisat_corpus   equisat_check on sat sentences of the Tier-1 corpus
                   generator, bounds entities 2, individuals 2,
                   precisifications 2.
  equisat_hard     the same harness on screened unsat sentences whose
                   backward search exhausts level n=4, m=2 (8-11 s each
                   on a quiet 2-vCPU Xeon guest).
  solve_v1         find_v1_model on corpus sentences at entities 4,
                   precisifications 2, individuals 3.
  check_translate  no search: print/parse/is_model on FOSL pairs and
                   is_model_v1/full_translation/lift/is_model/lower on
                   V1 pairs.

The seed picks the generator seeds from the committed pools (see
workloads.pick_block and Equisat.pick); the package only ever sees the
generated inputs.  Each run sets up (imports splogic and builds the
inputs), runs the four README fixture commands through splogic.cli.main
untimed, then runs the closed loop in passes over the block of prepared
items (each item one or more times, see schedule) until the timed calls
add up to --seconds and at least one whole pass is done.  The end-to-end
figures cover the complete passes (see pass_stats).  Peak memory is read then; set-up is
then repeated for about three seconds and reported as the median of all
its timings.  Every item is checked right after its call, outside the
timed span: verdicts against the committed pools, every model against
the reference evaluator in tests/naive_eval.py.

Every timing is reported at reference speed (see speed.py): a sampler
interrupts the run every 25 ms to time a fixed piece of the benchmark's
own Python, and each measured interval, net of the samples, is divided
by the slowdown they saw around it.  On a shared host this keeps the
speed of the neighbours out of the figures.  The wall-clock figures, net
of the samples, are in the record line.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 each item runs twice in a row, once untraced and once traced,
for half the time each (and at least one whole pass); the last line
carries the per-layer metrics from the traced calls and the tracing
overhead, the ratio of the traced to the untraced totals.  A line
before it, and a file under bench/out/, hold the input properties, the
machine facts and the failure count.  The exit code is 0 when every check
passed, 1 when one failed, 2 when the program could not be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a pass runs each item until its screened cost adds up to REPEAT_MS, at
# most REPEATS_MAX times (see schedule)
REPEAT_MS = 2.0
REPEATS_MAX = 10

# set-up is timed until it has taken SETUP_BUDGET_S, at least SETUP_REPS[0]
# and at most SETUP_REPS[1] times, and reported as the median
SETUP_BUDGET_S = 3.0
SETUP_REPS = (5, 60)

# (argv, expected exit code): check, translate, solve-rigid-unsat, equisat
FIXTURE_COMMANDS = [
    (["check", "--formula", "formula_c.txt", "--model", "v0.json", "--flavor", "v1"], 0),
    (["translate", "--formula", "formula_c.txt", "--vocab", "desert_v1_vocab.json"], 0),
    (["solve", "--formula", "formula_c_rigid.txt", "--vocab", "desert_fosl_vocab.json",
      "--flavor", "fosl", "--bounds", "3,2"], 1),
    (["equisat", "--formula", "formula_c.txt", "--vocab", "desert_v1_vocab.json",
      "--bounds", "3,2,3,2"], 0),
]


def fresh_import():
    for name in [k for k in sys.modules if k == "splogic" or k.startswith("splogic.")]:
        del sys.modules[name]
    return importlib.import_module("splogic")


def timed_setup(wl, seed: int, clock):
    """Import splogic afresh and build the workload's inputs; returns them
    with the (start, end) of the set-up on clock."""
    gc.collect()  # drop the previous import, so repeats do not raise peak memory
    t0 = clock()
    sp = fresh_import()
    ctx, items = wl.build(sp, seed)
    return sp, ctx, items, (t0, clock())


def load_reference_evaluator():
    """tests/naive_eval.py, loaded read-only after the last import of splogic
    so that its isinstance checks see the same classes as the package."""
    spec = importlib.util.spec_from_file_location("naive_eval", ROOT / "tests" / "naive_eval.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_fixture_commands() -> list[str]:
    cli = importlib.import_module("splogic.cli")
    problems = []
    for argv, expected in FIXTURE_COMMANDS:
        argv = [str(ROOT / "fixtures" / a) if a.endswith((".txt", ".json")) else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # counted as a failed fixture command
                code = f"{type(exc).__name__}: {exc}"
        if code != expected:
            problems.append(f"splogic {argv[0]} exited {code}, expected {expected}")
    return problems


def cpu_now() -> float:
    """CPU time of this process and of any children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Loop:
    """The calls of one closed loop: each is timed, then checked untimed.
    Times are taken on the sampler's clock, net of its samples."""

    def __init__(self, sampler: speed.Sampler):
        self.sampler = sampler
        self.latencies, self.failures, self.translated, self.seeds = [], [], [], []
        self.spans: list[tuple[float, float]] = []
        self.index: list[int] = []   # the block position of each call
        self.passes = 0              # complete passes
        self.counted = 0             # calls in the complete passes
        self.verdicts: dict[str, int] = {}
        self.busy_s = self.cpu_s = 0.0
        self.source_nodes = 0

    def step(self, wl, sp, naive, ctx, items, index, call) -> None:
        item = items[index]
        clock = self.sampler.clock
        c0, s0 = cpu_now(), self.sampler.spent
        t0 = clock()
        try:
            out = call(sp, ctx, item)
        except Exception as exc:  # the loop reports the failure and goes on
            t1, c1, s1 = clock(), cpu_now(), self.sampler.spent
            problems, nodes = [f"{type(exc).__name__}: {exc}"], None
        else:
            t1, c1, s1 = clock(), cpu_now(), self.sampler.spent
            problems, nodes = wl.check(sp, naive, ctx, item, out)
        # the samples are the benchmark's CPU time, not the program's
        self.cpu_s += c1 - c0 - (s1 - s0)
        self.busy_s += t1 - t0
        self.spans.append((t0, t1))
        self.latencies.append(t1 - t0)
        self.index.append(index)
        key = str(item.expected)
        self.verdicts[key] = self.verdicts.get(key, 0) + 1
        self.seeds.append(item.seed)
        self.source_nodes += item.nodes
        if nodes is not None:
            self.translated.append(nodes)
        if problems:
            self.failures.append({"seed": item.seed, "problems": problems})

    @property
    def items(self) -> int:
        return len(self.latencies)

    def at_reference(self) -> list[float]:
        """Each call's latency at reference speed; call after the loop, so
        that the samples after the last call are in."""
        return [self.sampler.at_reference(t0, t1) for t0, t1 in self.spans]


def schedule(items, pass_no: int) -> list[int]:
    """The block positions one pass runs: each item as often as it takes
    its screened cost to reach REPEAT_MS (at least once, at most
    REPEATS_MAX times), the calls shuffled, in an order fixed by the pass
    number.  An item of a fraction of a millisecond is at the mercy of
    the machine's speed in that fraction, so it needs many calls, spread
    over the pass, for its timings to hold still; the costly items, which
    set the pass's length, run once."""
    order = [i for i, item in enumerate(items)
             for _ in range(min(REPEATS_MAX, max(1, round(REPEAT_MS / item.cost_ms))))]
    random.Random(pass_no).shuffle(order)
    return order


def closed_loop(wl, sp, naive, ctx, items, seconds, sampler) -> Loop:
    """Run passes over the block until the timed calls add up to seconds
    and at least one whole pass is done."""
    loop = Loop(sampler)
    deadline = time.perf_counter() + 2 * seconds + 60
    while loop.busy_s < seconds or not loop.passes:
        for i in schedule(items, loop.passes):
            if (loop.busy_s >= seconds and loop.passes) or time.perf_counter() > deadline:
                return loop  # a stalled program must not hold the run past its limit
            loop.step(wl, sp, naive, ctx, items, i, wl.run)
        loop.passes, loop.counted = loop.passes + 1, loop.items
    return loop


def traced_loop(wl, sp, naive, ctx, items, seconds, tracer, sampler) -> tuple[Loop, Loop]:
    """Run each item twice in a row, once untraced and once traced, which
    goes first alternating, until the traced calls add up to seconds and
    at least one whole pass over the block is done.  Pairing the calls
    this way keeps the machine's drift in speed out of the tracing
    overhead."""
    untraced, traced = Loop(sampler), Loop(sampler)
    traced_run = tracer.item(wl.run)
    deadline = time.perf_counter() + 4 * seconds + 120
    while traced.busy_s < seconds or traced.items < len(items):
        if time.perf_counter() > deadline:
            break
        i = traced.items % len(items)
        for on in ((False, True) if traced.items % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                traced.step(wl, sp, naive, ctx, items, i, traced_run)
                tracer.uninstall()
            else:
                untraced.step(wl, sp, naive, ctx, items, i, wl.run)
        if i == len(items) - 1:
            for lp in (untraced, traced):
                lp.passes, lp.counted = lp.passes + 1, lp.items
    return untraced, traced


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def weighted_quantile(pairs: list[tuple[float, float]], q: float) -> float:
    """The smallest value whose (value, weight) pairs up to and including it
    hold the share q of the total weight; pairs sorted by value."""
    target = q * sum(w for _, w in pairs)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= target:
            return value
    return pairs[-1][0]


def pass_stats(loop: Loop, latencies: list[float]) -> dict:
    """Throughput and latency percentiles over the complete passes.

    Every complete pass runs every item of the block, so the figures cover
    the same cost mix whatever the seed and however fast the program is.
    The partial pass at the end is checked but not counted here; a run
    with no complete pass counts all its calls.  Throughput is the
    block's items over the sum of their mean timings.  The percentiles
    are taken over all the timings, each weighted by one over its item's
    number of timings, so that every item weighs the same however often
    it ran: each percentile then rests on the timings of every item near
    it, not on the median timing of the one or two items it falls
    between."""
    counted = loop.counted if loop.passes else len(latencies)
    by_item: dict[int, list[float]] = {}
    for index, latency in zip(loop.index[:counted], latencies[:counted]):
        by_item.setdefault(index, []).append(latency * 1000)
    weighted = sorted((x, 1 / len(v)) for v in by_item.values() for x in v)
    p90 = weighted_quantile(weighted, 0.9)
    return {
        "passes": loop.passes,
        "items": len(by_item),
        "calls": counted,
        "items_per_s": len(by_item) / sum(_mean(v) for v in by_item.values()) * 1000,
        "p50_ms": weighted_quantile(weighted, 0.5),
        "p90_ms": p90,
        "items_beyond_p90": sum(w for x, w in weighted if x > p90),
    }


def end_to_end(stats: dict, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": stats["items_per_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": stats["p50_ms"], "unit": "ms"},
        "latency_p90_ms": {"value": stats["p90_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(summary: dict, untraced: Loop, traced: Loop, slowdown: float) -> dict:
    """Times per item at reference speed: the span times, net of the
    samples, over the traced calls' mean slowdown."""
    n = summary["items"]
    names = summary["by_name"]

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0) / n / slowdown

    def calls(name):
        return names.get(name, {}).get("calls", 0) / n

    parse_self = names.get("parser.parse_formula", {}).get("self_s", 0.0)
    outcomes = summary["outcomes"]
    metrics = {
        "parser.parse_s": (self_s("parser.parse_formula"), "s/item"),
        "parser.print_s": (self_s("parser.print_formula"), "s/item"),
        "parser.nodes_per_s": (
            summary["parsed_nodes"] * slowdown / parse_self if parse_self else 0.0, "1/s"
        ),
        "syntax.validate_s": (self_s("syntax.validate_formula"), "s/item"),
        "syntax.validate_calls": (calls("syntax.validate_formula"), "1/item"),
        "translate.translation_s": (self_s("translate.full_translation"), "s/item"),
        "translate.output_nodes": (_mean(summary["translation_nodes"]), "nodes"),
        "translate.lift_s": (self_s("translate.lift_model"), "s/item"),
        "translate.lower_s": (self_s("translate.lower_model"), "s/item"),
        "fosl.is_model_s": (self_s("fosl.is_model"), "s/item"),
        "fosl.is_model_calls": (calls("fosl.is_model"), "1/item"),
        "v1.is_model_s": (self_s("v1.is_model_v1"), "s/item"),
        "v1.is_model_calls": (calls("v1.is_model_v1"), "1/item"),
        "finder.fosl_search_self_s": (self_s("finder.find_fosl_model"), "s/item"),
        "finder.v1_search_self_s": (self_s("finder.find_v1_model"), "s/item"),
        "finder.revalidate_s": (summary["revalidate_s"] / n / slowdown, "s/item"),
        "finder.equisat_self_s": (self_s("finder.equisat_check"), "s/item"),
        "finder.backward_share": (
            summary["backward_s"] / summary["equisat_s"] if summary["equisat_s"] else 0.0, "ratio"
        ),
        "finder.sat": (outcomes["ModelFound"] / n, "1/item"),
        "finder.unsat": (outcomes["ExhaustedUnsat"] / n, "1/item"),
        "finder.timeouts": (outcomes["SearchTimeout"] / n, "1/item"),
        "proc.cpu_s": (untraced.cpu_s / untraced.items / slowdown, "s/item"),
        "proc.cpu_per_wall": (untraced.cpu_s / untraced.busy_s, "ratio"),
        "trace.overhead_frac": (traced.busy_s / untraced.busy_s - 1, "ratio"),
        "machine.slowdown": (slowdown, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def machine_facts(spl_threads) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "spl_threads": (
            "unset" if spl_threads is None else f"was {spl_threads!r}, unset for the run"
        ),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # a plain checkout; source_sha256 identifies the code
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splogic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "splogic" / "__init__.py").is_file() or not (
        ROOT / "tests" / "naive_eval.py"
    ).is_file():
        print("error: run from a checkout of the repository (src/ and tests/ missing)",
              file=sys.stderr)
        return 2
    spl_threads = os.environ.pop("SPL_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.WORKLOADS[args.workload]

    sampler = speed.Sampler()
    sampler.start()
    try:
        sp, ctx, items, setup_span = timed_setup(wl, args.seed, sampler.clock)
        setup_spans = [setup_span]
        naive = load_reference_evaluator()
        cli_problems = run_fixture_commands()
        if args.trace:
            tracer = tracing.Tracer(sampler.clock)
            untraced, traced = traced_loop(
                wl, sp, naive, ctx, items, args.seconds / 2, tracer, sampler
            )
            loops = [untraced, traced]
        else:
            loop = closed_loop(wl, sp, naive, ctx, items, args.seconds, sampler)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # the repeats come after the loop, so that the memory left behind
            # by each fresh import does not count in the workload's peak
            while len(setup_spans) < SETUP_REPS[0] or (
                sum(t1 - t0 for t0, t1 in setup_spans) < SETUP_BUDGET_S
                and len(setup_spans) < SETUP_REPS[1]
            ):
                setup_spans.append(timed_setup(wl, args.seed, sampler.clock)[3])
            loops = [loop]
    finally:
        sampler.stop()

    main_loop = loops[0]
    latencies = main_loop.at_reference()
    setups = [sampler.at_reference(t0, t1) for t0, t1 in setup_spans]
    if args.trace:
        summary = tracing.summarize(tracer.spans, sp.formula_size)
        slowdown = traced.busy_s / sum(traced.at_reference())
        metrics = per_layer(summary, untraced, traced, slowdown)
        trace_facts = {
            "paired_items": traced.items,
            "untraced_busy_s": untraced.busy_s,
            "traced_busy_s": traced.busy_s,
            "traced_slowdown": slowdown,
            "traced_items": summary["items"],
            "traced_wall_s": summary["wall_s"],
            "span_self_sum_s": summary["self_sum_s"],
            "spans": len(tracer.spans),
            "equisat_check_s": summary["equisat_s"],
            "self_s": {k: v["self_s"] for k, v in sorted(summary["by_name"].items())},
            "calls": {k: v["calls"] for k, v in sorted(summary["by_name"].items())},
        }
    else:
        stats = pass_stats(main_loop, latencies)
        metrics = end_to_end(stats, statistics.median(setups), peak_rss_mb)
        trace_facts = None

    attempted = sum(lp.items for lp in loops) + len(FIXTURE_COMMANDS)
    failures = [f for lp in loops for f in lp.failures]
    failed = len(failures) + len(cli_problems)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "inputs": {
            "items_run": main_loop.items,
            "distinct_items": len(set(main_loop.seeds)),
            "block_items": len(items),
            "expected_verdicts": main_loop.verdicts,
            "bounds": {k: v.to_dict() for k, v in ctx.items() if hasattr(v, "to_dict")},
            "generator_seeds": sorted(set(main_loop.seeds)),
            "source_nodes_mean": main_loop.source_nodes / main_loop.items,
            "translated_nodes_mean": _mean(main_loop.translated) or None,
        },
        "passes": pass_stats(main_loop, latencies),
        "wall_passes": pass_stats(main_loop, main_loop.latencies),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "cli_problems": cli_problems,
        "setup_runs_s": setups,
        "setup_wall_s": [t1 - t0 for t0, t1 in setup_spans],
        "busy_s": main_loop.busy_s,
        "cpu_s": main_loop.cpu_s,
        "sampler": {
            "samples": len(sampler.slowdowns),
            "slowdown_quartiles": statistics.quantiles(sampler.slowdowns, n=4),
            "spent_s": sampler.spent,
        },
        "machine": machine_facts(spl_threads),
        "tracing": trace_facts,
        "metrics": metrics,
        "latencies_s": latencies,
        "wall_latencies_s": main_loop.latencies,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    brief = {k: v for k, v in record.items()
             if k not in ("metrics", "latencies_s", "wall_latencies_s")}
    brief["inputs"] = {k: v for k, v in record["inputs"].items() if k != "generator_seeds"}
    print(json.dumps(brief, default=str))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
