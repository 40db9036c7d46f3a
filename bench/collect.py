"""Run bench/run.py over sets of seeds and summarise each metric.

    python3 bench/collect.py --sets 101-110 201-210 --trace-seed 101 --out bench/baseline.json
    python3 bench/collect.py --workloads solve_v1 --sets 1-5

Runs are made one after another, never in parallel, for BENCHMARK.json's
run_seconds unless --seconds is given; each set runs every workload
before the next set starts.  For each workload, set and end-to-end metric
the summary gives the values, their median, quartiles
(statistics.quantiles with n=4) and spread = (q3 - q1) / median; for each
later set also the change of its median from the first set's, signed so
that positive is worse.  Spreads (except setup_s's) and changes are
checked against the metric's bound in BENCHMARK.json.  --trace-seed adds
one traced run per workload with its per-layer metrics and its largest
self time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    print(workload, seed, json.dumps({k: round(v["value"], 6)
                                      for k, v in result["metrics"].items()}), flush=True)
    return {"result": result, "record": record}


def summarise(runs: list[dict], first: dict | None) -> dict:
    out = {}
    for name, spec in E2E.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / med, "values": values}
        if name != "setup_s":
            entry["spread_ok"] = entry["spread"] <= spec["bound"]
        if first is not None:
            change = (med - first[name]["median"]) / first[name]["median"]
            entry["change"] = -change if spec["better"] == "higher" else change
            entry["change_ok"] = entry["change"] <= spec["bound"]
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--sets", nargs="+", default=["1-10"], help="seed sets, e.g. 1-10 11-20")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    args = ap.parse_args()
    names = args.workloads.split(",")
    summary = {"seconds": args.seconds, "sets": args.sets, "machine": None,
               "workloads": {w: {"sets": []} for w in names}}
    for seeds in args.sets:
        for w in names:
            runs = [run_once(w, seed, args.seconds, 0) for seed in seed_list(seeds)]
            sets = summary["workloads"][w]["sets"]
            metrics = summarise(runs, sets[0]["metrics"] if sets else None)
            sets.append({
                "seeds": seeds,
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "inputs": {k: v for k, v in runs[0]["record"]["inputs"].items()
                           if k != "generator_seeds"},
                "metrics": metrics,
            })
            summary["machine"] = runs[0]["record"]["machine"]
            for name, m in metrics.items():
                print(f"  {w} set {seeds} {name}: median {m['median']:.6g} "
                      f"spread {m['spread']:.3f} change {m.get('change', 0):+.3f}", flush=True)
    if args.trace_seed is not None:
        for w in names:
            run = run_once(w, args.trace_seed, args.seconds, 1)
            layers = run["result"]["metrics"]
            times = {k: v["value"] for k, v in layers.items()
                     if v["unit"] == "s/item" and not k.startswith("proc.")}
            summary["workloads"][w]["traced"] = {
                "seed": args.trace_seed,
                "attempted": run["result"]["attempted"],
                "failed": run["result"]["failed"],
                "largest_self_s": max(times, key=times.get),
                "metrics": layers,
                "tracing": run["record"]["tracing"],
            }
    checks = [ok for w in summary["workloads"].values() for s in w["sets"]
              for m in s["metrics"].values() for k, ok in m.items() if k.endswith("_ok")]
    failed = sum(s["failed"] for w in summary["workloads"].values() for s in w["sets"])
    summary["within_bounds"] = all(checks)
    print(f"within bounds: {all(checks)} ({checks.count(False)} of {len(checks)} over); "
          f"failed items: {failed}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
