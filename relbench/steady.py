#!/usr/bin/env python3
"""Steadiness tool for the release-pipeline benchmark.

Repeats one workload over several seeds and reports, per metric, the median,
the first and third quartiles and the spread (q3 - q1) / median. A metric
whose spread exceeds its bound in BENCHMARK.json is flagged. Release digests
and guards are listed per seed, so two sets can be compared for byte-identity.

Run from the repository root:

    python3 relbench/steady.py --workload k-audit-10k --seeds 1-10
    python3 relbench/steady.py --workload k-audit-10k --seeds 1-10 --save a.json
    python3 relbench/steady.py --workload k-audit-10k --seeds 1-10 --against a.json

--against compares with a saved set: medians may not be worse by more than
the bound, and digests and deterministic metrics must be identical.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Units of metrics that are a pure function of the seed: they must repeat
# exactly between two sets. The Go runtime's figures depend on GC timing.
DETERMINISTIC_UNITS = {"bits", "%", "count", "B"}


def deterministic(name, unit):
    return unit in DETERMINISTIC_UNITS and not name.startswith("runtime.")


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    # Both runs print one "guard" line: the release digest and the
    # deterministic guards.
    guards = " ".join(re.findall(r"^guard (.*)$", proc.stdout, re.M))
    host = {k: float(re.search(rf"^host {k}=(\S+)$", proc.stdout, re.M).group(1))
            for k in ("probe_s", "steal_frac")}
    return {"seed": seed, "guards": guards, "correct": result["correct"], "host": host,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()}}


def summarize(runs):
    names = sorted(runs[0]["metrics"])
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("inf")}
    return out


def print_host(runs, summary, bounds):
    """Prints the host probe's spread and, per timed metric, its correlation
    with the probe over the runs: a metric that moves with the probe, which
    runs no code of the program, moves with the host's speed."""
    probe = [r["host"]["probe_s"] for r in runs]
    q1, _, q3 = statistics.quantiles(probe, n=4) if len(probe) > 1 else (0, 0, 0)
    print(f"host probe_s median {statistics.median(probe):.6g} spread {(q3 - q1) / statistics.median(probe):.4f}; "
          f"steal_frac median {statistics.median(r['host']['steal_frac'] for r in runs):.4f}")
    if len(runs) < 3 or len(set(probe)) < 2:
        return
    for name in summary:
        if name in bounds and runs[0]["units"][name] == "s":
            values = [r["metrics"][name] for r in runs]
            if len(set(values)) > 1:
                print(f"host correlation probe_s ~ {name}: {statistics.correlation(probe, values):+.2f}")


def worse_by(metric, old, new):
    """Share by which new is worse than old, in the metric's direction."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the runs to this JSON file")
    ap.add_argument("--against", help="compare with runs saved by --save")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        r = run_once(bench, args.workload, seed, seconds, args.trace)
        print(f"seed {seed} {r['guards']} correct={r['correct']} "
              f"probe_s={r['host']['probe_s']:.4f} steal_frac={r['host']['steal_frac']:.4f}", flush=True)
        runs.append(r)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)

    bad = 0
    summary = summarize(runs)
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, s in summary.items():
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and s["spread"] > bound:
            flag, bad = "  SPREAD > BOUND", bad + 1
        elif bound is not None and s["spread"] > bound / 3:
            flag = "  spread > bound/3"
        print(f"{name:32} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {bound if bound is not None else '-':>6}{flag}")
    print_host(runs, summary, bounds)

    if args.against:
        with open(args.against) as f:
            old_runs = json.load(f)["runs"]
        old = summarize(old_runs)
        for name, s in summary.items():
            if name in bounds:
                w = worse_by(bounds[name], old[name]["median"], s["median"])
                ok = w <= bounds[name]["bound"]
                bad += not ok
                print(f"against {name:24} old={old[name]['median']:.6g} new={s['median']:.6g} "
                      f"worse_by={w:+.4f} {'ok' if ok else 'WORSE THAN BOUND'}")
        for k in ("probe_s", "steal_frac"):
            print(f"against host {k} old={statistics.median(r['host'][k] for r in old_runs):.6g} "
                  f"new={statistics.median(r['host'][k] for r in runs):.6g}")
        old_by_seed = {r["seed"]: r for r in old_runs}
        for r in runs:
            o = old_by_seed.get(r["seed"])
            if o is None:
                continue
            same = r["guards"] == o["guards"] and all(
                r["metrics"][k] == o["metrics"][k] for k, unit in r["units"].items()
                if deterministic(k, unit))
            bad += not same
            print(f"against seed {r['seed']}: digest and deterministic metrics {'identical' if same else 'DIFFER'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
