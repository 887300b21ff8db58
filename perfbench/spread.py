#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

From the repository root:

    python3 perfbench/spread.py                        # 10 seeds, every workload
    python3 perfbench/spread.py --runs 5 --workloads converge
    python3 perfbench/spread.py --traced --out perfbench/results.json

For each workload and end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A metric is steady when its spread is below a third of its bound in
BENCHMARK.json. The exact metrics a workload prints in its table
(samples_to_target and capped_frac on converge) are recorded per seed,
and the first seed is run once more to show that they repeat exactly.
--traced adds one --trace 1 run per workload and records its per-layer
ledger. --out writes the medians, spreads, exact metrics, per-layer
ledgers and the machine's provenance as JSON. --against compares the
medians with those of an earlier --out file: a second set of runs
agrees with the first when no median is worse by more than its bound.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, took, proc.stdout


# Metrics that are exact counts of the program's own work: the same on
# every run of a seed, whatever the machine does.
EXACT = ("samples_to_target", "capped_frac")


def exact_metrics(stdout):
    """The exact metrics a run printed in its table, by name."""
    found = {}
    for name in EXACT:
        m = re.search(rf"^  {name} +(\S+) ", stdout, re.M)
        if m:
            found[name] = float(m.group(1))
    return found


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(seeds):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    # "dirty" reports uncommitted changes to the program under test:
    # the module the benchmark builds (cmd/cs and internal/).
    status = git("status", "--porcelain", "--", "go.mod", "cmd", "internal")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "go": go,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seeds": seeds,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = list(range(args.seed0, args.seed0 + args.runs))
    report = {"provenance": provenance(seeds), "run_seconds": spec["run_seconds"], "workloads": {}}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    steady = True
    for w in names:
        values = {m: [] for m in bounds}
        durations, failed, exact = [], 0, []
        for seed in seeds:
            res, took, out = run_once(spec, w, seed, 0)
            durations.append(took)
            failed += res["failed"] + (not res["correct"])
            exact.append(exact_metrics(out))
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        entry = {"run_seconds_taken": round(statistics.median(durations), 2), "failed": failed, "metrics": {}}
        print(f"{w}: {len(seeds)} runs, median {entry['run_seconds_taken']}s per run, {failed} failures")
        if exact[0]:
            res, _, out = run_once(spec, w, seeds[0], 0)
            again = exact_metrics(out)
            repeats = again == exact[0]
            steady &= repeats
            entry["exact"] = {"per_seed": dict(zip(map(str, seeds), exact)), "seed_rerun": again, "repeats": repeats}
            print(f"  exact metrics of seed {seeds[0]}: {exact[0]}, rerun {again}: {'repeat' if repeats else 'DIFFER'}")
        for m, vs in values.items():
            s = spread(vs)
            ok = s < bounds[m] / 3
            steady &= ok
            entry["metrics"][m] = {"median": statistics.median(vs), "spread": s, "values": vs}
            print(f"  {m:14s} median {statistics.median(vs):12.6g}  spread {s:7.4f}  bound {bounds[m]}  {'ok' if ok else 'NOT STEADY'}")
            if m in earlier.get(w, {}).get("metrics", {}):
                then = earlier[w]["metrics"][m]["median"]
                change = (statistics.median(vs) - then) / then
                agrees = (change if lower[m] else -change) <= bounds[m]
                steady &= agrees
                entry["metrics"][m]["change_vs_earlier"] = change
                print(f"  {'':14s} vs earlier median {then:12.6g}  change {change:+7.4f}  {'agrees' if agrees else 'WORSE THAN BOUND'}")
        if args.traced:
            res, _, out = run_once(spec, w, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
            print("\n".join("    " + line for line in out.splitlines()[:-1]))
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
