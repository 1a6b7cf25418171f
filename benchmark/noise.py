#!/usr/bin/env python3
"""Measures the benchmark's own noise floor and writes benchmark/NOISE.json.

Runs every workload of BENCHMARK.json with ten seeds, twice over, the way the
driver does, and for each end-to-end metric records the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and the
sample count, next to the host's provenance. Exits non-zero when a spread
exceeds the metric's bound, or the second set's median is worse than the
first's by more than the bound.

    python3 benchmark/noise.py [--sets 2] [--seeds 10] [--workload NAME]...

Run from the repository root, on an otherwise idle host.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sh(*cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    started = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
    runs = re.search(r"(\d+) timed runs", done.stderr)
    return result, time.time() - started, int(runs.group(1)) if runs else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    out = {
        "git_rev": sh("git", "rev-parse", "HEAD"),
        "rustc": sh("rustc", "-V"),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "sets": args.sets,
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values, walls, timed_runs = {}, [], []
            for seed in out["seeds"]:
                result, wall, runs = run(bench, workload, seed + 1000 * s)
                walls.append(round(wall, 1))
                timed_runs.append(runs)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append({"values": values, "process_wall_s": walls, "timed_runs": timed_runs})
        entry = {"process_wall_s": [s["process_wall_s"] for s in sets],
                 "timed_runs_per_process": [s["timed_runs"] for s in sets],
                 "end_to_end": {}}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = []
            for s in sets:
                v = s["values"][name]
                q1, med, q3 = statistics.quantiles(v, n=4)
                per_set.append({"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med, "samples": len(v), "values": v})
            entry["end_to_end"][name] = {"unit": metric["unit"], "bound": bound, "sets": per_set}
            line = f"{workload:<12} {name:<12} " + "  ".join(
                f"median {p['median']:.6g} spread {p['spread']:.4f}" for p in per_set)
            for p in per_set:
                if name != "setup_s" and p["spread"] > bound:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                elif name != "setup_s" and p["spread"] > bound / 3:
                    line += "  (over a third of the bound)"
            if len(per_set) > 1:
                a, b = per_set[0]["median"], per_set[1]["median"]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                entry["end_to_end"][name]["second_set_worse_by"] = worse
                if worse > bound:
                    ok = False
                    line += f"  SECOND SET WORSE BY {worse:.3f}"
            print(line, flush=True)
        out["workloads"][workload] = entry
    path = os.path.join(ROOT, "benchmark", "NOISE.json")
    if args.workload and os.path.exists(path):
        # Only these workloads were measured again: keep the others' entries.
        with open(path) as f:
            out["workloads"] = {**json.load(f)["workloads"], **out["workloads"]}
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
