#!/usr/bin/env python3
"""Alternating parent/change pairs of the platform benchmark.

Exports the parent revision into `.bench_out/pairs/` (`git archive`, so the
repository's own metadata is not touched), then for every workload of
`BENCHMARK.json` runs N pairs of its command — parent tree and working tree,
alternating which side goes first — and prints, per end-to-end metric, both
medians with quartiles, the pair wins and the verdict of the choosing-metrics
rule (a gain needs the change to win nine tenths of the pairs and the medians
to differ by more than the parent's own interquartile range; a regression is a
median worse than the parent's by more than the metric's bound; a spread wider
than the bound is reported as unresolved, not as unchanged), plus the failed
operations of each side.

    python3 scripts/bench_pairs.py                        # 10 pairs, working tree vs HEAD
    python3 scripts/bench_pairs.py --parent HEAD~1        # after committing
    python3 scripts/bench_pairs.py --workloads url_mem --layers proactive.fire.ms_p50
    python3 scripts/bench_pairs.py --smoke --pairs 1      # CI: seconds, proves the script runs

Standard library only. Raw results land in `.bench_out/pairs/last.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

PAIRS_TO_CLAIM = 10


def git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_parent(root, rev):
    """The tree of `rev` under .bench_out/pairs/, exported once per commit."""
    sha = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = root / ".bench_out" / "pairs" / f"parent-{sha[:12]}"
    if not (tree / "BENCHMARK.json").exists():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(
            ["git", "archive", "--format=tar", sha], cwd=root, stdout=subprocess.PIPE
        )
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(tree)
        if archive.wait() != 0:
            sys.exit(f"git archive {sha} failed")
    return tree, sha


def run_once(tree, command, extra):
    """One benchmark process; its last stdout line is the JSON record."""
    proc = subprocess.run(
        [*command, *extra], cwd=tree, capture_output=True, text=True, check=False
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        record = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in record["metrics"].items()}
        ok = proc.returncode == 0 and bool(record["correct"])
        return {
            "ok": ok,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    except (IndexError, KeyError, TypeError, ValueError):
        tail = (proc.stderr or proc.stdout)[-400:]
        print(f"  run in {tree} produced no record (exit {proc.returncode}): {tail}", file=sys.stderr)
        return {"ok": False, "attempted": 1, "failed": 1, "metrics": {}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def iqr(values):
    q1, q3 = quartiles(values)
    return q3 - q1


def verdict(parent, change, better, bound, pairs):
    """(wins, losses, verdict) of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_med = statistics.median(parent)
    p_iqr, c_iqr = iqr(parent), iqr(change)
    gained = sign * (statistics.median(change) - p_med)
    limit = None if bound is None else bound * (abs(p_med) or 1.0)
    if gained > p_iqr and wins >= 0.9 * pairs:
        text = "gain" if pairs >= PAIRS_TO_CLAIM else f"gain (needs {PAIRS_TO_CLAIM} pairs to claim)"
    elif limit is None:
        text = "-"
    elif -gained > limit:
        text = "REGRESSION"
    elif max(p_iqr, c_iqr) > limit:
        text = "unresolved (spread wider than the bound)"
    else:
        text = "within bound"
    return wins, losses, text


def side_summary(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):>12.4f} [{q1:.4f}, {q3:.4f}]"


def report(workload, metric_specs, sides, pairs):
    for spec in metric_specs:
        name = spec["name"]
        parent = [run["metrics"].get(name) for run in sides["parent"]]
        change = [run["metrics"].get(name) for run in sides["change"]]
        if None in parent or None in change:
            print(f"{workload:<12} {name:<28} missing from a run")
            continue
        wins, losses, text = verdict(parent, change, spec["better"], spec.get("bound"), pairs)
        p_med = statistics.median(parent)
        ratio = statistics.median(change) / p_med if p_med else float("nan")
        print(
            f"{workload:<12} {name:<28} {spec['unit']:<5} "
            f"parent {side_summary(parent)}  change {side_summary(change)}  "
            f"x{ratio:.3f}  wins {wins}/{pairs} losses {losses}/{pairs}  {text}"
        )
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in sides[side])
        attempted = sum(run["attempted"] for run in sides[side])
        print(f"{workload:<12} failed operations, {side}: {failed}/{attempted}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=PAIRS_TO_CLAIM)
    parser.add_argument("--parent", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="Tiny specs, one timed run each")
    parser.add_argument(
        "--layers",
        help="comma-separated per-layer metrics: adds one traced run per side per pair and reports them",
    )
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    command = spec["command"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(workloads)
        if unknown:
            parser.error(f"--workloads: {sorted(unknown)} not in BENCHMARK.json")
        workloads = args.workloads.split(",")
    layers = args.layers.split(",") if args.layers else []
    # A layer metric BENCHMARK.json does not list is a time or a count: lower.
    known = {m["name"]: m for m in spec["per_layer"]}
    layer_specs = [known.get(n, {"name": n, "unit": "", "better": "lower"}) for n in layers]

    parent_tree, sha = export_parent(root, args.parent)
    trees = {"parent": parent_tree, "change": root}
    print(f"parent {sha[:12]} in {parent_tree.relative_to(root)}, change = working tree; "
          f"{args.pairs} pairs, seed {args.seed}, {spec['run_seconds']} s per run"
          + (" (--smoke)" if args.smoke else ""))
    for side, tree in trees.items():
        # `describe` runs nothing: this is the build, kept out of the pairs.
        built = subprocess.run([*command[:-1], "describe"], cwd=tree, capture_output=True, check=False)
        if built.returncode != 0:
            sys.exit(f"building the {side} benchmark failed:\n{built.stderr.decode()[-2000:]}")

    results, all_ok = {}, True
    for workload in workloads:
        flags = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(spec["run_seconds"])]
        if args.smoke:
            flags.append("--smoke")
        timed = {"parent": [], "change": []}
        traced = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                timed[side].append(run_once(trees[side], command, [*flags, "--trace", "0"]))
            for side in order if layers else ():
                traced[side].append(run_once(trees[side], command, [*flags, "--trace", "1"]))
            print(f"  {workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        report(workload, spec["end_to_end"], timed, args.pairs)
        if layers:
            report(workload, layer_specs, traced, args.pairs)
        all_ok &= all(run["ok"] for runs in (timed, traced) for side in runs.values() for run in side)
        results[workload] = {"timed": timed, "traced": traced}

    out = root / ".bench_out" / "pairs" / "last.json"
    out.write_text(json.dumps({"parent": sha, "seed": args.seed, "pairs": args.pairs,
                               "smoke": args.smoke, "results": results}, indent=1))
    print(f"raw results: {out.relative_to(root)}")
    if not all_ok:
        sys.exit("a run failed a check or produced no record")


if __name__ == "__main__":
    main()
