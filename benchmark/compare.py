#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage:
    python3 benchmark/compare.py BEFORE AFTER [--bench BENCHMARK.json]

BEFORE and AFTER are files, or directories of files, holding the standard
output of untraced benchmark runs: each result line is preceded by the
`{"info": ...}` line naming its workload and seed. For every workload and
every end-to-end metric the script prints each side's median and
quartiles and a verdict:

* unresolved - either side's quartile spread (as a share of its median)
               is wider than the metric's bound, and not every after run
               beats every before run; or no verdict below applies;
* worse      - the after median is worse than the before median by more
               than the metric's bound;
* better     - the change wins at least nine tenths of the runs paired by
               seed (or, unpaired, of all pairs), ties counting for
               neither, the medians differ by more than the before side's
               quartile spread, and the after runs fail no larger share
               of their operations.

The note in parentheses says why.

Exits 1 when any verdict is `worse`.
"""

import json
import os
import statistics
import sys

# Key under which a run's failed/attempted share is kept.
FAILED = "_failed_ratio"


def load(path):
    """{workload: {seed: {metric: value}}} from result files."""
    files = []
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path))
    else:
        files = [path]
    out = {}
    for name in files:
        info = None
        with open(name) as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "info" in obj:
                    info = obj["info"]
                elif "metrics" in obj and info is not None:
                    if info.get("trace"):
                        continue
                    runs = out.setdefault(info["workload"], {})
                    run = {k: v["value"] for k, v in obj["metrics"].items()}
                    run[FAILED] = obj["failed"] / max(obj["attempted"], 1)
                    runs[info["seed"]] = run
                    info = None
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(before, after, metric, pairs, fails_more):
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    q1a, ma, q3a = quartiles(before)
    q1b, mb, q3b = quartiles(after)
    if ma == 0 or mb == 0:
        return "unresolved", "zero median"
    # Positive = after is better.
    gain = (mb - ma) / ma if higher else (ma - mb) / ma
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    better_than = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    if spread > bound:
        if all(better_than(b, a) for a in before for b in after) and not fails_more:
            return "better", f"{gain:+.3f}, every after run beats every before run"
        return "unresolved", f"spread {spread:.3f} wider than bound {bound}"
    if -gain > bound:
        return "worse", f"{-gain:+.3f} worse, bound {bound}"
    wins = sum(1 for b, a in pairs if better_than(a, b))
    ties = sum(1 for b, a in pairs if a == b)
    decided = len(pairs) - ties
    if decided and wins >= 0.9 * decided and gain > (q3a - q1a) / ma and not fails_more:
        return "better", f"{gain:+.3f}, won {wins}/{decided}"
    return "unresolved", f"within bound {bound} ({gain:+.3f})"


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    bench_path = "BENCHMARK.json"
    if "--bench" in argv:
        bench_path = argv[argv.index("--bench") + 1]
        args.remove(bench_path)
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    bench = json.load(open(bench_path))
    before, after = load(args[0]), load(args[1])
    worse = False
    header = f"{'workload':16} {'metric':18} {'before q1/med/q3':>34} {'after q1/med/q3':>34}  verdict"
    print(header)
    for workload in [w["name"] for w in bench["workloads"]]:
        a_runs, b_runs = before.get(workload, {}), after.get(workload, {})
        if not a_runs and not b_runs:
            continue
        if not a_runs or not b_runs:
            print(f"{workload:16} (runs on one side only)")
            continue
        seeds = sorted(set(a_runs) & set(b_runs))
        fails_more = statistics.median(r[FAILED] for r in b_runs.values()) > statistics.median(
            r[FAILED] for r in a_runs.values()
        )
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r[name] for r in a_runs.values() if name in r]
            b = [r[name] for r in b_runs.values() if name in r]
            if not a or not b:
                continue
            if seeds:
                pairs = [(a_runs[s][name], b_runs[s][name]) for s in seeds]
            else:
                pairs = [(x, y) for x in a for y in b]
            v, why = verdict(a, b, metric, pairs, fails_more)
            worse |= v == "worse"
            fa = "/".join(f"{x:.4g}" for x in quartiles(a))
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            print(f"{workload:16} {name:18} {fa:>34} {fb:>34}  {v} ({why})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
