"""Steadiness check: do repeated sets of benchmark runs agree within the bounds?

    python3 perfbench/steady.py [--sets 2] [--runs 10]

Runs SETS sets of RUNS untraced runs of every workload in BENCHMARK.json,
each run_seconds long, one process at a time.  Inside a set the workloads
alternate (every workload runs its k-th seed before any runs its (k+1)-th),
and every run of every set has a seed of its own, 1 onwards, so the sets
differ in their seeds as well as in when they ran.  For each (workload,
end-to-end metric) it prints every set's median, quartiles and spread
(q3 - q1 over the median), and a verdict: the sets agree when every spread,
setup_s's too, is within the metric's bound, every later median differs
from the first, in either direction, by at most the bound, and every set
fails the same share of verdicts.  Exits 0 when all pairs agree.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
FIRST_SEED = 1


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload, seed, seconds):
    """One untraced run; returns its parsed result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median)}


def compare(sets, metrics):
    """Rows of (workload, metric, per-set summaries, agree) and overall verdict.

    `sets` is a list of {workload: [result, ...]}; `metrics` the end_to_end
    entries of BENCHMARK.json.
    """
    rows, all_agree = [], True
    for workload in sets[0]:
        shares = {
            sum(r["failed"] for r in one[workload]) / sum(r["attempted"] for r in one[workload])
            for one in sets
        }
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            summaries = [
                summarize([r["metrics"][name]["value"] for r in one[workload]]) for one in sets
            ]
            first = summaries[0]["median"]
            agree = (
                len(shares) == 1
                and all(abs(s["median"] - first) <= bound * abs(first) for s in summaries[1:])
                and all(s["spread"] <= bound for s in summaries)
            )
            all_agree = all_agree and agree
            rows.append((workload, name, summaries, agree))
    return rows, all_agree


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least two sets of at least two runs")
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    for number in range(args.sets):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            for workload in workloads:
                seed = FIRST_SEED + number * args.runs + i
                result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"]:
                    raise RuntimeError(f"{workload} seed {seed}: incorrect result")
                results[workload].append(result)
                print(f"set {number + 1} run {i + 1} {workload}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ), file=sys.stderr, flush=True)
        sets.append(results)

    rows, all_agree = compare(sets, bench["end_to_end"])
    print(f"{'workload':<20} {'metric':<18} " + " ".join(
        f"{'set ' + str(k + 1) + ' median [q1, q3] spread':<44}" for k in range(args.sets)
    ) + " agree")
    for workload, name, summaries, agree in rows:
        cells = " ".join(
            f"{s['median']:<10.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {100 * s['spread']:5.1f}%".ljust(44)
            for s in summaries
        )
        print(f"{workload:<20} {name:<18} {cells} {'yes' if agree else 'NO'}")
    print("sets agree within the bounds" if all_agree else "sets DISAGREE")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
