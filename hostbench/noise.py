"""Noise report for the host-time benchmark.

Runs two sets of benchmark runs, alternated run by run, and prints for each
end-to-end metric of each workload the spread of each set's runs next to the
metric's bound from BENCHMARK.json, after one line per run with its values:

  spread  = (Q3 - Q1) / median of the set's runs, the quartiles as
            statistics.quantiles(values, n=4) gives them;
  shift   = how much worse set B's median is than set A's, as a share of A's.

A metric is steady when each set's spread is within its bound and B's
median is not worse than A's by more than the bound. The report also marks
spreads above a third of the bound.

Run from the repository root:

  python3 hostbench/noise.py [--runs 10] [--workloads steady,churn] [--seconds S]

Run i of both sets uses seed i + 1; set A runs first on even i and set B on
odd i. Exits 1 if a metric is not steady, and with a message if a run
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(args)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  note: {workload} seed {seed} reported correct=false")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    opts = ap.parse_args()

    steady = True
    for workload in opts.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(opts.runs):
            for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
                result = run_once(spec["command"], workload, i + 1, opts.seconds)
                sets[name].append(result)
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                  for m in spec["end_to_end"])
                print(f"{workload} set {name} seed {i + 1}: {values}", flush=True)
        attempted = [r["attempted"] for r in sets["A"] + sets["B"]]
        failed = [r["failed"] for r in sets["A"] + sets["B"]]
        print(f"\n{workload}: {opts.runs} runs per set, {opts.seconds} s each; "
              f"attempted {min(attempted)}..{max(attempted)}, failed {min(failed)}..{max(failed)}")
        print(f"  {'metric':<24}{'median A':>14}{'spread A':>10}{'median B':>14}"
              f"{'spread B':>10}{'shift':>9}{'bound':>8}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa, ma = spread([r["metrics"][name]["value"] for r in sets["A"]])
            sb, mb = spread([r["metrics"][name]["value"] for r in sets["B"]])
            worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
            shift = worse / ma if ma else 0.0
            ok = shift <= bound and max(sa, sb) <= bound
            tight = max(sa, sb) < bound / 3
            verdict = "ok" if ok and tight else ("ok, spread > bound/3" if ok else "NOT STEADY")
            steady = steady and ok
            print(f"  {name:<24}{ma:>14.6g}{sa:>10.2%}{mb:>14.6g}{sb:>10.2%}"
                  f"{shift:>9.2%}{bound:>8.0%}  {verdict}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
