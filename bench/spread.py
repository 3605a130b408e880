"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload qp-corpus --seeds 0-9 [--json out.json]

For every end-to-end metric this prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as a
share of the median, next to the bound BENCHMARK.json allows.  Runs are made
one after another from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--json", help="also write the per-run values and summary here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result, "summary": lines[:-1]})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)

    summary = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}
        print(f"{name:12s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
              f"spread {100 * (q3 - q1) / med:5.1f}%  bound {100 * bound:.0f}%")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)


if __name__ == "__main__":
    main()
