"""Benchmark of the shqp package: library solves, the polyhedral QP, and the CLI.

    python3 bench/run.py --workload gallery-solve --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter, one process at a time (a single-client closed loop).  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it runs a
fixed op list untraced and then under the span recorder, and prints the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it are a readable summary.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("gallery-solve", "qp-corpus", "cli-report")
# Set-up is timed this many times in fresh processes besides the measured one.
SETUP_PROBES = 4
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(mode, args, deadline):
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{mode}")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", workdir,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {mode} process")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran past the time limit") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_of_repeats(labels, latencies):
    """Each op's latency replaced by the median latency of the same op (same
    label, same inputs) over its repeats in the run.

    Every round repeats the same ops, so this keeps a burst of contention on
    one repeat out of the percentiles, and ops of nearly equal cost cannot
    trade places around a percentile from run to run.
    """
    by_label = {}
    for label, t in zip(labels, latencies):
        by_label.setdefault(label, []).append(t)
    typical = {label: statistics.median(ts) for label, ts in by_label.items()}
    return [typical[label] for label in labels]


def end_to_end(args, deadline):
    """Times are at reference speed (see calibrate.py): each set-up is scaled
    by the kernel timed just before and just after its process, each op by
    the kernel timed around it inside the worker and then by the median of
    its repeats."""
    import calibrate

    def scaled_setup(before, setup_s, after):
        return setup_s * 2.0 * calibrate.REFERENCE_MS / (before + after)

    worker("import", args, deadline)  # byte-compile and warm the file cache
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate.kernel_ms()
        setup_s = worker("setup", args, deadline)["setup_s"]
        setups.append(scaled_setup(before, setup_s, calibrate.kernel_ms()))
        raw_setups.append(setup_s)
    before = calibrate.kernel_ms()
    run = worker("timed", args, deadline)
    setups.append(scaled_setup(before, run["setup_s"], run["kernel_ms"][0]))
    raw_setups.append(run["setup_s"])
    lat_ms = median_of_repeats(run["labels"], [1000.0 * t for t in run["latencies"]])
    raw_ms = [1000.0 * t for t in run["raw"]]
    q = run["tail_percentile"]
    tail = percentile(lat_ms, q)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat_ms) / sum(lat_ms) * 1000.0, "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    fail_ratio = run["failed"] / run["attempted"]
    print(f"workload {args.workload}, seed {args.seed}: {run['attempted']} ops "
          f"({len(set(run['labels']))} distinct) in {run['rounds']} rounds, "
          f"{run['busy_s']:.2f} s of op time")
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:12.6g} {unit}")
    print(f"  {'fail_ratio':12s} {fail_ratio:12.6g} (failed / attempted)  {run['failures']}")
    beyond = sum(v > tail for v in lat_ms)
    print(f"  op_ms_tail is p{q:g}: {beyond} of {len(lat_ms)} ops lie beyond it")
    kernel = sorted(run["kernel_ms"])
    print(f"  times are at reference speed; the kernel took {kernel[0]:.3f}-{kernel[-1]:.3f} ms "
          f"(median {statistics.median(kernel):.3f}, reference {calibrate.REFERENCE_MS})")
    print(f"  wall time as measured: {len(raw_ms) / sum(raw_ms) * 1000.0:.6g} ops/s, p50 "
          f"{statistics.median(raw_ms):.6g} ms, p{q:g} {percentile(raw_ms, q):.6g} ms, set-up "
          f"{statistics.median(raw_setups):.6g} s")
    print(f"  setup_s is the median of {len(setups)} fresh-process set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups))
    if beyond < 10:
        print("  warning: fewer than ten ops beyond the tail percentile")
    return run, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(args, deadline):
    import spans

    worker("import", args, deadline)
    run = worker("traced", args, deadline)
    metrics = run["metrics"]
    print(f"workload {args.workload}, seed {args.seed}: traced {run['attempted']} ops, "
          f"{run['untraced_s']:.2f} s untraced, {run['traced_s']:.2f} s traced, "
          f"{metrics['trace.spans']} spans")
    for a in run["anchors"]:
        mark = "ok" if a["match"] else "MISMATCH"
        print(f"  anchor {a['anchor']} {a['count']}: expected {a['expected']}, "
              f"observed {a['observed']} {mark}")
    for name, _, _ in spans.PER_LAYER:
        print(f"  {name:52s} {metrics[name]:14.6g} {spans.UNITS[name]}")
    return run, {name: {"value": metrics[name], "unit": spans.UNITS[name]}
                 for name, _, _ in spans.PER_LAYER}


def check_declared(metrics, trace):
    """The metrics a run reports must be exactly those BENCHMARK.json names."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]}
    if declared != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "shqp", "__init__.py")):
        sys.exit("bench: no package source at src/shqp; run from a checkout of the repository")

    sys.path.insert(0, HERE)
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    try:
        run, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
        check_declared(metrics, args.trace)
    except BenchError as exc:
        sys.exit(f"bench: {exc}")
    for wrong in run["wrong"]:
        print(f"  WRONG: {wrong}")
    correct = run["wrong_count"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
