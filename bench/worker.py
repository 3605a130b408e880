"""One benchmark process: set up a workload, run it, print one JSON line.

Modes:
  import  -- import the package and exit (byte-compiles, warms file caches)
  setup   -- time the set-up only
  timed   -- untraced, closed loop: whole rounds of ops until --seconds of
             op time have passed, every op checked right after it returns
  traced  -- a fixed op list run untraced, then again under the span
             recorder; reports per-layer numbers and compares every result

Run by run.py, which starts a fresh interpreter for each mode.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(op):
    t = time.perf_counter()
    try:
        out, err = op.fn(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, out, err


class Tally:
    """Failed ops by reason, plus the descriptions of wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}
        self.wrong = []

    def add(self, failure, wrong):
        self.attempted += 1
        if failure is not None:
            reason = failure.split(":")[0]
            self.failures[reason] = self.failures.get(reason, 0) + 1
        if wrong is not None:
            self.wrong.append(wrong)

    def result(self):
        return {
            "attempted": self.attempted,
            "failed": sum(self.failures.values()),
            "failures": self.failures,
            "wrong": self.wrong[:20],
            "wrong_count": len(self.wrong),
        }


def _settle():
    """Collect garbage and exempt everything alive now from later
    collections, so the collector's work during ops is the ops' own."""
    gc.collect()
    gc.freeze()


def run_timed(wl, seconds, calibrate):
    _settle()
    tally = Tally()
    clock = calibrate.Clock(_run)
    labels = []
    busy = 0.0
    k = 0
    while busy < seconds:
        for op in wl.round(k):
            dt, out, err = clock.time(op)
            labels.append(op.label)
            busy += dt
            tally.add(*wl.check(op, out, err))
            wl.discard(op)
            clock.tick()
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = tally.result()
    result.update(labels=labels, latencies=clock.scaled(), raw=clock.raw, kernel_ms=clock.kernel,
                  busy_s=busy, rounds=k, peak_rss_mb=rss_mb)
    return result


def run_traced(wl, recorder, shqp, spans, calibrate):
    ops = [op for k in range(wl.traced_rounds) for op in wl.round(k, "u")]
    traced_ops = [op for k in range(wl.traced_rounds) for op in wl.round(k, "t")]
    tally = Tally()
    _settle()
    clock = calibrate.Clock(_run)
    prints = []
    for op in ops:
        dt, out, err = clock.time(op)
        prints.append(wl.fingerprint(op, out, err))
        tally.add(*wl.check(op, out, err))
        wl.discard(op)
        clock.tick()
    untraced = sum(clock.scaled())
    untraced_raw = sum(clock.raw)

    _settle()
    clock = calibrate.Clock(_run)
    recorder.install(shqp)
    mismatches = []
    for i, op in enumerate(traced_ops):
        recorder.current_op = i
        dt, out, err = clock.time(op)
        if wl.fingerprint(op, out, err) != prints[i]:
            mismatches.append(op.label)
        recorder.current_op = -1
        clock.tick()
    recorder.uninstall()
    traced = sum(clock.scaled())
    traced_raw = sum(clock.raw)

    extras = wl.traced_extras(traced_ops, untraced_raw)
    anchors = check_anchors(wl, recorder, traced_ops, shqp, spans)
    extras["trace.anchor_mismatches"] = sum(not a["match"] for a in anchors)
    for op in traced_ops:
        wl.discard(op)
    extras["trace.overhead_ratio"] = traced / untraced
    metrics = spans.layer_metrics(recorder, len(traced_ops), traced_raw, extras)
    result = tally.result()
    for label in mismatches:
        result["wrong"].append(f"{label}: traced result differs from the untraced one")
    result["wrong_count"] += len(mismatches)
    result.update(metrics=metrics, anchors=anchors, traced_s=traced, untraced_s=untraced)
    return result


def check_anchors(wl, recorder, ops, shqp, spans):
    """Counts measured when the benchmark was defined, recomputed here as a
    check that the hooks see every call.  A later change to the program may
    move them; a mismatch is reported, not failed."""
    found = []
    if wl.name == "qp-corpus":
        rec = recorder
        n = len(ops)
        if wl.seed != 0:
            rec = spans.Recorder()
            wl.problems, wl.polys = wl.corpus(0)
            anchor_ops = [op for k in range(wl.traced_rounds) for op in wl.round(k)]
            rec.install(shqp)
            for i, op in enumerate(anchor_ops):
                rec.current_op = i
                _run(op)
            rec.uninstall()
            n = len(anchor_ops)
        for label, expected in wl.anchors.items():
            for name, want in expected.items():
                if name.endswith(".infeasible"):
                    got = int(spans.op_infeasible(rec, n).sum())
                else:
                    got = int(spans.op_counts(rec, name, n).sum())
                found.append({"anchor": label, "count": name, "expected": want,
                              "observed": got, "match": got == want})
        return found
    index = {op.label: i for i, op in reversed(list(enumerate(ops)))}
    for label, expected in wl.anchors.items():
        for name, want in expected.items():
            got = int(spans.op_counts(recorder, name, len(ops))[index[label]])
            found.append({"anchor": label, "count": name, "expected": want,
                          "observed": got, "match": got == want})
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["import", "setup", "timed", "traced"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import shqp
    import shqp.cli

    if args.mode == "import":
        print(json.dumps({"version": shqp.__version__}))
        return

    import calibrate
    import spans
    import workloads

    recorder = spans.Recorder() if args.mode == "traced" else None
    if recorder is not None:
        recorder.install(shqp)  # set-up is traced too: gallery builds count
    wl = workloads.WORKLOADS[args.workload](args.seed, shqp, args.workdir)
    setup_s = time.perf_counter() - t0
    if recorder is not None:
        recorder.uninstall()

    try:
        if args.mode == "setup":
            result = {}
        elif args.mode == "timed":
            result = run_timed(wl, args.seconds, calibrate)
        else:
            result = run_traced(wl, recorder, shqp, spans, calibrate)
            recorder.write(args.workdir + "-spans.npz")
    finally:
        wl.close()
    result["setup_s"] = setup_s
    result["tail_percentile"] = wl.tail_percentile
    print(json.dumps(result))


if __name__ == "__main__":
    main()
