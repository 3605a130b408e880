"""Print one digest per benchmark op, to check that a change keeps every output.

    python3 tools/fingerprints.py --workload cli-report --seed 0 --root <checkout> > after.txt

The ops and their digests come from `bench/workloads.py` of the checkout
at --root (default: this one), run against that checkout's `src/`: the
same op list the traced benchmark runs (one round of gallery-solve or
cli-report, the whole 10,000-problem qp-corpus), in the seed's order.  Each
line is `<op label>\t<digest>`; the digest covers everything the workload's
fingerprint covers (trace records, QP results, CLI output files without
wall-clock fields).  Two checkouts compute the same outputs when

    diff <(python3 tools/fingerprints.py --workload gallery-solve --seed 0 --root old) \\
         <(python3 tools/fingerprints.py --workload gallery-solve --seed 0 --root new)

prints nothing.  The checkout is only read: no bytecode is written into
it, and the CLI workload writes into a temporary directory.
"""

import argparse
import os
import shutil
import sys
import tempfile

WORKLOADS = ("gallery-solve", "cli-report", "qp-corpus")


def fingerprints(workload, seed, root):
    """Yield (label, digest) for every op of ``workload`` at ``seed``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import shqp
    import shqp.cli
    import workloads

    if not shqp.__file__.startswith(os.path.join(root, "src", "")):
        raise RuntimeError(f"imported shqp from {shqp.__file__}, not from {root}/src")
    workdir = tempfile.mkdtemp(prefix="shqp-fingerprints-")
    try:
        wl = workloads.WORKLOADS[workload](seed, shqp, os.path.join(workdir, "ops"))
        try:
            for k in range(wl.traced_rounds):
                for op in wl.round(k):
                    try:
                        out, err = op.fn(), None
                    except Exception as exc:  # a failed op has a digest too
                        out, err = None, f"{type(exc).__name__}: {exc}"
                    yield op.label, wl.fingerprint(op, out, err)
                    wl.discard(op)
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="checkout whose src/ and bench/ are run (default: this one)",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "bench", "workloads.py")):
        parser.error(f"{root} has no bench/workloads.py")
    count = 0
    for label, digest in fingerprints(args.workload, args.seed, root):
        print(f"{label}\t{digest}", flush=True)
        count += 1
    print(f"{count} ops of {args.workload} at seed {args.seed} from {root}", file=sys.stderr)


if __name__ == "__main__":
    main()
