"""The solver engine, pinned bit for bit on every gallery run.

Every gallery problem runs every solver that applies to it (the two-set
method on two-set problems only, the global method once more with the
intersection-distance merit where the problem has an intersection oracle),
from the stock start and from two fixed offset starts.  One sha256 covers,
per trace, ``status``, ``copy_steps`` and ``oracle_failure``, and per
record the step kind, the outer and inner indices, the bytes of the point
and of the distances, ``qp_active_size`` and ``qp_kkt_residual.hex()``; a
run that raises contributes its exception's type and message.

The digest was recorded before the engine's fixed-cost work, on x86-64
with numpy 2.4 and its bundled OpenBLAS.  A BLAS that sums in another order
moves it, as it moves the QP and report pins.
"""

import hashlib

import numpy as np

from shqp import gallery, solvers

DIGEST = "d5a573c68d5212845db74a4f58818bc0620c40ea4ca338006d32a4460260f275"

# Offsets added to each problem's stock start, cycled over its coordinates.
OFFSETS = ((0.25, -0.5, 0.125), (-0.75, 0.375, 0.5))


def _starts(problem):
    n = problem.dimension
    yield problem.start
    for offset in OFFSETS:
        yield problem.start + np.resize(np.array(offset), n)


def _runs():
    for name in gallery.gallery_names():
        problem = gallery.get_entry(name).problem
        for alg, runner in solvers.SOLVERS.items():
            if alg != "two-shqp" or len(problem.sets) == 2:
                yield f"{name}/{alg}", problem, runner
        if problem.intersection_oracle is not None:
            yield (
                f"{name}/global/intersection-distance",
                problem,
                lambda p, x0: solvers.run_global(p, x0, merit="intersection-distance"),
            )


def _trace_bytes(run):
    try:
        trace = run()
    except Exception as exc:
        return repr((type(exc).__name__, str(exc)))
    rows = [
        (r.step_kind, r.outer_iteration, r.inner_step, r.point.tobytes(),
         r.distances.tobytes(), r.qp_active_size, float(r.qp_kkt_residual).hex())
        for r in trace.records
    ]
    return repr((trace.status, trace.copy_steps, trace.oracle_failure, rows))


def test_every_gallery_trace_is_bit_identical():
    digest = hashlib.sha256()
    count = 0
    for label, problem, runner in _runs():
        for k, x0 in enumerate(_starts(problem)):
            digest.update(f"{label}@{k}".encode())
            digest.update(_trace_bytes(lambda: runner(problem, x0)).encode())
            count += 1
    assert count == 3 * 94
    assert digest.hexdigest() == DIGEST


# run_basic_shqp with Schedule.cyclic(m, "fixed"), the schedule of run_map
# with its own tau: each step on one set moves to that set's cut target
# without a QP, so no Halfspace of it is read.  Recorded with the digest
# above's conventions while every such step still built its cut.
FIXED_CYCLIC_DIGEST = "1bf13615032afefe44f3bb047e5cf824536eeb6136cbe53cc01b5c7539318929"


def test_every_fixed_cyclic_trace_is_bit_identical():
    digest = hashlib.sha256()
    count = 0
    for name in gallery.gallery_names():
        problem = gallery.get_entry(name).problem
        schedule = solvers.Schedule.cyclic(len(problem.sets), "fixed")
        for k, x0 in enumerate(_starts(problem)):
            digest.update(f"{name}@{k}".encode())
            run = lambda: solvers.run_basic_shqp(problem, x0, schedule=schedule)
            digest.update(_trace_bytes(run).encode())
            count += 1
    assert count == 3 * 12
    assert digest.hexdigest() == FIXED_CYCLIC_DIGEST
