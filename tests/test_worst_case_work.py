"""The worst-case work of one smooth-set projection, pinned by counting.

A level set or manifold curve projects a point by Newton on the
stationarity system: one start from (x, 0), and, when that answer is not
near, one restart from each boundary seed of a scan along 8 rays.  Each
start runs at most 100 iterations, and each ray of the scan at most 10
steps out and 60 bisections.  So one projection makes at most 1 + 8
Newton starts of at most 100 iterations each, and at most 1 + 8 x (10 + 60)
evaluations of f in its ray scan.  The README's "Worst-case work" table
cites these tests.
"""

import numpy as np

from shqp import gallery, sets

MAX_RAYS = 8
MAX_STARTS = 1 + MAX_RAYS
MAX_ITERATIONS = 100
MAX_SCAN_ROWS = 1 + MAX_RAYS * (10 + 60)


class _Counted:
    """fn, counting the rows it is evaluated at, one call at a time or
    through its row form, separately inside and outside the ray scan."""

    def __init__(self, fn, scanning):
        self.fn, self.scanning = fn, scanning
        self.rows_in_scan = self.rows_in_newton = 0
        if getattr(fn, "rows", None) is not None:
            self.rows = self._rows

    def _count(self, k):
        if self.scanning[0]:
            self.rows_in_scan += k
        else:
            self.rows_in_newton += k

    def __call__(self, y):
        self._count(1)
        return self.fn(y)

    def _rows(self, Y):
        self._count(len(Y))
        return self.fn.rows(Y)


def _counted_projection(oracle, x, monkeypatch):
    """project(oracle, x), with the Newton starts handed to the stationarity
    stack (rows and iteration budget of each call) and the rows at which f,
    grad and hess were evaluated, in and out of the ray scan."""
    scanning, stacks = [False], []
    scan, stack = sets._ray_scan_rows, sets._newton_stationarity_stack

    def scan_spy(f, points, max_rays=MAX_RAYS):
        assert max_rays == MAX_RAYS
        scanning[0] = True
        try:
            return scan(f, points, max_rays)
        finally:
            scanning[0] = False

    def stack_spy(f, grad, hess, X, Y0, lam0, max_iterations, tol):
        stacks.append((len(X), max_iterations))
        return stack(f, grad, hess, X, Y0, lam0, max_iterations, tol)

    monkeypatch.setattr(sets, "_ray_scan_rows", scan_spy)
    monkeypatch.setattr(sets, "_newton_stationarity_stack", stack_spy)
    f, grad, hess = (_Counted(fn, scanning) for fn in (oracle.f, oracle.grad, oracle.hess))
    counted = type(oracle)(oracle.dimension, f, grad, hess)
    result = sets.project(counted, x)
    return result, stacks, f, grad, hess


def test_one_smooth_projection_is_bounded_where_restarts_run_to_the_cap(monkeypatch):
    # (0.3, 0.5) onto x2 = x1^2: the first start converges farther than the
    # near gate allows, the scan finds 8 seeds, and 3 of the 8 restarts run
    # to the iteration cap without converging.
    curve = gallery.get_entry("two-parabolas").problem.sets[0]
    (nearest, _), stacks, f, grad, hess = _counted_projection(
        curve, np.array([0.3, 0.5]), monkeypatch
    )
    assert abs(nearest[1] - nearest[0] ** 2) <= 1e-12
    assert stacks == [(1, MAX_ITERATIONS), (MAX_RAYS, MAX_ITERATIONS)]
    assert sum(rows for rows, _ in stacks) <= MAX_STARTS
    # Every Newton iteration of every start evaluates grad and f once at
    # its iterate, and hess once unless the iterate converged; each
    # restart seed's multiplier takes one more grad.
    assert hess.rows_in_newton <= MAX_STARTS * MAX_ITERATIONS
    assert f.rows_in_newton <= MAX_STARTS * MAX_ITERATIONS
    assert grad.rows_in_newton <= MAX_STARTS * MAX_ITERATIONS + MAX_RAYS
    # Only f is evaluated in the scan: at the point, then along each ray.
    assert f.rows_in_scan <= MAX_SCAN_ROWS
    assert grad.rows_in_scan == hess.rows_in_scan == 0
    # The fixture is only a check if it comes near both bounds: three
    # starts that never converge take 100 Hessians each, and each of the 8
    # rays that found a seed bisected 60 times.
    assert hess.rows_in_newton >= 3 * MAX_ITERATIONS
    assert f.rows_in_scan >= 1 + MAX_RAYS * 60
