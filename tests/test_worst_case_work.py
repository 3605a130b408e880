"""The worst-case work of one smooth-set projection, of one intersection
batch, of one polyhedral batch and of the beta probe's proxy runs, pinned
by counting.

A level set or manifold curve projects a point by Newton on the
stationarity system: one start from (x, 0), and, when that answer is not
near, one restart from each boundary seed of a scan along 8 rays.  Each
start runs at most 100 iterations, and each ray of the scan at most 10
steps out and 60 bisections.  So one projection makes at most 1 + 8
Newton starts of at most 100 iterations each, and at most 1 + 8 x (10 + 60)
evaluations of f in its ray scan.  An intersection batch makes at most
INTERSECTION_SWEEPS sweeps of member projections.  A polyhedral batch on m
rows in R^d makes at most min(m, d) + 1 lockstep scans, and one
single-point QP per row only when the stack declines.  Without an
intersection oracle, the beta probe makes one mass-projection run of at
most 300 outer iterations per probe outside some set.  The README's
"Worst-case work" table cites these tests.
"""

import numpy as np
import pytest

from shqp import diagnostics, gallery, polyhedra, sets, solvers
from shqp.polyhedra import Halfspace

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


def test_one_intersection_batch_makes_at_most_the_sweep_cap(monkeypatch):
    """One IntersectionSet batch makes at most INTERSECTION_SWEEPS sweeps,
    each one _project_rows call per member over the rows still running.
    Two lines 1e-3 rad apart meet at the origin so slowly that 7 sweeps
    leave the far rows short of membership; the origin row ends after its
    first sweep."""
    monkeypatch.setattr(sets, "INTERSECTION_SWEEPS", 7)
    members = [
        sets.HyperplaneSet((0.0, 1.0), 0.0),
        sets.HyperplaneSet((-np.sin(1e-3), np.cos(1e-3)), 0.0),
    ]
    calls = [0] * len(members)
    for k, mem in enumerate(members):
        rows = mem._project_rows

        def counted(points, k=k, rows=rows):
            calls[k] += 1
            return rows(points)

        monkeypatch.setattr(mem, "_project_rows", counted)
    batch = [np.array([1.0, 1.0]), np.array([5.0, -2.0]), np.zeros(2)]
    far_a, far_b, origin = sets.IntersectionSet(members)._project_rows(batch)
    assert calls == [7, 7]
    assert isinstance(far_a, sets.ProjectionNotConvergedError)
    assert isinstance(far_b, sets.ProjectionNotConvergedError)
    nearest, distance = origin
    assert nearest.tolist() == [0.0, 0.0] and distance == 0.0


def _counted_batch(monkeypatch, halfspaces, batch):
    """The PolyhedralSet batch's outcomes, its lockstep scans and its
    single-point QPs."""
    scans, singles = [0], [0]
    scan, single = polyhedra._most_violated_rows, polyhedra._nearest_point

    def scan_spy(*args):
        scans[0] += 1
        return scan(*args)

    def single_spy(*args):
        singles[0] += 1
        return single(*args)

    monkeypatch.setattr(polyhedra, "_most_violated_rows", scan_spy)
    monkeypatch.setattr(polyhedra, "_nearest_point", single_spy)
    outs = sets.PolyhedralSet(halfspaces)._project_rows(batch)
    return outs, scans[0], singles[0]


def test_one_polyhedral_batch_makes_at_most_its_scans(monkeypatch):
    """On the orthant x, y, z <= 0 (m = d = 3), points that take 0, 1, 2
    and 3 steps run the whole stack: min(m, d) + 1 = 4 scans and no
    single-point QP.  On three rows in R^3 where (0, -4, -2) takes a
    partial step, the stack declines at its third scan, and each of the 3
    rows takes one single-point QP."""
    orthant = [Halfspace(np.eye(3)[i], 0.0) for i in range(3)]
    batch = [np.array(v) for v in ([-1.0, -2.0, -3.0], [1.0, -2.0, -3.0], [1.0, 2.0, -3.0], [1.0, 2.0, 3.0])]
    outs, scans, singles = _counted_batch(monkeypatch, orthant, batch)
    assert (scans, singles) == (4, 0)
    assert [y.tolist() for y, _ in outs] == [[-1.0, -2.0, -3.0], [0.0, -2.0, -3.0], [0.0, 0.0, -3.0], [0.0, 0.0, 0.0]]
    rows = [Halfspace((2.0, -2.0, 2.0), -1.0), Halfspace((0.0, 0.0, 2.0), -2.0), Halfspace((0.0, -1.0, -2.0), 0.0)]
    batch = [np.array(v) for v in ([0.0, -4.0, -2.0], [0.0, 1.0, -2.0], [3.0, 1.0, -4.0])]
    outs, scans, singles = _counted_batch(monkeypatch, rows, batch)
    assert scans == 3
    assert singles == len(batch)
    assert all(not isinstance(out, Exception) for out in outs)


class _ProxyRuns:
    """solvers.run_mass_projection, recording each run's status, outer
    iterations and iteration cap."""

    def __init__(self):
        self.runs, self.run = [], solvers.run_mass_projection

    def __call__(self, problem, x0=None, config=None):
        trace = self.run(problem, x0, config)
        outer = 1 + max((r.outer_iteration for r in trace.records if r.step_kind != "start"), default=-1)
        self.runs.append((trace.status, outer, config.max_outer_iterations))
        return trace


def _proxy_problem(name, members):
    return solvers.ProblemInstance(name, members, np.zeros(2), known_solution=np.zeros(2))


def test_the_beta_probe_runs_one_capped_proxy_per_outside_probe(monkeypatch):
    """Without an intersection oracle, each probe outside some set gets one
    run_mass_projection with a 300-iteration cap.  A sphere tangent to a
    line converges in a few iterations per probe.  Two point sets that
    share only the origin trap the first proxy run: it spends all 300
    iterations, and the probe ends in NoDistanceOracleError."""
    proxy, outside = _ProxyRuns(), []
    distances = diagnostics._intersection_distances

    def distances_spy(problem, points):
        outside.append(len(points))
        return distances(problem, points)

    monkeypatch.setattr(solvers, "run_mass_projection", proxy)
    monkeypatch.setattr(diagnostics, "_intersection_distances", distances_spy)
    tangent = _proxy_problem("tangent", [sets.Sphere((0.0, 1.0), 1.0), sets.HyperplaneSet((0.0, 1.0), 0.0)])
    diagnostics._beta_probe(tangent, np.zeros(2), 0)
    assert len(proxy.runs) == outside[0] > 0
    assert all(status == "converged" and outer <= cap == 300 for status, outer, cap in proxy.runs)
    assert max(outer for _, outer, _ in proxy.runs) > 1
    proxy.runs.clear()
    points = _proxy_problem("points", [sets.PointSet([(0.0, 0.0), (2.0, 0.0)]), sets.PointSet([(0.0, 0.0), (2.0, 0.1)])])
    with pytest.raises(diagnostics.NoDistanceOracleError, match="max-iterations"):
        diagnostics._beta_probe(points, np.zeros(2), 0, radii=(0.5, 2.0))
    assert proxy.runs == [("max-iterations", 300, 300)]
