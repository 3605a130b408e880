"""Projection oracles for closed sets, plus samplers for set regularity.

Every set is represented by a :class:`SetOracle` that can project an ambient
point and report a membership residual.  Convexity and manifold structure are
carried as flags: manifold oracles admit both signs of a normal, and convex
oracles admit tight supporting halfspaces.

Set-valued projections are resolved deterministically: when several nearest
points exist, the lexicographically smallest one is returned.

The regularity report projects its draws as batches, through
``SetOracle._project_rows(points)``, and so does the intersection's
refinement onto its members; the solvers never call it.  Its entries are bit
for bit what :func:`project` returns on each point, or the exception it
raises there, and no nearest point shares memory with another entry or with
an input.  There is one such method, on the base class.

Every stacked path follows one rule: it answers only when it answers for
the whole stack, and otherwise each row goes to its one-point reference.
At the batch boundary the reference is project.  A clean batch, one that
stacks as a finite 2-d array as wide as the set, is checked once as a whole
(_clean_stack); the stack goes to the set's ``_nearest_rows`` hook, and the
distances of all the rows it answers are one stacked row dot, the bits of
_norm (_stacked_outcomes).  All of it runs under one watch (_watch).  A
batch that is not clean, whose stacked path raises, or that signals a
floating point error the caller's error state does not ignore, is project
on each point instead, under the caller's state.  The samplers' ball filter
(_keep_draws) uses the same watch.  The hook answers for each row on its
own, with _project or the exception it raises there, except on four kinds.
The polyhedral set (``PolyhedralSet``) runs the QP's dual active set on
the whole stack in lockstep (polyhedra._nearest_points), each row with the
arithmetic of its one-point kernel, _project (polyhedra._nearest_point),
which the solvers' single points still take.  The stack declines, and each
row goes to _project, on a polyhedron with a parallel row pair or an
equality row, and when a step would be partial or its direction depends
on the active rows, or the step count would reach the QP's bound.
The fixed-rank set (``FixedRankSet``) takes one np.linalg.svd over the
stack of matrices, which runs gesdd once per matrix, and truncates the
stack of factors with products that round as the single ones do, the bits
of _project on each row; the solvers' single points still take _project.
On the other two, _project is the hook's one-row case (_one_row).  The
level set and manifold curve (``_SmoothSet``) make the interior test, then
run the Newton starts of the points left as stacks
(``_newton_stationarity_stack``), whose one-point reference is the scalar
kernel ``_newton_stationarity``.  Which points restart is one test
(``_far_rows``, on stacked row dots from 10 points up), and most batches
end there, with no point to restart; the ray scans of the points that do
restart run as one lockstep scan (``_ray_scan_rows``), in which a ray
whose f raises stops on its own.  The intersection
(``IntersectionSet``) refines its rows in lockstep, with one member
``_project_rows`` call per sweep.
Every evaluation of f, grad or hess over several points goes through
``_rows_of``: the callable's row form ``.rows``, looked up at each call,
where it has one (the polynomial sets of the gallery supply them) and it
does not raise, and otherwise the callable row by row, each row keeping its
own exception.

The samplers behind the report (``_ball_draws``, ``_super_regular_worst``
with ``_pair_ratios``, ``_sosh_worst``) make a few numpy calls over all of
their draws, with the bits a loop over the draws would give.  Only the
generator is called draw by draw.  The draws stay stacked from the generator
to the reductions (``_Draws``), which read a list of (w, y, gap) tuples the
same way.  ``_ball_draws`` is three steps, drawing (``_draw_ball``), one
batch projection and keeping (``_keep_draws``), so that the regularity
estimate can project all of a set's draw batches as one.  On a manifold
the ratio reduction takes both signs of a draw's normal from one
difference tensor.  Every norm and dot product of a draw is a stacked row
dot (``_row_dots``): a matmul of 1 x n by n x 1 rows, which calls BLAS
ddot on each row as ``a.dot(b)`` and ``_norm`` do.  einsum and sums of
elementwise products are not used, because ddot fuses multiply-adds and
they do not, so they differ from it in the last bit on most rows.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Sequence

import numpy as np

from . import polyhedra
from .polyhedra import _row_dots

__all__ = [
    "SetOracle",
    "HalfspaceSet",
    "HyperplaneSet",
    "AffineSubspace",
    "Ball",
    "Box",
    "Sphere",
    "LevelSet",
    "ManifoldCurve",
    "FixedRankSet",
    "PointSet",
    "UnionOfConvex",
    "PolyhedralSet",
    "IntersectionSet",
    "project",
    "check_super_regular",
    "check_sosh",
    "DimensionMismatchError",
    "ProjectionNotConvergedError",
    "InsufficientSamplesError",
]

# Membership tolerances: sets with closed-form projections are held to the
# tighter one, sets projected by an inner iteration to the looser one.
MEMBERSHIP_TOL_ANALYTIC = 1e-10
MEMBERSHIP_TOL_ITERATIVE = 1e-8


class DimensionMismatchError(ValueError):
    """Point dimension does not match the oracle's ambient dimension."""


class ProjectionNotConvergedError(RuntimeError):
    """An iterative projection failed to reach its residual tolerance.

    Carries the last iterate so callers can inspect how far it got.
    """

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate


class InsufficientSamplesError(RuntimeError):
    """A sampler could not collect enough admissible samples."""


def _as_point(x, dimension: int | None = None) -> np.ndarray:
    """x as a C-contiguous 1-d float array, so that no oracle's result
    depends on the memory layout of the caller's point: a BLAS dot over a
    strided view can round differently from the same values contiguous."""
    p = np.ascontiguousarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {p.shape}")
    # The decisions of np.isfinite(p).all(), without its dispatch.
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError("point has non-finite entries")
    if dimension is not None and p.shape[0] != dimension:
        raise DimensionMismatchError(
            f"point has dimension {p.shape[0]}, oracle expects {dimension}"
        )
    return p


def _rows(rows, owner: str, row: str, width: int | None = None) -> np.ndarray:
    """rows as a (k, width) float array, k >= 1, width by default the first
    row's length; a row that is not a vector of that length is named."""
    R = [np.asarray(r, dtype=float) for r in rows]
    if not R:
        raise ValueError(f"{owner} needs at least one {row}")
    width = R[0].size if width is None else width
    for i, r in enumerate(R):
        if r.shape != (width,):
            raise DimensionMismatchError(f"{owner} {row} {i} has shape {r.shape}, expected ({width},)")
    return np.array(R)


def _integer(value, name: str) -> int:
    """value as an int: an integral float such as 3.0 counts, a bool does not."""
    whole = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) for a contiguous 1-d float array, bit for bit,
    without its dispatch.  A strided view can sum in another order; every
    point an oracle sees is contiguous (_as_point, or a row of a batch's
    C-contiguous stack), and so is every array computed from them."""
    return math.sqrt(v.dot(v))


def _unit(v) -> np.ndarray | None:
    """v / ||v||, or None when ||v|| <= 1e-14."""
    nv = np.linalg.norm(v)
    return None if nv <= 1e-14 else v / nv


def _outcome(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _clean_stack(points, dimension: int) -> np.ndarray | None:
    """points stacked as a (k, dimension) float array if they stack so and
    every entry is finite, each row with the values _as_point gives its
    point; None otherwise (a ragged batch, an empty list, a point of another
    shape or width, a NaN or an infinity)."""
    try:
        P = np.array(points, dtype=float)
    except Exception:  # each point goes to project, with its own error
        return None
    if P.ndim == 2 and P.shape[1] == dimension and np.isfinite(P).all():
        return P
    return None


def _nearest(candidates: Sequence[np.ndarray], dists) -> np.ndarray:
    """A copy of the candidate at the least distance, given each one's
    distance: candidates within 1e-12 of it tie, and the lexicographically
    smallest of those wins (the first of equal ones)."""
    dmin = min(dists)
    ties = [c for c, d in zip(candidates, dists) if d <= dmin + 1e-12]
    return min(ties, key=tuple).copy()


class SetOracle:
    """Base class: a closed set with a projection and a membership residual."""

    kind = "abstract"
    is_convex = False
    is_manifold = False
    membership_tol = MEMBERSHIP_TOL_ANALYTIC

    def __init__(self, dimension: int):
        self.dimension = int(dimension)

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _nearest_rows(self, X) -> list:
        """The nearest point to each checked point (row) of X, or the
        exception that _project raises there; by default _project row by
        row."""
        out = []
        for x in X:
            try:
                out.append(self._project(x))
            except Exception as exc:
                out.append(exc)
        return out

    def _project_rows(self, points) -> list:
        """project(self, x) for each x in points, in order, bit for bit: an
        entry is project's ``(nearest, distance)``, or the exception that
        project raises on that point, and no nearest point shares memory
        with another entry or with an input.  The regularity report's batch
        projection (the module docstring has the contract).

        A clean batch is checked as a whole (_clean_stack) and goes to
        _stacked_outcomes as one stack, under one _watch.  That answer
        stands only for the whole batch: if the batch is not clean, or the
        stacked path raises or signals, the entries are project's on each
        point, under the caller's error state."""
        points = points if isinstance(points, (list, np.ndarray)) else list(points)
        with _watch() as signalled:
            P = _clean_stack(points, self.dimension)
            out = None if P is None else _outcome(_stacked_outcomes, self, P)
        if isinstance(out, list) and not signalled:
            return out
        return [_outcome(project, self, x) for x in points]

    def membership_residual(self, x) -> float:
        """How far x is from satisfying the set's defining conditions."""
        return self._residual(_as_point(x, self.dimension))

    def _residual(self, p: np.ndarray) -> float:
        """membership_residual of a checked point; by default the distance
        from p to its projection."""
        return float(np.linalg.norm(p - self._project(p)))

    def analytic_normal(self, x: np.ndarray) -> np.ndarray | None:
        """Unit normal at a boundary point, when a closed form exists."""
        return None

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} kind={self.kind} n={self.dimension}>"


class _LinearSet(SetOracle):
    """Base of HalfspaceSet and HyperplaneSet: the row <a, x> <= b (= b on a
    hyperplane), a != 0, kept as a polyhedra.Halfspace whose violation is
    the membership residual (normal and offset are the row's own), the
    unit normal a / ||a||, and one projection formula, which leaves a
    halfspace's members where they are."""

    is_convex = True

    def __init__(self, normal, offset: float):
        a = _as_point(normal)
        if np.linalg.norm(a) <= 1e-14:
            raise ValueError(f"{self.kind} normal must be nonzero")
        if not math.isfinite(offset):
            raise ValueError(f"{self.kind} offset must be finite")
        super().__init__(a.shape[0])
        self.row = polyhedra.Halfspace(a, offset, "equality" if self.is_manifold else "inequality")
        self.normal, self.offset = self.row.normal, self.row.offset

    def analytic_normal(self, x):
        return _unit(self.normal)

    def _residual(self, p):
        return self.row.violation(p)

    def _project(self, x):
        s = (self.normal @ x - self.offset) / (self.normal @ self.normal)
        if s <= 0.0 and not self.is_manifold:
            return x.copy()
        return x - s * self.normal


class HalfspaceSet(_LinearSet):
    """{x : <a, x> <= b}."""

    kind = "halfspace"


class HyperplaneSet(_LinearSet):
    """{x : <a, x> = b}; a manifold, and convex."""

    kind = "hyperplane"
    is_manifold = True


class AffineSubspace(SetOracle):
    """point + span(basis rows); a convex manifold of any dimension."""

    kind = "affine-subspace"
    is_convex = True
    is_manifold = True

    def __init__(self, point, basis):
        q = _as_point(point)
        B = _rows(basis, "affine-subspace", "basis row", q.shape[0])
        if not np.isfinite(B).all():
            raise ValueError("affine-subspace basis entries must be finite")
        # Orthonormalize once; zero rows are rejected rather than dropped.
        Q, R = np.linalg.qr(B.T)
        if not (np.isfinite(Q).all() and np.isfinite(R).all()):
            # Huge rows overflow the QR; each row over its largest magnitude
            # spans the same subspace.
            scale = np.abs(B).max(axis=1, keepdims=True)
            Q, R = np.linalg.qr((B / np.where(scale > 0, scale, 1.0)).T)
        rank = int(np.sum(np.abs(np.diag(R)) > 1e-12))
        if rank < B.shape[0]:
            raise ValueError("affine-subspace basis rows are linearly dependent")
        super().__init__(q.shape[0])
        self.point = q
        self.basis = Q[:, :rank].T  # orthonormal rows

    def _project(self, x):
        d = x - self.point
        return self.point + self.basis.T @ (self.basis @ d)

    def analytic_normal(self, x):
        # Only a hyperplane-like subspace has a well-defined normal line.
        if self.dimension - self.basis.shape[0] != 1:
            return None
        u = np.eye(self.dimension) - self.basis.T @ self.basis
        # Any nonzero column of the complement projector spans the normal.
        col = u[:, int(np.argmax(np.linalg.norm(u, axis=0)))]
        return col / np.linalg.norm(col)


class _RoundSet(SetOracle):
    """Base of Ball and Sphere: a center c and a positive radius r."""

    def __init__(self, center, radius: float):
        c = _as_point(center)
        if not math.isfinite(radius):
            raise ValueError(f"{self.kind} radius must be finite")
        if radius <= 0:
            raise ValueError(f"{self.kind} radius must be positive")
        super().__init__(c.shape[0])
        self.center = c
        self.radius = float(radius)

    def _radial(self, x, v, nv):
        """The point at the radius from the center toward x, given v = x - c
        and its norm nv > 0.  Where nv overflows, the direction comes from v
        over its largest magnitude, taken from the halves of x and c so that
        v itself cannot overflow: halving is exact, so this is v's direction
        whenever v is finite."""
        if nv == math.inf:
            v = 0.5 * x - 0.5 * self.center
            v = v / np.abs(v).max()
            nv = _norm(v)
        return self.center + (self.radius / nv) * v


class Ball(_RoundSet):
    """Closed Euclidean ball {x : ||x - c|| <= r}."""

    kind = "ball"
    is_convex = True

    def _project(self, x):
        v = x - self.center
        nv = _norm(v)
        if nv <= self.radius:
            return x.copy()
        return self._radial(x, v, nv)

    def _residual(self, p):
        return max(0.0, np.linalg.norm(p - self.center) - self.radius)


class Box(SetOracle):
    """Axis-aligned box {x : lower <= x <= upper}."""

    kind = "box"
    is_convex = True

    def __init__(self, lower, upper):
        lo, hi = _as_point(lower), _as_point(upper)
        if hi.shape != lo.shape:
            raise DimensionMismatchError(f"box bounds have dimensions {lo.shape[0]} and {hi.shape[0]}")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        super().__init__(lo.shape[0])
        self.lower = lo
        self.upper = hi

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)


class Sphere(_RoundSet):
    """{x : ||x - c|| = r}; nonconvex manifold.

    Projecting the center is set-valued; the lexicographically smallest
    sphere point, c - r*e1, is returned.
    """

    kind = "sphere"
    is_manifold = True

    def _project(self, x):
        v = x - self.center
        nv = _norm(v)
        if nv <= 1e-14:
            out = self.center.copy()
            out[0] -= self.radius
            return out
        return self._radial(x, v, nv)

    def _residual(self, p):
        return abs(np.linalg.norm(p - self.center) - self.radius)

    def analytic_normal(self, x):
        return _unit(x - self.center)


# The Newton projection's iteration budget and residual tolerance.
_NEWTON_ITERATIONS = 100
_NEWTON_TOL = 1e-12


def _newton_step(J, residual):
    """The Newton step of a bordered system: np.linalg.solve, or its
    least-squares solution when J is singular."""
    try:
        return np.linalg.solve(J, -residual)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(J, -residual, rcond=None)[0]


def _newton_stationarity(f, grad, hess, x, y0, lam0, max_iterations, tol):
    """Newton on y - x + lam * grad f(y) = 0, f(y) = 0 from (y0, lam0).

    Returns the solution or None when the iteration fails to reach ``tol``,
    which it stops trying as soon as the residual is non-finite: NaN and inf
    never pass the test, and a non-finite step keeps y and lam non-finite.
    """
    n = x.shape[0]
    y = np.asarray(y0, dtype=float).copy()
    lam = float(lam0)
    # Cap wild steps; keeps the iteration from overshooting on the first
    # few corrections without changing the local quadratic phase.  x is an
    # oracle's point, so contiguous, and _norm is np.linalg.norm.
    cap = 10.0 * (1.0 + _norm(x))
    eye = np.eye(n)
    # The bordered Jacobian [[I + lam H, g], [g^T, 0]] and the residual are
    # rewritten in place; J[n, n] stays 0.
    J = np.zeros((n + 1, n + 1))
    JH = J[:n, :n]
    residual = np.empty(n + 1)
    for _ in range(max_iterations):
        g = grad(y)
        residual[:n] = y - x + lam * g
        residual[n] = f(y)
        # Not max(|r|) <= tol through numpy's dispatch, and not a bare
        # max(): a NaN entry must still mean "not converged".
        r = residual.tolist()
        if all(abs(v) <= tol for v in r):
            return y
        if not all(map(math.isfinite, r)):
            return None
        # eye + lam * H, entry for entry: the same products and sums.
        np.multiply(hess(y), lam, out=JH)
        JH += eye
        J[:n, n] = g
        J[n, :n] = g
        step = _newton_step(J, residual)
        ns = _norm(step)
        if ns > cap:
            step *= cap / ns
        y = y + step[:n]
        lam = lam + step[n]
    return None


def _rows_of(fn, Y, shape=()) -> tuple:
    """fn at each row of Y (a 2-d array, or a list of 1-d arrays), stacked
    as a (len(Y),) + shape array, and a dict of the rows where fn raised,
    each with its own exception.

    Two or more rows take fn's row form, ``fn.rows(Y)`` (the scalar values
    at the rows of Y, stacked, bit for bit), where fn has one and it does
    not raise; it is looked up on the callable at each call, so a callable
    replaced on a set is used as given.  Otherwise, and on one row, fn is
    called on each row."""
    rows = getattr(fn, "rows", None)
    if rows is not None and len(Y) > 1:
        try:
            return rows(np.asarray(Y)), {}
        except Exception:
            pass
    V, raised = np.zeros((len(Y),) + shape), {}
    for j, y in enumerate(Y):
        try:
            V[j] = fn(y)
        except Exception as exc:
            raised[j] = exc
    return V, raised


def _unraised(m: int, raised) -> np.ndarray:
    """A mask of the m rows whose index is not a key of raised."""
    ok = np.ones(m, dtype=bool)
    ok[list(raised)] = False
    return ok


def _newton_stationarity_stack(f, grad, hess, X, Y0, lam0, max_iterations, tol) -> list:
    """_newton_stationarity on k starts: row i runs toward X[i] from
    (Y0[i], lam0[i]).  Entry i of the result is what the scalar kernel
    returns on row i alone, bit for bit: the solution, None, or the
    exception it raises.

    Two or more rows run in lockstep (_newton_lockstep), which answers only
    for the whole stack.  Where it does not (f, grad or hess raised on a
    row, or a bordered system of the stack is singular), and on fewer than
    two rows, every row runs the scalar kernel, its one-point reference.
    The scalar kernel is faster on one row, where the stack's fixed cost
    per call is not shared: the solvers' starts have one row, the
    regularity report's stacks three or more (measured in BENCH_31.json,
    "docstring_measurements")."""
    if len(X) > 1:
        out = _outcome(_newton_lockstep, f, grad, hess, X, Y0, lam0, max_iterations, tol)
        if isinstance(out, list):
            return out
    return [
        _outcome(_newton_stationarity, f, grad, hess, x, y0, l0, max_iterations, tol)
        for x, y0, l0 in zip(X, Y0, lam0)
    ]


def _newton_lockstep(f, grad, hess, X, Y0, lam0, max_iterations, tol) -> list | None:
    """_newton_stationarity_stack's stacked path: the scalar kernel's
    result on every row, or, where it cannot answer for the whole stack,
    None (a row's f, grad or hess raised) or LinAlgError (a bordered system
    is singular).

    The rows still running sit in one array per quantity, and each
    elementwise step of the scalar kernel runs once over the array, so every
    row gets the same products and sums in the same order.  f, grad and
    hess are evaluated over the stack once per iteration (_rows_of).  The
    bordered systems are one np.linalg.solve on the (k, n+1, n+1) stack,
    which calls LAPACK's gesv once per matrix as a single solve does; the
    right-hand side is shaped (k, n+1, 1), a stack of columns in every
    numpy version.  The stack of bordered matrices is rewritten in place
    and built anew only when rows leave; the last diagonal entry of each
    matrix stays 0.

    The scalar kernel's two tests read each row's largest magnitude, which
    max makes NaN when the row holds a NaN: the row has converged if it is
    at most tol, and runs on if it is finite and above.  Rows that converge
    or go non-finite leave the stack.  The step norms and the caps take
    each row's norm as _norm does (_row_dots), so the cap makes the same
    decisions on the same bits."""
    out = [None] * len(X)
    n = X[0].shape[0]
    idx = np.arange(len(X))
    X = np.array(X, dtype=float)
    Y = np.array(Y0, dtype=float)
    L = np.array(lam0, dtype=float)
    caps = 10.0 * (1.0 + np.sqrt(_row_dots(X, X)))
    eye = np.eye(n)
    J = np.zeros((len(X), n + 1, n + 1))
    for _ in range(max_iterations):
        G, raised = _rows_of(grad, Y, (n,))
        F, raised_f = _rows_of(f, Y)
        if raised or raised_f:
            return None
        R = np.empty((len(Y), n + 1))
        R[:, :n] = Y - X + L[:, None] * G
        R[:, n] = F
        top = np.abs(R).max(axis=1)
        running = np.isfinite(top) & (top > tol)
        if not running.all():
            for j in np.flatnonzero(top <= tol):
                out[idx[j]] = Y[j].copy()
            keep = np.flatnonzero(running)
            if not len(keep):
                break
            idx, caps = idx[keep], caps[keep]
            X, Y, L, G, R = X[keep], Y[keep], L[keep], G[keep], R[keep]
            J = np.zeros((len(keep), n + 1, n + 1))
        H, raised = _rows_of(hess, Y, (n, n))
        if raised:
            return None
        np.multiply(H, L[:, None, None], out=J[:, :n, :n])
        J[:, :n, :n] += eye
        J[:, :n, n] = G
        J[:, n, :n] = G
        S = np.linalg.solve(J, -R[:, :, None])[:, :, 0]
        ns = np.sqrt(_row_dots(S, S))
        for j in np.flatnonzero(ns > caps):
            S[j] *= caps[j] / ns[j]
        Y = Y + S[:, :n]
        L = L + S[:, n]
    return out


@functools.lru_cache(maxsize=64)
def _ray_fan(n: int, max_rays: int) -> np.ndarray:
    """The fan of _ray_scan_rows in R^n: the first ``max_rays`` nonzero
    standard-normal draws of default_rng(0), normalized, one per row.
    Built once per (n, max_rays) and shared, so it is read-only."""
    rng = np.random.default_rng(0)
    dirs = []
    while len(dirs) < max_rays:
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu > 1e-12:
            dirs.append(u / nu)
    fan = np.array(dirs).reshape(max_rays, n)
    fan.flags.writeable = False
    return fan


# The ray scan's steps along each ray, in units of 1 + ||x||.
_RAY_STEPS = 2.0 ** np.arange(-4.0, 6.0)
_RAY_STEPS.flags.writeable = False


def _ray_scan_rows(f, points, max_rays: int = 8) -> list:
    """Boundary seeds for the nearest-point Newton from each point: the
    bisected zeros of f along a deterministic fan of rays from it
    (_ray_fan), in ray order, or the error its scan raises.

    All rays of all points run in lockstep: row i * max_rays + j of the
    stack is point i's ray j.  Each of the 10 steps out and then each of
    the 60 bisections evaluates f on the rows still at it with one _rows_of
    call, by the elementwise operations a scan of that ray alone makes, so
    every seed has that scan's bits.  A bisection keeps the sign of f at its
    lower end: it only moves that end to a point of equal sign.  A ray whose
    f raises stops there.  A point's error is f's at the point itself, or
    else the one from its lowest-index failing ray: the error a scan of one
    ray after the other meets first."""
    if not len(points):
        return []
    P = np.array(points, dtype=float)
    F0, raised = _rows_of(f, P)
    out = [raised.get(i, []) for i in range(len(P))]
    start = np.array([i for i in range(len(P)) if i not in raised], dtype=int)
    owner = np.repeat(start, max_rays)  # the point of each ray
    X = P[owner]
    U = np.tile(_ray_fan(P.shape[1], max_rays), (len(start), 1))
    scale = np.repeat([1.0 + _norm(P[i]) for i in start], max_rays)
    f_prev = F0[owner]
    t_prev = np.zeros(len(X))
    lo, hi = np.empty(len(X)), np.empty(len(X))
    bracketed = np.zeros(len(X), dtype=bool)
    failed = {}  # ray -> the exception f raised on it
    live = np.arange(len(X))  # rays still stepping out
    for step in _RAY_STEPS:
        t = scale[live] * step
        ft, raised = _rows_of(f, X[live] + t[:, None] * U[live])
        crossed = (ft > 0.0) != (f_prev[live] > 0.0)
        keep = ~crossed
        if raised:
            failed.update((live[j], exc) for j, exc in raised.items())
            ok = _unraised(len(live), raised)
            crossed &= ok
            keep &= ok
        hit = live[crossed]
        lo[hit], hi[hit], bracketed[hit] = t_prev[hit], t[crossed], True
        live, t, ft = live[keep], t[keep], ft[keep]
        if not len(live):
            break
        t_prev[live], f_prev[live] = t, ft
    rays = np.flatnonzero(bracketed)
    X, U, lo, hi = X[rays], U[rays], lo[rays], hi[rays]
    positive = f_prev[rays] > 0.0
    for _ in range(60 if len(rays) else 0):
        mid = 0.5 * (lo + hi)
        fm, raised = _rows_of(f, X + mid[:, None] * U)
        same = (fm > 0.0) == positive
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
        if raised:
            failed.update((rays[j], exc) for j, exc in raised.items())
            ok = _unraised(len(rays), raised)
            rays, X, U, lo, hi, positive = rays[ok], X[ok], U[ok], lo[ok], hi[ok], positive[ok]
    for r, seed in zip(rays, X + (0.5 * (lo + hi))[:, None] * U):
        out[owner[r]].append(seed)
    for r in sorted(failed, reverse=True):
        out[owner[r]] = failed[r]
    return out


def _one_row(oracle: SetOracle, x: np.ndarray) -> np.ndarray:
    """oracle._nearest_rows on the one checked point x: _project for the
    kinds whose batch hook does the work (the smooth sets and the
    intersection)."""
    (y,) = oracle._nearest_rows([x])
    if isinstance(y, Exception):
        raise y
    return y


def _far_rows(points, firsts) -> list:
    """The indices of the points that restart: those whose first start did
    not converge (None), or converged farther than 0.15 (1 + ||x||) from
    the point.  A point whose first start raised never restarts.

    From 10 points up both norms are stacked row dots (_row_dots, the bits
    of _norm).  Fewer points, among them the solvers' single points, take
    _norm point by point, which below 10 points costs less than the stack's
    fixed cost."""
    if len(points) < 10:
        return [
            i
            for i, (x, y) in enumerate(zip(points, firsts))
            if not (isinstance(y, Exception) or y is not None and _norm(y - x) <= 0.15 * (1.0 + _norm(x)))
        ]
    X = np.array(points)
    D = np.array([y if isinstance(y, np.ndarray) else x for x, y in zip(X, firsts)]) - X
    near = np.sqrt(_row_dots(D, D)) <= 0.15 * (1.0 + np.sqrt(_row_dots(X, X)))
    return [
        i
        for i, (y, ok) in enumerate(zip(firsts, near.tolist()))
        if y is None or isinstance(y, np.ndarray) and not ok
    ]


def _newton_projections(f, grad, hess, points) -> list:
    """The nearest point on {f = 0} to each checked point, or the error its
    projection raises, by Newton on the stationarity system.

    The first start, from (x, 0), finds the closest stationary point of the
    distance when x is near the set.  A point whose answer lies farther
    than 0.15 (1 + ||x||) restarts from boundary seeds on a fan of rays and
    keeps the closest result (on a tie, the earlier); _far_rows makes that
    test.  All first starts run as one stack, and when no point restarts,
    which is most batches, their answers are the result.  Otherwise the ray
    scans of the points that restart run as one lockstep scan
    (_ray_scan_rows), and all restarts as another stack.  A point's error
    is its scan's, or else the first in seed order, from grad at a seed or
    from that seed's start.  Overflow far out only makes a start fail; the
    caller keeps numpy from warning of it."""
    out = _newton_stationarity_stack(
        f, grad, hess, points, points, [0.0] * len(points), _NEWTON_ITERATIONS, _NEWTON_TOL
    )
    far = _far_rows(points, out)
    if not far:
        return out
    plans, X, Y0, L0 = {}, [], [], []  # plans[i]: point i's restart rows, or an error
    for i, seeds in zip(far, _ray_scan_rows(f, [points[i] for i in far])):
        x = points[i]
        plan = plans[i] = []
        try:
            if isinstance(seeds, Exception):
                raise seeds
            for seed in seeds:
                g = grad(seed)
                L0.append(float(g @ (x - seed) / max(g @ g, 1e-30)))
                plan.append(len(X))
                X.append(x)
                Y0.append(seed)
        except Exception as exc:
            plan.append(exc)
    ends = _newton_stationarity_stack(
        f, grad, hess, X, Y0, L0, _NEWTON_ITERATIONS, _NEWTON_TOL
    ) if X else []
    for i, plan in plans.items():
        x, best = points[i], out[i]
        for y in (r if isinstance(r, Exception) else ends[r] for r in plan):
            if isinstance(y, Exception):
                best = y
                break
            if y is not None and (best is None or _norm(y - x) < _norm(best - x) * (1.0 - 1e-12)):
                best = y
        out[i] = best if best is not None else ProjectionNotConvergedError(
            f"level-set projection did not reach residual {_NEWTON_TOL:g} "
            f"in {_NEWTON_ITERATIONS} iterations",
            last_iterate=x,
        )
    return out


class _SmoothSet(SetOracle):
    """Base of LevelSet and ManifoldCurve: a smooth scalar f with its
    gradient and Hessian, the normalized gradient as the unit normal, and
    the Newton projection onto {f = 0}."""

    def __init__(self, dimension, f, grad, hess, name: str = ""):
        super().__init__(dimension)
        self.f = f
        self.grad = grad
        self.hess = hess
        self.name = name

    def _inside_rows(self, X) -> list:
        """For each checked point of X, True if it is a member that projects
        to itself without Newton, False if not, or the error the test
        raises there."""
        return [False] * len(X)

    def _nearest_rows(self, X):
        """The interior test on every point, then one _newton_projections
        for the points left.  Far out f, grad and hess overflow to the
        infinities and NaNs that the polynomial sets' scalar callables give
        on Python floats, silently as there, so numpy does not warn."""
        out, rows = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for x, inside in zip(X, self._inside_rows(X)):
                if inside is False:
                    rows.append(len(out))
                out.append(x.copy() if inside is True else inside)
            if rows:
                ends = _newton_projections(self.f, self.grad, self.hess, [X[i] for i in rows])
                for i, y in zip(rows, ends):
                    out[i] = y
        return out

    _project = _one_row

    def analytic_normal(self, x):
        return _unit(self.grad(x))


class LevelSet(_SmoothSet):
    """Sublevel set {x : f(x) <= 0} of a smooth function.

    Projection of an outside point solves the nearest-point conditions on
    the boundary {f = 0} by Newton iteration.
    """

    kind = "smooth-level-set"

    def __init__(self, dimension, f, grad, hess, name: str = "", convex: bool = False):
        if not isinstance(convex, (bool, np.bool_)):
            raise ValueError(f"convex must be a bool, got {convex!r}")
        super().__init__(dimension, f, grad, hess, name)
        self.is_convex = bool(convex)

    def _inside_rows(self, X):
        """f(x) <= 0.0 on each checked point x of X, or the error f raises."""
        F, raised = _rows_of(self.f, X)
        inside = (F <= 0.0).tolist()
        for j, exc in raised.items():
            inside[j] = exc
        return inside

    def _residual(self, p):
        val = max(0.0, self.f(p))
        return val / max(np.linalg.norm(self.grad(p)), 1.0)


class ManifoldCurve(_SmoothSet):
    """Zero set {x : f(x) = 0} of a smooth scalar function; a manifold."""

    kind = "smooth-manifold"
    is_manifold = True

    def _residual(self, p):
        gn = np.linalg.norm(self.grad(p))
        return abs(self.f(p)) / max(gn, 1.0)


class FixedRankSet(SetOracle):
    """Matrices (flattened row-major) with rank at most ``rank``.

    Projection is the truncated singular value decomposition.  Near a point
    of exact rank r this set is a smooth manifold, which is how the solvers
    treat it.
    """

    kind = "fixed-rank-matrix-set"
    is_manifold = True

    def __init__(self, rows: int, cols: int, rank: int):
        rows, cols, rank = _integer(rows, "rows"), _integer(cols, "cols"), _integer(rank, "rank")
        if rank < 1 or rank > min(rows, cols):
            raise ValueError("rank must be between 1 and min(rows, cols)")
        super().__init__(rows * cols)
        self.rows, self.cols, self.rank = rows, cols, rank

    def _truncate(self, U, s, Vt) -> np.ndarray:
        """The rank-r part of one SVD, or of a stack of them, by the same
        products: (U_r * s_r) @ Vt_r on each matrix."""
        r = self.rank
        return (U[..., :r] * s[..., None, :r]) @ Vt[..., :r, :]

    def _project(self, x):
        U, s, Vt = np.linalg.svd(x.reshape(self.rows, self.cols), full_matrices=False)
        return self._truncate(U, s, Vt).reshape(-1)

    def _nearest_rows(self, X):
        """_project on each checked point of X: one np.linalg.svd over the
        (k, rows, cols) stack, which runs LAPACK's gesdd once per matrix as
        a single svd does, and one _truncate over the stack, whose products
        are the single ones matrix by matrix.  If the stacked svd raises (a
        matrix did not converge), so does the hook, and the batch boundary
        (_project_rows) gives each row project's outcome."""
        U, s, Vt = np.linalg.svd(X.reshape(len(X), self.rows, self.cols), full_matrices=False)
        return list(self._truncate(U, s, Vt).reshape(len(X), -1))

    def _residual(self, p):
        s = np.linalg.svd(p.reshape(self.rows, self.cols), compute_uv=False)
        return float(np.linalg.norm(s[self.rank:]))


class PointSet(SetOracle):
    """A finite set of points; ties go to the lexicographically smallest."""

    kind = "point-set"

    def __init__(self, points):
        P = _rows(points, "point-set", "point")
        if not np.isfinite(P).all():
            raise ValueError("point-set points must be finite")
        super().__init__(P.shape[1])
        self.points = P
        self.is_convex = P.shape[0] == 1

    def _project(self, x):
        return _nearest(self.points, np.linalg.norm(self.points - x, axis=1))

    def _residual(self, p):
        return float(np.linalg.norm(self.points - p, axis=1).min())


class UnionOfConvex(SetOracle):
    """Finite union of convex oracles; projection picks the nearest member."""

    kind = "finite-union-of-convex"

    def __init__(self, members: Sequence[SetOracle]):
        members = list(members)
        if not members:
            raise ValueError("union needs at least one member")
        dim = members[0].dimension
        for mem in members:
            if not mem.is_convex:
                raise ValueError("union members must be convex oracles")
            if mem.dimension != dim:
                raise DimensionMismatchError("union members disagree on dimension")
        super().__init__(dim)
        self.members = members
        self.is_convex = len(members) == 1

    def _project(self, x):
        return _nearest(*zip(*(project(mem, x) for mem in self.members)))

    def _residual(self, p):
        return min(mem.membership_residual(p) for mem in self.members)


class PolyhedralSet(SetOracle):
    """Intersection of finitely many halfspaces, projected by the QP engine.

    The halfspaces are fixed at construction, which prepares the polyhedron
    once (Polyhedron.prepare): its unit rows, parallel pairs and equality
    elimination are shared by every projection, and each projection does
    only the QP work that depends on the point, without the QP's report
    tail: _project is the QP's one-point kernel (polyhedra._nearest_point),
    and a batch runs the same arithmetic as one lockstep stack
    (polyhedra._nearest_points), or row by row where the stack declines.
    """

    kind = "polyhedron"
    is_convex = True

    def __init__(self, halfspaces: Sequence[polyhedra.Halfspace]):
        hs = list(halfspaces)
        if not hs:
            raise ValueError("polyhedron set needs at least one halfspace")
        # A non-finite row would reach the QP's active-set factor, which
        # assumes finite rows and fails there with an IndexError.
        for i, h in enumerate(hs):
            if not all(map(math.isfinite, [*h.normal.tolist(), h.offset])):
                raise ValueError(f"halfspace {i} of the polyhedron set has a non-finite normal or offset")
        dim = hs[0].normal.shape[0]
        super().__init__(dim)
        self.halfspaces = hs
        self._poly = polyhedra.Polyhedron(hs).prepare()

    def _nearest_rows(self, X):
        """polyhedra._nearest_points on the whole stack, or, where the
        stack declines, _project row by row with each row's exception."""
        Y = polyhedra._nearest_points(self._poly, X)
        return super()._nearest_rows(X) if Y is None else Y

    def _project(self, x):
        """polyhedra._nearest_point at x.  An empty polyhedron or a QP
        breakdown raises ProjectionNotConvergedError, caused by the QP's
        exception."""
        try:
            return polyhedra._nearest_point(self._poly, x)
        except (polyhedra.InfeasiblePolyhedronError, polyhedra.QPBreakdownError) as exc:
            reason = "infeasible" if isinstance(exc, polyhedra.InfeasiblePolyhedronError) else str(exc)
            raise ProjectionNotConvergedError("polyhedral set projection failed: " + reason, x) from exc

    def _residual(self, p):
        return max(0.0, *(h.violation(p) for h in self.halfspaces))


# Sweeps of member projections an intersection refinement makes at most.
INTERSECTION_SWEEPS = 20000


class IntersectionSet(SetOracle):
    """Intersection of member oracles, projected by cyclic refinement.

    The refinement is a local projection oracle, not an exact nearest-point
    map: starting from x it alternates member projections until every
    membership residual is below 1e-12, or the movement stalls, or a sweep
    ends where it began (members that do not meet make such a cycle).  Good
    enough for distance estimates d(x, K) and for sampling normals of K near
    a reference point.
    """

    kind = "intersection"
    membership_tol = MEMBERSHIP_TOL_ITERATIVE

    def __init__(self, members: Sequence[SetOracle]):
        members = list(members)
        if not members:
            raise ValueError("intersection needs at least one member")
        dim = members[0].dimension
        for mem in members:
            if mem.dimension != dim:
                raise DimensionMismatchError("members disagree on dimension")
        super().__init__(dim)
        self.members = members

    _project = _one_row

    def _nearest_rows(self, X) -> list:
        """The refinement from each checked point of X: entry i is the point
        it reaches from X[i], or the error it raises there.

        The rows run in lockstep.  Each sweep makes one _project_rows call
        per member over the rows still running, so every row sees what
        project gives on its iterate; then each row makes its own tests: it
        returns below residual 1e-12, or stops once it has not moved (by
        1e-15) in any member projection or over the whole sweep.  A stopped
        row, and one that used every sweep, is returned if its last
        residual meets the membership tolerance; otherwise it raises with
        its last iterate.  A row whose projection or residual raises keeps
        that error and leaves the lockstep."""
        out, residual = [None] * len(X), [None] * len(X)
        Y = [x.copy() for x in X]
        live, stopped = list(range(len(X))), []
        for _ in range(INTERSECTION_SWEEPS):
            if not live:
                break
            start, moved = list(Y), [0.0] * len(X)
            for mem in self.members:
                for i, res in zip(live, mem._project_rows([Y[i] for i in live])):
                    if isinstance(res, Exception):
                        out[i] = res
                    else:
                        moved[i] = max(moved[i], _norm(res[0] - Y[i]))
                        Y[i] = res[0]
                live = [i for i in live if out[i] is None]
            running = []
            for i in live:
                r = residual[i] = _outcome(self._residual, Y[i])
                if isinstance(r, Exception):
                    out[i] = r
                elif r <= 1e-12:
                    out[i] = Y[i]
                elif moved[i] <= 1e-15 or _norm(Y[i] - start[i]) <= 1e-15:
                    stopped.append(i)
                else:
                    running.append(i)
            live = running
        for i in stopped + live:
            out[i] = Y[i] if residual[i] <= self.membership_tol else ProjectionNotConvergedError(
                "intersection refinement stalled before reaching membership", Y[i]
            )
        return out

    def _residual(self, p):
        return max(mem.membership_residual(p) for mem in self.members)


def project(oracle: SetOracle, x) -> tuple[np.ndarray, float]:
    """Project ``x`` onto the set.

    Returns ``(nearest, distance)``.  The nearest point satisfies the
    oracle's membership residual at its tolerance class, and ties are broken
    lexicographically by the individual oracles.
    """
    p = _as_point(x, oracle.dimension)
    nearest = oracle._project(p)
    return nearest, _norm(p - nearest)


@contextlib.contextmanager
def _watch():
    """Run the block with "call" on each floating point error category the
    caller's error state does not ignore (numpy ignores underflow by
    default), and yield a list that is non-empty once one has signalled."""
    signalled = []
    watched = {kind: "call" for kind, mode in np.geterr().items() if mode != "ignore"}
    with np.errstate(call=lambda *_: signalled.append(True), **watched):
        yield signalled


def _stacked_outcomes(oracle: SetOracle, P: np.ndarray) -> list:
    """project(oracle, p) for each row p of P, a (k, dimension) stack of
    checked points, under _project_rows' watch: the set's _nearest_rows on
    the whole stack, and the distances of all rows it answers as one
    stacked row dot (_row_dots), the bits of _norm.  A NaN distance signals
    nothing, and is what project gives."""
    Y = oracle._nearest_rows(P)
    done = [j for j, y in enumerate(Y) if not isinstance(y, Exception)]
    D = P[done] - np.array([Y[j] for j in done]).reshape(len(done), oracle.dimension)
    for j, d in zip(done, np.sqrt(_row_dots(D, D)).tolist()):
        Y[j] = (Y[j], d)
    return Y


def _member_center(oracle: SetOracle, center, name: str) -> np.ndarray:
    """``center`` as a point, after checking that it belongs to the set."""
    c = _as_point(center, oracle.dimension)
    if oracle.membership_residual(c) > oracle.membership_tol:
        raise ValueError(f"{name} must be a member of the set")
    return c


class _Draws:
    """The draws that _ball_draws keeps, as stacks: W and Y, k x n, and gaps,
    k.  It iterates as the draws' (w, y, gap) tuples, so a list of such
    tuples reads the same to the samplers (_stacks)."""

    __slots__ = ("W", "Y", "gaps")

    def __init__(self, W: np.ndarray, Y: np.ndarray, gaps: np.ndarray):
        self.W, self.Y, self.gaps = W, Y, gaps

    def __len__(self):
        return len(self.gaps)

    def __iter__(self):
        return zip(self.W, self.Y, self.gaps.tolist())


def _stacks(draws, n: int) -> _Draws:
    """draws as stacks: a _Draws as it is, (w, y, gap) tuples stacked."""
    if isinstance(draws, _Draws):
        return draws
    k = len(draws)
    return _Draws(
        np.array([w for w, _, _ in draws], dtype=float).reshape(k, n),
        np.array([y for _, y, _ in draws], dtype=float).reshape(k, n),
        np.array([gap for _, _, gap in draws], dtype=float),
    )


def _ball_draws(oracle: SetOracle, center, radius: float, count: int, seed: int) -> _Draws:
    """Project ``count`` uniform draws w from B(center, radius).

    Returns the draws whose projection y converged and lies in the ball,
    with gap = ||w - y||, as a _Draws.  Both samplers below reduce these
    draws; the same arguments always give the same draws.  The draws are
    made first (_draw_ball), projected as one batch
    (SetOracle._project_rows) and then kept (_keep_draws); the regularity
    estimate runs the same three steps with one batch for all of a set's
    draws.  Raises ValueError unless radius is positive and finite and
    count a nonnegative integer.
    """
    ws = _draw_ball(oracle.dimension, center, radius, count, seed)
    return _keep_draws(ws, oracle._project_rows(ws), center, radius)


def _draw_ball(n: int, center, radius: float, count: int, seed: int) -> np.ndarray:
    """The (count, n) stack of _ball_draws' uniform draws from
    B(center, radius), before projection.  Each draw takes a standard
    normal direction g and then a uniform u from the generator, draw after
    draw, and is w = center + radius * (g / ||g||) * u ** (1/n), with the
    power taken on Python floats; ``standard_normal(out=row)`` fills a row
    of the stack from the same stream as ``standard_normal(n)``, and
    ``random()`` gives the same u as ``uniform()``, without their argument
    handling.  Everything after the generator runs once over all draws, so
    each draw has the bits it had alone: the norms ||g|| as stacked row
    dots (_row_dots), the divide, scale and shift elementwise."""
    count = _integer(count, "sample_count")
    if count < 0:
        raise ValueError("sample_count must be nonnegative")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive and finite")
    rng = np.random.default_rng(seed)
    G, shrink, power = np.empty((count, n)), [], 1.0 / n
    normal, uniform = rng.standard_normal, rng.random
    for g in G:
        normal(out=g)
        shrink.append(uniform() ** power)
    G /= np.sqrt(_row_dots(G, G))[:, None]
    return center + radius * (G * np.array(shrink)[:, None])


def _keep_draws(ws: np.ndarray, outs: list, center, radius: float) -> _Draws:
    """The draws ws whose projection (outs, _project_rows' entries for
    them) converged and lies in B(center, radius), as _ball_draws returns
    them.  One mask keeps the draws in the ball, by the filter norms
    ||y - center|| as stacked row dots under one _watch; a NaN norm stays,
    as in the draw-by-draw loop.  The draws with an error are then visited
    in draw order: one that did not converge is dropped, any other error is
    raised.  If the norms signalled, every draw is visited, and takes its
    norm again by _norm under the caller's state, so that it raises or warns
    where the loop did, after the errors of the draws before it."""
    count, n = ws.shape
    done = [out for out in outs if not isinstance(out, Exception)]
    ok = slice(None) if len(done) == count else np.array([not isinstance(out, Exception) for out in outs])
    Y = np.array([y for y, _ in done]).reshape(len(done), n)
    dists = np.full(count, np.inf)
    with _watch() as signalled:
        D = Y - center
        dists[ok] = np.sqrt(_row_dots(D, D))
        keep = ~(dists > radius)
    for j in range(count) if signalled else np.flatnonzero(dists == np.inf).tolist():
        out = outs[j]
        if isinstance(out, ProjectionNotConvergedError):
            continue
        if isinstance(out, Exception):
            raise out
        keep[j] = not _norm(out[0] - center) > radius
    kept = keep[ok]
    return _Draws(ws[keep], Y[kept], np.array([gap for _, gap in done])[kept])


def check_super_regular(
    oracle: SetOracle,
    center,
    delta: float,
    radius: float,
    sample_count: int = 400,
    rng_seed: int = 0,
) -> tuple[bool, float]:
    """Sample-test the inequality <z - y, v> <= delta ||z - y|| ||v||.

    Pairs (z, y) are set members inside the ball B(center, radius), and v is
    a unit proximal normal at y obtained from the projection residual of the
    ambient sample that produced y (both signs for manifolds).  Returns
    ``(holds, worst_ratio)`` where worst_ratio is the largest sampled value
    of <z - y, v> / ||z - y||.  Raises ValueError unless center is a member,
    radius is positive and finite and sample_count a nonnegative integer.
    """
    c = _member_center(oracle, center, "center")
    worst = _super_regular_worst(oracle, c, _ball_draws(oracle, c, radius, sample_count, rng_seed))
    return (worst <= delta + 1e-9, worst)


# Rows of ratios whose maximum _super_regular_worst takes together, in
# draw order: a block whose maximum is NaN adds nothing, so the block size
# is part of the output.
_RATIO_BLOCK = 16
# Bases (normals y, one per draw) whose (bases x members x n) difference
# tensor _super_regular_worst builds at once: up to _RATIO_BASES, fewer where
# the tensor would pass _RATIO_TENSOR entries, but at least one block's.  One
# tensor over all draws would grow with the square of the draw count, and
# a large tensor falls out of cache (measured in BENCH_31.json,
# "ratio_tensor_size").  The count is a multiple of a block's bases
# (_RATIO_BLOCK, or half of it on a manifold, where a base gives two rows),
# so the blocks stay whole.
_RATIO_BASES = 64
_RATIO_TENSOR = 2**16


def _pair_ratios(members: np.ndarray, bases: np.ndarray, directions: np.ndarray, both_signs: bool = False):
    """<z - y, v> / ||z - y|| for each normal (y, v) in the rows of bases and
    directions (one row of the result) against every member z (one column);
    with both_signs, each row is followed by the row of (y, -v).  Pairs much
    closer than the probe scale measure projection roundoff, not geometry:
    the numerator carries the projectors' absolute error, so tiny
    denominators amplify it arbitrarily.  Such pairs read -inf.

    Below 8 dimensions the (normals x members x n) difference tensor is
    filled one coordinate at a time, and the squared distances are summed
    the same way, coordinate after coordinate, which avoids numpy's cost per
    element on a last axis of length 2 to 4 (measured in BENCH_31.json,
    "docstring_measurements").  That running sum has the bits of
    np.add.reduce over an axis shorter than 8 (pinned against it in the
    tests); from 8 on, add.reduce sums pairwise, so the broadcast form
    stays.  The numerators are one matmul over the tensor in either case;
    its rounding is the pinned one.  The (y, -v) numerators are the (y, v)
    ones as 0.0 - num, the bits a dot product with -v gives: rounding is
    symmetric in sign, and a sum that is exactly zero is +0 for either
    sign, which 0.0 - num keeps and -num would not."""
    n = members.shape[1]
    if n < 8:
        diff = np.empty((len(bases), len(members), n))
        sq = np.zeros((len(bases), len(members)))
        for k in range(n):
            d = diff[:, :, k] = members[:, k] - bases[:, k, None]
            sq += d * d
    else:
        diff = members[None] - bases[:, None]
        sq = np.add.reduce(diff * diff, axis=2)
    nd = np.sqrt(sq)
    keep = nd > 1e-9
    num = np.matmul(diff, directions[:, :, None])[..., 0]
    # For a normal with one kept member, diff[keep] @ v is a one-row product,
    # which numpy computes with its dot kernel, not gemv, and the two round
    # differently; match it.  (From 8 dimensions on, gemv may also round a
    # row by its position in the matrix, so there a ratio can differ from
    # diff[keep] @ v in the last bit.)
    for b in np.flatnonzero(keep.sum(axis=1) == 1):
        i = np.flatnonzero(keep[b])[0]
        num[b, i] = diff[b, i] @ directions[b]
    if both_signs:
        num = np.stack([num, 0.0 - num], axis=1)
        nd, keep = nd[:, None], keep[:, None]
    ratios = np.divide(num, nd, out=np.full(num.shape, -np.inf), where=keep)
    return ratios.reshape(-1, len(members))


def _super_regular_worst(oracle: SetOracle, center: np.ndarray, draws) -> float:
    """check_super_regular's worst ratio over the members and normals of
    draws (a _Draws, or (w, y, gap) tuples): the members are the center and
    every y, the normals (y, v) come from the draws with gap > 1e-12, v =
    (w - y) / gap, each followed by (y, -v) on a manifold.  The ratios are
    reduced in blocks of _RATIO_BLOCK rows, in that order; a block whose
    maximum is NaN adds nothing.  One _pair_ratios call covers the normals
    of up to _RATIO_BASES draws, on a manifold with both signs."""
    d = _stacks(draws, len(center))
    M = np.concatenate([center[None], d.Y])
    rounded = np.round(M, 12)
    normal = d.gaps > 1e-12
    if not np.any(rounded != rounded[0]) or not normal.any():
        raise InsufficientSamplesError(
            "could not sample two distinct members plus a normal in the ball"
        )

    Y = d.Y[normal]
    V = (d.W[normal] - Y) / d.gaps[normal][:, None]
    block = _RATIO_BLOCK // 2 if oracle.is_manifold else _RATIO_BLOCK
    step = max(block, min(_RATIO_BASES, _RATIO_TENSOR // M.size) // block * block)
    worst = -np.inf
    for s in range(0, len(Y), step):
        ratios = _pair_ratios(M, Y[s : s + step], V[s : s + step], oracle.is_manifold)
        for t in range(0, len(ratios), _RATIO_BLOCK):
            worst = max(worst, float(ratios[t : t + _RATIO_BLOCK].max()))
    if not np.isfinite(worst):
        raise InsufficientSamplesError("no usable member/normal pairs")
    return worst


def check_sosh(
    oracle: SetOracle,
    xbar,
    bound: float,
    radius: float,
    sample_count: int = 400,
    rng_seed: int = 0,
) -> tuple[bool, float]:
    """Sample-test the second-order inequality <v, x - xbar> <= M ||x - xbar||^2.

    x runs over sampled set members in B(xbar, radius) \\ {xbar} and v over
    unit projection-residual normals at x (both signs for manifolds).
    Returns ``(holds, worst_m)`` with worst_m the largest sampled quotient
    <v, x - xbar> / ||x - xbar||^2.  Raises ValueError unless xbar is a
    member, radius is positive and finite and sample_count a nonnegative
    integer.
    """
    xb = _member_center(oracle, xbar, "xbar")
    worst = _sosh_worst(oracle, xb, _ball_draws(oracle, xb, radius, sample_count, rng_seed))
    return (worst <= bound + 1e-9, worst)


def _sosh_worst(oracle: SetOracle, xbar: np.ndarray, draws) -> float:
    """check_sosh's worst quotient <v, y - xbar> / r**2 over the boundary
    samples among draws (a _Draws, or (w, y, gap) tuples): those with gap >
    1e-12 and r = ||y - xbar|| > 1e-9, each with v = (w - y) / gap, and on
    a manifold the larger of the quotients of v and -v.  r and the
    numerators are stacked row dots (_row_dots), so each has the bits of its
    draw's own dot, and the -v numerators are 0.0 - num, the bits of the
    dot with -v (_pair_ratios says why); r**2 is taken on Python floats,
    and the maximum by Python's max in draw order, so a NaN quotient adds
    nothing."""
    d = _stacks(draws, len(xbar))
    D = d.Y - xbar
    r = np.sqrt(_row_dots(D, D))
    used = ~((d.gaps <= 1e-12) | (r <= 1e-9))
    if not used.any():
        raise InsufficientSamplesError("no boundary samples with normals in the ball")
    D = D[used]
    V = (d.W[used] - d.Y[used]) / d.gaps[used][:, None]
    r2 = np.array([v**2 for v in r[used].tolist()])
    num = _row_dots(V, D)
    quotients = (num / r2).tolist()
    if oracle.is_manifold:
        quotients = list(map(max, quotients, ((0.0 - num) / r2).tolist()))
    return float(max([-np.inf] + quotients))
