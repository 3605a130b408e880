"""Halfspaces, polyhedral projection by a dual active-set QP, and
normal-bundle conditioning.

The projection solver minimizes ||x - x0||^2 over an intersection of
inequality and equality constraints.  Equalities are eliminated first by an
orthogonal reduction, and the remaining inequality problem is solved by the
Goldfarb–Idnani dual method on a QR factor of the active normals that is
updated as rows enter and leave.  An empty polyhedron is certified by a
Farkas vector: a parallel pair, the equality residual, or the dual ray at
the step where the entering row admits no primal step.

Much of that work depends on the polyhedron alone: the unit rows, which
row pairs are parallel, the equality/inequality split and the equality
elimination.  ``Polyhedron.prepare`` does it once and keeps it read-only,
for a polyhedron that is projected many times (a PolyhedralSet); a
projection onto a prepared polyhedron then does only the per-point work,
the pairwise reduction's offset tests (their tolerances scale with the
query point) and the dual active-set solve, and returns what the one-shot
path returns, bit for bit.  The one-shot path, for the solvers' pooled
QPs, prepares the same data on the fly and keeps none of it.

A projection is two parts: ``_solve``, the steps that compute the point
(the prelude ``_prelude``: scale, pairwise reduction, split, equality
elimination and h; the dual active set; and x or the verified
certificate), and the report tail that only project_onto_polyhedron adds
(multipliers, KKT residual, active set and the QPResult).
``_nearest_point(poly, x0)`` runs only ``_solve``, for a polyhedral set's
single projection (``PolyhedralSet._project``), and gives
project_onto_polyhedron's point, bit for bit, or its exception.  A
polyhedral set's batch runs ``_nearest_points(poly, X)``: the same
arithmetic on every row of the stack in lockstep, on a prepared polyhedron
with no parallel pair and no equality row, whose rows end on full steps
alone; otherwise it declines, and each row takes ``_nearest_point``.

Arithmetic.  The problems are tiny (a few rows in a few dimensions), so
most of a projection's cost is numpy's fixed cost per call on 1-4 element
arrays.  Every dot, matrix product, einsum and SVD, and every array that
feeds one, stays in numpy, because that is where the rounding happens:
numpy's 1-d dot (BLAS ddot, with fused multiply-adds) differs from a
sequential Python sum of the same products on a large share of random
pairs (measured in BENCH_31.json, "docstring_measurements"), and gemv and
the einsum row norms sum in orders of their own.
What runs on Python floats and lists rounds the same in both:
comparisons, max and min, abs, single elementwise products and quotients,
and index bookkeeping.  The most violated row, the KKT residual's maxima
and the offsets' largest magnitude are found there, with numpy's NaN
rules kept (argmax takes the first maximum or the first NaN; max is NaN
when any entry is).

The conditioning measure ``eta`` of a bundle of unit normals v_i, the
distance from the origin to their convex hull, is one call of the same QP:
by duality the least-norm point of {u : <v_i, u> >= 1} has norm 1 / eta,
so eta's cost carries the QP's step bound.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

__all__ = [
    "Halfspace",
    "Polyhedron",
    "QPResult",
    "project_onto_polyhedron",
    "halfspace_from_projection",
    "derived_halfspace",
    "eta",
    "ZeroGapError",
    "NoSeparationError",
    "InfeasiblePolyhedronError",
    "QPBreakdownError",
]

# A unit row whose part off the active normals is this short depends on
# them; multiplier directions below it count as zero.
_DEPENDENT = 1e-12


def _vector_norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) of a float array, bit for bit.  A C-contiguous 1-d
    array takes its dot without the dispatch; any other keeps numpy's norm,
    since a dot over a strided view can sum in another order."""
    return math.sqrt(a.dot(a)) if a.ndim == 1 and a.flags.c_contiguous else np.linalg.norm(a)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[i].dot(B[i]) for each row i of two C-contiguous 2-d float arrays,
    bit for bit.  matmul over the stack of 1 x n by n x 1 products calls
    BLAS ddot once per row, as dot does; so the square root of
    _row_dots(D, D) is the norm _vector_norm(d) (sets._norm) of each row,
    and _row_dots(D, E) is each row's d @ e.  einsum and sums of
    elementwise products round otherwise: ddot fuses its multiply-adds."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


class ZeroGapError(ValueError):
    """halfspace_from_projection called with coincident point and projection."""


class NoSeparationError(ValueError):
    """derived_halfspace called with a point already inside the polyhedron."""


class QPBreakdownError(RuntimeError):
    """Roundoff kept the polyhedral QP from proving its answer.

    Raised when the dual active-set iteration passes its finite-termination
    bound (see ``_dual_active_set``), or when an infeasibility certificate
    fails verification; exact arithmetic reaches neither.
    """


class InfeasiblePolyhedronError(RuntimeError):
    """An operation required a nonempty polyhedron but got an empty one."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclasses.dataclass(frozen=True, eq=False)
class Halfspace:
    """One linear constraint <normal, x> <= offset (or = offset).

    The optional tags record which projection created the constraint:
    ``source_set`` is the index of the set that was projected onto,
    ``outer_iteration`` / ``inner_step`` locate the step in the solver run.
    """

    normal: np.ndarray
    offset: float
    kind: str = "inequality"
    source_set: int | None = None
    outer_iteration: int | None = None
    inner_step: int | None = None

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=float)
        if a.ndim != 1 or _vector_norm(a) <= 1e-14:
            raise ValueError("halfspace normal must be a nonzero vector")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", float(self.offset))
        if self.kind not in ("inequality", "equality"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def violation(self, x) -> float:
        """Signed violation at x, normalized by ||normal||."""
        s = (self.normal @ np.asarray(x, dtype=float) - self.offset) / np.linalg.norm(
            self.normal
        )
        return abs(s) if self.kind == "equality" else max(0.0, s)


class Polyhedron:
    """Ordered intersection of halfspaces.

    Construction rejects two constraints carrying the same
    (source_set, outer_iteration) tag pair: within one outer iteration each
    set may contribute at most one constraint to a QP.  Constraints from
    different outer iterations may share a source set.
    """

    def __init__(self, constraints):
        cons = list(constraints)
        if not cons:
            raise ValueError("polyhedron needs at least one constraint")
        dim = cons[0].normal.shape[0]
        seen: set[tuple[int, int]] = set()
        for c in cons:
            if c.normal.shape[0] != dim:
                raise ValueError("constraints disagree on dimension")
            if c.source_set is not None and c.outer_iteration is not None:
                key = (c.source_set, c.outer_iteration)
                if key in seen:
                    raise ValueError(
                        "two constraints from source set "
                        f"{c.source_set} in outer iteration {c.outer_iteration}"
                    )
                seen.add(key)
        self.constraints = cons
        self.dimension = dim
        self._prepared = None

    def prepare(self) -> "Polyhedron":
        """Compute once what every projection onto this polyhedron needs
        apart from the query point, and keep it read-only; returns self.

        For a polyhedron projected many times: later calls of
        project_onto_polyhedron do only per-point work.  The constraints
        must not change afterwards.
        """
        prep = _Prepared(self.constraints)
        prep.split = _Split(prep, range(len(self.constraints)))
        _freeze(prep)
        _freeze(prep.split)
        self._prepared = prep
        return self

    def __len__(self):
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


@dataclasses.dataclass
class QPResult:
    """Outcome of a polyhedral projection.

    ``multipliers`` is aligned with the polyhedron's constraint list
    (nonnegative on inequalities, free sign on equalities, zero on inactive
    rows).  On ``status == "infeasible"`` the point is the query point and
    ``certificate`` holds a Farkas vector lam with
    sum(lam_k * a_k) = 0, sum(lam_k * b_k) < 0, lam >= 0 on inequalities.
    """

    point: np.ndarray
    status: str
    active_set: tuple[int, ...]
    multipliers: np.ndarray
    kkt_residual: float
    certificate: np.ndarray | None = None


def _parallel_pairs(A):
    """The row pairs (i, j, sign), j < i, whose unit normals lie within
    1e-10 of each other (sign +1) or of each other's negative (sign -1),
    in the order _pairwise_reduction settles them."""
    # |cos| >= 1 - 1e-9 is a safe superset of the pairs within 1e-10.
    cosines = (A @ A.T).tolist()
    pairs = []
    for i in range(len(cosines)):
        for j in range(i):
            if abs(cosines[i][j]) < 1.0 - 1e-9:
                continue
            sgn = math.copysign(1.0, cosines[i][j])
            gap = A[i] - sgn * A[j]
            if math.sqrt(gap @ gap) > 1e-10:  # np.linalg.norm's arithmetic
                continue
            pairs.append((i, j, sgn))
    return pairs


def _pairwise_reduction(pairs, b, is_eq, scale):
    """Drop parallel nested constraints; detect parallel conflicts.

    ``pairs`` comes from _parallel_pairs on the unit rows whose offsets are
    ``b``; a pair with a dropped row is skipped.  Returns
    (keep_indices, certificate_or_None).
    """
    k = b.shape[0]
    dropped = [False] * k
    for i, j, sgn in pairs:
        if dropped[i] or dropped[j]:
            continue
        same = sgn > 0.0
        bi = sgn * b[i]  # constraint i in j's direction
        if is_eq[i] and is_eq[j]:
            if abs(bi - b[j]) <= 1e-9 * scale:
                dropped[i] = True
            else:
                cert = np.zeros(k)
                s = -np.sign(b[j] - bi)
                cert[j], cert[i] = s, -s * sgn
                return None, cert
        elif is_eq[i] or is_eq[j]:
            # Orient everything along j's unit normal: sigma_x = +1 when
            # constraint x points that way.  The equality forces the
            # value t; the inequality reads sigma_q * <dir, x> <= b[q].
            e, q = (i, j) if is_eq[i] else (j, i)
            sigma = {j: 1.0, i: sgn}
            t = sigma[e] * b[e]
            if sigma[q] * t <= b[q] + 1e-9 * scale:
                dropped[q] = True
            else:
                cert = np.zeros(k)
                cert[q], cert[e] = 1.0, -sigma[q] * sigma[e]
                return None, cert
        elif same:
            if bi <= b[j]:
                dropped[j] = True
            else:
                dropped[i] = True
        elif b[i] + b[j] < -1e-9 * scale:
            # An empty slab: feasible iff -b_i <= b_j in j's direction.
            cert = np.zeros(k)
            cert[i] = cert[j] = 1.0
            return None, cert
    return [i for i in range(k) if not dropped[i]], None


def _verify_certificate(A, b, is_eq, cert, scale) -> bool:
    lam = np.asarray(cert, dtype=float)
    # Normalize so the certificate's size cannot mask roundoff either way.
    weight = float((np.abs(lam) * np.linalg.norm(A, axis=1)).sum())
    if weight <= 0.0 or not math.isfinite(weight):
        return False
    lam = lam / weight
    if any(v < -1e-12 for v, e in zip(lam.tolist(), is_eq) if not e):
        return False
    v = lam @ A
    return math.sqrt(v @ v) <= 1e-9 * max(1.0, scale) and b @ lam < -1e-12 * scale


def _back_substitute(R, y):
    """x with R x = y for upper-triangular R (nested lists, a few rows)."""
    x = [0.0] * len(y)
    for i in reversed(range(len(y))):
        x[i] = (y[i] - sum(R[i][j] * x[j] for j in range(i + 1, len(y)))) / R[i][i]
    return x


class _ActiveFactor:
    """Thin QR factor N = Q R of the active normals N (one column each).

    Q is a d x width array, width the most active rows there can be
    (min(m, d) for m rows in R^d: active rows are distinct and
    independent), so its size follows the rows and not d x d.  Its first q
    columns are orthonormal and R is q x q upper triangular, kept as nested
    lists because q <= width stays tiny.
    A row enters by Gram–Schmidt with one reorthogonalization and leaves by
    Givens rotations, so the factor is never rebuilt and N^T N is never
    formed.
    """

    def __init__(self, d, width):
        self.Q = np.empty((d, width))
        self.R: list[list[float]] = []

    def split(self, g):
        """(Q^T g, g - Q Q^T g): coordinates on the active span, and the
        part of g off it."""
        if not self.R:
            return [], g
        Q = self.Q[:, : len(self.R)]
        dv = Q.T @ g
        z = g - Q @ dv
        s = Q.T @ z  # "twice is enough" for Gram–Schmidt
        return (dv + s).tolist(), z - Q @ s

    def add(self, dv, z, zn):
        q = len(self.R)
        self.Q[:, q] = z / zn
        for row, v in zip(self.R, dv):
            row.append(v)
        self.R.append([0.0] * q + [zn])

    def remove(self, k):
        """Delete column k and rotate R back to triangular form."""
        R, Q = self.R, self.Q
        for row in R:
            del row[k]
        for j in range(k, len(R) - 1):
            rho = math.hypot(R[j][j], R[j + 1][j])
            c, s = R[j][j] / rho, R[j + 1][j] / rho
            top, low = R[j], R[j + 1]
            R[j] = [c * x + s * y for x, y in zip(top, low)]
            R[j + 1] = [c * y - s * x for x, y in zip(top, low)]
            R[j + 1][j] = 0.0
            Q[:, j : j + 2] = Q[:, j : j + 2] @ np.array([[c, -s], [s, c]])
        R.pop()

    def solve(self, h_active):
        """Least-norm u with N^T u = h_active, and its multipliers."""
        R, y = self.R, []
        if not R:
            return np.zeros(len(self.Q)), []
        for i, hi in enumerate(h_active):  # forward substitution, R^T y = h
            y.append((hi - sum(R[j][i] * y[j] for j in range(i))) / R[i][i])
        return self.Q[:, : len(y)] @ y, [-v for v in _back_substitute(R, y)]


@functools.lru_cache(maxsize=256)
def _step_bound(m, d):
    """_dual_active_set's step bound on m rows in R^d: d + 1 times the
    number of row subsets of size <= d."""
    return (d + 1) * sum(math.comb(m, s) for s in range(min(m, d) + 1))


def _most_violated(values, active):
    """(p, G_p u - h_p) for the most violated inactive row, as argmax picks
    it from ``values`` (G u - h as a list): the first maximum, or the first
    NaN; p = -1 when every row is active."""
    p, top = -1, -math.inf
    for i, v in enumerate(values):
        if v > top:
            if i not in active:
                p, top = i, v
        elif v != v and i not in active:
            return i, v
    return p, top


def _ratio_test(lam, r):
    """(t1, k): the largest step before an active multiplier lam_k - t r_k
    reaches zero (the first such k), or (inf, -1) when none decreases."""
    t1, k = math.inf, -1
    for j, (lj, rj) in enumerate(zip(lam, r)):
        if rj > _DEPENDENT and lj / rj < t1:
            t1, k = lj / rj, j
    return t1, k


def _ray(m, p, active, r):
    """The dual ray's Farkas certificate over the m rows: 1 on the entering
    row p and max(0, -r) on the active rows."""
    cert = np.zeros(m)
    cert[p] = 1.0
    cert[active] = np.maximum(0.0, np.negative(r))
    return cert


def _optimum(fac, active, hl):
    """_dual_active_set's return at the optimum: u and the multipliers
    solved from the factor, the multipliers as np.maximum(lam, 0.0) gives
    them (a NaN stays, -0.0 becomes 0.0)."""
    u, lam = fac.solve([hl[i] for i in active])
    return u, active, [v if v > 0.0 or v != v else 0.0 for v in lam], None


def _dual_active_set(G, h, warm, feas_tol):
    """Goldfarb–Idnani dual method for min 1/2 ||u||^2 s.t. G u <= h.

    G has unit rows.  The iterate is always the optimum over its active
    rows with nonnegative multipliers; the most violated row p then enters
    along the primal direction z (g_p off the active normals N) while the
    active multipliers move along -r, where g_p = N r + z.  A step either
    makes p tight (full step) or drives a multiplier to zero and drops that
    row (partial step).  When z = 0 and no r_j is positive there is no
    step: g_p - N r = 0 with -r >= 0, and p's violation makes the dual ray
    (1 on p, -r on the active rows) a Farkas certificate.

    Termination: every full step raises the dual objective 1/2 ||u||^2
    strictly, and u is then the least-norm point of its active rows, so no
    active set recurs after a full step; at most d partial steps separate
    two full steps.  The number of row subsets of size <= d, times d + 1,
    therefore bounds the steps in exact arithmetic; passing it raises
    QPBreakdownError rather than returning an unproven point.

    Returns (u, active, lam_active, None) at the optimum, with lam_active a
    list, or (None, None, None, certificate) with the certificate over G's
    rows.
    """
    m, d = G.shape
    if m == 0:
        return np.zeros(d), [], [], None
    hl = h.tolist()
    fac = _ActiveFactor(d, min(m, d))
    active: list[int] = []
    for i in warm:
        if i not in active and len(active) < d:
            dv, z = fac.split(G[i])
            zn = math.sqrt(z @ z)
            if zn > _DEPENDENT:
                fac.add(dv, z, zn)
                active.append(i)
    while active:  # the warm rows are only a hint: shed negative multipliers
        u, lam = fac.solve([hl[i] for i in active])
        if min(lam) >= 0.0:
            break
        k = lam.index(min(lam))
        fac.remove(k)
        del active[k]
    else:
        u, lam = np.zeros(d), []
    cap = _step_bound(m, d)
    steps = 0
    while True:
        p, top = _most_violated((G @ u - h).tolist(), active)
        if p < 0 or top <= feas_tol:
            return _optimum(fac, active, hl)
        g, lam_p = G[p], 0.0
        while True:
            if steps >= cap:
                raise QPBreakdownError(f"dual active-set QP passed its bound of {cap} steps")
            steps += 1
            dv, z = fac.split(g)
            zz = float(z @ z)
            r = _back_substitute(fac.R, dv)
            t1, k = _ratio_test(lam, r)
            if zz <= _DEPENDENT**2:
                if k < 0:
                    return None, None, None, _ray(m, p, active, r)
                t = t1
            else:
                t = min(t1, float(g @ u - hl[p]) / zz)
                u = u - t * z
            lam = [lj - t * rj for lj, rj in zip(lam, r)]
            lam_p += t
            if t == t1:
                fac.remove(k)
                del active[k], lam[k]
                continue
            fac.add(dv, z, math.sqrt(zz))
            active.append(p)
            lam.append(lam_p)
            break


def _abs_max(values):
    """max |v| over a nonempty list of floats, NaN when one is NaN, as
    numpy's max of the absolute values gives it."""
    mags = [abs(v) for v in values]
    total = sum(mags)  # NaN exactly when some magnitude is NaN
    return total if total != total else max(mags)


def _max_unless_nan(top, values):
    """Python's max(top, numpy's max(values, initial=0.0)) for top >= 0 or
    NaN: numpy's max is NaN when a value is NaN, and a NaN never beats
    ``top`` in Python's max, so a NaN among ``values`` leaves ``top``."""
    best = top
    for v in values:
        if v > best:
            best = v
        elif v != v:
            return top
    return best


class _Prepared:
    """What projecting onto one polyhedron needs that no query point
    changes: the unit rows and offsets, the parallel row pairs, and
    ``split``, the row split when no parallel row is dropped (None until
    Polyhedron.prepare computes it).  ``is_eq`` is a tuple of bools."""

    __slots__ = ("A", "b", "row_norms", "is_eq", "b_max", "pairs", "split")

    def __init__(self, constraints):
        A = np.array([c.normal for c in constraints], dtype=float)
        b = np.array([c.offset for c in constraints], dtype=float)
        self.is_eq = tuple(c.kind == "equality" for c in constraints)
        self.row_norms = np.sqrt(np.einsum("ij,ij->i", A, A))
        # Row-normalize up front: constraints born from projections carry
        # normals as short as the gap itself, and mixed row scales wreck the
        # conditioning of the equality elimination.  Multipliers and
        # certificates are mapped back to the original rows on exit.
        self.A = A / self.row_norms[:, None]
        self.b = b / self.row_norms
        self.b_max = _abs_max(self.b.tolist())
        self.pairs = _parallel_pairs(self.A) if len(constraints) > 1 else []
        self.split = None


class _Split:
    """The rows ``keep`` that survive the pairwise reduction, as equality
    rows ``eq_idx`` and inequality rows ``in_idx`` (lists), with every part
    of the equality elimination that does not depend on the query point.

    Without equality rows, G = A_in (the prepared A itself when no row is
    dropped), h = b_in - G x0 and ``gn`` is None.  With them, x = x_p + Z u
    where x_p = x_ls + Z Z^T (x0 - x_ls), and the inequality rows become
    the unit rows G u <= h of A_in Z, h = (b_in - A_in x_p) / gn on the
    rows not flat on the affine span.
    """

    __slots__ = (
        "eq_idx", "in_all", "A_in", "b_in", "U", "s", "Vr", "Z", "x_ls", "r", "r_max",
        "flat", "in_idx", "G", "gn",
    )

    def __init__(self, prep, keep):
        A, b, is_eq = prep.A, prep.b, prep.is_eq
        self.eq_idx = eq_idx = [i for i in keep if is_eq[i]]
        self.in_all = in_idx = [i for i in keep if not is_eq[i]]
        if len(in_idx) == len(is_eq):
            self.A_in, self.b_in = A, b
        else:
            self.A_in, self.b_in = A[in_idx], b[in_idx]
        self.flat = self.gn = self.Z = None
        self.in_idx, self.G = in_idx, self.A_in
        if not eq_idx:
            return
        A_eq, b_eq = A[eq_idx], b[eq_idx]
        U, s, Vt = np.linalg.svd(A_eq)
        s_list = s.tolist()
        cut = 1e-12 * max(1.0, s_list[0])
        rank = sum(v > cut for v in s_list)
        self.U, self.s, self.Vr = U[:, :rank], s[:rank], Vt[:rank]
        self.Z = Vt[rank:].T  # spans the null space
        self.x_ls = self.Vr.T @ ((self.U.T @ b_eq) / self.s)
        self.r = b_eq - A_eq @ self.x_ls
        self.r_max = _abs_max(self.r.tolist())
        G = self.A_in @ self.Z
        gn = np.sqrt(np.einsum("ij,ij->i", G, G))
        flat = gn <= 1e-12
        if flat.any():  # rows flat on the span are trivially satisfied
            self.flat = flat
            self.in_idx = [i for i, f in zip(in_idx, flat.tolist()) if not f]
            G, gn = G[~flat], gn[~flat]
        self.gn = gn
        self.G = G / gn[:, None]

    def eq_multipliers(self, v):
        """Least-squares mu with sum_e mu_e a_e = v."""
        return self.U @ ((self.Vr @ v) / self.s)


def _freeze(obj):
    """Make every array attribute of ``obj`` read-only."""
    for name in obj.__slots__:
        value = getattr(obj, name, None)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _prelude(prep, x0):
    """The per-point work before the dual active set: the scale, the
    pairwise reduction's offset tests, the row split and the right-hand
    side h of the inequality subproblem.

    Returns (scale, split, x_p, h, cert).  ``cert`` is a Farkas vector over
    the unit rows when this work already shows the polyhedron empty (h is
    then None); ``x_p`` is the particular point of the equality rows, None
    without them.  ``split`` is prep.split unless the reduction drops a row.
    """
    b, is_eq = prep.b, prep.is_eq
    k = b.shape[0]
    scale = max(1.0, math.sqrt(x0 @ x0), prep.b_max)
    keep = range(k)
    if prep.pairs:
        keep, cert = _pairwise_reduction(prep.pairs, b, is_eq, scale)
        if keep is None:
            return scale, None, None, None, cert
    split = prep.split
    if split is None or len(keep) < k:
        split = _Split(prep, keep)
    Z = split.Z
    if Z is None:
        return scale, split, None, split.b_in - split.G @ x0, None
    if split.r_max > 1e-9 * scale:
        cert = np.zeros(k)
        cert[split.eq_idx] = -split.r
        return scale, split, None, None, cert
    x_p = split.x_ls + Z @ (Z.T @ (x0 - split.x_ls))
    h = split.b_in - split.A_in @ x_p
    if split.flat is not None:
        contradicted = split.flat & (h < -1e-9 * scale)
        if contradicted.any():
            # a_i is spanned by the equality normals but contradicts them
            cert = _ray_certificate(prep, split, split.in_all[contradicted.argmax()], 1.0)
            return scale, split, x_p, None, cert
        h = h[~split.flat]
    return scale, split, x_p, h / split.gn, None


def _ray_certificate(prep, split, rows, lam):
    """The Farkas vector with ``lam`` on the inequality ``rows``: a
    combination that the equality normals span (or that vanishes), so the
    equality multipliers cancel it."""
    cert = np.zeros(prep.b.shape[0])
    cert[rows] = lam
    if split.eq_idx:
        cert[split.eq_idx] = split.eq_multipliers(-(cert @ prep.A))
    return cert


def _kernel_certificate(prep, split, ray):
    """_ray_certificate of the dual active set's ray over split.G's rows."""
    return _ray_certificate(prep, split, split.in_idx, ray if split.gn is None else ray / split.gn)


def _verified(prep, cert, scale):
    """The certificate over the original rows, once it verifies."""
    if not _verify_certificate(prep.A, prep.b, prep.is_eq, cert, scale):
        raise QPBreakdownError("empty polyhedron, but its Farkas certificate does not verify")
    return cert / prep.row_norms


def _solve(poly, x0, warm_start):
    """The prelude, the dual active set warm-started from the rows of
    ``warm_start`` that survive the reduction, and the nearest point x:
    (prep, split, active, lam, x, None), or (prep, None, None, None, None,
    certificate) with the verified certificate of an empty polyhedron."""
    prep = poly._prepared or _Prepared(poly.constraints)
    scale, split, x_p, h, cert = _prelude(prep, x0)
    if cert is None:
        warm = []
        if len(warm_start):
            position = {i: j for j, i in enumerate(split.in_idx)}
            warm = [position[w] for w in warm_start if w in position]
        u, active, lam, ray = _dual_active_set(split.G, h, warm, 1e-11 * scale)
        if ray is None:
            return prep, split, active, lam, x0 + u if split.Z is None else x_p + split.Z @ u, None
        cert = _kernel_certificate(prep, split, ray)
    return prep, None, None, None, None, _verified(prep, cert, scale)


def project_onto_polyhedron(poly: Polyhedron, x0, warm_start=()) -> QPResult:
    """Nearest point of the polyhedron to ``x0``.

    Parallel pairs are settled first, equality constraints are eliminated
    by an orthogonal reduction, and the inequality subproblem runs the
    Goldfarb–Idnani dual active-set method on a QR factor of the active
    normals.  Empty polyhedra come back with ``status="infeasible"`` plus a
    verified Farkas certificate.  ``warm_start`` lists constraint indices
    to try as the initial active set; it is only a hint.  A polyhedron
    that was prepared (Polyhedron.prepare) skips the work that does not
    depend on ``x0``; the result is the same bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.shape[0] != poly.dimension:
        raise ValueError("query point dimension mismatch")
    prep, split, active, lam, x, cert = _solve(poly, x0, warm_start)
    A, b, is_eq = prep.A, prep.b, prep.is_eq
    k = b.shape[0]
    if cert is not None:
        return QPResult(
            point=x0.copy(), status="infeasible", active_set=(), multipliers=np.zeros(k),
            kkt_residual=np.inf, certificate=cert,
        )

    in_idx, gn, eq_idx = split.in_idx, split.gn, split.eq_idx
    mult = [0.0] * k
    for j, v in zip(active, lam):
        mult[in_idx[j]] = v if gn is None else v / gn[j]
    mult = np.array(mult)
    dx = x - x0
    if eq_idx:
        mult[eq_idx] = split.eq_multipliers(-(dx + mult @ A))
    slack = (A @ x - b).tolist()
    resid = dx + mult @ A
    # max(||resid||, max slack, max -slack on equalities, max |mult * slack|
    # on inequalities), each term as numpy's max with initial 0.0 gave it.
    kkt = math.sqrt(resid @ resid)
    kkt = _max_unless_nan(kkt, slack)
    kkt = _max_unless_nan(kkt, [-s for s, e in zip(slack, is_eq) if e])
    kkt = _max_unless_nan(
        kkt, [abs(mu * s) for mu, s, e in zip(mult.tolist(), slack, is_eq) if not e]
    )
    return QPResult(
        point=x,
        status="optimal",
        active_set=tuple(sorted(set(eq_idx) | {in_idx[j] for j in active})),
        multipliers=mult / prep.row_norms,
        kkt_residual=float(kkt),
    )


def _nearest_point(poly, x0):
    """project_onto_polyhedron(poly, x0).point, bit for bit, without the
    multipliers, KKT residual and active set: _solve on its own, as
    project_onto_polyhedron runs it without a warm start.  x0 is a 1-d
    float array of the polyhedron's dimension, unchecked.  Raises what
    project_onto_polyhedron raises (QPBreakdownError), or
    InfeasiblePolyhedronError with the verified certificate its result
    would carry."""
    *_, x, cert = _solve(poly, x0, ())
    if cert is None:
        return x
    raise InfeasiblePolyhedronError("empty polyhedron", cert)


def _most_violated_rows(G, U, H, active):
    """_most_violated on each row of a lockstep scan: (p, top) as arrays,
    from the violations G u - h (one broadcast gemv per row, as G @ u is)
    with the ``active`` rows masked to -inf.  argmax takes the first
    maximum or the first NaN, as _most_violated does."""
    V = np.matmul(G, U[:, :, None])[:, :, 0] - H
    n = np.arange(len(V))
    V[n[:, None], active] = -np.inf
    p = V.argmax(axis=1)
    return p, V[n, p]


def _substitute(R, y, transpose):
    """_ActiveFactor's substitutions on a stack of q x q factors R
    (k, width, width) and right-hand sides y (k, q), as column loops in the
    scalar order: the forward one (R^T x = y) with ``transpose``, the back
    one (R x = y, _back_substitute) without.  Each sum starts from 0.0 and
    adds its products in order, as sum() over Python floats does."""
    q = y.shape[1]
    x = np.empty(y.shape)
    for i in range(q) if transpose else reversed(range(q)):
        acc = np.zeros(len(y))
        for j in range(i) if transpose else range(i + 1, q):
            acc = acc + (R[:, j, i] if transpose else R[:, i, j]) * x[:, j]
        x[:, i] = (y[:, i] - acc) / R[:, i, i]
    return x


def _nearest_points(poly, X):
    """_nearest_point on each row of X, a C-contiguous (k, d) stack of
    checked points, as a list of nearest points; or None, and each row then
    goes to _nearest_point.

    The stack applies to a prepared polyhedron with no parallel pair and no
    equality row: there _prelude is h = b - G x0, and the dual active set
    starts from no active row.  The rows run in lockstep, one scan
    (_most_violated_rows) per step.  A row ends at its optimum or takes one
    full step, so at scan s every running row has s active rows and its
    factor is built by adds alone; so a batch makes at most min(m, d) + 1
    scans.  The stack declines where that does not hold, or where the
    scalar kernel would raise or certify an empty polyhedron: when a step
    would be partial (t == t1, which drops a row; a NaN violation enters
    as _most_violated picks it, and its NaN step declines here), when an
    entering direction depends on the active rows (the dual ray's case),
    and when the step count would reach _step_bound(m, d).  It raises no
    QP error itself.

    Each row runs _solve's arithmetic on its own entries: the scale from
    the row dots of x0 (_row_dots, x0 @ x0) and max; h and every G u, Q^T g
    and Q y as broadcast matmuls over the stack, which give each row the
    gemv (or dot) of the single product, with each factor Q kept at its
    d x width layout; the substitutions in the scalar order (_substitute);
    t = min(t1, v) as Python's min gives it (t1 unless v < t1, a NaN v
    too); and u at the optimum from the factor's solve, as _optimum
    computes it, not from the iterate."""
    prep = poly._prepared
    if prep is None or prep.pairs or prep.split.Z is not None:
        return None
    G, b = prep.split.G, prep.split.b_in
    (m, d), k = G.shape, len(X)
    width, cap = min(m, d), _step_bound(m, d)
    scale = np.sqrt(_row_dots(X, X))
    scale = np.where(scale > 1.0, scale, 1.0)
    feas = 1e-11 * np.where(prep.b_max > scale, prep.b_max, scale)
    H = b - np.matmul(G, X[:, :, None])[:, :, 0]
    U = np.zeros((k, d))
    Q = np.empty((k, d, width))
    R = np.zeros((k, width, width))
    lam = np.empty((k, width))
    active = np.empty((k, width), dtype=np.intp)
    rows, out = np.arange(k), np.empty((k, d))
    s = 0
    while True:
        p, top = _most_violated_rows(G, U, H, active[:, :s])
        done = top <= feas
        if done.any():
            Hd = H[done]
            y = _substitute(R[done], Hd[np.arange(len(Hd))[:, None], active[done, :s]], True)
            out[rows[done]] = X[rows[done]] + np.matmul(Q[done][:, :, :s], y[:, :, None])[:, :, 0]
            step = ~done
            if not step.any():
                return list(out)
            rows, U, H, Q, R, lam, active, feas, p = (
                a[step] for a in (rows, U, H, Q, R, lam, active, feas, p)
            )
        if s >= cap:
            return None
        g = G[p]
        if s:
            Qs = Q[:, :, :s]
            Qt = Qs.transpose(0, 2, 1)
            dv = np.matmul(Qt, g[:, :, None])
            z = g - np.matmul(Qs, dv)[:, :, 0]
            ds = np.matmul(Qt, z[:, :, None])
            dv, z = (dv + ds)[:, :, 0], z - np.matmul(Qs, ds)[:, :, 0]
        else:
            dv, z = np.empty((len(g), 0)), g
        zz = _row_dots(z, z)
        if (zz <= _DEPENDENT**2).any():
            return None
        r = _substitute(R, dv, False)
        ratios = np.full(r.shape, np.inf)
        np.divide(lam[:, :s], r, out=ratios, where=r > _DEPENDENT)
        t1 = ratios.min(axis=1, initial=np.inf)
        t = (_row_dots(g, U) - H[np.arange(len(H)), p]) / zz
        if not (t < t1).all():
            return None
        U = U - t[:, None] * z
        lam[:, :s] = lam[:, :s] - t[:, None] * r
        lam[:, s] = 0.0 + t
        zn = np.sqrt(zz)
        Q[:, :, s] = z / zn[:, None]
        R[:, :s, s] = dv
        R[:, s, s] = zn
        active[:, s] = p
        s += 1


def halfspace_from_projection(
    x_prev,
    nearest,
    is_manifold: bool = False,
    tau: float = 0.0,
    source_set: int | None = None,
    outer_iteration: int | None = None,
    inner_step: int | None = None,
) -> Halfspace:
    """Supporting constraint generated by projecting ``x_prev`` to ``nearest``:
    _supporting_cut's cut, once a gap of norm <= 1e-14 has raised ZeroGapError."""
    nearest = np.asarray(nearest, dtype=float)
    gap = np.asarray(x_prev, dtype=float) - nearest
    if _vector_norm(gap) <= 1e-14:
        raise ZeroGapError("projection gap is zero; no separating constraint")
    return _supporting_cut(gap, nearest, is_manifold, tau, source_set, outer_iteration, inner_step)[0]


def _boundary_point(gap, nearest, is_manifold, tau):
    """The point that the supporting cut of projecting nearest + gap to
    nearest passes through, and where projecting nearest + gap onto that cut
    alone lands: nearest for a manifold (tau is ignored: equalities are never
    relaxed), the tau-relaxed point nearest + tau * gap for any other set.
    Raises ValueError unless tau lies in [0, 1), for a manifold too."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    return nearest if is_manifold else nearest + tau * gap


def _supporting_cut(gap, nearest, is_manifold, tau, *tags):
    """(cut, boundary point) of projecting nearest + gap to nearest, a nonzero
    gap: the one construction of every supporting cut, tags being Halfspace's.
    The normal is gap and the boundary point is _boundary_point's, which a
    solver step that reads no cut moves to without calling this.  A manifold
    gives an equality, any other set an inequality."""
    point = _boundary_point(gap, nearest, is_manifold, tau)
    kind = "equality" if is_manifold else "inequality"
    return Halfspace(gap, float(gap @ point), kind, *tags), point


def derived_halfspace(poly: Polyhedron, x_prev) -> Halfspace:
    """Halfspace generated by projecting ``x_prev`` onto the polyhedron."""
    res = project_onto_polyhedron(poly, x_prev)
    if res.status != "optimal":
        raise InfeasiblePolyhedronError(
            "cannot derive a halfspace from an empty polyhedron", res.certificate
        )
    gap = np.asarray(x_prev, dtype=float) - res.point
    if np.linalg.norm(gap) <= 1e-12:
        raise NoSeparationError("point already lies in the polyhedron")
    return _supporting_cut(gap, res.point, False, 0.0)[0]


def eta(normals) -> float:
    """Distance from the origin to the convex hull of the unit normals.

    Quantifies how linearly regular a bundle of supporting directions is:
    eta = min over the unit simplex of ||sum_i lam_i v_i||, which by duality
    is max over unit w of min_i <v_i, w>.  When the hull misses the origin,
    the least-norm u with <v_i, u> >= 1 for every i has norm 1 / eta, so
    one polyhedral QP from the origin gives eta.  When no such u exists,
    Gordan's theorem puts the origin in the hull: the QP certifies the empty
    polyhedron and eta = 0, meaning some convex combination of the normals
    vanishes and no direction w has <v_i, w> > 0 for every i.
    """
    columns = [np.asarray(v, dtype=float) for v in normals]
    V = np.column_stack(columns) if columns else np.empty((0, 0))
    if V.ndim != 2 or V.shape[1] < 1:
        raise ValueError("eta needs at least one normal")
    lens = np.linalg.norm(V, axis=0)
    # Written so that a NaN length fails the test too.
    if not np.all(np.abs(lens - 1.0) <= 1e-10):
        raise ValueError("normals must be unit vectors")
    res = project_onto_polyhedron(
        Polyhedron([Halfspace(-v, -1.0) for v in V.T]), np.zeros(V.shape[0])
    )
    if res.status == "infeasible":
        return 0.0
    return 1.0 / float(np.linalg.norm(res.point))
