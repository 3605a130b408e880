"""Named problem instances with certified geometry metadata.

Each entry bundles a ProblemInstance with whatever constants are known
analytically for it (metric constant beta, normal-separation eta, convexity
and second-order-support flags) so tests and reports can cross-check the
sampled estimates against ground truth.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import polyhedra
from . import sets as sets_mod
from .solvers import ProblemInstance

__all__ = [
    "GalleryEntry",
    "PowerCusp",
    "polynomial_curve",
    "polynomial_level_set",
    "gallery_entries",
    "gallery_names",
    "get_entry",
]


@dataclasses.dataclass(frozen=True)
class GalleryEntry:
    """A named problem plus its certified metadata.

    beta and eta are analytic values (None when unknown); sosh records
    whether every set supports second-order hyperplanes at the known
    solution (None when unexamined).
    """

    name: str
    problem: ProblemInstance
    convex: bool
    sosh: bool | None
    beta: float | None
    eta: float | None
    note: str

    @property
    def set_count(self) -> int:
        return len(self.problem.sets)

    @property
    def dimension(self) -> int:
        return self.problem.dimension


class PowerCusp(sets_mod.SetOracle):
    """The region {x2 >= |x1|^p} for 1 < p < 2.

    Convex, but the boundary curvature blows up at the origin, so no finite
    second-order supporting bound exists there.  Projection of exterior
    points runs a dense grid plus golden-section refinement on the boundary
    parameter (the boundary is not C^2 at 0, which rules out the Newton
    projector used for smooth level sets).
    """

    kind = "smooth-level-set"
    is_convex = True

    def __init__(self, exponent: float = 1.5):
        super().__init__(2)
        if not 1.0 < exponent < 2.0:
            raise ValueError("exponent must lie in (1, 2)")
        self.exponent = float(exponent)

    def _project(self, x):
        x1, x2 = float(x[0]), float(x[1])
        p = self.exponent
        if x2 >= abs(x1) ** p:
            return np.asarray(x, dtype=float).copy()

        def g(t):
            return (t - x1) ** 2 + (abs(t) ** p - x2) ** 2

        bound = abs(x1) + max(0.0, x2) ** (1.0 / p) + 1.0
        ts = np.linspace(-bound, bound, 4001)
        vals = (ts - x1) ** 2 + (np.abs(ts) ** p - x2) ** 2
        k = int(np.argmin(vals))
        a = ts[max(0, k - 1)]
        b = ts[min(len(ts) - 1, k + 1)]
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = g(c), g(d)
        for _ in range(160):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = g(d)
        t = 0.5 * (a + b)
        return np.array([t, abs(t) ** p])


def _horner(coefficients):
    """t -> np.polynomial.polynomial.polyval(t, coefficients) for a scalar t,
    bit for bit, without polyval's array handling: the same operations in
    the same order.  Like polyval it starts from ``c[-1] + t * 0``, which
    fixes the sign of a zero result and turns an infinite t into NaN.  On a
    float array t it makes the same operations elementwise, so each entry
    equals the scalar value of that entry, bit for bit (IEEE arithmetic is
    per element)."""
    c = [float(v) for v in coefficients]
    last, rest = c[-1], c[-2::-1]

    def value(t):
        acc = last + t * 0
        for ci in rest:
            acc = ci + acc * t
        return acc

    return value


def _polynomial_and_derivatives(coefficients):
    """Scalar evaluators of a polynomial and its first two derivatives."""
    c = np.array(coefficients, dtype=float, ndmin=1)
    if c.size == 0:
        raise ValueError("polynomial coefficients must be a nonempty list")
    if not np.isfinite(c).all():
        raise ValueError("polynomial coefficients must be finite")
    P = np.polynomial.polynomial
    return _horner(c), _horner(P.polyder(c)), _horner(P.polyder(c, 2))


def _gradient_rows(first, second: float) -> np.ndarray:
    """Gradients (first[i], second) as the rows of a (k, 2) array."""
    G = np.empty((first.shape[0], 2))
    G[:, 0] = first
    G[:, 1] = second
    return G


def _hessian_rows(corner, zero: float) -> np.ndarray:
    """Hessians [[corner[i], zero], [zero, zero]] as a (k, 2, 2) stack."""
    H = np.full((corner.shape[0], 2, 2), zero)
    H[:, 0, 0] = corner
    return H


def polynomial_curve(coefficients, name: str = "") -> sets_mod.ManifoldCurve:
    """The curve x2 = c0 + c1*x1 + c2*x1^2 + ... as a manifold in the
    plane.

    f, grad and hess each carry a row form, ``.rows(Y)``: the values at the
    rows of a (k, 2) float array, stacked, bit for bit equal to the scalar
    calls (the same operations, elementwise).  The stacked Newton kernel of
    the sets module uses them (sets._newton_stationarity_stack)."""
    p, dp, ddp = _polynomial_and_derivatives(coefficients)

    def f(x):
        return float(x[1] - p(float(x[0])))

    def grad(x):
        return np.array([-dp(float(x[0])), 1.0])

    def hess(x):
        return np.array([[-ddp(float(x[0])), 0.0], [0.0, 0.0]])

    f.rows = lambda Y: Y[:, 1] - p(Y[:, 0])
    grad.rows = lambda Y: _gradient_rows(-dp(Y[:, 0]), 1.0)
    hess.rows = lambda Y: _hessian_rows(-ddp(Y[:, 0]), 0.0)
    return sets_mod.ManifoldCurve(2, f, grad, hess, name=name or "polynomial-curve")


def polynomial_level_set(
    coefficients, side: str, convex: bool = False, name: str = ""
) -> sets_mod.LevelSet:
    """The region above or below the graph x2 = poly(x1); f, grad and hess
    carry row forms, as polynomial_curve's do."""
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    sign = 1.0 if side == "above" else -1.0
    p, dp, ddp = _polynomial_and_derivatives(coefficients)

    # side "above" keeps x2 >= poly(x1): f = poly(x1) - x2 <= 0.
    def f(x):
        return sign * float(p(float(x[0])) - x[1])

    def grad(x):
        return sign * np.array([dp(float(x[0])), -1.0])

    def hess(x):
        return sign * np.array([[ddp(float(x[0])), 0.0], [0.0, 0.0]])

    f.rows = lambda Y: sign * (p(Y[:, 0]) - Y[:, 1])
    grad.rows = lambda Y: _gradient_rows(sign * dp(Y[:, 0]), sign * -1.0)
    hess.rows = lambda Y: _hessian_rows(sign * ddp(Y[:, 0]), sign * 0.0)
    return sets_mod.LevelSet(
        2, f, grad, hess, name=name or f"polynomial-{side}", convex=convex
    )


def two_lines_problem(theta: float, name: str) -> ProblemInstance:
    """Two lines through the origin at angle theta."""
    line1 = sets_mod.AffineSubspace((0.0, 0.0), [(1.0, 0.0)])
    line2 = sets_mod.AffineSubspace((0.0, 0.0), [(math.cos(theta), math.sin(theta))])
    return ProblemInstance(
        name,
        [line1, line2],
        start=(1.0, 0.0),
        known_solution=(0.0, 0.0),
        intersection_oracle=sets_mod.PointSet([(0.0, 0.0)]),
    )


def _two_lines_entry(theta: float, name: str, note: str) -> GalleryEntry:
    beta = 1.0 / math.sin(theta / 2.0)
    eta = min(math.sin(theta / 2.0), math.cos(theta / 2.0))
    return GalleryEntry(
        name,
        two_lines_problem(theta, name),
        convex=True,
        sosh=True,
        beta=beta,
        eta=eta,
        note=note,
    )


def _backtrack_entry() -> GalleryEntry:
    h1 = polyhedra.Halfspace(np.array([0.0, 1.0, 0.0]), 0.0)
    h2 = polyhedra.Halfspace(np.array([1.0 / 3.0, -1.0, 0.0]), -2.0)
    h3 = polyhedra.Halfspace(np.array([-1.0, -1.0, 1.0]), 0.0)
    k1 = sets_mod.HalfspaceSet((0.0, 1.0, 0.0), 0.0)
    k2 = sets_mod.PolyhedralSet([h2, h3])
    problem = ProblemInstance(
        "backtrack-example",
        [k1, k2],
        start=(0.0, 1.0, 0.0),
        known_solution=(-6.0, 0.0, -6.0),
        intersection_oracle=sets_mod.PolyhedralSet([h1, h2, h3]),
    )
    return GalleryEntry(
        "backtrack-example",
        problem,
        convex=True,
        sosh=True,
        beta=None,
        eta=None,
        note=(
            "halfspace plus a two-face polyhedron; the exact pooled QP step "
            "reaches the intersection fast, while merit-function backtracking "
            "rejects it (max-distance merit rises on the first QP step)"
        ),
    )


def _halfspace_pair_entry() -> GalleryEntry:
    k1 = sets_mod.HalfspaceSet((1.0, 0.0), 0.0)
    k2 = sets_mod.HalfspaceSet((0.0, 1.0), 0.0)
    inter = sets_mod.PolyhedralSet(
        [
            polyhedra.Halfspace(np.array([1.0, 0.0]), 0.0),
            polyhedra.Halfspace(np.array([0.0, 1.0]), 0.0),
        ]
    )
    problem = ProblemInstance(
        "halfspace-pair",
        [k1, k2],
        start=(1.0, 1.0),
        known_solution=(0.0, 0.0),
        intersection_oracle=inter,
    )
    return GalleryEntry(
        "halfspace-pair",
        problem,
        convex=True,
        sosh=True,
        beta=math.sqrt(2.0),
        eta=1.0 / math.sqrt(2.0),
        note="orthogonal halfspaces meeting at the origin corner",
    )


def _circle_line_entry() -> GalleryEntry:
    circle = sets_mod.Sphere((0.0, 0.0), 1.0)
    line = sets_mod.AffineSubspace((1.0, 0.0), [(0.5, math.sqrt(3.0) / 2.0)])
    crossings = [(1.0, 0.0), (0.5, -math.sqrt(3.0) / 2.0)]
    problem = ProblemInstance(
        "circle-line",
        [circle, line],
        start=(1.45, 0.3),
        known_solution=(1.0, 0.0),
        intersection_oracle=sets_mod.PointSet(crossings),
    )
    # The curves cross at angle pi/6 (circle tangent is vertical at (1,0)).
    theta = math.pi / 6.0
    return GalleryEntry(
        "circle-line",
        problem,
        convex=False,
        sosh=True,
        beta=1.0 / math.sin(theta / 2.0),
        eta=min(math.sin(theta / 2.0), math.cos(theta / 2.0)),
        note="unit circle and a secant line, transversal crossings at two points",
    )


def _two_parabolas_entry() -> GalleryEntry:
    c1 = polynomial_curve([0.0, 0.0, 1.0], name="x2=x1^2")
    c2 = polynomial_curve([0.0, 2.0, -1.0], name="x2=2x1-x1^2")
    problem = ProblemInstance(
        "two-parabolas",
        [c1, c2],
        start=(1.4, 0.6),
        known_solution=(1.0, 1.0),
        intersection_oracle=sets_mod.PointSet([(0.0, 0.0), (1.0, 1.0)]),
    )
    # Tangents at (1,1) are (1,2)/sqrt(5) and (1,0): crossing angle
    # arccos(1/sqrt(5)).
    theta = math.acos(1.0 / math.sqrt(5.0))
    return GalleryEntry(
        "two-parabolas",
        problem,
        convex=False,
        sosh=True,
        beta=1.0 / math.sin(theta / 2.0),
        eta=min(math.sin(theta / 2.0), math.cos(theta / 2.0)),
        note="two smooth curves crossing transversally at (0,0) and (1,1)",
    )


def _parabola_lens_entry() -> GalleryEntry:
    k1 = polynomial_level_set([0.0, 0.0, 1.0], "above", convex=True, name="x2>=x1^2")
    k2 = polynomial_level_set(
        [0.0, 2.0, -1.0], "below", convex=True, name="x2<=2x1-x1^2"
    )
    problem = ProblemInstance(
        "parabola-lens",
        [k1, k2],
        start=(-0.3, 0.4),
        known_solution=(0.0, 0.0),
        intersection_oracle=sets_mod.IntersectionSet([k1, k2]),
    )
    # Outward normals at the corner: (0,-1) and (-2,1)/sqrt(5).
    phi = math.acos(-1.0 / math.sqrt(5.0))
    return GalleryEntry(
        "parabola-lens",
        problem,
        convex=True,
        sosh=True,
        beta=1.0 / math.cos(phi / 2.0),
        eta=math.cos(phi / 2.0),
        note=(
            "convex lens between two parabolic boundaries; the corner at the "
            "origin exercises second-order support under intersection"
        ),
    )


def _rank1_affine_entry() -> GalleryEntry:
    xs = np.array([[1.0, 0.5], [0.5, 0.25]])
    d = np.array([[0.3, -0.7], [0.4, 0.2]])
    # det(xs + t d) = 0 at t = 0 and t = -c1/det(d) with c1 the mixed term.
    c1 = (
        xs[0, 0] * d[1, 1]
        + d[0, 0] * xs[1, 1]
        - xs[0, 1] * d[1, 0]
        - d[0, 1] * xs[1, 0]
    )
    t1 = -c1 / np.linalg.det(d)
    other = xs + t1 * d
    rank_set = sets_mod.FixedRankSet(2, 2, 1)
    line = sets_mod.AffineSubspace(xs.reshape(-1), [d.reshape(-1)])
    problem = ProblemInstance(
        "rank1-affine",
        [rank_set, line],
        start=(1.03, 0.47, 0.52, 0.23),
        known_solution=xs.reshape(-1),
        intersection_oracle=sets_mod.PointSet([xs.reshape(-1), other.reshape(-1)]),
    )
    return GalleryEntry(
        "rank1-affine",
        problem,
        convex=False,
        sosh=True,
        beta=None,
        eta=None,
        note="rank-one 2x2 matrices meeting an affine line at two isolated points",
    )


def _wedge_entry() -> GalleryEntry:
    a = 3.0 * math.pi / 8.0
    n1 = np.array([-math.sin(a), math.cos(a)])
    n2 = np.array([math.sin(a), math.cos(a)])
    k1 = sets_mod.HalfspaceSet(n1, 0.0)
    k2 = sets_mod.HalfspaceSet(n2, 0.0)
    inter = sets_mod.PolyhedralSet(
        [polyhedra.Halfspace(n1, 0.0), polyhedra.Halfspace(n2, 0.0)]
    )
    problem = ProblemInstance(
        "two-shqp-wedge",
        [k1, k2],
        start=(0.0, 1.0),
        known_solution=(0.0, 0.0),
        intersection_oracle=inter,
    )
    return GalleryEntry(
        "two-shqp-wedge",
        problem,
        convex=True,
        sosh=True,
        beta=1.0 / math.sin(math.pi / 8.0),
        eta=math.cos(a),
        note=(
            "wedge of opening pi/4; from (0,1) the two-set method's first "
            "turn is acute, so its QP branch fires and the set distance "
            "drops strictly"
        ),
    )


def _halfspace_ball_entry() -> GalleryEntry:
    k1 = sets_mod.HalfspaceSet((0.0, 1.0), 0.0)
    k2 = sets_mod.Ball((0.0, -1.0), 1.0)
    problem = ProblemInstance(
        "halfspace-ball",
        [k1, k2],
        start=(1.0, 0.5),
        known_solution=(0.0, 0.0),
        intersection_oracle=sets_mod.Ball((0.0, -1.0), 1.0),
    )
    return GalleryEntry(
        "halfspace-ball",
        problem,
        convex=True,
        sosh=True,
        beta=1.0,
        eta=1.0,
        note=(
            "ball internally tangent to a halfspace: the two-set method's "
            "first turn is obtuse from (1, 0.5), exercising the copy branch"
        ),
    )


def _union_axes_entry() -> GalleryEntry:
    ax1 = sets_mod.AffineSubspace((0.0, 0.0), [(1.0, 0.0)])
    ax2 = sets_mod.AffineSubspace((0.0, 0.0), [(0.0, 1.0)])
    union = sets_mod.UnionOfConvex([ax1, ax2])
    problem = ProblemInstance(
        "union-axes",
        [union],
        start=(0.3, 0.2),
        known_solution=(0.0, 0.0),
        intersection_oracle=union,
    )
    return GalleryEntry(
        "union-axes",
        problem,
        convex=False,
        sosh=False,
        beta=1.0,
        eta=1.0,
        note=(
            "union of the two coordinate axes: super-regularity fails at the "
            "origin (normal of one branch sees points of the other), the "
            "negative control for the regularity sampler"
        ),
    )


def _cusp_entry() -> GalleryEntry:
    cusp = PowerCusp(1.5)
    problem = ProblemInstance(
        "cusp-three-halves",
        [cusp],
        start=(0.4, -0.3),
        known_solution=(0.0, 0.0),
        intersection_oracle=cusp,
    )
    return GalleryEntry(
        "cusp-three-halves",
        problem,
        convex=True,
        sosh=False,
        beta=1.0,
        eta=1.0,
        note=(
            "region above |x1|^{3/2}: convex, yet the second-order support "
            "quotient grows like radius^{-1/2} near the origin, so no finite "
            "bound holds"
        ),
    )


_BUILDERS = {
    "backtrack-example": _backtrack_entry,
    "two-lines-45": lambda: _two_lines_entry(
        math.pi / 4.0,
        "two-lines-45",
        "two lines at 45 degrees; cyclic projections contract by exactly 1/2 "
        "per sweep",
    ),
    "two-lines-60": lambda: _two_lines_entry(
        math.pi / 3.0,
        "two-lines-60",
        "two lines at 60 degrees; cyclic projections contract by exactly 1/4 "
        "per sweep",
    ),
    "halfspace-pair": _halfspace_pair_entry,
    "circle-line": _circle_line_entry,
    "two-parabolas": _two_parabolas_entry,
    "parabola-lens": _parabola_lens_entry,
    "rank1-affine": _rank1_affine_entry,
    "two-shqp-wedge": _wedge_entry,
    "halfspace-ball": _halfspace_ball_entry,
    "union-axes": _union_axes_entry,
    "cusp-three-halves": _cusp_entry,
}


def gallery_names() -> list[str]:
    return list(_BUILDERS)


def gallery_entries() -> list[GalleryEntry]:
    return [build() for build in _BUILDERS.values()]


def get_entry(name: str) -> GalleryEntry:
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown gallery problem {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    return build()
