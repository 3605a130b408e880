"""Projection-oracle tests: each oracle against an independent route
(closed form, dense scan, or a different module's solver)."""

import math

import numpy as np
import pytest

from shqp import polyhedra, sets, solvers
from shqp.sets import (
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatchError,
    FixedRankSet,
    HalfspaceSet,
    HyperplaneSet,
    InsufficientSamplesError,
    IntersectionSet,
    PointSet,
    PolyhedralSet,
    Sphere,
    UnionOfConvex,
    project,
)
from shqp.gallery import polynomial_curve, polynomial_level_set


def test_affine_subspace_whose_qr_overflows():
    # The row's norm overflows, and the QR then returns a basis of inf and
    # NaN; the row over its largest magnitude spans the same line.
    line = AffineSubspace([0, 0], [[1e308, 1e308]])
    np.testing.assert_allclose(project(line, (1.0, 2.0))[0], [1.5, 1.5], rtol=1e-15)
    with pytest.raises(ValueError, match="finite"):
        AffineSubspace([0, 0], [[math.inf, 1.0]])


def test_ball_projection_closed_form():
    ball = Ball((1.0, -2.0), 2.0)
    rng = np.random.default_rng(0)
    c = np.array([1.0, -2.0])
    for _ in range(100):
        x = rng.standard_normal(2) * 4.0
        p, d = project(ball, x)
        r = np.linalg.norm(x - c)
        if r <= 2.0:
            assert np.allclose(p, x) and d == 0.0
        else:
            assert np.allclose(p, c + 2.0 * (x - c) / r, atol=1e-12)
            assert d == pytest.approx(r - 2.0, abs=1e-12)
    assert ball.is_convex and not ball.is_manifold


def test_box_projection_is_clip():
    box = Box((-1.0, 0.0, 2.0), (1.0, 0.5, 3.0))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(3) * 3.0
        p, d = project(box, x)
        clip = np.clip(x, [-1.0, 0.0, 2.0], [1.0, 0.5, 3.0])
        assert np.allclose(p, clip, atol=1e-14)
        assert d == pytest.approx(np.linalg.norm(x - clip), abs=1e-12)
    with pytest.raises(ValueError):
        Box((0.0, 1.0), (1.0, 0.0))  # crossed bounds


def test_halfspace_and_hyperplane_projection():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        b = float(rng.standard_normal())
        x = rng.standard_normal(n)
        resid = (a @ x - b) / (a @ a)
        ph, dh = project(HalfspaceSet(a, b), x)
        assert np.allclose(ph, x - max(0.0, resid) * a, atol=1e-12)
        pp, dp = project(HyperplaneSet(a, b), x)
        assert np.allclose(pp, x - resid * a, atol=1e-12)
        assert dp == pytest.approx(abs(resid) * np.linalg.norm(a), rel=1e-10, abs=1e-12)
        assert dh <= dp + 1e-12


def test_affine_subspace_projection_least_squares():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        point = rng.standard_normal(n)
        basis = rng.standard_normal((k, n))
        sub = AffineSubspace(point, basis)
        x = rng.standard_normal(n) * 2.0
        p, d = project(sub, x)
        coef, *_ = np.linalg.lstsq(basis.T, x - point, rcond=None)
        expect = point + basis.T @ coef
        assert np.allclose(p, expect, atol=1e-9)
        assert d == pytest.approx(np.linalg.norm(x - expect), abs=1e-9)


def test_sphere_projection_both_sides():
    sph = Sphere((0.0, 0.0), 1.0)
    p, d = project(sph, np.array([3.0, 0.0]))
    assert np.allclose(p, [1.0, 0.0]) and d == pytest.approx(2.0)
    p, d = project(sph, np.array([0.1, 0.0]))
    assert np.allclose(p, [1.0, 0.0]) and d == pytest.approx(0.9)
    assert sph.is_manifold and not sph.is_convex
    assert sph.membership_residual(np.array([0.6, 0.8])) <= 1e-12


def test_point_set_picks_nearest():
    ps = PointSet([(0.0, 0.0), (2.0, 0.0), (0.0, 3.0)])
    p, d = project(ps, np.array([1.6, 0.1]))
    assert np.allclose(p, [2.0, 0.0])
    assert d == pytest.approx(math.hypot(0.4, 0.1), abs=1e-12)


def test_ties_go_to_the_lexicographically_smallest_point():
    """The module's tie rule, for each oracle whose projection can be
    set-valued in closed form."""
    p, d = project(PointSet([(1.0, 0.0), (-1.0, 0.0)]), np.zeros(2))
    np.testing.assert_array_equal(p, [-1.0, 0.0])
    assert d == 1.0
    axes = UnionOfConvex(
        [AffineSubspace((0.0, 0.0), [(1.0, 0.0)]), AffineSubspace((0.0, 0.0), [(0.0, 1.0)])]
    )
    p, d = project(axes, np.array([1.0, 1.0]))
    np.testing.assert_array_equal(p, [0.0, 1.0])
    assert d == 1.0
    center = np.array([0.5, 2.0, -1.0])
    p, d = project(Sphere(center, 1.5), center)
    np.testing.assert_array_equal(p, [-1.0, 2.0, -1.0])
    assert d == 1.5


def test_polyhedral_set_agrees_with_qp_module():
    """Same geometry through the oracle API and the QP solver directly."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        z0 = rng.standard_normal(n)
        hs = []
        for _ in range(int(rng.integers(1, 4))):
            a = rng.standard_normal(n)
            while np.linalg.norm(a) < 1e-3:
                a = rng.standard_normal(n)
            hs.append(polyhedra.Halfspace(a, float(a @ z0 + abs(rng.standard_normal()))))
        oracle = PolyhedralSet(hs)
        x = rng.standard_normal(n) * 2.0
        p, d = project(oracle, x)
        res = polyhedra.project_onto_polyhedron(polyhedra.Polyhedron(hs), x)
        assert np.allclose(p, res.point, atol=1e-9)


@pytest.mark.parametrize(
    "normal, offset",
    [([1.0, math.nan], 0.5), ([math.inf, 0.0], 0.5), ([1.0, 0.0], math.nan), ([1.0, 0.0], -math.inf)],
    ids=["normal-nan", "normal-inf", "offset-nan", "offset-inf"],
)
def test_polyhedral_set_rejects_a_non_finite_halfspace(normal, offset):
    # polyhedra.Halfspace accepts these; a solver run on such a set used to
    # end in IndexError('pop from empty list') inside the QP.
    good = polyhedra.Halfspace([0.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="halfspace 1 of the polyhedron set has a non-finite"):
        PolyhedralSet([good, polyhedra.Halfspace(normal, offset)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: HalfspaceSet([1.0, 0.0], v), "halfspace offset"),
        (lambda v: HyperplaneSet([1.0, 0.0], v), "hyperplane offset"),
        (lambda v: Ball([0.0, 0.0], v), "ball radius"),
        (lambda v: Sphere([0.0, 0.0], v), "sphere radius"),
        (lambda v: PointSet([(v, 0.0), (1.0, 0.0)]), "point-set points"),
    ],
    ids=["halfspace", "hyperplane", "ball", "sphere", "point-set"],
)
def test_set_constructors_reject_non_finite_numbers(build, field, value):
    # All but a -inf radius used to build: a NaN offset or radius projected
    # every point to NaN, and a NaN point made every point-set projection
    # fail in min().
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        build(value)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((2.5, 2, 1), "^rows must be an integer$"),
        ((2, 2, True), "^rank must be an integer$"),
        ((2, "2", 1), "^cols must be an integer$"),
    ],
    ids=["fractional-rows", "bool-rank", "string-cols"],
)
def test_fixed_rank_set_rejects_non_integer_sizes(sizes, message):
    # (2.5, 2.9, 1) used to build a set of dimension 7 whose every
    # projection failed to reshape; JSON's int() truncated it to 2 x 2.
    with pytest.raises(ValueError, match=message):
        FixedRankSet(*sizes)


def test_fixed_rank_set_takes_an_integral_float():
    s = FixedRankSet(2.0, 2, 1)
    assert s.dimension == 4 and type(s.rows) is int
    assert project(s, np.array([1.0, 0.0, 0.0, 1.0]))[1] == pytest.approx(1.0)


def test_level_set_rejects_a_non_bool_convex():
    # "no" is truthy: it used to build a convex set, whose cuts lose tau.
    with pytest.raises(ValueError, match="convex must be a bool"):
        polynomial_level_set([0.0, 0.0, 1.0], "above", convex="no")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PointSet([]), "^point-set needs at least one point$"),
        (lambda: PointSet([(0.0, 0.0), (1.0,)]), r"^point-set point 1 has shape \(1,\), expected \(2,\)$"),
        (lambda: AffineSubspace([0.0, 0.0], [[1.0, 0.0], [1.0]]), r"^affine-subspace basis row 1 has shape"),
        (lambda: AffineSubspace([0.0, 0.0], []), "^affine-subspace needs at least one basis row$"),
        (lambda: Box([0.0, 0.0], [1.0]), "^box bounds have dimensions 2 and 1$"),
    ],
    ids=["empty-points", "ragged-points", "ragged-basis", "empty-basis", "box-bounds"],
)
def test_row_lists_name_the_bad_row(build, message):
    # PointSet([]) used to build a 0-dimensional set, and a ragged list
    # raised numpy's "inhomogeneous shape" error.
    with pytest.raises(ValueError, match=message):
        build()


def test_a_finite_polyhedral_set_still_solves():
    with pytest.raises(ValueError, match="halfspace 0 "):
        PolyhedralSet([polyhedra.Halfspace([1.0, math.nan], 0.5), polyhedra.Halfspace([0.0, 1.0], 1.0)])
    hs = [polyhedra.Halfspace([1.0, 0.5], 0.5), polyhedra.Halfspace([0.0, 1.0], 1.0)]
    poly = PolyhedralSet(hs)
    x = np.array([2.0, 2.0])
    want = polyhedra.project_onto_polyhedron(polyhedra.Polyhedron(hs).prepare(), x).point
    assert project(poly, x)[0].tobytes() == want.tobytes()
    problem = solvers.ProblemInstance("finite-polyhedron", [poly, Ball([0.0, 0.0], 1.0)], x)
    assert solvers.run_mass_projection(problem).status == "converged"


def test_union_of_convex_takes_min_distance():
    ax1 = AffineSubspace((0.0, 0.0), [(1.0, 0.0)])
    ax2 = AffineSubspace((0.0, 0.0), [(0.0, 1.0)])
    union = UnionOfConvex([ax1, ax2])
    p, d = project(union, np.array([0.3, 0.8]))
    assert np.allclose(p, [0.0, 0.8])  # the vertical axis is closer
    assert d == pytest.approx(0.3, abs=1e-12)
    assert not union.is_convex


def test_intersection_set_agrees_with_polyhedral_route():
    h1 = polyhedra.Halfspace(np.array([1.0, 0.0]), 0.0)
    h2 = polyhedra.Halfspace(np.array([0.0, 1.0]), 0.0)
    inter = IntersectionSet([HalfspaceSet((1.0, 0.0), 0.0), HalfspaceSet((0.0, 1.0), 0.0)])
    direct = PolyhedralSet([h1, h2])
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.standard_normal(2) * 2.0
        p1, d1 = project(inter, x)
        p2, d2 = project(direct, x)
        assert np.allclose(p1, p2, atol=1e-6)
        assert d1 == pytest.approx(d2, abs=1e-6)


def test_intersection_of_disjoint_balls_fails_fast(monkeypatch):
    """Alternating between two disjoint balls settles into a 2-cycle; the
    refinement notices that a sweep ends where it began and gives up."""
    calls = []
    original = sets.project

    def counting(oracle, x):
        calls.append(oracle.kind)
        return original(oracle, x)

    monkeypatch.setattr(sets, "project", counting)
    inter = IntersectionSet([Ball((0.0, 0.0), 1.0), Ball((3.0, 1.0), 1.0)])
    with pytest.raises(sets.ProjectionNotConvergedError):
        sets.project(inter, np.array([0.5, 2.0]))
    assert calls.count("ball") <= 200


def test_fixed_rank_projection_truncates_svd():
    rng = np.random.default_rng(6)
    rank1 = FixedRankSet(2, 2, 1)
    for _ in range(50):
        x = rng.standard_normal(4)
        p, d = project(rank1, x)
        s = np.linalg.svd(x.reshape(2, 2), compute_uv=False)
        assert d == pytest.approx(s[1], abs=1e-10)
        sp = np.linalg.svd(p.reshape(2, 2), compute_uv=False)
        assert sp[1] <= 1e-10
    # a rank-one matrix is its own projection
    m = np.outer([1.0, 2.0], [3.0, -1.0]).reshape(-1)
    p, d = project(rank1, m)
    assert np.allclose(p, m, atol=1e-12) and d <= 1e-12


def _scan_nearest_on_parabola(x, coeffs, ts):
    ys = np.polynomial.polynomial.polyval(ts, coeffs)
    d2 = (ts - x[0]) ** 2 + (ys - x[1]) ** 2
    k = int(np.argmin(d2))
    return math.sqrt(d2[k])


def test_level_set_projection_beats_dense_scan():
    region = polynomial_level_set([0.0, 0.0, 1.0], "above", convex=True)
    rng = np.random.default_rng(7)
    ts = np.linspace(-4.0, 4.0, 200_001)
    for _ in range(30):
        x = rng.standard_normal(2) * 1.5
        p, d = project(region, x)
        assert region.membership_residual(p) <= region.membership_tol
        if region.membership_residual(x) <= 1e-12:
            assert d == 0.0
            continue
        scan = _scan_nearest_on_parabola(x, [0.0, 0.0, 1.0], ts)
        assert d <= scan + 1e-6


def test_manifold_curve_projection_beats_dense_scan():
    curve = polynomial_curve([0.0, 0.0, 1.0])
    assert curve.is_manifold
    rng = np.random.default_rng(8)
    ts = np.linspace(-4.0, 4.0, 200_001)
    for _ in range(30):
        x = rng.standard_normal(2) * 1.5
        p, d = project(curve, x)
        assert curve.membership_residual(p) <= curve.membership_tol
        scan = _scan_nearest_on_parabola(x, [0.0, 0.0, 1.0], ts)
        assert d <= scan + 1e-6


def test_project_wrapper_distance_consistency():
    oracle = Ball((0.0, 0.0), 1.0)
    x = np.array([2.0, 2.0])
    p, d = project(oracle, x)
    assert d == pytest.approx(np.linalg.norm(x - p), abs=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        project(Ball((0.0, 0.0), 1.0), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatchError):
        Ball((0.0, 0.0), 1.0).membership_residual(np.array([1.0]))


def test_analytic_normal_halfspace_and_sphere():
    n = HalfspaceSet((0.0, 2.0), 0.0).analytic_normal(np.array([0.3, 0.0]))
    assert np.allclose(n, [0.0, 1.0], atol=1e-12)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
    n2 = Sphere((0.0, 0.0), 1.0).analytic_normal(np.array([1.0, 0.0]))
    assert abs(abs(n2 @ np.array([1.0, 0.0])) - 1.0) <= 1e-10


def test_check_super_regular_smoke():
    ball = Ball((0.0, 0.0), 1.0)
    ok, worst = sets.check_super_regular(ball, (1.0, 0.0), 0.0, 0.3)
    assert ok and worst <= 1e-9
    with pytest.raises(ValueError):
        sets.check_super_regular(ball, (5.0, 0.0), 0.0, 0.3)  # not a member
    with pytest.raises(InsufficientSamplesError):
        sets.check_super_regular(PointSet([(0.0, 0.0)]), (0.0, 0.0), 0.0, 0.3)


def test_check_sosh_halfspace_is_flat():
    hs = HalfspaceSet((0.0, 1.0), 0.0)
    ok, worst = sets.check_sosh(hs, (0.0, 0.0), 0.0, 0.5)
    assert ok and worst <= 1e-9  # flat boundary has zero support curvature
    with pytest.raises(ValueError):
        sets.check_sosh(hs, (0.0, 1.0), 1.0, 0.5)  # xbar outside


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: project(Ball((0.0, 0.0), 1.0), np.zeros((1, 2))), r"expected a 1-d point, got shape \(1, 2\)"),
        (
            lambda: polyhedra.project_onto_polyhedron(
                polyhedra.Polyhedron([polyhedra.Halfspace((1.0, 0.0), 1.0)]), np.zeros(3)
            ),
            "query point dimension mismatch",
        ),
    ],
)
def test_library_query_point_checks(call, message):
    """The library entry points reject a query point of the wrong shape."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
