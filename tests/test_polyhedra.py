"""Tests for halfspace bookkeeping, polyhedral projection, and eta."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refs
from shqp import polyhedra
from shqp.polyhedra import (
    Halfspace,
    InfeasiblePolyhedronError,
    NoSeparationError,
    Polyhedron,
    ZeroGapError,
    project_onto_polyhedron,
)


def test_halfspace_violation_is_normalized():
    h = Halfspace((3.0, 0.0), 6.0)
    # <(3,0), (4,0)> - 6 = 6, normalized by ||(3,0)|| = 3
    assert h.violation((4.0, 0.0)) == pytest.approx(2.0, abs=1e-15)
    assert h.violation((1.0, 5.0)) == 0.0  # satisfied side clips to zero
    eq = Halfspace((3.0, 0.0), 6.0, kind="equality")
    assert eq.violation((1.0, 5.0)) == pytest.approx(1.0, abs=1e-15)
    assert eq.violation((4.0, 0.0)) == pytest.approx(2.0, abs=1e-15)


def test_halfspace_rejects_bad_input():
    with pytest.raises(ValueError):
        Halfspace((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        Halfspace((1e-15, 0.0), 1.0)
    with pytest.raises(ValueError):
        Halfspace((1.0, 0.0), 0.0, kind="approximate")


def test_polyhedron_rejects_duplicate_source_tags():
    a = Halfspace((1.0, 0.0), 0.0, source_set=0, outer_iteration=3)
    b = Halfspace((0.0, 1.0), 0.0, source_set=0, outer_iteration=3)
    with pytest.raises(ValueError):
        Polyhedron([a, b])
    # same source set in different outer iterations is fine
    c = Halfspace((0.0, 1.0), 0.0, source_set=0, outer_iteration=4)
    assert len(Polyhedron([a, c])) == 2
    with pytest.raises(ValueError):
        Polyhedron([])


def test_project_feasible_point_returns_itself():
    poly = Polyhedron([Halfspace((1.0, 0.0), 1.0), Halfspace((0.0, 1.0), 1.0)])
    res = project_onto_polyhedron(poly, np.array([0.25, -0.5]))
    assert res.status == "optimal"
    assert np.allclose(res.point, [0.25, -0.5], atol=1e-12)
    assert res.kkt_residual <= 1e-10
    assert np.all(res.multipliers == 0.0)


def test_project_single_halfspace_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        b = float(rng.standard_normal())
        x = rng.standard_normal(n)
        res = project_onto_polyhedron(Polyhedron([Halfspace(a, b)]), x)
        viol = max(0.0, (a @ x - b) / np.linalg.norm(a))
        expect = x - viol * a / np.linalg.norm(a)
        assert res.status == "optimal"
        assert np.allclose(res.point, expect, atol=1e-10)


def test_project_single_equality_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        b = float(rng.standard_normal())
        x = rng.standard_normal(n)
        res = project_onto_polyhedron(Polyhedron([Halfspace(a, b, "equality")]), x)
        expect = x - (a @ x - b) / (a @ a) * a
        assert res.status == "optimal"
        assert np.allclose(res.point, expect, atol=1e-10)


def test_project_matches_bruteforce_reference():
    """Two-route check against the subset-enumeration reference."""
    rng = np.random.default_rng(1234)
    n_optimal = n_infeasible = 0
    for _ in range(2000):
        triples, x0 = refs.random_constraint_problem(rng)
        ref = refs.nearest_in_polyhedron(triples, x0)
        poly = Polyhedron([Halfspace(a, off, kind) for a, off, kind in triples])
        res = project_onto_polyhedron(poly, x0)
        if res.status == "optimal":
            n_optimal += 1
            assert ref is not None
            rel = np.linalg.norm(res.point - ref) / (1.0 + np.linalg.norm(ref))
            assert rel <= 1e-8
        else:
            n_infeasible += 1
            assert res.status == "infeasible"
            assert ref is None
    # the corpus must actually exercise both outcomes
    assert n_optimal > 1000 and n_infeasible > 100


def test_projection_invariant_under_row_scaling():
    """Scaling (normal, offset) by positive factors is a no-op geometrically."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        triples, x0 = refs.random_constraint_problem(rng)
        poly = Polyhedron([Halfspace(a, off, kind) for a, off, kind in triples])
        scales = rng.uniform(1e-3, 1e3, size=len(triples))
        scaled = Polyhedron(
            [
                Halfspace(a * s, off * s, kind)
                for (a, off, kind), s in zip(triples, scales)
            ]
        )
        r1 = project_onto_polyhedron(poly, x0)
        r2 = project_onto_polyhedron(scaled, x0)
        assert r1.status == r2.status
        if r1.status == "optimal":
            rel = np.linalg.norm(r1.point - r2.point) / (1.0 + np.linalg.norm(r1.point))
            assert rel <= 1e-8


def test_projection_kkt_certificates():
    """Stationarity, multiplier signs, and complementary slackness."""
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(500):
        triples, x0 = refs.random_constraint_problem(rng)
        poly = Polyhedron([Halfspace(a, off, kind) for a, off, kind in triples])
        res = project_onto_polyhedron(poly, x0)
        if res.status != "optimal":
            continue
        checked += 1
        A = np.array([np.asarray(a, float) for a, _, _ in triples])
        b = np.array([float(off) for _, off, _ in triples])
        scale = 1.0 + np.linalg.norm(x0 - res.point)
        # stationarity: x0 - x = sum_i lam_i a_i
        drift = x0 - res.point - res.multipliers @ A
        assert np.linalg.norm(drift) <= 1e-7 * scale
        assert res.kkt_residual <= 1e-8 * scale
        for i, (_, _, kind) in enumerate(triples):
            slack = b[i] - A[i] @ res.point
            if kind != "equality":
                assert res.multipliers[i] >= -1e-9
                assert abs(res.multipliers[i] * slack) <= 1e-6 * scale * (1 + abs(b[i]))
    assert checked > 300


def test_infeasible_reports_farkas_certificate():
    # x <= 0 together with x >= 1
    poly = Polyhedron([Halfspace((1.0,), 0.0), Halfspace((-1.0,), -1.0)])
    res = project_onto_polyhedron(poly, np.array([0.3]))
    assert res.status == "infeasible"
    assert np.allclose(res.point, [0.3])  # query point is echoed back
    lam = res.certificate
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])
    assert np.all(lam >= -1e-12)
    assert np.linalg.norm(lam @ A) <= 1e-9 * np.linalg.norm(lam)
    assert lam @ b < 0


def test_verify_certificate_rejects_a_negative_inequality_multiplier():
    """(1, -1) proves x1 <= 0 and x1 = 1 empty; with the second row the
    inequality x1 <= 1 instead, its negative multiplier is rejected."""
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.0, 1.0])
    cert = np.array([1.0, -1.0])
    assert polyhedra._verify_certificate(A, b, (False, True), cert, 1.0)
    assert not polyhedra._verify_certificate(A, b, (False, False), cert, 1.0)


def test_infeasible_certificates_random():
    """Every random infeasible instance carries a valid Farkas vector."""
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(2000):
        triples, x0 = refs.random_constraint_problem(rng)
        poly = Polyhedron([Halfspace(a, off, kind) for a, off, kind in triples])
        res = project_onto_polyhedron(poly, x0)
        if res.status != "infeasible":
            continue
        found += 1
        lam = res.certificate
        A = np.array([np.asarray(a, float) for a, _, _ in triples])
        b = np.array([float(off) for _, off, _ in triples])
        assert lam is not None and lam.shape == (len(triples),)
        for i, (_, _, kind) in enumerate(triples):
            if kind != "equality":
                assert lam[i] >= -1e-9 * np.abs(lam).max()
        combo = np.linalg.norm(lam @ A)
        assert combo <= 1e-6 * np.abs(lam) @ np.linalg.norm(A, axis=1)
        assert lam @ b < 0
    assert found > 100


def test_projection_contracts_toward_feasible_points():
    """||P(x) - z|| <= ||x - z|| for every feasible z (firm nonexpansiveness
    gives more, but plain contraction is what the solvers lean on)."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        z0 = rng.standard_normal(n)
        hs = []
        for _ in range(m):
            a = rng.standard_normal(n)
            while np.linalg.norm(a) < 1e-3:
                a = rng.standard_normal(n)
            hs.append(Halfspace(a, float(a @ z0 + abs(rng.standard_normal()))))
        x0 = rng.standard_normal(n) * 3.0
        res = project_onto_polyhedron(Polyhedron(hs), x0)
        assert res.status == "optimal"
        assert np.linalg.norm(res.point - z0) <= np.linalg.norm(x0 - z0) + 1e-9


def test_warm_start_is_only_a_hint():
    rng = np.random.default_rng(9)
    for _ in range(100):
        triples, x0 = refs.random_constraint_problem(rng)
        poly = Polyhedron([Halfspace(a, off, kind) for a, off, kind in triples])
        cold = project_onto_polyhedron(poly, x0)
        warm = project_onto_polyhedron(
            poly, x0, warm_start=tuple(range(len(triples)))
        )
        assert cold.status == warm.status
        if cold.status == "optimal":
            assert np.allclose(cold.point, warm.point, atol=1e-8)


def test_halfspace_from_projection_inequality_contract():
    x_prev = np.array([2.0, 1.0])
    nearest = np.array([0.0, 1.0])
    h = polyhedra.halfspace_from_projection(
        x_prev, nearest, is_manifold=False, tau=0.25, source_set=4,
        outer_iteration=7, inner_step=2,
    )
    assert h.kind == "inequality"
    assert (h.source_set, h.outer_iteration, h.inner_step) == (4, 7, 2)
    # boundary passes through the relaxed point, depth (1 - tau) * gap
    assert h.violation(x_prev) == pytest.approx(0.75 * 2.0, abs=1e-12)
    relaxed = nearest + 0.25 * (x_prev - nearest)
    assert abs(h.normal @ relaxed - h.offset) <= 1e-12
    # nearest itself is strictly inside for tau > 0
    assert h.violation(nearest) == 0.0


def test_halfspace_from_projection_manifold_ignores_tau():
    x_prev = np.array([2.0, 1.0])
    nearest = np.array([0.0, 1.0])
    h = polyhedra.halfspace_from_projection(x_prev, nearest, is_manifold=True, tau=0.5)
    assert h.kind == "equality"
    assert abs(h.normal @ nearest - h.offset) <= 1e-12
    with pytest.raises(ZeroGapError):
        polyhedra.halfspace_from_projection(nearest, nearest)
    with pytest.raises(ValueError):
        polyhedra.halfspace_from_projection(x_prev, nearest, tau=1.0)


def test_derived_halfspace_depth_equals_distance():
    """The aggregated constraint's boundary sits exactly one projection away."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        z0 = rng.standard_normal(n)
        hs = []
        for _ in range(3):
            a = rng.standard_normal(n)
            while np.linalg.norm(a) < 1e-3:
                a = rng.standard_normal(n)
            hs.append(Halfspace(a, float(a @ z0 + 0.1)))
        poly = Polyhedron(hs)
        x_prev = z0 + rng.standard_normal(n) * 4.0
        res = project_onto_polyhedron(poly, x_prev)
        if np.linalg.norm(x_prev - res.point) <= 1e-9:
            continue
        agg = polyhedra.derived_halfspace(poly, x_prev)
        gap = np.linalg.norm(x_prev - res.point)
        assert agg.violation(x_prev) == pytest.approx(gap, rel=1e-9)
        # the whole polyhedron stays on the satisfied side
        for _ in range(20):
            probe = project_onto_polyhedron(poly, z0 + rng.standard_normal(n)).point
            assert agg.normal @ probe - agg.offset <= 1e-8 * (1 + gap)


def test_derived_halfspace_error_paths():
    poly = Polyhedron([Halfspace((1.0, 0.0), 1.0)])
    with pytest.raises(NoSeparationError):
        polyhedra.derived_halfspace(poly, np.array([0.0, 0.0]))
    empty = Polyhedron([Halfspace((1.0,), 0.0), Halfspace((-1.0,), -1.0)])
    with pytest.raises(InfeasiblePolyhedronError):
        polyhedra.derived_halfspace(empty, np.array([0.5]))


def test_eta_analytic_values():
    assert polyhedra.eta([np.array([0.0, 1.0])]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        polyhedra.eta([np.array([0.0, 3.0])])  # inputs must be unit vectors
    # two unit normals at angle theta: the hull's least-norm point is the
    # midpoint, at distance cos(theta / 2)
    for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3, 0.9 * math.pi):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([math.cos(theta), math.sin(theta)])
        assert polyhedra.eta([v1, v2]) == pytest.approx(
            math.cos(theta / 2.0), abs=1e-9
        )
    # opposite vectors put the origin in the hull
    v = np.array([0.8, 0.6])
    w = np.array([0.0, 1.0])
    assert polyhedra.eta([v, -v, w]) <= 1e-7
    assert polyhedra.eta([v, v]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eta_rejects_non_finite_normals(bad):
    """A NaN normal has a NaN length, which the unit-length check rejects
    as it rejects an infinite one; it would otherwise reach the QP's
    active-set factor."""
    with pytest.raises(ValueError, match="normals must be unit vectors"):
        polyhedra.eta([np.array([bad, 0.0]), np.array([0.0, 1.0])])


def test_eta_matches_certified_grid():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(n + 1, 4) + 1))
        vecs = rng.standard_normal((k, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ref, gap = refs.least_hull_norm_grid(list(vecs))
        assert gap <= 5e-4  # the grid must certify itself
        assert abs(polyhedra.eta(list(vecs)) - ref) <= 1e-3


def test_eta_descent_path_agrees_with_enumeration():
    """Duplicating a row of a six-vector bundle leaves eta unchanged, and
    adding vectors can only shrink it."""
    rng = np.random.default_rng(5)
    v6 = rng.standard_normal((6, 4))
    v6 /= np.linalg.norm(v6, axis=1, keepdims=True)
    exact = polyhedra.eta(list(v6))
    padded = polyhedra.eta(list(np.vstack([v6, v6[0]])))
    assert padded == pytest.approx(exact, abs=1e-9)
    # and adding vectors can only shrink the hull distance
    v8 = np.vstack([v6, rng.standard_normal((2, 4))])
    v8 /= np.linalg.norm(v8, axis=1, keepdims=True)
    assert polyhedra.eta(list(v8)) <= exact + 1e-9


def test_eta_ignores_a_vector_beyond_the_nearest_face():
    """A seventh vector on the far side of the hull's nearest face
    (<w, d> = 0.932 > eta = 0.3812 along that face's unit direction d)
    leaves the least-norm point, and so eta, where it was."""
    v6 = np.random.default_rng(6).standard_normal((6, 3))
    v6 /= np.linalg.norm(v6, axis=1, keepdims=True)
    w = np.array([-0.0157636247950328, 0.8365581547573104, -0.5476513141063072])
    seven = np.vstack([v6, w / np.linalg.norm(w)])
    assert polyhedra.eta(list(seven)) == pytest.approx(polyhedra.eta(list(v6)), abs=1e-9)


@st.composite
def bundles(draw):
    """(V, y, lam): k <= 8 unit rows in R^n, generic or normalized integer
    vectors, with a unit vector y and weights lam on the unit simplex."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
        V = np.array(draw(st.lists(row, min_size=k, max_size=k)), float)
    else:
        V = rng.standard_normal((k, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    y = rng.standard_normal(n)
    lam = rng.exponential(size=k)
    return V, y / np.linalg.norm(y), lam / lam.sum()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bundles())
def test_eta_lies_between_its_primal_and_dual_bounds(bundle):
    """eta = min over the simplex of ||V lam|| = max over unit w of
    min_i <v_i, w>, so every simplex point bounds it above and every unit
    direction bounds it below."""
    V, y, lam = bundle
    value = polyhedra.eta(list(V))
    assert float(np.min(V @ y)) - 1e-12 <= value <= float(np.linalg.norm(lam @ V)) + 1e-12
