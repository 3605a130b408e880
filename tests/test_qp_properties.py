"""Property tests for the polyhedral QP against the brute-force reference.

Polyhedra have n <= 4 and m <= 6 rows from two families: integer rows and
offsets (exact degeneracy: parallel rows, dependent rows, several rows
through one vertex) and generic rows with row and offset scales mixed over
1e-3 .. 1e3.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import refs
from shqp import polyhedra
from shqp.polyhedra import Halfspace, Polyhedron, project_onto_polyhedron

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
KINDS = ("inequality", "inequality", "inequality", "equality")


@st.composite
def problems(draw):
    """(triples, x0) with triples a list of (normal, offset, kind)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=m, max_size=m))
    if draw(st.booleans()):
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
        normals = [np.array(r, float) for r in draw(st.lists(row, min_size=m, max_size=m))]
        offsets = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        x0 = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        normals = [rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3]) for _ in range(m)]
        offsets = [rng.standard_normal() * scale * np.linalg.norm(a) for a in normals]
        x0 = rng.standard_normal(n) * scale
    return [(a, float(b), k) for a, b, k in zip(normals, offsets, kinds)], x0


def _solve(triples, x0, warm_start=()):
    poly = Polyhedron([Halfspace(a, b, k) for a, b, k in triples])
    return project_onto_polyhedron(poly, x0, warm_start=warm_start)


def _scale(triples, x0, res):
    """Largest magnitude in the KKT system: query point, unit-row offsets,
    nearest point and unit-row multipliers.  Complementarity multiplies a
    multiplier by a slack that is only known to roundoff times the point,
    so far vertices of ill-conditioned active sets need all four."""
    A = np.array([a for a, _, _ in triples])
    b = np.array([off for _, off, _ in triples])
    norms = np.linalg.norm(A, axis=1)
    return max(
        1.0,
        float(np.linalg.norm(x0)),
        float(np.max(np.abs(b / norms))),
        float(np.linalg.norm(res.point)),
        float(np.max(np.abs(res.multipliers * norms))),
    )


def _certificate_verifies(triples, lam):
    """Farkas check on raw rows: lam >= 0 on inequalities, sum lam_i a_i = 0
    relative to sum |lam_i| ||a_i||, and sum lam_i b_i < 0."""
    A = np.array([a for a, _, _ in triples])
    b = np.array([off for _, off, _ in triples])
    ineq = np.array([k == "inequality" for _, _, k in triples])
    weight = float(np.abs(lam) @ np.linalg.norm(A, axis=1))
    return bool(
        lam is not None
        and weight > 0.0
        and np.all(lam[ineq] >= -1e-12 * weight)
        and np.linalg.norm(lam @ A) <= 1e-9 * weight
        and lam @ b < 0.0
    )


@SETTINGS
@given(problems())
def test_results_match_bruteforce_with_small_kkt_residual(problem):
    triples, x0 = problem
    res = _solve(triples, x0)
    ref = refs.nearest_in_polyhedron(triples, x0)
    if res.status == "infeasible":
        assert ref is None
        assert _certificate_verifies(triples, res.certificate)
        return
    assert res.status == "optimal" and ref is not None
    assert np.linalg.norm(res.point - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))
    assert res.kkt_residual <= 1e-9 * _scale(triples, x0, res)


@SETTINGS
@given(problems(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_certificates_survive_row_scaling(problem, powers):
    triples, x0 = problem
    scaled = [
        (a * 10.0**p, off * 10.0**p, kind) for (a, off, kind), p in zip(triples, powers)
    ]
    res = _solve(triples, x0)
    res_scaled = _solve(scaled, x0)
    assert res_scaled.status == res.status
    if res.status == "infeasible":
        assert _certificate_verifies(scaled, res_scaled.certificate)


@SETTINGS
@given(problems(), st.data())
def test_warm_start_is_only_a_hint(problem, data):
    triples, x0 = problem
    warm = data.draw(st.lists(st.integers(0, len(triples) - 1), unique=True))
    cold = _solve(triples, x0)
    hinted = _solve(triples, x0, warm_start=tuple(warm))
    assert hinted.status == cold.status
    if cold.status == "optimal":
        gap = np.linalg.norm(hinted.point - cold.point)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(cold.point), np.linalg.norm(x0))


def test_corpus_slice_certificates_all_verify(monkeypatch):
    """On the first 2,000 problems of the seed-0 corpus every infeasible
    result is certified by its first candidate: each is checked once and no
    check fails (a failure would raise QPBreakdownError)."""
    checks = {"calls": 0, "failed": 0}
    verify = polyhedra._verify_certificate

    def counting(*args):
        ok = verify(*args)
        checks["calls"] += 1
        checks["failed"] += not ok
        return ok

    monkeypatch.setattr(polyhedra, "_verify_certificate", counting)
    rng = np.random.default_rng(0)
    infeasible = 0
    for _ in range(2000):
        triples, x0 = refs.random_constraint_problem(rng)
        infeasible += _solve(triples, x0).status == "infeasible"
    assert infeasible > 300
    assert checks == {"calls": infeasible, "failed": 0}
