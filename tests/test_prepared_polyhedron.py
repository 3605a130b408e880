"""A prepared polyhedron (Polyhedron.prepare) projects bit for bit as a
fresh one-shot project_onto_polyhedron does, and its prepared arrays are
read-only and never change.  The point-only kernel
(polyhedra._nearest_point) gives each point what project_onto_polyhedron
gives it.

The polyhedra mix equality and inequality rows with parallel and
antiparallel copies whose offsets differ by 0 .. 1e-3, so the pairwise
reduction drops, keeps or conflicts on them depending on the query point's
scale; query points run from 1e-3 to 1e6 in norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_harness import TWIN_EQUALITIES_PROBLEM

from shqp import polyhedra, sets
from shqp.polyhedra import (
    Halfspace,
    InfeasiblePolyhedronError,
    Polyhedron,
    project_onto_polyhedron,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
KINDS = ("inequality", "inequality", "equality")
OFFSET_SHIFTS = (0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-5, 1e-3)


@st.composite
def polyhedra_with_pairs(draw):
    """(triples, points, warm): rows as (normal, offset, kind), query points
    and warm-start index lists."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        normals = [rng.integers(-2, 3, n).astype(float) for _ in range(m)]
        normals = [a if a.any() else np.eye(n)[0] for a in normals]
        offsets = [float(rng.integers(-2, 3)) for _ in range(m)]
    else:
        normals = [rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3]) for _ in range(m)]
        offsets = [rng.standard_normal() * np.linalg.norm(a) for a in normals]
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(m)]
    triples = list(zip(normals, offsets, kinds))
    for _ in range(draw(st.integers(0, 3))):  # parallel and antiparallel copies
        a, off, _ = triples[draw(st.integers(0, len(triples) - 1))]
        c = draw(st.sampled_from((1.0, 0.5, 3.0, -1.0, -0.5, -3.0)))
        shift = draw(st.sampled_from(OFFSET_SHIFTS)) * np.linalg.norm(a)
        triples.insert(
            draw(st.integers(0, len(triples))),
            (c * a, c * (off + shift), draw(st.sampled_from(KINDS))),
        )
    points = []
    for _ in range(3):
        u = rng.standard_normal(n)
        points.append(u / np.linalg.norm(u) * 10.0 ** draw(st.floats(-3.0, 6.0)))
    warm = [
        draw(st.lists(st.integers(0, len(triples) - 1), max_size=3)) for _ in points
    ]
    return triples, points, warm


def _halfspaces(triples):
    return [Halfspace(a, off, kind) for a, off, kind in triples]


def _bits(fn, *args, **kwargs):
    """Every field of a QP result as bytes, or the exception raised."""
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (
        res.point.tobytes(),
        res.status,
        res.active_set,
        res.multipliers.tobytes(),
        float(res.kkt_residual).hex(),
        None if res.certificate is None else res.certificate.tobytes(),
    )


def _prepared_arrays(poly):
    prep = poly._prepared
    return [
        (name, value)
        for obj in (prep, prep.split)
        for name in obj.__slots__
        if isinstance(value := getattr(obj, name, None), np.ndarray)
    ]


@SETTINGS
@given(polyhedra_with_pairs())
def test_prepared_projection_equals_one_shot(problem):
    triples, points, warm = problem
    prepared = Polyhedron(_halfspaces(triples)).prepare()
    arrays = _prepared_arrays(prepared)
    before = [(name, a.tobytes()) for name, a in arrays]
    assert all(not a.flags.writeable for _, a in arrays)
    for x0, w in zip(points, warm):
        for warm_start in ((), w):
            fresh = Polyhedron(_halfspaces(triples))
            want = _bits(project_onto_polyhedron, fresh, x0, warm_start=warm_start)
            got = _bits(project_onto_polyhedron, prepared, x0, warm_start=warm_start)
            assert got == want
    assert [(name, a.tobytes()) for name, a in _prepared_arrays(prepared)] == before


@pytest.mark.parametrize("kinds", [("equality", "equality"), ("equality", "inequality")])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_scale_flips_the_reduction_on_both_paths(kinds, sign):
    """Offsets 1e-8 apart on a parallel pair conflict near the origin and
    coincide within the 1e-9 * scale test far out: the same prepared
    polyhedron is empty for one query point and not for the other."""
    triples = [
        (np.array([1.0, 1.0]), 1.0, kinds[0]),
        (sign * np.array([1.0, 1.0]), sign * (1.0 + 2e-8), kinds[1]),
        (np.array([1.0, -1.0]), 0.5, "inequality"),
    ]
    if kinds[1] == "inequality" and sign > 0:
        triples[1] = (np.array([1.0, 1.0]), 1.0 - 2e-8, "inequality")
    prepared = Polyhedron(_halfspaces(triples)).prepare()
    statuses = []
    for x0 in (np.array([0.1, 0.2]), np.array([1e6, 2e5])):
        want = _bits(project_onto_polyhedron, Polyhedron(_halfspaces(triples)), x0)
        assert _bits(project_onto_polyhedron, prepared, x0) == want
        statuses.append(want[1])
    assert statuses == ["infeasible", "optimal"]


def test_polyhedral_set_projects_as_the_one_shot_qp():
    hs = _halfspaces(
        [
            (np.array([1.0, 1.0, 0.0]), 1.0, "inequality"),
            (np.array([0.0, 1.0, -1.0]), 0.5, "inequality"),
            (np.array([-2.0, -2.0, 0.0]), -2.0, "inequality"),
        ]
    )
    oracle = sets.PolyhedralSet(hs)
    for x in np.random.default_rng(0).standard_normal((50, 3)) * 3.0:
        nearest, _ = sets.project(oracle, x)
        assert nearest.tobytes() == project_onto_polyhedron(Polyhedron(hs), x).point.tobytes()


def _point_bits(res):
    """What _nearest_point must give for a project_onto_polyhedron outcome:
    the point's bytes, the empty polyhedron's certificate, or the error."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    if res.status == "infeasible":
        return InfeasiblePolyhedronError.__name__, res.certificate.tobytes()
    return res.point.tobytes()


def _row_bits(y):
    if isinstance(y, InfeasiblePolyhedronError):
        return type(y).__name__, y.certificate.tobytes()
    if isinstance(y, Exception):
        return type(y).__name__, str(y)
    return y.tobytes()


def _one_shot(poly, x0):
    try:
        return project_onto_polyhedron(poly, x0)
    except Exception as exc:
        return exc


# Rescaled copies of a query point move it across the pairwise reduction's
# 1e-9 * scale tests, so one batch mixes rows that keep the prepared split
# with rows that drop a parallel twin.
RESCALES = (1e-6, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e6)


@SETTINGS
@given(polyhedra_with_pairs(), st.integers(0, 40), st.integers(0, len(RESCALES) - 1))
def test_batch_equals_per_point(problem, size, shift):
    """Batches of 0 to 40 points: the strategy's points in turn, each
    rescaled by the next factor of RESCALES."""
    triples, points, _ = problem
    batch = [points[k % 3] * RESCALES[(k + shift) % len(RESCALES)] for k in range(size)]
    want = [_point_bits(_one_shot(Polyhedron(_halfspaces(triples)), x0)) for x0 in batch]
    for poly in (Polyhedron(_halfspaces(triples)).prepare(), Polyhedron(_halfspaces(triples))):
        got = [sets._outcome(polyhedra._nearest_point, poly, x0) for x0 in batch]
        assert [_row_bits(y) for y in got] == want


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_step_bound_per_row(monkeypatch, cap):
    """With the bound cut to a few steps, some rows of one batch raise as
    the one-shot projection raises on them, and the others finish."""
    monkeypatch.setattr(polyhedra, "_step_bound", lambda m, d: cap)
    corner = Polyhedron([Halfspace((1.0, 0.0), 1.0), Halfspace((0.0, 1.0), 1.0)]).prepare()
    batch = [np.array(v) for v in ([0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.5, 4.0], [2.0, 2.0])]
    got = [_row_bits(sets._outcome(polyhedra._nearest_point, corner, x0)) for x0 in batch]
    assert got == [_point_bits(_one_shot(corner, x0)) for x0 in batch]
    assert {g[0] for g in got if isinstance(g, tuple)} == ({"QPBreakdownError"} if cap < 2 else set())


def test_polyhedral_set_errors_keep_their_messages():
    """A polyhedral set maps each row's QP exception to the error its
    single projection raises: an empty set and a breakdown keep their
    messages, and the QP's exception is the cause."""
    empty = sets.PolyhedralSet([Halfspace((1.0, 0.0), 0.0), Halfspace((-1.0, 0.0), -1.0)])
    outs = empty._project_rows([np.zeros(2), np.ones(2)])
    for out in outs:
        assert isinstance(out, sets.ProjectionNotConvergedError)
        assert str(out) == "polyhedral set projection failed: infeasible"
        assert isinstance(out.__cause__, InfeasiblePolyhedronError)
    with pytest.raises(sets.ProjectionNotConvergedError, match="failed: infeasible"):
        sets.project(empty, np.zeros(2))


def _failure_bits(exc):
    return type(exc).__name__, str(exc), type(exc.__cause__).__name__


def test_single_projection_maps_the_qp_errors():
    """sets.project on a polyhedral set raises ProjectionNotConvergedError
    for the QP's exception, which is its cause: the empty slab's carries
    the one-shot QP's certificate, and a breakdown keeps its message.  A
    batch gives each row what project raises there."""
    slab = [Halfspace((1.0, 0.0), 0.0), Halfspace((-1.0, 0.0), -1.0)]
    twins = [
        Halfspace(h["normal"], h["offset"], h.get("kind", "inequality"))
        for h in TWIN_EQUALITIES_PROBLEM["sets"][0]["halfspaces"]
    ]
    points = [np.zeros(2), np.array([0.5, 3.0]), np.array(TWIN_EQUALITIES_PROBLEM["start"])]
    for hs, cause, message in (
        (slab, InfeasiblePolyhedronError, "infeasible"),
        (twins, polyhedra.QPBreakdownError, "empty polyhedron, but its Farkas certificate does not verify"),
    ):
        oracle = sets.PolyhedralSet(hs)
        raised = []
        for x in points:
            with pytest.raises(sets.ProjectionNotConvergedError) as info:
                sets.project(oracle, x)
            err = info.value
            assert str(err) == "polyhedral set projection failed: " + message
            assert type(err.__cause__) is cause
            if cause is InfeasiblePolyhedronError:
                want = project_onto_polyhedron(Polyhedron(hs), x).certificate
                assert err.__cause__.certificate.tobytes() == want.tobytes()
            raised.append(_failure_bits(err))
        assert [_failure_bits(out) for out in oracle._project_rows(points)] == raised
