"""A polyhedral set projects a batch in lockstep (polyhedra._nearest_points)
bit for bit as project does point by point, and where the stack declines,
each row gets project's outcome.

Two kinds of polyhedra.  Those the stack answers for: q = min(m, d) unit
rows whose pairwise angles are obtuse (their Gram matrix is a diagonally
dominant M-matrix, whose inverse is nonnegative, so no active multiplier
decreases and every step is full), meeting at a vertex x*, plus m - q rows
far from every point.  A point x* + w + sum over S of c_i a_i, with w off
the rows' span and c_i > 0, projects to x* + w with S active, in |S| steps;
a point x* + w - c sum_i a_i / ||a_i|| is inside.  And random rows and
offsets, on which the stack may or may not decline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shqp import polyhedra, sets
from shqp.polyhedra import Halfspace, InfeasiblePolyhedronError, Polyhedron, project_onto_polyhedron

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _obtuse_rows(rng, m, d):
    """(A, b, x*, W): rows that the stack answers for, their vertex x*, and
    an orthonormal basis W of the complement of the first q rows' span."""
    q = min(m, d)
    off = np.triu(-rng.uniform(0.0, 1.0 / q, (q, q)), 1)
    gram = np.eye(q) + off + off.T
    O = np.linalg.qr(rng.standard_normal((d, d)))[0]
    A = np.linalg.cholesky(gram) @ O[:, :q].T * 10.0 ** rng.uniform(-1.0, 1.0, (q, 1))
    x_star = rng.standard_normal(d) * 10.0 ** rng.uniform(-2.0, 2.0)
    far = rng.standard_normal((m - q, d))
    b = np.concatenate([A @ x_star, far @ x_star + 1e5 * np.linalg.norm(far, axis=1)])
    return np.vstack([A, far]), b, x_star, O[:, q:]


def _obtuse_batch(rng, A, x_star, W, size, q):
    """Points that take 0, 1, 2 and q steps, in random order."""
    batch = []
    for _ in range(size):
        r = 10.0 ** rng.uniform(-3.0, 2.0)
        x = x_star + W @ rng.standard_normal(W.shape[1]) * r
        steps = rng.choice(sorted({0, 1, 2, q} & set(range(q + 1))))
        if steps == 0:
            x = x - (A[:q] / np.linalg.norm(A[:q], axis=1)[:, None]).sum(axis=0) * r
        else:
            S = rng.choice(q, steps, replace=False)
            x = x + A[S].T @ (rng.uniform(0.1, 1.0, steps) * r)
        batch.append(x)
    return batch


@st.composite
def polyhedral_batches(draw):
    """(A, b, batch, answers): rows, offsets, 2 to 700 query points, and
    whether the stack must answer for them."""
    d, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    size = draw(st.integers(2, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        A, b, x_star, W = _obtuse_rows(rng, m, d)
        return A, b, _obtuse_batch(rng, A, x_star, W, size, min(m, d)), True
    A = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
    b = rng.standard_normal(m) * np.linalg.norm(A, axis=1)
    X = rng.standard_normal((size, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (size, 1))
    return A, b, list(X), False


def _bits(out):
    """project's outcome as bytes: the nearest point and the distance, or
    the error's type, message and cause (with an empty polyhedron's
    certificate)."""
    if isinstance(out, Exception):
        cause = out.__cause__
        cert = getattr(cause, "certificate", None)
        return type(out).__name__, str(out), type(cause).__name__, None if cert is None else cert.tobytes()
    nearest, distance = out
    return nearest.tobytes(), float(distance).hex()


def _projected(oracle, x):
    try:
        return sets.project(oracle, x)
    except Exception as exc:
        return exc


def _check_rows(oracle, batch):
    """The batch gives project's outcome on every row."""
    assert [_bits(out) for out in oracle._project_rows(batch)] == [
        _bits(_projected(oracle, x)) for x in batch
    ]


@SETTINGS
@given(polyhedral_batches())
def test_stack_equals_per_point(problem):
    A, b, batch, answers = problem
    oracle = sets.PolyhedralSet([Halfspace(a, off) for a, off in zip(A, b)])
    _check_rows(oracle, batch)
    Y = polyhedra._nearest_points(oracle._poly, np.array(batch))
    if answers and not oracle._poly._prepared.pairs:
        assert Y is not None
    if Y is not None:
        want = [sets._outcome(polyhedra._nearest_point, oracle._poly, x) for x in batch]
        assert [y.tobytes() for y in Y] == [w.tobytes() for w in want]


CORNER = [Halfspace((1.0, 0.0), 1.0), Halfspace((0.0, 1.0), 1.0)]
CORNER_BATCH = [np.array(v) for v in ([-0.0, -0.0], [3.0, 0.0], [3.0, 3.0], [-0.0, 4.0])]

# Each polyhedron and batch reaches one way the stack declines.
DECLINES = {
    # (0, -4, -2) takes a step that drives an active multiplier to zero
    # before the entering row is tight: a partial step, on a direction off
    # the active rows.
    "partial-step": (
        [Halfspace((2.0, -2.0, 2.0), -1.0), Halfspace((0.0, 0.0, 2.0), -2.0), Halfspace((0.0, -1.0, -2.0), 0.0)],
        [np.array(v) for v in ([0.0, -4.0, -2.0], [0.0, 1.0, -2.0], [3.0, 1.0, -4.0])],
    ),
    # x <= 0, y <= 0 and x + y >= 1: after two rows enter, the third one's
    # direction depends on them, and the dual ray certifies the empty set.
    "empty": (
        [Halfspace((1.0, 0.0), 0.0), Halfspace((0.0, 1.0), 0.0), Halfspace((-1.0, -1.0), -1.0)],
        [np.array(v) for v in ([0.5, 0.5], [-2.0, -2.0], [3.0, 1.0])],
    ),
    "parallel-pair": (
        [Halfspace((1.0, 0.0), 1.0), Halfspace((-2.0, 0.0), 2.0), Halfspace((0.0, 1.0), 0.0)],
        [np.array(v) for v in ([0.0, 0.0], [3.0, 1.0], [-5.0, 2.0])],
    ),
    "equality-row": (
        [Halfspace((1.0, 1.0), 1.0, "equality"), Halfspace((1.0, 0.0), 0.0)],
        [np.array(v) for v in ([0.0, 0.0], [3.0, 1.0], [-5.0, 2.0])],
    ),
}


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_stack_declines(case):
    halfspaces, batch = DECLINES[case]
    oracle = sets.PolyhedralSet(halfspaces)
    assert polyhedra._nearest_points(oracle._poly, np.array(batch)) is None
    _check_rows(oracle, batch)


def test_empty_rows_carry_the_certificate():
    """Each row of the declined empty batch raises as project does, caused
    by the QP's certificate of the empty polyhedron."""
    halfspaces, batch = DECLINES["empty"]
    for x, out in zip(batch, sets.PolyhedralSet(halfspaces)._project_rows(batch)):
        assert isinstance(out, sets.ProjectionNotConvergedError)
        assert str(out) == "polyhedral set projection failed: infeasible"
        assert isinstance(out.__cause__, InfeasiblePolyhedronError)
        want = project_onto_polyhedron(Polyhedron(halfspaces), x).certificate
        assert out.__cause__.certificate.tobytes() == want.tobytes()


def test_stack_declines_at_the_step_bound(monkeypatch):
    """With the bound cut to one step, (3, 3), which needs two, declines the
    batch, and its row raises the breakdown as project does."""
    monkeypatch.setattr(polyhedra, "_step_bound", lambda m, d: 1)
    oracle = sets.PolyhedralSet(CORNER)
    assert polyhedra._nearest_points(oracle._poly, np.array(CORNER_BATCH)) is None
    _check_rows(oracle, CORNER_BATCH)
    outs = oracle._project_rows(CORNER_BATCH)
    assert [type(out.__cause__).__name__ for out in outs if isinstance(out, Exception)] == ["QPBreakdownError"]


def test_stack_answers_within_the_step_bound(monkeypatch):
    """With the bound cut to two steps, the same batch stays stacked, and
    the inside point (-0.0, -0.0) comes back as (0.0, 0.0), as x0 + u
    does with u from the factor's solve."""
    monkeypatch.setattr(polyhedra, "_step_bound", lambda m, d: 2)
    oracle = sets.PolyhedralSet(CORNER)
    Y = polyhedra._nearest_points(oracle._poly, np.array(CORNER_BATCH))
    assert [y.tolist() for y in Y] == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    assert [y.tobytes() for y in Y] == [polyhedra._nearest_point(oracle._poly, x).tobytes() for x in CORNER_BATCH]


def test_a_nan_violation_declines():
    """A NaN row (not a checked point) enters as _most_violated picks it,
    and its NaN step declines the stack; _nearest_rows then gives each row
    _project's outcome, an error on the NaN row."""
    oracle = sets.PolyhedralSet(CORNER)
    X = np.array([[3.0, 0.0], [np.nan, 0.0]])
    with np.errstate(invalid="ignore"):
        assert polyhedra._nearest_points(oracle._poly, X) is None
        got = oracle._nearest_rows(X)
        with pytest.raises(Exception) as info:
            oracle._project(X[1])
    assert got[0].tolist() == [1.0, 0.0]
    assert type(got[1]) is type(info.value) and str(got[1]) == str(info.value)


def test_each_scan_is_most_violated_on_each_row():
    """_most_violated_rows gives each row _most_violated's pick on G u - h
    as the single product G @ u computes it, and that violation's bits:
    active rows masked, NaN entries included (the first inactive NaN
    wins), and -inf when no inactive row is violated."""
    rng = np.random.default_rng(7)
    for m, d in ((1, 1), (3, 2), (4, 4), (6, 5)):
        G = rng.standard_normal((m, d))
        G = G / np.linalg.norm(G, axis=1)[:, None]
        U = rng.standard_normal((60, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (60, 1))
        H = rng.standard_normal((60, m))
        H[rng.random((60, m)) < 0.1] = np.nan
        for s in range(min(m, d) + 1):
            active = np.array([rng.choice(m, s, replace=False) for _ in range(60)], dtype=np.intp).reshape(60, s)
            p, top = polyhedra._most_violated_rows(G, U, H, active)
            for i in range(60):
                want_p, want_top = polyhedra._most_violated((G @ U[i] - H[i]).tolist(), active[i].tolist())
                assert float(top[i]).hex() == float(want_top).hex()
                assert want_p < 0 or p[i] == want_p


def test_each_row_has_its_own_scale():
    """The feasibility tolerance 1e-11 * scale follows each row's own norm:
    on y <= 0, (1e6, 1e-7) is inside at its scale and comes back as
    x0 + 0.0, while (1, 1e-7) and (1e6, 1e-4) are projected."""
    oracle = sets.PolyhedralSet([Halfspace((0.0, 1.0), 0.0)])
    X = np.array([[1e6, 1e-7], [1.0, 1e-7], [1e6, 1e-4]])
    Y = polyhedra._nearest_points(oracle._poly, X)
    assert [y.tolist() for y in Y] == [[1e6, 1e-7], [1.0, 0.0], [1e6, 0.0]]
    assert [y.tobytes() for y in Y] == [polyhedra._nearest_point(oracle._poly, x).tobytes() for x in X]
