"""The closed-form sets project a batch as one stack, bit for bit as
`_project` on each row, and decline to the base per-row hook where the
stack cannot answer for every row.

The halfspace, hyperplane, affine subspace, ball, sphere, box and point set
each have a `_nearest_rows` hook that runs the one-point formula over the
whole (k, n) stack of a batch.  Each row must get the bits `_project` gives
it alone, and `_project_rows` must give what `sets.project` gives on each
point.  A hook declines, and hands the stack to `SetOracle._nearest_rows`,
where a subclass replaces `_project`, where a sphere row is within 1e-14 of
the center, and where a round set's row norm is not finite (an overflow the
caller ignores, which needs `_radial`'s halving).
"""

import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shqp import diagnostics, gallery, harness, sets
from test_report_pins import INLINE

KINDS = ["halfspace", "hyperplane", "affine-subspace", "ball", "sphere", "box", "point-set"]
CLASSES = {
    "halfspace": sets.HalfspaceSet,
    "hyperplane": sets.HyperplaneSet,
    "affine-subspace": sets.AffineSubspace,
    "ball": sets.Ball,
    "sphere": sets.Sphere,
    "box": sets.Box,
    "point-set": sets.PointSet,
}

# Box bounds and points come partly from these, so that signed zeros meet
# equal bounds and bounds of either sign of zero.
_BOX_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5])


def _bits(out):
    """A nearest point's bytes, or the exception's type and message."""
    if isinstance(out, Exception):
        return type(out), str(out)
    return out.tobytes()


def _outcome_bits(out):
    """project's outcome in comparable form: the nearest point's bytes and
    the distance's type and hex, or the exception's type and message."""
    if isinstance(out, Exception):
        return type(out), str(out)
    nearest, d = out
    return nearest.tobytes(), type(d), d.hex()


def _with_warnings(run, state):
    """run() under np.errstate(**state), and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**state):
        warnings.simplefilter("always")
        out = run()
    return out, [(w.category, str(w.message)) for w in caught]


def _oracle(kind, n, rng, scale):
    """A set of the kind in R^n, and the rows that reach each branch of its
    projection: s == 0 exactly, a ball's and a sphere's center, points on
    and off a box's faces with signed zeros, a point set's members, ties
    and repeated members."""
    anchor = rng.standard_normal(n) * scale
    if kind in ("halfspace", "hyperplane"):
        a = rng.standard_normal(n)
        a[rng.random(n) < 0.2] = 0.0
        if not a.any():
            a[0] = 1.0
        # The anchor has s == 0 exactly.
        return CLASSES[kind](a, a @ anchor), [anchor, anchor - a * scale, anchor + a * scale]
    if kind == "affine-subspace":
        basis = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        return sets.AffineSubspace(anchor, basis), [anchor, anchor + basis[0]]
    if kind in ("ball", "sphere"):
        radius = scale * rng.uniform(0.1, 2.0)
        e = np.zeros(n)
        e[rng.integers(n)] = 1.0
        rows = [anchor + 0.5 * radius * e, anchor + radius * e, anchor - 2.0 * radius * e]
        return CLASSES[kind](anchor, radius), rows + ([anchor.copy()] if kind == "ball" else [])
    if kind == "box":
        bounds = np.sort(rng.choice(_BOX_VALUES, (2, n)), axis=0)
        equal = rng.random(n) < 0.3
        bounds[1, equal] = bounds[0, equal]
        if rng.random() < 0.5:
            bounds = bounds * scale
        rows = list(rng.choice(_BOX_VALUES, (6, n))) + list(bounds) + [bounds[0] - 1.0, bounds[1] + 1.0]
        return sets.Box(bounds[0], bounds[1]), rows
    members = list(rng.standard_normal((int(rng.integers(1, 5)), n)) * scale)
    members.append(members[0])  # a repeated member
    if len(members) > 2:
        members.append(members[1])
    rows = members + [0.5 * (members[0] + members[-1])]  # a tie
    return sets.PointSet(members), rows


def _overflow_rows(oracle, n):
    """Rows whose arithmetic overflows: a round set's v = x - c, and other
    sets' products and distances near the largest double."""
    top = np.full(n, 1.5e308)
    if isinstance(oracle, (sets.Ball, sets.Sphere)):
        return [np.where(oracle.center > 0, -top, top)]
    return [top, -top]


@st.composite
def _batches(draw):
    """(oracle, points, overflow): a closed-form set in R^1..R^8, a batch of
    2 to 700 points with the set's special rows among them, and whether
    rows that overflow are in it too."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 8))
    size = draw(st.integers(2, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    oracle, special = _oracle(kind, n, rng, scale)
    if kind == "sphere" and draw(st.integers(0, 3)) == 0:
        special.append(oracle.center.copy())
    overflow = draw(st.integers(0, 4)) == 0
    if overflow:
        special += _overflow_rows(oracle, n)
    points = list(rng.standard_normal((size, n)) * scale * 10.0 ** rng.uniform(-1.0, 1.0, (size, 1)))
    for row in special:
        points.insert(int(rng.integers(len(points) + 1)), np.array(row))
    return oracle, points, overflow


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_batches())
def test_each_stack_row_is_the_one_point_projection_bit_for_bit(batch):
    oracle, points, overflow = batch
    X = np.array(points)
    # The hook against _project on each row, as arithmetic alone.
    with np.errstate(all="ignore"):
        rows = oracle._nearest_rows(X)
        want_rows = [sets._outcome(oracle._project, x) for x in X]
    assert len(rows) == len(X)
    assert [_bits(y) for y in rows] == [_bits(y) for y in want_rows]
    # The batch boundary against project on each point, under the caller's
    # error state, with the same warnings.
    state = {"over": "ignore"} if overflow else {}
    got, got_warnings = _with_warnings(lambda: oracle._project_rows(points), state)
    want, want_warnings = _with_warnings(lambda: [sets._outcome(sets.project, oracle, x) for x in points], state)
    assert [_outcome_bits(o) for o in got] == [_outcome_bits(o) for o in want]
    assert got_warnings == want_warnings
    nearest = [o[0] for o in got if not isinstance(o, Exception)]
    assert all(y.flags.owndata for y in nearest)


def _spy_base(monkeypatch):
    """Record each call of the base per-row hook, with what it returned."""
    calls = []
    base = sets.SetOracle._nearest_rows

    def spy(self, X):
        out = base(self, X)
        calls.append((self, out))
        return out

    monkeypatch.setattr(sets.SetOracle, "_nearest_rows", spy)
    return calls


def _counting(cls):
    """A subclass of cls whose _project counts its calls and raises at the
    points (by their bytes) in traps, as test_diagnostics' _Trapped does."""

    class Counting(cls):
        calls = 0
        traps = {}

        def _project(self, x):
            type(self).calls += 1
            trap = self.traps.get(x.tobytes())
            if trap is not None:
                raise trap
            return super()._project(x)

    return Counting


def _example(kind):
    """A set of the kind in R^3 and a batch of 40 rows."""
    rng = np.random.default_rng(5)
    oracle, special = _oracle(kind, 3, rng, 1.0)
    return oracle, np.array(list(rng.standard_normal((40 - len(special), 3))) + special)


def _as_subclass(oracle, cls):
    """oracle with its class replaced by cls, a subclass of its class."""
    oracle.__class__ = cls
    return oracle


@pytest.mark.parametrize("kind", KINDS)
def test_a_subclass_that_replaces_project_gets_it_row_by_row(kind, monkeypatch):
    oracle, X = _example(kind)
    cls = _counting(CLASSES[kind])
    cls.traps = {X[7].tobytes(): RuntimeError("trap")}
    _as_subclass(oracle, cls)
    calls = _spy_base(monkeypatch)
    rows = oracle._nearest_rows(X)
    assert len(calls) == 1 and calls[0][1] is rows
    assert cls.calls == len(X)
    assert isinstance(rows[7], RuntimeError)
    cls.calls = 0
    got = oracle._project_rows(list(X))
    assert cls.calls == len(X)
    assert str(got[7]) == "trap"
    assert [_outcome_bits(o) for o in got] == [_outcome_bits(sets._outcome(sets.project, oracle, x)) for x in X]


def test_a_sphere_row_at_the_center_declines_the_stack(monkeypatch):
    sphere, X = _example("sphere")
    X[11] = sphere.center
    calls = _spy_base(monkeypatch)
    rows = sphere._nearest_rows(X)
    assert len(calls) == 1 and calls[0][1] is rows
    expected = sphere.center.copy()
    expected[0] -= sphere.radius
    assert rows[11].tobytes() == expected.tobytes()
    assert [_bits(y) for y in rows] == [_bits(sphere._project(x)) for x in X]


@pytest.mark.parametrize("kind", ["ball", "sphere"])
def test_a_round_row_whose_norm_overflows_declines_the_stack(kind, monkeypatch):
    # With overflow ignored, v = x - c of the last row is inf and its norm
    # too; _project takes the direction from the halves of x and c.
    oracle = CLASSES[kind]([-1e308, 0.0], 1.0)
    X = np.array([[0.5, 0.5], [3.0, -4.0], [1e308, 1.0]])
    calls = _spy_base(monkeypatch)
    with np.errstate(over="ignore"):
        rows = oracle._nearest_rows(X)
        want = [oracle._project(x) for x in X]
        got = oracle._project_rows(list(X))
        reference = [sets._outcome(sets.project, oracle, x) for x in X]
    assert len(calls) == 2 and calls[0][1] is rows
    assert [_bits(y) for y in rows] == [_bits(y) for y in want]
    assert np.isfinite(rows[2]).all()
    assert [_outcome_bits(o) for o in got] == [_outcome_bits(o) for o in reference]


def test_a_clean_ball_batch_with_a_center_row_answers_without_a_signal(monkeypatch):
    # The row at the center is inside: the stack scales only the rows
    # outside, so it divides by no zero norm, and the batch is not redone
    # point by point.
    ball = sets.Ball([1.0, -2.0, 0.5], 2.0)
    points = [np.array([1.0, -2.0, 0.5]), np.array([4.0, 1.0, 0.5]), np.array([1.5, -2.0, 0.0])]
    reference = [sets._outcome(sets.project, ball, x) for x in points]
    projected = []
    monkeypatch.setattr(sets, "project", lambda oracle, x: projected.append(x))
    with np.errstate(all="raise"):
        rows = ball._nearest_rows(np.array(points))
        got = ball._project_rows(points)
    assert isinstance(rows, np.ndarray)
    assert projected == []
    assert [_outcome_bits(o) for o in got] == [_outcome_bits(o) for o in reference]


@pytest.mark.parametrize(
    "problem, batches",
    [
        ("circle-line", {"sphere": 2, "affine-subspace": 2, "point-set": 1}),
        ("box-ball-plane", {"box": 2, "ball": 2, "hyperplane": 2}),
    ],
)
def test_no_closed_form_report_batch_declines(problem, batches, monkeypatch):
    # A seed-0 regularity estimate: every closed-form batch is answered by
    # its stack, none by the base per-row hook, with the same _project_rows
    # calls per kind as when each batch ran row by row.
    prob = harness.problem_from_config(INLINE[problem]) if problem in INLINE else gallery.get_entry(problem).problem
    calls = collections.Counter()
    project_rows = sets.SetOracle._project_rows

    def counted(self, points):
        calls[self.kind] += 1
        return project_rows(self, points)

    monkeypatch.setattr(sets.SetOracle, "_project_rows", counted)
    base = _spy_base(monkeypatch)
    diagnostics.estimate_regularity(prob, prob.known_solution, rng_seed=0)
    assert [oracle.kind for oracle, _ in base if oracle.kind in KINDS] == []
    assert dict(calls) == batches
