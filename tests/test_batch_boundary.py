"""The batch projection's boundary against sets.project, bit for bit, at its
edges.

`SetOracle._project_rows` checks a clean batch (one that stacks as a finite
2-d array as wide as the set) once as a whole, and takes the distances of a
batch as one stacked row dot.  The whole batch runs under one watch.  Any
other batch, and one in which anything, from the check through the set's
hook to the distances, raises or signals a floating point error that the
caller's error state does not ignore, is projected point by point, by
`sets.project` under the caller's state.
Whatever a batch holds (NaN and infinite rows, rows of another length, a
2-d row, nothing at all, a row whose distance overflows) and however it is
given (a list, a 2-d array, an iterator), each entry must be what
`sets.project` returns on its point alone, or the exception it raises
there, with the same warnings, under numpy's default error state, with
overflow raising, and with warnings as errors; a row whose distance or
whose smooth-set projection underflows, under underflow ignored, warning or
raising; and batches of every kind with subnormal-sized coordinates, under
five error states.  The stacked distance itself is pinned against `_norm`,
one BLAS ddot per row.
"""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shqp import gallery, sets
from test_closed_form_rows import _batch, _outcome_bits, _vector

# The kinds test_closed_form_rows draws, and these three more: the two
# smooth kinds (and the gallery's cusp, a level set projected by its own
# _project) and the intersection, each in the plane.
SMOOTH = {
    "smooth-level-set": lambda: gallery.polynomial_level_set([0.0, 0.0, 1.0], "above", convex=True),
    "smooth-manifold": lambda: gallery.polynomial_curve([0.0, -1.0, 0.0, 1.0]),
    "power-cusp": lambda: gallery.PowerCusp(1.5),
    "intersection": lambda: sets.IntersectionSet(
        [sets.Ball([0.0, 0.0], 1.0), sets.HalfspaceSet([1.0, 1.0], 0.5)]
    ),
}

_small = st.floats(-3.0, 3.0)


@st.composite
def _oracle_and_points(draw):
    """A set of any kind and a batch of finite points for it: the ten kinds
    of test_closed_form_rows with its batches (which may already hold a bad
    point), the smooth kinds and the intersection with points in [-3, 3]^2,
    or a box or point set far out at -1e308, where a point at +1e308 has a
    finite nearest point and an overflowing difference to it."""
    family = draw(st.sampled_from(["closed-form", "smooth", "far"]))
    if family == "closed-form":
        return draw(_batch())
    if family == "smooth":
        oracle = SMOOTH[draw(st.sampled_from(sorted(SMOOTH)))]()
        points = draw(st.lists(st.lists(_small, min_size=2, max_size=2).map(np.array), min_size=1, max_size=4))
        return oracle, points
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        oracle = sets.Box(np.full(n, -1.5e308), np.full(n, -1e308))
    else:
        oracle = sets.PointSet([np.full(n, -1.2e308), np.ones(n)])
    return oracle, [np.full(n, -1.3e308), np.ones(n), np.full(n, 1e308)]


def _edge_row(draw, edge, n):
    """One point of the named edge case for a set in R^n."""
    if edge in ("nan", "inf", "-inf"):
        row = draw(_vector(n))
        row[draw(st.integers(0, n - 1))] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[edge]
        return row
    if edge == "short":
        return draw(_vector(n - 1))
    if edge == "long":
        return draw(_vector(n + 1))
    if edge == "2-d":
        return draw(_vector(n)).reshape(1, n)
    # Finite, but its squared distance to any nearest point of moderate size
    # overflows, and on the far sets so may the difference itself.
    return np.full(n, draw(st.sampled_from([1.6e308, -1.6e308, 1e200])))


EDGES = ["nan", "inf", "-inf", "short", "long", "2-d", "huge"]


@st.composite
def _edge_batch(draw):
    """(oracle, batch, points): a set, the batch as it is handed to
    _project_rows (a list, a 2-d array when the points stack as one, or an
    iterator), and the same points as a list.  The batch may also be empty,
    or hold only points of another width."""
    oracle, points = draw(_oracle_and_points())
    n = oracle.dimension
    points = list(points)
    for edge in draw(st.lists(st.sampled_from(EDGES), max_size=3)):
        points.insert(draw(st.integers(0, len(points))), _edge_row(draw, edge, n))
    whole = draw(st.sampled_from([None] * 8 + ["empty", "narrow", "wide"]))
    if whole == "empty":
        points = []
    elif whole is not None:
        # Every point one coordinate short or long: the batch stacks, and
        # no point checks.
        width = n - 1 if whole == "narrow" else n + 1
        points = draw(st.lists(_vector(width), min_size=1, max_size=4))
    form = draw(st.sampled_from(["list", "array", "iterator"]))
    if form == "array":
        try:
            batch = np.array(points, dtype=float).reshape(len(points), -1 if points else n)
        except ValueError:  # ragged: it has no 2-d form
            batch = points
        return oracle, batch, list(batch)
    return oracle, iter(points) if form == "iterator" else points, points


@contextlib.contextmanager
def _error_state(mode):
    """numpy's default error state or overflow raising, each with every
    warning recorded in the list it yields, or warnings raised as errors."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="raise" if mode == "over-raise" else "warn"):
        warnings.simplefilter("error" if mode == "warnings-error" else "always")
        yield caught


def _warning_bits(caught):
    """The recorded warnings' categories and messages, in sorted order: a
    batch runs its hook on every row before it takes any distance again, so
    its warnings come in another order than those of one point after the
    other."""
    return sorted((w.category.__name__, str(w.message)) for w in caught)


@pytest.mark.parametrize("mode", ["default", "over-raise", "warnings-error"])
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=_edge_batch())
def test_every_batch_equals_project_bit_for_bit(mode, case):
    oracle, batch, points = case
    inputs = [p for p in points if isinstance(p, np.ndarray)]
    if isinstance(batch, np.ndarray):
        inputs.append(batch)
    with _error_state(mode) as caught:
        got = oracle._project_rows(batch)
    with _error_state(mode) as caught_want:
        want = [sets._outcome(sets.project, oracle, x) for x in points]
    assert [_outcome_bits(o) for o in got] == [_outcome_bits(o) for o in want]
    assert _warning_bits(caught) == _warning_bits(caught_want)
    nearest = [o[0] for o in got if not isinstance(o, Exception)]
    assert not any(
        np.shares_memory(y, z) for i, y in enumerate(nearest) for z in nearest[i + 1 :] + inputs
    )


# Batches with a row whose distance underflows: its square, 1e-320, is
# subnormal.  project signals that underflow on the row, so the batch must
# too, under any error state of the caller, and the rows after it must
# still be answered.  Each case has its count of such rows.
UNDERFLOWING = {
    "box": (sets.Box([0.0, 0.0], [1.0, 1.0]), [[-1e-160, 0.5], [2.0, 0.5]], 1),
    "point-set": (sets.PointSet([[0.0, 0.0], [3.0, 3.0]]), [[1.0, 1.0], [1e-160, 0.0], [0.0, -1e-161], [2.0, 2.0]], 2),
    "halfspace": (sets.HalfspaceSet([1.0, 0.0], 0.0), [[1e-160, 7.0], [-1.0, 0.0], [3.0, 0.0]], 1),
    # The smooth sets' Newton kernel underflows on the tiny row: stacked,
    # it signals once for the whole batch, and project on that row alone.
    "smooth-level-set": (
        gallery.polynomial_level_set([0.0, 0.0, 1.0], "above", convex=True),
        [[1e-160, -1.0], [0.3, -1.0], [2.0, 0.5]],
        1,
    ),
    "smooth-manifold": (gallery.polynomial_curve([0.0, 0.0, 1.0]), [[1e-160, -1.0], [0.3, -1.0], [2.0, 0.5]], 1),
}


@pytest.mark.parametrize("under", ["ignore", "warn", "raise"])
@pytest.mark.parametrize("name", sorted(UNDERFLOWING))
def test_a_row_whose_distance_underflows_signals_as_project(name, under):
    oracle, points, tiny = UNDERFLOWING[name]
    points = [np.array(p) for p in points]

    def outcomes(run):
        with warnings.catch_warnings(record=True) as caught, np.errstate(under=under):
            warnings.simplefilter("always")
            return [_outcome_bits(o) for o in run()], _warning_bits(caught)

    got = outcomes(lambda: oracle._project_rows(points))
    want = outcomes(lambda: [sets._outcome(sets.project, oracle, x) for x in points])
    assert got == want
    raised = [o for o in got[0] if o[0] is FloatingPointError]
    assert len(raised) == (tiny if under == "raise" else 0)
    assert bool(got[1]) == (under == "warn")


# Error states a caller may set, each with some category that signals on a
# subnormal-sized row and that the caller does not ignore, or with none.
ERROR_STATES = {
    "under-raise": {"under": "raise"},
    "under-warn": {"under": "warn"},
    "all-raise": {"all": "raise"},
    "all-ignore": {"all": "ignore"},
    "divide-raise-under-warn": {"divide": "raise", "under": "warn"},
}
_tiny = st.sampled_from([1e-160, -1e-160, 3e-170, 0.0])


@st.composite
def _tiny_batch(draw):
    """(oracle, points): a set of any batch kind, the ten of
    test_closed_form_rows with their batches or the smooth kinds, the cusp
    and the intersection with points in [-3, 3]^2, and its points with some
    coordinates set to +-1e-160, 3e-170 or 0, and some points scaled by
    1e-160 as a whole."""
    if draw(st.booleans()):
        oracle, points = draw(_batch())
    else:
        oracle = SMOOTH[draw(st.sampled_from(sorted(SMOOTH)))]()
        points = draw(st.lists(st.lists(_small, min_size=2, max_size=2).map(np.array), min_size=1, max_size=4))
    out = []
    for p in points:
        p = np.array(p, dtype=float)
        for i in draw(st.lists(st.integers(0, p.size - 1), max_size=p.size)):
            p.flat[i] = draw(_tiny)
        out.append(p * 1e-160 if draw(st.booleans()) else p)
    return oracle, out


@pytest.mark.parametrize("state", sorted(ERROR_STATES))
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=_tiny_batch())
def test_every_batch_kind_signals_as_project_under_each_error_state(state, case):
    oracle, points = case

    def outcomes(run):
        with warnings.catch_warnings(record=True) as caught, np.errstate(**ERROR_STATES[state]):
            warnings.simplefilter("always")
            return [_outcome_bits(o) for o in run()], _warning_bits(caught)

    got = outcomes(lambda: oracle._project_rows(points))
    want = outcomes(lambda: [sets._outcome(sets.project, oracle, x) for x in points])
    assert got == want


SCALES = [1e-150, 1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100, 1e150]


@pytest.mark.parametrize("n", range(1, 33))
def test_stacked_distances_are_norm_bit_for_bit(n):
    # The batch distances rest on this: sqrt of the stacked row dots of
    # D = P - stack(Y) is _norm(p - y) on each row, up to 32 coordinates (a
    # fixed-rank set has rows x cols of them) and at every scale.  The last
    # row's D is finite but D.D overflows: inf on both paths.
    rng = np.random.default_rng(2900 + n)
    for scale in SCALES:
        P = rng.standard_normal((9, n)) * scale
        Y = [rng.standard_normal(n) * scale for _ in range(9)]
        P[-1], Y[-1] = np.full(n, 1e155), np.full(n, -1e155)
        with np.errstate(all="ignore"):
            D = P - np.array(Y)
            got = np.sqrt(sets._row_dots(D, D)).tolist()
            want = [sets._norm(p - y) for p, y in zip(P, Y)]
        assert [g.hex() for g in got] == [w.hex() for w in want], f"numpy {np.__version__}: n = {n}, scale {scale}"
        assert got[-1] == np.inf


class _RaisingBall(sets.Ball):
    """A ball whose batch hook raises, whatever the batch."""

    def _nearest_rows(self, X):
        raise RuntimeError("the hook refuses the stack")


@pytest.mark.parametrize("state", [{}, {"over": "raise"}], ids=["default", "over-raise"])
def test_a_hook_that_raises_gives_each_point_projects_outcome(state):
    # A stacked path that raises does not answer for the batch: each point
    # gets what project gives it alone, with the same warnings, and a point
    # that does not check keeps its own error.  The last clean point's
    # distance overflows.
    oracle = _RaisingBall([0.0, 0.0], 1.0)
    clean = [np.array([2.0, 0.0]), np.array([0.1, -0.2]), np.array([3.0, 4.0]), np.array([1e308, 1e308])]

    def outcomes(run):
        with warnings.catch_warnings(record=True) as caught, np.errstate(**state):
            warnings.simplefilter("always")
            return [_outcome_bits(o) for o in run()], _warning_bits(caught)

    for points in (clean, clean[:2] + [np.array([np.nan, 0.0]), np.array([1.0])]):
        got = outcomes(lambda: oracle._project_rows(points))
        assert got == outcomes(lambda: [sets._outcome(sets.project, oracle, x) for x in points])
        assert RuntimeError not in [o[0] for o in got[0]]
