"""The solver engine's shortcuts against the numpy calls they replace, bit
for bit, and the linear baselines' closed-form rate.

The engine averages with ``np.add.reduce(P, axis=0) / k`` where it took
``np.mean(P, axis=0)``, and below 8 points of two or more coordinates adds
them in order (``solvers._mean``) in place of that reduce; it takes the norm of a fresh contiguous difference as
``sets._norm`` where it took ``np.linalg.norm``, and the report's ball draws
call ``rng.random()`` where they called ``rng.uniform()`` and fill a row with
``rng.standard_normal(out=row)`` where they took ``rng.standard_normal(n)``.
Each is checked here on the values and on the warnings numpy prints.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shqp import gallery, polyhedra, sets, solvers

# Finite doubles of every scale, signed zeros, NaN and both infinities.
ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 1e-308]),
)


def _outcome(fn):
    """fn()'s value as bytes, with the RuntimeWarnings it printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        value = fn()
    printed = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return np.asarray(value, dtype=float).tobytes(), printed


@st.composite
def _stacks(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=k, max_size=k))
    return tuple(np.array(row) for row in rows)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_stacks())
def test_add_reduce_over_k_is_the_mean(points):
    """The averaged step's mean of k projections, as a tuple of 1-d arrays."""
    got = _outcome(lambda: np.add.reduce(points, axis=0) / len(points))
    assert got == _outcome(lambda: np.mean(points, axis=0))


# Entries that reach every branch of a sum: signed zeros, subnormals, sums
# that overflow (1e300 + 1.7e308), infinities, and NaNs with three payloads.
SUMMANDS = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.7e308, np.inf, -np.inf, np.nan],
    np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64),
    [1.0, -1.0, 0.1, 3.0, 1e-16],
])


def _signalled(fn):
    """fn()'s value as bytes, with the kinds of RuntimeWarning it printed
    ("overflow", "invalid value", ...): numpy names the loop they came
    from, add for the engine's sums and reduce for the reference."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        value = fn()
    kinds = {str(w.message).split(" encountered")[0] for w in caught}
    return np.asarray(value, dtype=float).tobytes(), sorted(kinds)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(1, 13))
def test_the_engine_mean_is_add_reduce_over_k(k, n):
    """solvers._mean of k projections in n dimensions, bit for bit, signed
    zeros and NaN payloads included, and with the same kinds of signal.
    The 1-d shapes with 8 or more points are where numpy sums pairwise."""
    rng = np.random.default_rng(100 * k + n)
    for trial in range(100):
        if trial % 2:
            points = tuple(rng.choice(SUMMANDS, n) for _ in range(k))
        else:
            points = tuple(rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n) for _ in range(k))
        want = _signalled(lambda: np.add.reduce(points, axis=0) / k)
        assert _signalled(lambda: solvers._mean(points)) == want, points


def test_numpy_sums_a_1d_column_pairwise_from_8_points():
    """Why _mean keeps the reduce for 8 or more points in 1-d: there a
    sum in order differs from numpy's on some random inputs."""
    rng = np.random.default_rng(0)
    differ = 0
    for _ in range(200):
        points = tuple(rng.standard_normal(1) for _ in range(8))
        total = 0.0 + points[0]
        for p in points[1:]:
            total = total + p
        differ += total.tobytes() != np.add.reduce(points, axis=0).tobytes()
    assert differ > 0


@st.composite
def _differences(draw):
    n = draw(st.integers(1, 9))
    a, b = (np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n))) for _ in range(2))
    with np.errstate(all="ignore"):
        return a - b


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_differences())
def test_norm_of_a_fresh_difference_is_numpys(d):
    want = _outcome(lambda: np.linalg.norm(d))
    assert _outcome(lambda: sets._norm(d)) == want
    assert _outcome(lambda: polyhedra._vector_norm(d)) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_differences(), st.sampled_from([slice(None, None, 2), slice(None, None, -1)]))
def test_vector_norm_keeps_numpy_on_strided_and_2d_arrays(d, step):
    """Halfspace normals and analytic normals can be views or the wrong
    shape; those keep np.linalg.norm itself."""
    view = d[step]
    assert _outcome(lambda: polyhedra._vector_norm(view)) == _outcome(lambda: np.linalg.norm(view))
    rows = np.stack([d, d])[:, step]
    assert _outcome(lambda: polyhedra._vector_norm(rows)) == _outcome(lambda: np.linalg.norm(rows))


@pytest.mark.parametrize("norm", [sets._norm, polyhedra._vector_norm, np.linalg.norm])
def test_an_overflowing_norm_raises_numpys_warning(norm):
    """Under -W error::RuntimeWarning every form stops at the same dot."""
    d = np.array([3e200, -4e200, 1.0]) - np.array([0.0, 0.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow encountered in dot"):
            norm(d)
    with np.errstate(over="ignore"):
        assert norm(d) == math.inf


def test_halfspace_checks_a_strided_normal_as_before():
    base = np.array([1e-15, 5.0, 2e-15, 7.0, -3e-15])
    assert not base[::2].flags.c_contiguous
    with pytest.raises(ValueError, match="nonzero vector"):
        polyhedra.Halfspace(base[::2], 0.0)
    h = polyhedra.Halfspace(base[1::2], 1.0)
    assert h.normal.tobytes() == np.array([5.0, 7.0]).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_random_gives_the_uniform_doubles(seed):
    """_ball_draws calls rng.random(), its per-point reference
    rng.uniform(): the same doubles from the same stream, interleaved with
    the standard normal directions as the draws take them."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = [], []
    for _ in range(10_000):
        got.append((a.standard_normal(2).tobytes(), a.random().hex()))
        want.append((b.standard_normal(2).tobytes(), b.uniform().hex()))
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 9])
@pytest.mark.parametrize("seed", range(4))
def test_standard_normal_fills_a_row_from_the_same_stream(seed, n):
    """_ball_draws fills each row of its stack with
    rng.standard_normal(out=row), its per-point reference takes
    rng.standard_normal(n): the same doubles from the same stream,
    interleaved with the uniforms as the draws take them."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    G = np.empty((2_000, n))
    got, want = [], []
    for g in G:
        a.standard_normal(out=g)
        got.append((g.tobytes(), a.random().hex()))
        want.append((b.standard_normal(n).tobytes(), b.uniform().hex()))
    assert got == want


@pytest.mark.parametrize("name, rate", [("two-lines-45", 0.5), ("two-lines-60", 0.25)])
def test_map_contracts_by_the_friedrichs_rate(name, rate):
    """Alternating projections between two lines at angle theta shrink the
    distance to the other line by cos^2(theta) per sweep (Kayalar &
    Weinert, MCSS 1 (1988)): 1/2 at 45 degrees, 1/4 at 60."""
    problem = gallery.get_entry(name).problem
    config = solvers.SolverConfig()
    trace = solvers.run_map(problem, config=config)
    assert trace.status == "converged"
    # Iterates on the first line measured to the second, and the reverse.
    on_first = [r.distances[1] for r in trace.records if r.step_kind in ("start", "set-projection-1")]
    on_second = [r.distances[0] for r in trace.records if r.step_kind == "set-projection-2"]
    for gaps in (on_first, on_second):
        ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > config.stop_tolerance]
        assert len(ratios) >= 10
        assert ratios == pytest.approx([rate] * len(ratios), rel=1e-9)
