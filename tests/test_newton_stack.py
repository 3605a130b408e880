"""The stacked Newton projection against the per-point code it stands for.

The regularity report projects its ball draws and beta probes as one batch
per set (`SetOracle._project_rows`), whose smooth sets run their Newton
starts in lockstep (`sets._newton_stationarity_stack`): first starts as one
stack, ray restarts as another.  Each must give, bit for bit, what the
scalar kernel and the per-seed projection give one point at a time, and
raise the error the per-point loops raised first.  The loops the
projection and the samplers ran before are kept here as references.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shqp import diagnostics, sets
from shqp.gallery import polynomial_curve, polynomial_level_set
from test_report_pins import INLINE, _problem
from test_sampler_reductions import _reference_ray_scan_seeds

CUBIC = [0.5, -1.0, 0.0, 1.0]  # x2 = 0.5 - x1 + x1^3


def _disk(sign):
    """{x : sign * (||x||^2 - 1) <= 0}: the unit disk (sign 1) or its
    outside (sign -1).  The gradient vanishes at the origin, so a start
    there has a singular bordered system."""
    return sets.LevelSet(
        2,
        lambda x: sign * float(x @ x - 1.0),
        lambda x: sign * 2.0 * x,
        lambda x: sign * 2.0 * np.eye(2),
        name="disk",
    )


def _scalar(oracle, x, y0, lam0, iterations):
    """_newton_stationarity on one row: its result, or the exception."""
    try:
        return sets._newton_stationarity(
            oracle.f, oracle.grad, oracle.hess, x, y0, lam0, iterations, 1e-12
        )
    except Exception as exc:
        return exc


def _same(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    if want is None:
        return got is None
    return isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()


def _assert_rows_match(oracle, rows, iterations):
    X = [np.ascontiguousarray(x, dtype=float) for x, _, _ in rows]
    got = sets._newton_stationarity_stack(
        oracle.f,
        oracle.grad,
        oracle.hess,
        X,
        [y0 for _, y0, _ in rows],
        [lam0 for _, _, lam0 in rows],
        iterations,
        1e-12,
    )
    assert len(got) == len(rows)
    for i, (x, (_, y0, lam0)) in enumerate(zip(X, rows)):
        want = _scalar(oracle, x, y0, lam0, iterations)
        assert _same(got[i], want), (i, got[i], want)
    return got


_coefficient = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
_polynomial = st.one_of(
    st.lists(_coefficient, min_size=1, max_size=5).map(polynomial_curve),
    st.builds(
        polynomial_level_set,
        st.lists(_coefficient, min_size=1, max_size=5),
        st.sampled_from(["above", "below"]),
    ),
)
_oracle = st.one_of(_polynomial, st.sampled_from([_disk(1.0), _disk(-1.0)]))
_point = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(np.array)
_scale = st.sampled_from([1.0, 1.0, 1.0, 1e60, 1e120])


@st.composite
def _row(draw):
    """(x, y0, lam0): the projection's own first start (y0 = x, lam0 = 0),
    a start up to 3,000 away with a multiplier (the step cap fires), a
    start at the origin (singular on the disks), or points and multipliers
    scaled until they overflow."""
    x = draw(_point) * draw(_scale)
    kind = draw(st.sampled_from(["first", "elsewhere", "origin", "wild"]))
    if kind == "first":
        return x, x, 0.0
    if kind == "origin":
        return x, np.zeros(2), draw(st.floats(-2.0, 2.0))
    lam0 = draw(st.floats(-10.0, 10.0))
    if kind == "wild":
        return x, draw(_point) * draw(_scale), lam0 * draw(_scale) * 1e180
    return x, x + draw(_point) * draw(st.sampled_from([1.0, 10.0, 100.0, 1000.0])), lam0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_oracle, st.lists(_row(), min_size=1, max_size=64), st.sampled_from([1, 3, 10, 100]))
def test_stacked_kernel_equals_scalar_kernel(oracle, rows, iterations):
    with np.errstate(all="ignore"):
        _assert_rows_match(oracle, rows, iterations)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_kernel_equals_scalar_kernel_from_far_starts(seed):
    # Starts up to 1,000 away from x: the step cap fires on the first steps
    # of most rows, and most still converge, so a cap computed in another
    # order shows in the converged bits.
    rng = np.random.default_rng(seed)
    for trial in range(25):
        coefficients = list(rng.uniform(-3.0, 3.0, size=rng.integers(2, 5)))
        if trial % 2:
            oracle = polynomial_curve(coefficients)
        else:
            oracle = polynomial_level_set(coefficients, "above")
        X = rng.uniform(-2.0, 2.0, size=(16, 2))
        Y0 = X + rng.uniform(-1.0, 1.0, size=(16, 2)) * 10.0 ** rng.uniform(0.0, 3.0, size=(16, 1))
        rows = list(zip(X, Y0, rng.uniform(-5.0, 5.0, size=16).tolist()))
        with np.errstate(all="ignore"):
            got = _assert_rows_match(oracle, rows, 100)
        assert sum(y is not None for y in got) >= 4


def test_singular_stack_falls_back_row_by_row(monkeypatch):
    # x2 = x1^2 at (0, s) with lam = 1/2: I + lam H = diag(0, 1) and
    # g = (0, 1), so the bordered matrix is singular; so is the disk's at the
    # origin, where g = 0.  The other rows must not notice.
    lstsq_calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        lstsq_calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    parabola = polynomial_curve([0.0, 0.0, 1.0])
    x = np.array([0.3, 0.2])
    rows = [(x, x, 0.0), (x, np.array([0.0, 0.7]), 0.5), (x + 0.1, x + 0.1, 0.0)]
    got = _assert_rows_match(parabola, rows, 100)
    assert all(isinstance(y, np.ndarray) for y in got)
    assert lstsq_calls
    lstsq_calls.clear()
    disk = _disk(1.0)
    rows = [(np.array([1.5, 0.5]), np.zeros(2), 0.0), (np.array([2.0, 0.0]),) * 2 + (0.0,)]
    _assert_rows_match(disk, rows, 100)
    assert lstsq_calls


def test_rows_that_raise_get_the_scalar_kernels_exception():
    def grad(y):
        if y[0] > 1.0:
            raise ValueError(f"grad refuses {y[0]!r}")
        return np.array([-2.0 * y[0], 1.0])

    def hess(y):
        if y[1] < -1.0:
            raise ArithmeticError(f"hess refuses {y[1]!r}")
        return np.array([[-2.0, 0.0], [0.0, 0.0]])

    curve = sets.ManifoldCurve(2, lambda y: float(y[1] - y[0] ** 2), grad, hess)
    points = [(0.3, 0.1), (1.5, 0.0), (0.2, -1.5), (0.9, 3.0), (-0.4, -0.2), (2.0, 1.0)]
    rows = [(np.array(p), np.array(p), 0.0) for p in points]
    got = _assert_rows_match(curve, rows, 100)
    assert sum(isinstance(r, Exception) for r in got) >= 2


def test_non_finite_start_stops_at_once():
    # Far out on the cubic, x1^3 overflows: every start's residual turns
    # non-finite, which no later iteration can undo.  The projection still
    # fails as it did, with 13 grad calls where 605 ran to the budget, 592
    # of them at non-finite iterates.
    curve = polynomial_curve(CUBIC)
    grad = curve.grad
    calls = []

    def counted(y):
        calls.append(y)
        return grad(y)

    curve.grad = counted
    x = np.array([1e120, 3.0])
    with np.errstate(all="ignore"), pytest.raises(sets.ProjectionNotConvergedError) as info:
        sets.project(curve, x)
    assert str(info.value) == "level-set projection did not reach residual 1e-12 in 100 iterations"
    assert info.value.last_iterate.tobytes() == x.tobytes()
    assert len(calls) <= 20
    assert all(np.isfinite(y).all() for y in calls)


def _reference_ball_draws(oracle, center, radius, count, seed):
    """sets._ball_draws as it was: draw, project, filter, one at a time,
    each draw made by the sampler's old one-point helper."""

    def uniform_ball(rng, n):
        g = rng.standard_normal(n)
        g /= sets._norm(g)
        return g * rng.uniform() ** (1.0 / n)

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        w = center + radius * uniform_ball(rng, oracle.dimension)
        try:
            y, gap = sets.project(oracle, w)
        except sets.ProjectionNotConvergedError:
            continue
        if sets._norm(y - center) > radius:
            continue
        draws.append((w, y, gap))
    return draws


def _reference_intersection_distance(problem, x, proxy_config):
    """d(x, K) for one probe, as the per-probe loop took it."""
    if problem.intersection_oracle is not None:
        _, d = sets.project(problem.intersection_oracle, x)
        return float(d)
    trace = diagnostics.solvers.run_mass_projection(problem, x, proxy_config)
    if trace.status != "converged":
        raise diagnostics.NoDistanceOracleError(
            "no-K-oracle: proxy run from a probe did not converge "
            f"(status {trace.status})"
        )
    return float(np.linalg.norm(np.asarray(x, float) - trace.final_point()))


def _reference_beta_probe(problem, xstar, rng, radii=diagnostics._RADII, samples=40):
    """diagnostics._beta_probe as it was: each probe drawn, projected onto
    every set and measured against the intersection before the next."""
    xstar = np.asarray(xstar, dtype=float)
    centers = []
    for s in problem.sets:
        center, d = sets.project(s, xstar)
        if d > 1e-7:
            raise ValueError("xstar must lie in the intersection (within 1e-7)")
        centers.append(center)
    radii = tuple(float(r) for r in radii)
    if not radii or min(radii) <= 0:
        raise ValueError("radii must be positive")
    rng = np.random.default_rng(rng)
    big = max(radii)
    proxy_config = diagnostics.solvers.SolverConfig(stop_tolerance=1e-12, max_outer_iterations=300)
    beta_hat = 1.0
    for _ in range(samples):
        u = rng.standard_normal(problem.dimension)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            continue
        r = big * rng.uniform() ** (1.0 / problem.dimension)
        x = xstar + r * u / nu
        worst = max(sets.project(s, x)[1] for s in problem.sets)
        if worst <= 1e-10:
            continue
        dk = _reference_intersection_distance(problem, x, proxy_config)
        beta_hat = max(beta_hat, dk / worst)
    return float(beta_hat), centers


def _bits(draw):
    w, y, gap = draw
    return w.tobytes(), y.tobytes(), gap.hex()


# The problems `shqp run` reports on in the CLI benchmark.
REPORT_PROBLEMS = [
    "backtrack-example",
    "circle-line",
    "two-parabolas",
    "parabola-lens",
    "rank1-affine",
    *sorted(INLINE),
]


@pytest.mark.parametrize("name", REPORT_PROBLEMS)
def test_ball_draws_equal_the_per_point_loop(name):
    problem = _problem(name)
    for s in problem.sets:
        center = sets.project(s, problem.known_solution)[0]
        for radius in diagnostics._RADII:
            for seed in range(4):
                got = sets._ball_draws(s, center, radius, 160, seed)
                want = _reference_ball_draws(s, center, radius, 160, seed)
                # Equal draws (w) also mean the same draws were dropped.
                assert [_bits(d) for d in got] == [_bits(d) for d in want]


@pytest.mark.parametrize("name", REPORT_PROBLEMS)
def test_beta_probe_equals_the_per_probe_loop(name):
    problem = _problem(name)
    for seed in range(4):
        beta, centers = diagnostics._beta_probe(problem, problem.known_solution, seed)
        beta_ref, centers_ref = _reference_beta_probe(problem, problem.known_solution, seed)
        assert beta.hex() == beta_ref.hex()
        assert [c.tobytes() for c in centers] == [c.tobytes() for c in centers_ref]


class _Failing(sets.SetOracle):
    """Another oracle's projection, except that call k (counting from 0)
    raises ``failures[k]`` when there is one."""

    def __init__(self, inner, failures):
        super().__init__(inner.dimension)
        self.inner, self.failures = inner, failures
        self.calls = 0

    def _project(self, x):
        self.calls += 1
        if self.calls - 1 in self.failures:
            raise self.failures[self.calls - 1]
        return self.inner._project(x)

    def _residual(self, p):
        return self.inner._residual(p)


def _picky_parabola():
    """x2 = x1^2 with a gradient that refuses x1 > 0.15: its stacked first
    starts raise on the points that begin there."""
    curve = polynomial_curve([0.0, 0.0, 1.0])
    grad = curve.grad

    def picky(y):
        if y[0] > 0.15:
            raise ValueError(f"gradient refuses x1 = {y[0]!r}")
        return grad(y)

    curve.grad = picky
    return curve


def _raised(fn, *args):
    """(type, message) of the exception fn(*args) raises, or None."""
    with np.errstate(all="ignore"):
        try:
            fn(*args)
        except Exception as exc:
            return type(exc), str(exc)
    return None


def _failing_problem(ball_fails_at, distance_fails_at):
    # Call 0 of each fake projects xstar; call k + 1 is probe k.
    ball = _Failing(
        sets.Ball([0.0, 0.0], 1.0),
        {ball_fails_at: sets.ProjectionNotConvergedError(f"ball call {ball_fails_at}", np.zeros(2))},
    )
    intersection = _Failing(
        sets.PointSet([[0.0, 0.0]]),
        {distance_fails_at: diagnostics.NoDistanceOracleError(f"distance call {distance_fails_at}")},
    )
    return diagnostics.solvers.ProblemInstance(
        "failing", [_picky_parabola(), ball], [0.5, 0.5], np.zeros(2), intersection
    )


BALL_FAILS_AT = [1, 2, 4, 9, 40, None]
DISTANCE_FAILS_AT = [0, 1, 3, 8, None]


def _beta_probe_raised(fn, ball_fails_at, distance_fails_at):
    return _raised(fn, _failing_problem(ball_fails_at, distance_fails_at), np.zeros(2), 0)


@pytest.mark.parametrize("ball_fails_at", BALL_FAILS_AT)
@pytest.mark.parametrize("distance_fails_at", DISTANCE_FAILS_AT)
def test_beta_probe_raises_the_first_error_in_probe_order(ball_fails_at, distance_fails_at):
    got = _beta_probe_raised(diagnostics._beta_probe, ball_fails_at, distance_fails_at)
    want = _beta_probe_raised(_reference_beta_probe, ball_fails_at, distance_fails_at)
    assert got == want


def test_beta_probe_error_fixtures_reach_each_error():
    # The fixtures above are only a check if each source of error comes
    # first somewhere: the ball, the intersection and the picky gradient.
    kinds = {
        _beta_probe_raised(_reference_beta_probe, b, d)[0]
        for b in BALL_FAILS_AT
        for d in DISTANCE_FAILS_AT
    }
    assert kinds == {
        sets.ProjectionNotConvergedError,
        diagnostics.NoDistanceOracleError,
        ValueError,
    }


@pytest.mark.parametrize(
    "failures",
    [
        {3: sets.ProjectionNotConvergedError("skipped", np.zeros(2))},
        {0: ArithmeticError("call 0")},
        {2: sets.ProjectionNotConvergedError("skipped", np.zeros(2)), 7: ArithmeticError("call 7")},
        {39: ArithmeticError("call 39"), 40: ArithmeticError("never made")},
    ],
)
def test_ball_draws_raise_the_first_error_in_draw_order(failures):
    # Projections that do not converge are skipped; the first other error
    # is raised, as the per-draw loop raised it.
    def draws(fn):
        oracle = _Failing(sets.Ball([0.0, 0.0], 1.0), failures)
        return fn(oracle, np.array([1.0, 0.0]), 0.25, 40, 3)

    want = _raised(draws, _reference_ball_draws)
    assert _raised(draws, sets._ball_draws) == want
    if want is None:
        got, ref = draws(sets._ball_draws), draws(_reference_ball_draws)
        assert len(ref) == 39
        assert [_bits(d) for d in got] == [_bits(d) for d in ref]


class _FarAt(sets.SetOracle):
    """Projects every point onto the origin, except that call 3 lands
    1.3e154 past its point, away from the origin, and call 5 raises.  In a
    ball of radius 1e154 about the origin every gap squares to a finite
    number, but draw 3's distance from the center does not."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def _project(self, x):
        self.calls += 1
        if self.calls == 4:
            return x + 1.3e154 * (x / np.linalg.norm(x))
        if self.calls == 6:
            raise ArithmeticError("call 5")
        return np.zeros(2)


def _raised_under(mode, fn):
    """(type, message) of what fn(_FarAt(), ...) raises with overflow set to
    raise, to warn with warnings as errors, or to be ignored."""
    with warnings.catch_warnings(), np.errstate(over=mode):
        warnings.simplefilter("error")
        try:
            fn(_FarAt(), np.zeros(2), 1e154, 8, 0)
        except Exception as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "mode, want",
    [
        ("raise", (FloatingPointError, "overflow encountered in dot")),
        ("warn", (RuntimeWarning, "overflow encountered in dot")),
        ("ignore", (ArithmeticError, "call 5")),
    ],
)
def test_ball_draws_raise_a_filter_overflow_in_draw_order(mode, want):
    # Draw 3's filter norm overflows after its projection succeeds, and
    # draw 5's projection raises; the per-draw loop meets draw 3 first.
    assert _raised_under(mode, _reference_ball_draws) == want
    assert _raised_under(mode, sets._ball_draws) == want


def test_far_fixture_overflows_only_the_filter():
    # The test above is only a check if draw 3's projection and gap are
    # finite, so that the overflow comes from the filter's norm.
    rng = np.random.default_rng(0)
    for _ in range(4):
        g, u = rng.standard_normal(2), rng.uniform()
    far = _FarAt()
    far.calls = 3
    with np.errstate(over="raise"):
        y, gap = sets.project(far, 1e154 * (g / sets._norm(g)) * u**0.5)
    assert np.isfinite(y).all() and np.isfinite(gap)
    with np.errstate(over="ignore"):
        assert sets._norm(y) == np.inf


def test_ball_draws_on_a_smooth_set_raise_like_the_loop():
    picky = _picky_parabola()
    args = (picky, np.zeros(2), 0.25, 160, 0)
    want = _raised(_reference_ball_draws, *args)
    assert want is not None and want[0] is ValueError
    assert _raised(sets._ball_draws, *args) == want


def _reference_newton_projection(f, grad, hess, x):
    """The smooth sets' Newton projection as it was: the first start from
    (x, 0), then, outside the near gate, one start per ray seed in turn,
    each seed's gradient taken just before its start."""
    best = sets._newton_stationarity(f, grad, hess, x, x, 0.0, 100, 1e-12)
    if best is not None and sets._norm(best - x) <= 0.15 * (1.0 + sets._norm(x)):
        return best
    for seed in _reference_ray_scan_seeds(f, x):
        g = grad(seed)
        lam0 = float(g @ (x - seed) / max(g @ g, 1e-30))
        y = sets._newton_stationarity(f, grad, hess, x, seed, lam0, 100, 1e-12)
        if y is None:
            continue
        if best is None or sets._norm(y - x) < sets._norm(best - x) * (1.0 - 1e-12):
            best = y
    if best is None:
        raise sets.ProjectionNotConvergedError(
            "level-set projection did not reach residual 1e-12 in 100 iterations",
            last_iterate=x,
        )
    return best


def _reference_project(oracle, x):
    """sets.project on a LevelSet or ManifoldCurve as it was: a level set's
    member (f <= 0) is its own nearest point."""
    p = sets._as_point(x, oracle.dimension)
    if isinstance(oracle, sets.LevelSet) and oracle.f(p) <= 0.0:
        nearest = p.copy()
    else:
        nearest = _reference_newton_projection(oracle.f, oracle.grad, oracle.hess, p)
    return nearest, sets._norm(p - nearest)


def _outcome_bits(out):
    """A projection outcome in comparable form: the nearest point's bytes
    and the distance's hex, or the exception's type, message and (for a
    projection that did not converge) last iterate."""
    if isinstance(out, Exception):
        last = getattr(out, "last_iterate", None)
        return type(out), str(out), None if last is None else last.tobytes()
    nearest, d = out
    return nearest.tobytes(), d.hex()


def _assert_projections_match(oracle, points):
    """_project_rows on all points and sets.project on each equal the
    per-seed reference, bit for bit and error for error."""
    with np.errstate(all="ignore"):
        want = [_outcome_bits(sets._outcome(_reference_project, oracle, x)) for x in points]
    got = [_outcome_bits(out) for out in oracle._project_rows(points)]
    assert got == want
    single = [_outcome_bits(sets._outcome(sets.project, oracle, x)) for x in points]
    assert single == want
    return want


def _cubic_sets():
    return [
        polynomial_curve(CUBIC),
        polynomial_level_set(CUBIC, "above"),
        polynomial_level_set(CUBIC, "below"),
    ]


# Near points, points that need the ray restarts, an interior point of the
# level set above the cubic, points far enough out to overflow (one outside
# each level set), and points the check rejects.
CUBIC_POINTS = [
    (0.3, 0.1), (1.3, 0.2), (-0.4, 0.2), (0.7, 0.9), (2.5, -1.0), (-1.7, 0.4),
    (0.0, 0.0), (1e120, 3.0), (-1e120, 3.0), (float("nan"), 1.0), (0.5, 0.5, 0.5),
]


@pytest.mark.parametrize("oracle", _cubic_sets(), ids=["curve", "above", "below"])
def test_project_rows_equal_the_per_seed_projection(oracle, monkeypatch):
    scans = []
    scan = sets._ray_scan_rows

    def spy(f, points, max_rays=8):
        scans.append(len(points))
        return scan(f, points, max_rays)

    monkeypatch.setattr(sets, "_ray_scan_rows", spy)
    rng = np.random.default_rng(5)
    points = [np.array(p) for p in CUBIC_POINTS] + list(rng.uniform(-2.0, 2.0, size=(40, 2)))
    want = _assert_projections_match(oracle, points)
    # The fixture is only a check if it reaches each path: restarts in the
    # batch, whose ray scans run in lockstep over several points, scans of
    # one point (single-point sets.project), a converged answer, a point
    # that does not converge, and a point the check rejects.
    assert max(scans) >= 2
    assert 1 in scans
    kinds = {w[0] if isinstance(w[0], type) else "point" for w in want}
    assert {"point", sets.ProjectionNotConvergedError, ValueError} <= kinds


def _refusing_curve(limit):
    """The cubic curve with a gradient that refuses x1 > limit: ray seeds
    out there, and the starts that wander there, raise."""
    curve = polynomial_curve(CUBIC)
    grad = curve.grad

    def refusing(y):
        if y[0] > limit:
            raise ValueError(f"gradient refuses x1 = {y[0]!r}")
        return grad(y)

    curve.grad = refusing
    return curve


@pytest.mark.parametrize("limit", [0.9, 1.1, 1.4, 2.0])
def test_refused_ray_seeds_raise_the_first_error_in_seed_order(limit):
    curve = _refusing_curve(limit)
    rng = np.random.default_rng(11)
    points = [np.array(p) for p in CUBIC_POINTS[:7]] + list(rng.uniform(-2.0, 2.5, size=(40, 2)))
    want = _assert_projections_match(curve, points)
    # Some points raise only after their first start has run: the error
    # comes from a ray seed or a restart.
    late = [
        x
        for x, w in zip(points, want)
        if w[0] is ValueError and not isinstance(_scalar(curve, x, x, 0.0, 100), Exception)
    ]
    assert late


def test_numpy_scalar_interior_test_on_a_level_set():
    # f returns np.float64, not a Python float.
    above = polynomial_level_set(CUBIC, "above")
    f = above.f
    level = sets.LevelSet(2, lambda x: np.float64(f(x)), above.grad, above.hess)
    assert isinstance(level.f(np.array([0.7, 0.9])), np.float64)
    points = [np.array(p) for p in CUBIC_POINTS[:4]] + list(
        np.random.default_rng(2).uniform(-2.0, 2.0, size=(20, 2))
    )
    want = _assert_projections_match(level, points)
    assert sum(w[1] == "0x0.0p+0" for w in want) >= 2


def test_far_projection_raises_without_numpy_warnings():
    # (1e120, 3) on the cubic overflows in the Newton residual and in the
    # restart multipliers; that only makes each start fail.
    curve = polynomial_curve(CUBIC)
    x = np.array([1e120, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(sets.ProjectionNotConvergedError) as info:
            sets.project(curve, x)
        (batched,) = curve._project_rows([x])
    assert str(info.value) == "level-set projection did not reach residual 1e-12 in 100 iterations"
    assert info.value.last_iterate.tobytes() == x.tobytes()
    assert _outcome_bits(batched) == _outcome_bits(info.value)


def _scan_bits(out):
    """A ray scan's seeds as bytes, or its exception's type and message."""
    if isinstance(out, Exception):
        return type(out), str(out)
    return [seed.tobytes() for seed in out]


def _without_rows(f):
    """f as a plain callable, with no row form."""
    return lambda x: f(x)


def _refusing_rows(f, limit=1.5, name="f"):
    """f refusing x1 > limit, point by point and in its row form, which
    refuses any stack that holds such a row."""

    def refusing(x):
        if x[0] > limit:
            raise ArithmeticError(f"{name} refuses x1 = {x[0]!r}")
        return f(x)

    def rows(Y):
        if (Y[:, 0] > limit).any():
            raise ArithmeticError("row form refuses the stack")
        return f.rows(Y)

    refusing.rows = rows
    return refusing


RAY_SCAN_FORMS = {
    "rows": lambda f: f,
    "no rows": _without_rows,
    "refusing rows": _refusing_rows,
    # Refuses x1 > 1.5 with no row form: from a point left of that line,
    # the rays that head right fail, on a step out or in a bisection, and
    # the others do not.
    "refusing rays": lambda f: _without_rows(_refusing_rows(f)),
}
_CUBIC_CURVE = polynomial_curve(CUBIC)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    _polynomial,
    st.sampled_from(sorted(RAY_SCAN_FORMS)),
    st.lists(st.tuples(_point, _scale), min_size=0, max_size=12),
    st.sampled_from([1, 8, 13]),
)
@example(_CUBIC_CURVE, "rows", [], 8)
@example(_CUBIC_CURVE, "rows", [(np.array([1.3, 0.2]), 1.0)], 8)
@example(_CUBIC_CURVE, "no rows", [(np.array([1.3, 0.2]), 1.0)], 8)
@example(_CUBIC_CURVE, "refusing rays", [], 8)
@example(_CUBIC_CURVE, "refusing rays", [(np.array([0.2, 0.1]), 1.0)], 8)
def test_batched_ray_scan_equals_the_per_point_scan(oracle, form, scaled, max_rays):
    # Every point's seeds, or its error: a refused ray's error is the one
    # from the first ray in ray order that fails, as the one-point scan
    # meets it, whatever the order in which the lockstep scan meets them.
    f = RAY_SCAN_FORMS[form](oracle.f)
    X = [x * scale for x, scale in scaled]
    with np.errstate(all="ignore"):
        want = [_scan_bits(sets._outcome(_reference_ray_scan_seeds, f, x, max_rays)) for x in X]
        got = [_scan_bits(out) for out in sets._ray_scan_rows(f, X, max_rays)]
    assert got == want


@pytest.mark.parametrize("form", ["rows", "no rows"])
def test_a_point_raises_its_lowest_failing_ray_error(form):
    # From the origin, the circle of radius 0.3 is crossed between the steps
    # at 0.25 and 0.5 along every ray.  f refuses a band around the circle
    # on ray 0, which only its bisection reaches, and the first step out
    # (0.0625) on ray 1, which fails sooner in lockstep.  The one-point
    # scan meets ray 0's error first, and so must the batch.
    fan = sets._ray_fan(2, 8)

    def f(y):
        r = float(np.sqrt(y @ y))
        if 0.29 < r < 0.31 and y @ fan[0] > 0.999 * r:
            raise ArithmeticError(f"ray 0 refuses r = {r!r}")
        if r < 0.07 and y @ fan[1] > 0.999 * r:
            raise ArithmeticError(f"ray 1 refuses r = {r!r}")
        return float(y @ y - 0.09)

    if form == "rows":
        f.rows = lambda Y: np.array([f(y) for y in Y])
    X = [np.zeros(2), np.array([0.0, 2.0]), np.array([0.01, 0.0])]
    want = [_scan_bits(sets._outcome(_reference_ray_scan_seeds, f, x)) for x in X]
    assert want[0][0] is ArithmeticError and want[0][1].startswith("ray 0 refuses")
    assert [_scan_bits(out) for out in sets._ray_scan_rows(f, X)] == want


def test_batched_ray_scan_fixture_reaches_each_path():
    # Crossing rays, rays with no sign change within 32 (1 + ||x||), a point
    # with no seed at all, points far enough out to overflow, and a stack
    # the row form refuses, where some points' own scans raise.
    curve = polynomial_curve(CUBIC)
    X = [np.array(p) for p in [(0.3, 0.1), (1e120, 3.0), (-1e120, 3.0), (0.5, 1e6), (2.5, -1.0)]]
    counts = {}
    for max_rays in (1, 8, 13):
        with np.errstate(all="ignore"):
            got = sets._ray_scan_rows(curve.f, X, max_rays)
            want = [_reference_ray_scan_seeds(curve.f, x, max_rays) for x in X]
        assert [_scan_bits(s) for s in got] == [_scan_bits(s) for s in want]
        counts[max_rays] = [len(s) for s in got]
    assert 0 in counts[1] and 1 in counts[1]
    assert all(0 < c < 13 for c in counts[13][1:]) and counts[13][0] > 0
    refusing = _refusing_rows(curve.f, limit=100.0)
    with np.errstate(all="ignore"):
        got = sets._ray_scan_rows(refusing, X, 8)
    assert 0 < [type(s) for s in got].count(ArithmeticError) < len(X)
    assert [_scan_bits(s) for s in got] == [
        _scan_bits(sets._outcome(_reference_ray_scan_seeds, refusing, x, 8)) for x in X
    ]


def _rank_one():
    """A 3 x 3 rank-one matrix, flattened: a member of FixedRankSet(3, 3, 1)."""
    u = np.array([1.0, -0.5, 0.25])
    return np.outer(u, u + 0.5).reshape(-1)


@pytest.mark.parametrize(
    "oracle, center",
    [(sets.Ball(np.zeros(n), 1.0), np.full(n, 0.5 / n)) for n in (1, 2, 3, 4)]
    + [(sets.FixedRankSet(3, 3, 1), _rank_one())],
    ids=["ball-1", "ball-2", "ball-3", "ball-4", "rank-one-9"],
)
def test_ball_draws_equal_the_per_draw_arithmetic(oracle, center):
    # The draws' divide, scale and shift run over the whole batch; each draw
    # must keep the bits the one-point helper gave it, in every dimension.
    for radius in (0.25, 2.0):
        for seed in range(3):
            got = sets._ball_draws(oracle, center, radius, 160, seed)
            want = _reference_ball_draws(oracle, center, radius, 160, seed)
            assert len(want) > 0
            assert [_bits(d) for d in got] == [_bits(d) for d in want]


def _level_set_with(f_form):
    """The level set above the cubic with f given as: its own callable
    (with a row form), a plain callable, or one whose row form raises.  Its
    gradient refuses the boundary point (0, 0.5), where f is exactly 0: a
    Newton start there raises, so only an interior test that takes f = 0 as
    inside gives that point its zero distance."""
    above = polynomial_level_set(CUBIC, "above")
    grad = above.grad

    def refusing_grad(y):
        if y[0] == 0.0 and y[1] == 0.5:
            raise ValueError("gradient refuses the boundary point")
        return grad(y)

    f = above.f
    if f_form == "no rows":
        f = _without_rows(f)
    elif f_form == "refusing rows":
        # The row form refuses any stack that holds the interior point
        # (0.7, 0.9), so the interior test's, but no Newton stack's.
        rows, f = f.rows, _without_rows(f)

        def refusing(Y):
            if (Y == (0.7, 0.9)).all(axis=1).any():
                raise ArithmeticError("row form refuses")
            return rows(Y)

        f.rows = refusing
    return sets.LevelSet(2, f, refusing_grad, above.hess)


@pytest.mark.parametrize("f_form", ["rows", "no rows", "refusing rows"])
@pytest.mark.parametrize("checks", [True, False], ids=["checked-batch", "unchecked-batch"])
def test_level_set_batch_interior_test(f_form, checks):
    # The interior test of a batch's points takes f's row form; without
    # one, or with one that raises, each point is tested on its own.  A
    # point that does not check takes no test.
    level = _level_set_with(f_form)
    rng = np.random.default_rng(8)
    points = [np.array(p) for p in CUBIC_POINTS[:8] + [(0.0, 0.5)]]
    points += list(rng.uniform(-2.0, 2.0, size=(24, 2)))
    if not checks:
        points.append(np.array([np.nan, 0.0]))
    with np.errstate(all="ignore"):
        want = [_outcome_bits(sets._outcome(_reference_project, level, x)) for x in points]
    got = [_outcome_bits(out) for out in level._project_rows(points)]
    assert got == want
    assert sum(w[1] == "0x0.0p+0" for w in want) >= 4


def _refusing_every_stack(fn):
    """fn as given point by point, with a row form that raises on every
    stack."""
    plain = _without_rows(fn)

    def rows(Y):
        raise ArithmeticError("row form refuses every stack")

    plain.rows = rows
    return plain


@pytest.mark.parametrize("which", ["f", "grad", "hess", "grad and f"])
@pytest.mark.parametrize("refusal", ["every stack", "x1 > 1.5"])
@pytest.mark.parametrize("kind", ["curve", "above"])
def test_a_raising_row_form_falls_back_to_per_row_calls(kind, refusal, which):
    # A row form of f, grad or hess that raises makes the stacked kernel ask
    # that quantity row by row for the iteration, so the batch equals
    # per-point projection: every point where the scalar callables answer,
    # and each refused row's own error (x1 > 1.5 is refused point by point
    # too) where they do not.  Where grad and f both refuse a row, its
    # error is grad's, which the scalar kernel calls first.
    base = polynomial_curve(CUBIC) if kind == "curve" else polynomial_level_set(CUBIC, "above")
    parts = {"f": base.f, "grad": base.grad, "hess": base.hess}
    for name in which.split(" and "):
        if refusal == "every stack":
            parts[name] = _refusing_every_stack(parts[name])
        else:
            parts[name] = _refusing_rows(parts[name], name=name)
    oracle = type(base)(2, parts["f"], parts["grad"], parts["hess"])
    rng = np.random.default_rng(11)
    points = [np.array(p) for p in CUBIC_POINTS] + list(rng.uniform(-2.0, 2.0, size=(30, 2)))
    want = _assert_projections_match(oracle, points)
    kinds = {w[0] if isinstance(w[0], type) else "point" for w in want}
    assert "point" in kinds
    assert (ArithmeticError in kinds) == (refusal == "x1 > 1.5")
