"""The report's draws kept as stacks from the generator to the reductions.

`sets._ball_draws` keeps its draws with one mask and returns them as one
`_Draws` (the stacks W, Y and gaps).  The draws whose projection failed are
visited one by one, in draw order.  If the filter norms signal a floating
point error that the caller's error state does not ignore (an overflow, an
underflow), every draw is visited, and each takes its norm again on its
own, so that it raises or warns where the draw-by-draw loop did.  A draw
whose filter norm is NaN is kept, as the loop keeps it.  The reductions
read the stacks, and a list of (w, y, gap) tuples the same way.
"""

import warnings

import numpy as np
import pytest

from shqp import gallery, sets
from test_newton_stack import _bits, _reference_ball_draws


class _FarOnce(sets.SetOracle):
    """Projects every point onto the origin, except that call 3 lands
    1.3e154 past its point, away from the origin.  Every projection
    succeeds and every gap squares to a finite number in a ball of radius
    1e154 about the origin, but draw 3's distance from the center does
    not."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def _project(self, x):
        self.calls += 1
        if self.calls == 4:
            return x + 1.3e154 * (x / np.linalg.norm(x))
        return np.zeros(2)


def _drawn_under(mode, fn):
    """The draws' bits, or (type, message) of what fn raises, with overflow
    set to raise, to warn with warnings as errors, or to be ignored."""
    with warnings.catch_warnings(), np.errstate(over=mode):
        warnings.simplefilter("error")
        try:
            return [_bits(d) for d in fn(_FarOnce(), np.zeros(2), 1e154, 8, 0)]
        except Exception as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("mode", ["raise", "warn", "ignore"])
def test_a_filter_overflow_without_errors_keeps_the_draw_order(mode):
    # No projection fails, and only draw 3's filter norm overflows: it
    # raises or warns there alone, as in the loop.
    want = _drawn_under(mode, _reference_ball_draws)
    assert _drawn_under(mode, sets._ball_draws) == want
    if mode == "ignore":
        assert len(want) == 7
    else:
        assert want[1] == "overflow encountered in dot"


@pytest.mark.parametrize("under", ["raise", "warn"])
def test_filter_norms_that_underflow_signal_draw_by_draw(under):
    # A ball of radius 1e-160 on the box's edge x = 0: a draw inside the box
    # is its own projection, and the square of its filter norm underflows;
    # a draw outside has a filter norm of 0, and the square of its gap
    # underflows.  Each draw signals once, on its own, as in the loop, and
    # under raise the first draw raises.
    def drawn(fn):
        with warnings.catch_warnings(record=True) as caught, np.errstate(under=under):
            warnings.simplefilter("always")
            try:
                out = [_bits(d) for d in fn(sets.Box([0.0, 0.0], [1.0, 1.0]), np.array([0.0, 0.5]), 1e-160, 10, 0)]
            except Exception as exc:
                out = type(exc), str(exc)
        return out, sorted(str(w.message) for w in caught)

    want = drawn(_reference_ball_draws)
    assert drawn(sets._ball_draws) == want
    if under == "raise":
        assert want == ((FloatingPointError, "underflow encountered in dot"), [])
    else:
        assert len(want[0]) == len(want[1]) == 10


class _NanOnce(sets.SetOracle):
    """Projects every point onto itself, except that call 3 returns NaNs:
    that draw's gap and filter norm are NaN, and no arithmetic on them
    signals."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def _project(self, x):
        self.calls += 1
        return np.full(2, np.nan) if self.calls == 4 else x.copy()


@pytest.mark.parametrize("mode", ["raise", "warn"])
def test_a_draw_whose_filter_norm_is_nan_is_kept(mode):
    # The loop keeps it: not NaN > radius.
    with warnings.catch_warnings(), np.errstate(all=mode):
        warnings.simplefilter("error")
        got = sets._ball_draws(_NanOnce(), np.zeros(2), 1.0, 8, 0)
        want = _reference_ball_draws(_NanOnce(), np.zeros(2), 1.0, 8, 0)
    assert len(want) == 8 and np.isnan(want[3][1]).all()
    assert [_bits(d) for d in got] == [_bits(d) for d in want]


def _rank_one():
    u = np.array([1.0, -0.5, 0.25])
    return np.outer(u, u + 0.5).reshape(-1)


GEOMETRIES = {
    "sphere": (sets.Sphere([0.0, 0.0], 1.0), np.array([1.0, 0.0])),
    "ball": (sets.Ball([0.0, 0.0], 1.0), np.array([1.0, 0.0])),
    "parabola": (gallery.polynomial_curve([0.0, 0.0, 1.0]), np.zeros(2)),
    "rank-one": (sets.FixedRankSet(3, 3, 1), _rank_one()),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_reductions_read_stacks_and_tuples_alike(name):
    oracle, center = GEOMETRIES[name]
    for radius in (0.05, 0.25):
        draws = sets._ball_draws(oracle, center, radius, 160, 4)
        assert isinstance(draws, sets._Draws) and len(draws) > 0
        tuples = list(draws)
        assert all(type(gap) is float for _, _, gap in tuples)
        assert [_bits(d) for d in tuples] == [_bits(d) for d in _reference_ball_draws(oracle, center, radius, 160, 4)]
        for reduce in (sets._super_regular_worst, sets._sosh_worst):
            assert reduce(oracle, center, draws).hex() == reduce(oracle, center, tuples).hex()


def test_a_projection_that_does_not_converge_is_dropped():
    # The draw whose projection does not converge is left out, and the
    # others are handed on as stacks.
    class Refusing(sets.Ball):
        calls = 0

        def _project(self, x):
            self.calls += 1
            if self.calls == 3:
                raise sets.ProjectionNotConvergedError("refused", x)
            return super()._project(x)

    args = (np.array([1.0, 0.0]), 0.25, 40, 3)
    got = sets._ball_draws(Refusing([0.0, 0.0], 1.0), *args)
    want = _reference_ball_draws(Refusing([0.0, 0.0], 1.0), *args)
    assert isinstance(got, sets._Draws) and len(got) == len(want) == 39
    assert [_bits(d) for d in got] == [_bits(d) for d in want]
