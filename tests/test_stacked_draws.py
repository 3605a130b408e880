"""The report's draws kept as stacks from the generator to the reductions.

`sets._ball_draws` keeps its draws with one mask and returns them as one
`_Draws` (the stacks W, Y and gaps).  Only the draws without a finite
filter norm are visited one by one, in draw order.  The reductions read the
stacks, and a list of (w, y, gap) tuples the same way.
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
    # No projection fails, so only draw 3, whose filter norm overflows, is
    # visited on its own, and it raises or warns there alone.
    want = _drawn_under(mode, _reference_ball_draws)
    assert _drawn_under(mode, sets._ball_draws) == want
    if mode == "ignore":
        assert len(want) == 7
    else:
        assert want[1] == "overflow encountered in dot"


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
