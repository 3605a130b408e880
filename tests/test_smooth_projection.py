"""The smooth-set projection path, pinned bit for bit.

The polynomial sets evaluate f, grad and hess with a scalar Horner helper
that repeats np.polynomial.polynomial.polyval's operations in its order, and
the bordered Newton iteration that projects onto them rewrites its system
in place.  Neither may change a bit of what the projections return: the
pins below were recorded with float.hex from the polyval-based sets and the
array-allocating Newton loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shqp import gallery, sets
from shqp.gallery import polynomial_curve, polynomial_level_set

polyval = np.polynomial.polynomial.polyval
polyder = np.polynomial.polynomial.polyder

COEFFS = [0.5, -1.0, 0.0, 1.0]  # x2 = 0.5 - x1 + x1^3

# (set, point, path): (nearest point, distance), as float.hex.  "near" is a
# single Newton start that lands within the near gate; "ray" needs the
# restart from the ray-scan seeds; "interior" never runs Newton.
PINS = {
    ("curve", (0.3, 0.1), "near"): (("0x1.6c0be71f90b7dp-2", "0x1.83ee503832b6cp-3"), "0x1.af1b0ddfb1f89p-4"),
    ("curve", (1.3, 0.2), "ray"): (("0x1.e5fce906d5967p-1", "0x1.9fbf25f95c924p-2"), "0x1.a094f77f81190p-2"),
    ("curve", (-0.4, 0.2), "ray"): (("-0x1.a597a25fa3e9ap-5", "0x1.1a479c8c7d5a9p-1"), "0x1.fac26d19c2c5fp-2"),
    ("level", (0.3, 0.1), "near"): (("0x1.6c0be71f90b7dp-2", "0x1.83ee503832b6cp-3"), "0x1.af1b0ddfb1f89p-4"),
    ("level", (1.3, 0.2), "ray"): (("0x1.e5fce906d5967p-1", "0x1.9fbf25f95c924p-2"), "0x1.a094f77f81190p-2"),
    ("level", (0.7, 0.9), "interior"): (("0x1.6666666666666p-1", "0x1.ccccccccccccdp-1"), "0x0.0p+0"),
}


def _oracle(name):
    if name == "curve":
        return polynomial_curve(COEFFS)
    return polynomial_level_set(COEFFS, "above")


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: f"{k[0]}-{k[2]}-{k[1]}")
def test_projection_pins(key, monkeypatch):
    name, x, path = key
    scans = []
    scan = sets._ray_scan_rows

    def spy(f, points, max_rays=8):
        scans.extend(points)
        return scan(f, points, max_rays)

    monkeypatch.setattr(sets, "_ray_scan_rows", spy)
    oracle = _oracle(name)
    nearest, d = sets.project(oracle, np.array(x))
    want_point, want_d = PINS[key]
    assert [v.hex() for v in nearest.tolist()] == list(want_point)
    assert d.hex() == want_d
    assert bool(scans) == (path == "ray")
    if name == "level":
        assert (oracle.f(np.array(x)) <= 0.0) == (path == "interior")


_magnitude = st.floats(1e-3, 1e3)
_coefficient = st.one_of(
    st.just(-0.0), st.just(0.0), _magnitude, _magnitude.map(lambda v: -v)
)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_coefficient, min_size=1, max_size=6), st.floats(-1e3, 1e3))
def test_horner_is_polyval_bit_for_bit(coefficients, t):
    c = np.array(coefficients)
    assert gallery._horner(coefficients)(t).hex() == float(polyval(np.float64(t), c)).hex()
    dc, ddc = polyder(c), polyder(c, 2)
    x = np.array([t, 0.75])

    curve = polynomial_curve(coefficients)
    assert curve.f(x).hex() == float(x[1] - polyval(x[0], c)).hex()
    assert _hex(curve.grad(x)) == _hex(np.array([-polyval(x[0], dc), 1.0]))
    assert _hex(curve.hess(x)) == _hex(np.array([[-polyval(x[0], ddc), 0.0], [0.0, 0.0]]))

    for side, sign in (("above", 1.0), ("below", -1.0)):
        region = polynomial_level_set(coefficients, side)
        assert region.f(x).hex() == (sign * float(polyval(x[0], c) - x[1])).hex()
        assert _hex(region.grad(x)) == _hex(sign * np.array([polyval(x[0], dc), -1.0]))
        assert _hex(region.hess(x)) == _hex(
            sign * np.array([[polyval(x[0], ddc), 0.0], [0.0, 0.0]])
        )


_abscissa = st.one_of(
    st.floats(-1e3, 1e3), _coefficient, st.sampled_from([1e200, -1e200, 1e300, -1e300])
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_coefficient, min_size=1, max_size=6),
    st.lists(st.tuples(_abscissa, _coefficient), min_size=1, max_size=8),
)
def test_row_forms_equal_the_scalar_closures_bit_for_bit(coefficients, points):
    # The stacked Newton kernel evaluates a polynomial set on all its rows
    # at once through these row forms; each entry must be the scalar
    # closure's value at that row, signed zeros, infinities and NaNs alike.
    Y = np.array(points)
    oracles = [polynomial_curve(coefficients)] + [
        polynomial_level_set(coefficients, side) for side in ("above", "below")
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for oracle in oracles:
            F, G, H = oracle.f.rows(Y), oracle.grad.rows(Y), oracle.hess.rows(Y)
            assert (F.shape, G.shape, H.shape) == ((len(Y),), (len(Y), 2), (len(Y), 2, 2))
            assert _hex(F) == [oracle.f(y).hex() for y in Y]
            assert _hex(G) == _hex([oracle.grad(y) for y in Y])
            assert _hex(H) == _hex([oracle.hess(y) for y in Y])


@pytest.mark.parametrize(
    "f, grad",
    [
        (lambda x: math.nan, lambda x: np.array([0.0, 1.0])),
        (lambda x: float(x[1]), lambda x: np.array([math.nan, 1.0])),
    ],
    ids=["nan-value", "nan-gradient"],
)
def test_nan_residual_never_converges(f, grad):
    # A NaN residual entry means "not converged": a test that skips NaN
    # would hand back the start point as its own projection at distance 0.
    curve = sets.ManifoldCurve(2, f, grad, lambda x: np.zeros((2, 2)))
    with pytest.raises(sets.ProjectionNotConvergedError):
        sets.project(curve, np.array([0.3, 0.4]))
