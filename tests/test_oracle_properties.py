"""Properties every projection onto a closed convex set has (Bauschke &
Combettes, Convex Analysis and Monotone Operator Theory, chapters 3 and
4), checked on each convex oracle with derandomized hypothesis:

- idempotence, P(P(x)) = P(x);
- nonexpansiveness, ||P(x) - P(y)|| <= ||x - y||, and firm
  nonexpansiveness, ||P(x) - P(y)||^2 <= <P(x) - P(y), x - y>;
- the variational inequality <x - P(x), y - P(x)> <= 0 for members y.

Each holds up to roundoff, bounded by 1e-12 relative to the points' scale.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shqp import polyhedra, sets
from shqp.gallery import polynomial_curve, polynomial_level_set

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
REL = 1e-12


def _vectors(n, bound=3.0):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


def _normals(n):
    return _vectors(n).filter(lambda a: np.linalg.norm(a) >= 0.1)


def _ellipsoid(center, axes):
    """{x : sum(a_i (x_i - c_i)^2) <= 1}, a convex level set."""
    return sets.LevelSet(
        center.shape[0],
        lambda x: float(axes @ (x - center) ** 2 - 1.0),
        lambda x: 2.0 * axes * (x - center),
        lambda x: np.diag(2.0 * axes),
        name="ellipsoid",
        convex=True,
    )


@st.composite
def _polyhedral_set(draw, n):
    """Up to four halfspaces that all contain a drawn point, so never empty."""
    inside = draw(_vectors(n))
    normals = draw(st.lists(_normals(n), min_size=1, max_size=4))
    slacks = draw(st.lists(st.floats(0.0, 2.0), min_size=len(normals), max_size=len(normals)))
    return sets.PolyhedralSet(
        [polyhedra.Halfspace(a, float(a @ inside) + s) for a, s in zip(normals, slacks)]
    )


@st.composite
def _affine_subspace(draw, n):
    k = draw(st.integers(1, n - 1))
    basis = draw(st.lists(_normals(n), min_size=k, max_size=k))
    try:
        return sets.AffineSubspace(draw(_vectors(n)), basis)
    except ValueError:
        assume(False)


ORACLES = {
    "ball": lambda n: st.builds(sets.Ball, _vectors(n), st.floats(0.1, 3.0)),
    "box": lambda n: st.tuples(_vectors(n), _vectors(n)).map(
        lambda lu: sets.Box(np.minimum(*lu), np.maximum(*lu))
    ),
    "halfspace": lambda n: st.builds(sets.HalfspaceSet, _normals(n), st.floats(-3.0, 3.0)),
    "hyperplane": lambda n: st.builds(sets.HyperplaneSet, _normals(n), st.floats(-3.0, 3.0)),
    "affine-subspace": _affine_subspace,
    "polyhedron": _polyhedral_set,
    "convex-level-set": lambda n: st.one_of(
        st.builds(_ellipsoid, _vectors(n), _vectors(n, 4.0).map(lambda a: 0.25 + np.abs(a))),
        st.just(polynomial_level_set([0.0, 0.0, 1.0], "above", convex=True))
        if n == 2
        else st.nothing(),
    ),
}


@st.composite
def _case(draw, kind, points):
    """A convex oracle of the given kind and ``points`` ambient points."""
    n = draw(st.integers(2, 4))
    oracle = draw(ORACLES[kind](n))
    return oracle, [draw(_vectors(oracle.dimension, 6.0)) for _ in range(points)]


def _scale(*points):
    return 1.0 + sum(np.linalg.norm(p) for p in points)


@pytest.mark.parametrize("kind", sorted(ORACLES))
@SETTINGS
@given(data=st.data())
def test_projection_is_idempotent(kind, data):
    oracle, (x,) = data.draw(_case(kind, 1))
    px, _ = sets.project(oracle, x)
    ppx, _ = sets.project(oracle, px)
    assert np.linalg.norm(ppx - px) <= REL * _scale(x)


@pytest.mark.parametrize("kind", sorted(ORACLES))
@SETTINGS
@given(data=st.data())
def test_projection_is_firmly_nonexpansive(kind, data):
    oracle, (x, y) = data.draw(_case(kind, 2))
    px, _ = sets.project(oracle, x)
    py, _ = sets.project(oracle, y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + REL * _scale(x, y)
    # Firm: ||Px - Py||^2 <= <Px - Py, x - y>.
    assert (px - py) @ (px - py) <= (px - py) @ (x - y) + REL * _scale(x, y) ** 2


@pytest.mark.parametrize("kind", sorted(ORACLES))
@SETTINGS
@given(data=st.data())
def test_projection_satisfies_the_variational_inequality(kind, data):
    # Members are sampled as projections of further ambient points.
    oracle, (x, *others) = data.draw(_case(kind, 4))
    px, _ = sets.project(oracle, x)
    for z in others:
        y, _ = sets.project(oracle, z)
        assert (x - px) @ (y - px) <= REL * _scale(x, z) ** 2


# The smooth nonconvex sets, projected by Newton.  No convexity to check:
# P(x) must be a member at the iterative tolerance class, and no sampled
# member may be closer to x.  The points lie within 0.1 of the curve, inside
# the projection's near gate, so one Newton start decides the answer.
SMOOTH = {"cubic": [0.5, -1.0, 0.0, 1.0], "parabola": [0.0, 0.0, 1.0]}
SMOOTH_KINDS = {
    "manifold-curve": polynomial_curve,
    "level-set-above": lambda c: polynomial_level_set(c, "above"),
    "level-set-below": lambda c: polynomial_level_set(c, "below"),
}
# Graph points (t, p(t)) on a t-grid of step 1e-4: members of the curve and
# the boundary of each level set, where an outside point's nearest member is.
_T = np.linspace(-3.0, 3.0, 60001)


@pytest.mark.parametrize("kind", sorted(SMOOTH_KINDS))
@pytest.mark.parametrize("shape", sorted(SMOOTH))
@SETTINGS
@given(t=st.floats(-1.5, 1.5), offset=st.floats(-0.1, 0.1))
def test_smooth_projection_is_a_nearest_member(shape, kind, t, offset):
    c = np.array(SMOOTH[shape])
    P = np.polynomial.polynomial
    oracle = SMOOTH_KINDS[kind](c)
    normal = np.array([-P.polyval(t, P.polyder(c)), 1.0])
    x = np.array([t, P.polyval(t, c)]) + offset * normal / np.linalg.norm(normal)
    px, d = sets.project(oracle, x)
    assert oracle.membership_residual(px) <= sets.MEMBERSHIP_TOL_ITERATIVE
    grid = np.hypot(_T - x[0], P.polyval(_T, c) - x[1]).min()
    assert grid >= d - 1e-9 * (1.0 + np.linalg.norm(x))
