"""The regularity samplers' numpy reductions against the Python loops they
replaced, kept here as references.  The arithmetic is unchanged, so the
comparisons are exact, except where BLAS itself may round differently."""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shqp import sets
from shqp.gallery import polynomial_curve, polynomial_level_set
from shqp.sets import (
    Ball,
    Box,
    FixedRankSet,
    HalfspaceSet,
    HyperplaneSet,
    InsufficientSamplesError,
    Sphere,
)


def _reference_worst(oracle, center, draws):
    """The per-normal loop of _super_regular_worst before it was blocked."""
    members = [center]
    normals = []
    for w, y, gap in draws:
        members.append(y)
        if gap > 1e-12:
            v = (w - y) / gap
            normals.append((y, v))
            if oracle.is_manifold:
                normals.append((y, -v))

    distinct = {tuple(np.round(m, 12)) for m in members}
    if len(distinct) < 2 or not normals:
        raise InsufficientSamplesError(
            "could not sample two distinct members plus a normal in the ball"
        )

    M = np.array(members)
    worst = -np.inf
    for y, v in normals:
        diff = M - y
        nd = np.linalg.norm(diff, axis=1)
        keep = nd > 1e-9
        if not np.any(keep):
            continue
        ratios = (diff[keep] @ v) / nd[keep]
        worst = max(worst, float(ratios.max()))
    if not np.isfinite(worst):
        raise InsufficientSamplesError("no usable member/normal pairs")
    return worst


# (oracle, a member to center the draws on, draw radius); about half of the
# ball's draws land inside it and carry no normal.
GEOMETRIES = {
    "sphere": (Sphere((0.0, 0.0), 1.0), (1.0, 0.0), 0.25),
    "manifold-curve": (polynomial_curve([0.0, 0.0, 1.0]), (0.0, 0.0), 0.25),
    "ball": (Ball((0.0, 0.0), 1.0), (1.0, 0.0), 0.5),
}


@functools.cache
def _draws(geometry):
    oracle, center, radius = GEOMETRIES[geometry]
    return sets._ball_draws(oracle, np.array(center), radius, 1000, 11)


def _draws_with_normals(geometry, count):
    """The shortest prefix of the sampler's draws with ``count`` normals."""
    out, seen = [], 0
    for draw in _draws(geometry):
        out.append(draw)
        seen += draw[2] > 1e-12
        if seen == count:
            return out
    raise AssertionError("too few draws carry a normal")


@pytest.mark.parametrize("normals", [1, 15, 16, 17, 33, 320])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("is_manifold", [False, True])
def test_blocked_ratio_reduction_equals_reference(geometry, normals, is_manifold):
    # The flag stands in for the oracle: it is all the reduction reads, and
    # with it off the normal count is exactly ``normals`` on every geometry.
    draws = _draws_with_normals(geometry, normals)
    flag = types.SimpleNamespace(is_manifold=is_manifold)
    c = np.array(GEOMETRIES[geometry][1])
    got = sets._super_regular_worst(flag, c, draws)
    want = _reference_worst(flag, c, draws)
    assert got.hex() == want.hex()


def test_blocked_ratio_reduction_in_nine_dimensions():
    # From 8 dimensions on, BLAS may round a row's products by the row's
    # position in the matrix, which blocking changes; the tolerance is a few
    # roundings of an n-term dot product of unit scale.
    oracle = FixedRankSet(3, 3, 1)
    c = np.outer([1.0, 2.0, 3.0], np.ones(3)).ravel()
    for seed in range(5):
        draws = sets._ball_draws(oracle, c, 0.25, 160, seed)
        got = sets._super_regular_worst(oracle, c, draws)
        want = _reference_worst(oracle, c, draws)
        assert abs(got - want) <= 8 * 9 * np.finfo(float).eps


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_blocked_ratio_reduction_of_a_zero_maximum(side):
    # Members on a line and normals across it: every ratio is zero, and the
    # products dx * 0 carry both signs, which the maximum must not pick up.
    flat = types.SimpleNamespace(is_manifold=False)
    c = np.zeros(2)
    draws = [(np.array([t, side]), np.array([t, 0.0]), 1.0) for t in np.linspace(-1, 1, 40)]
    got = sets._super_regular_worst(flat, c, draws)
    want = _reference_worst(flat, c, draws)
    assert got == 0.0 and got.hex() == want.hex()


def _raises_like_reference(center, draws, match):
    flag = types.SimpleNamespace(is_manifold=False)
    for reduce in (sets._super_regular_worst, _reference_worst):
        with pytest.raises(InsufficientSamplesError, match=match):
            reduce(flag, np.array(center), draws)


def test_ratio_reduction_without_usable_pairs():
    # Two distinct members 1e-10 apart: every pair is roundoff.
    y = np.array([1e-10, 0.0])
    _raises_like_reference([0.0, 0.0], [(y + [0.0, 1.0], y, 1.0)], "no usable member/normal pairs")


def test_ratio_reduction_with_one_distinct_member():
    y = np.array([1.0, 2.0])
    _raises_like_reference(y, [(y + [0.0, 1.0], y.copy(), 1.0)] * 3, "two distinct members")


def test_signed_zeros_are_one_member():
    y = np.array([-0.0, 0.0])
    _raises_like_reference([0.0, 0.0], [(np.array([0.0, 1.0]), y, 1.0)], "two distinct members")


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16),
    st.floats(-200.0, 200.0),
)
def test_norm_is_numpy_norm_bit_for_bit(entries, exponent):
    v = np.array(entries) * 10.0**exponent
    with np.errstate(over="ignore", under="ignore"):
        assert sets._norm(v).hex() == float(np.linalg.norm(v)).hex()


@pytest.mark.parametrize(
    "oracle",
    [
        Ball(np.ones(4), 1.0),
        Sphere(np.ones(4), 0.5),
        Box(np.zeros(4), np.ones(4)),
        HalfspaceSet(np.arange(1.0, 5.0), 0.3),
    ],
    ids=lambda o: o.kind,
)
def test_project_distance_of_a_strided_point(oracle):
    x = np.arange(8.0)[::2]
    nearest, d = sets.project(oracle, x)
    assert d.hex() == float(np.linalg.norm(x - nearest)).hex()
    assert d.hex() == sets.project(oracle, x.copy())[1].hex()


@pytest.mark.parametrize("cls", [HalfspaceSet, HyperplaneSet], ids=lambda c: c.kind)
def test_projection_ignores_the_callers_memory_layout(cls):
    # Found by a seeded search: <a, x> over a strided view of x rounds
    # differently in its last bit from the same dot product over a copy.
    a = [0.9, -0.4, 0.5, -0.1, -0.6, 0.8, -1.0, -0.4]
    x = np.array([1.0, -0.5, 0.7, 0.2, 0.6, 0.3, -0.3, 0.5])
    base = np.zeros(16)
    base[::2] = x
    oracle = cls(a, -0.5)
    strided, d_strided = sets.project(oracle, base[::2])
    nearest, d = sets.project(oracle, x)
    assert strided.tobytes() == nearest.tobytes()
    assert d_strided.hex() == d.hex()


def test_ray_fan_is_shared_and_read_only():
    fan = sets._ray_fan(3, 8)
    assert fan.shape == (8, 3)
    assert sets._ray_fan(3, 8) is fan
    assert not fan.flags.writeable
    assert not sets._RAY_STEPS.flags.writeable
    with pytest.raises(ValueError):
        fan[0, 0] = 1.0


def _reference_ray_scan_seeds(f, x, max_rays=8):
    """The ray scan of one point as it was, one ray after the other, with
    the fan drawn on every call."""
    n = x.shape[0]
    rng = np.random.default_rng(0)
    dirs = []
    while len(dirs) < max_rays:
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu > 1e-12:
            dirs.append(u / nu)
    f0 = f(x)
    scale = 1.0 + float(np.linalg.norm(x))
    seeds = []
    for u in dirs:
        t_prev, f_prev = 0.0, f0
        for t in scale * 2.0 ** np.arange(-4.0, 6.0):
            ft = f(x + t * u)
            if (ft > 0.0) != (f_prev > 0.0):
                lo, hi, flo = t_prev, t, f_prev
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    fm = f(x + mid * u)
                    if (fm > 0.0) == (flo > 0.0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                seeds.append(x + 0.5 * (lo + hi) * u)
                break
            t_prev, f_prev = t, ft
    return seeds


def _sphere_f(x):
    return float(x @ x - 1.0)


@pytest.mark.parametrize("max_rays", [1, 8, 13])
@pytest.mark.parametrize(
    "f, x",
    [
        (_sphere_f, np.array([0.2, -0.1])),
        (_sphere_f, np.array([0.3, 0.1, -0.2])),
        (_sphere_f, np.linspace(-0.4, 0.4, 6)),
        (polynomial_level_set([0.0, 0.0, 1.0], "above").f, np.array([0.0, 0.5])),
    ],
)
def test_ray_scan_seeds_equal_per_call_fan(f, x, max_rays):
    (got,) = sets._ray_scan_rows(f, [x], max_rays)
    want = _reference_ray_scan_seeds(f, x, max_rays)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
