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


def _reference_sosh_worst(oracle, xbar, draws):
    """_sosh_worst as the per-draw loop it was: one dot per quotient."""
    worst = -np.inf
    used = 0
    for w, y, gap in draws:
        r = sets._norm(y - xbar)
        if gap <= 1e-12 or r <= 1e-9:
            continue
        v = (w - y) / gap
        quotients = [(v @ (y - xbar)) / r**2]
        if oracle.is_manifold:
            quotients.append((-v @ (y - xbar)) / r**2)
        worst = max(worst, max(quotients))
        used += 1
    if used == 0:
        raise InsufficientSamplesError("no boundary samples with normals in the ball")
    return float(worst)


def _outcome(reduce, *args):
    try:
        return reduce(*args).hex()
    except InsufficientSamplesError as exc:
        return str(exc)


@st.composite
def _sosh_draws(draw):
    """(xbar, draws) about xbar at one scale: members at unit distance, in
    the 1e-9 ball (r <= 1e-9) or NaN, gaps their own norm, at or below
    1e-12, or NaN."""
    n = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-5, 5))
    xbar = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * scale
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    draws = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["member", "tiny", "nan"]))
        step = {"member": scale, "tiny": 1e-10, "nan": np.nan}[kind]
        y = xbar + step * draw(unit)
        w = y + scale * draw(unit)
        gap = draw(st.sampled_from([sets._norm(w - y), 1e-12, 5e-13, np.nan]))
        draws.append((w, y, gap))
    return xbar, draws


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sosh_draws(), st.booleans())
def test_sosh_reduction_equals_the_per_draw_loop(case, is_manifold):
    xbar, draws = case
    flag = types.SimpleNamespace(is_manifold=is_manifold)
    want = _outcome(_reference_sosh_worst, flag, xbar, draws)
    assert _outcome(sets._sosh_worst, flag, xbar, draws) == want


@pytest.mark.parametrize("is_manifold", [False, True])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_sosh_reduction_of_sampled_draws(geometry, is_manifold):
    flag = types.SimpleNamespace(is_manifold=is_manifold)
    c = np.array(GEOMETRIES[geometry][1])
    draws = _draws(geometry)
    assert sets._sosh_worst(flag, c, draws).hex() == _reference_sosh_worst(flag, c, draws).hex()


def test_sosh_reduction_without_a_boundary_sample():
    flag = types.SimpleNamespace(is_manifold=True)
    y = np.array([1.0, 0.0])
    draws = [(y + [0.0, 1.0], y, 1e-12), (y + [0.0, 1e-12], y + 1e-10, 1.0)]
    for reduce in (sets._sosh_worst, _reference_sosh_worst):
        with pytest.raises(InsufficientSamplesError, match="no boundary samples"):
            reduce(flag, y, draws)
        with pytest.raises(InsufficientSamplesError, match="no boundary samples"):
            reduce(flag, y, [])


def _reference_pair_ratios(members, bases, directions):
    """_pair_ratios with the broadcast difference tensor and np.add.reduce,
    in every dimension."""
    diff = members[None] - bases[:, None]
    nd = np.sqrt(np.add.reduce(diff * diff, axis=2))
    keep = nd > 1e-9
    num = np.matmul(diff, directions[:, :, None])[..., 0]
    for b in np.flatnonzero(np.count_nonzero(keep, axis=1) == 1):
        i = np.flatnonzero(keep[b])[0]
        num[b, i] = diff[b, i] @ directions[b]
    return np.divide(num, nd, out=np.full_like(nd, -np.inf), where=keep)


SCALES = [1e-5, 1e-2, 1.0, 1e2, 1e5]


@pytest.mark.parametrize("rows", [0, 1, 160])
@pytest.mark.parametrize("n", range(1, 10))
def test_stacked_row_dots_are_ddot_bit_for_bit(n, rows):
    # The report's norms and numerators rest on this: a stack of 1 x n by
    # n x 1 matmuls rounds each row as its own dot does.  On a numpy or BLAS
    # build where it does not, every sampler pin would move.
    rng = np.random.default_rng(n)
    for scale in SCALES:
        A = rng.standard_normal((rows, n)) * scale
        B = rng.standard_normal((rows, n)) * scale
        got, norms = sets._row_dots(A, B), np.sqrt(sets._row_dots(A, A))
        assert got.shape == norms.shape == (rows,)
        want = [a.dot(b).hex() for a, b in zip(A, B)]
        assert [g.hex() for g in got.tolist()] == want, f"numpy {np.__version__}: row dots round unlike dot"
        want = [sets._norm(a).hex() for a in A]
        assert [g.hex() for g in norms.tolist()] == want, f"numpy {np.__version__}: row norms round unlike _norm"


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_ratios_equal_the_broadcast_reduction(n):
    # Below 8 dimensions the squared distances are summed coordinate after
    # coordinate, which must be np.add.reduce's order there; 8 and 9 keep
    # the broadcast form.  Members repeat, so that some pairs are dropped
    # and some normals keep a single member.
    rng = np.random.default_rng(100 + n)
    for scale in SCALES:
        for members in (161, 3, 2):
            M = rng.standard_normal((members, n)) * scale
            M[members // 2] = M[0]
            Y = M[rng.integers(0, members, 16)]
            V = rng.standard_normal((16, n))
            got = sets._pair_ratios(M, Y, V)
            want = _reference_pair_ratios(M, Y, V)
            assert got.tobytes() == want.tobytes(), f"numpy {np.__version__}: n = {n}, scale {scale}"


def _reference_blocked_worst(oracle, center, draws):
    """_super_regular_worst with the normals gathered draw by draw, blocked
    as it blocks them: a NaN ratio drops its whole block's maximum."""
    members = [center]
    bases, directions = [], []
    for w, y, gap in draws:
        members.append(y)
        if gap > 1e-12:
            v = (w - y) / gap
            bases.append(y)
            directions.append(v)
            if oracle.is_manifold:
                bases.append(y)
                directions.append(-v)
    M = np.array(members)
    rounded = np.round(M, 12)
    if not np.any(rounded != rounded[0]) or not bases:
        raise InsufficientSamplesError("could not sample two distinct members plus a normal in the ball")
    Y, V = np.array(bases), np.array(directions)
    worst = -np.inf
    for s in range(0, len(Y), sets._RATIO_BLOCK):
        block = _reference_pair_ratios(M, Y[s : s + sets._RATIO_BLOCK], V[s : s + sets._RATIO_BLOCK])
        worst = max(worst, float(block.max()))
    if not np.isfinite(worst):
        raise InsufficientSamplesError("no usable member/normal pairs")
    return worst


@pytest.mark.parametrize("nan_at", [None, 0, 5, 20, 39])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("is_manifold", [False, True])
def test_blocked_ratio_reduction_keeps_the_blocks(geometry, is_manifold, nan_at):
    # A NaN direction puts NaN ratios into one block; that block's maximum
    # is NaN and adds nothing, so the blocks are part of the output.
    draws = list(_draws_with_normals(geometry, 40))
    if nan_at is not None:
        w, y, gap = draws[nan_at]
        draws[nan_at] = (np.full_like(w, np.nan), y, gap if gap > 1e-12 else 1.0)
    flag = types.SimpleNamespace(is_manifold=is_manifold)
    c = np.array(GEOMETRIES[geometry][1])
    got = _outcome(sets._super_regular_worst, flag, c, draws)
    assert got == _outcome(_reference_blocked_worst, flag, c, draws)


# The reduction of each base's ratios for both signs of its normal in one
# tensor, against _reference_blocked_worst, which keeps the earlier
# algorithm: the (v, -v) rows interleaved and reduced 16 rows at a time,
# each sign's numerators from a matmul of its own.  Normal counts cross the
# 16-row blocks and the tensors of up to 64 bases.
NORMAL_COUNTS = [1, 7, 8, 9, 63, 64, 65, 160]
VARIANTS = ["plain", "nan-direction", "one-kept-member", "within-1e-9", "flat", "gaps-at-1e-12"]


def _synthetic_draws(n, normals, variant, seed):
    """(center, draws) with ``normals`` draws that carry a normal (gap >
    1e-12), among draws that do not; some members repeat, so some pairs
    read -inf.  The variant shapes the rest:

    - nan-direction: one normal's w is NaN, so one block holds NaN ratios;
    - one-kept-member: every member is within 1e-10 of the center but one,
      so each base near the center keeps one member;
    - within-1e-9: every member is within 1e-10 of the center;
    - flat: members have last coordinate 0 and normals along that axis,
      so every numerator is exactly zero, of either sign;
    - gaps-at-1e-12: the draws without a normal have gap 1e-12 exactly,
      the ones with a normal the next double above it."""
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(n) * 0.1
    draws, seen = [], 0
    while seen < normals:
        j = len(draws)
        if variant in ("one-kept-member", "within-1e-9"):
            far = variant == "one-kept-member" and j == normals // 2
            y = center + (0.3 if far else 1e-10) * rng.uniform(-1.0, 1.0, n)
        elif j > 2 and j % 5 == 0:
            y = draws[int(rng.integers(0, j))][1].copy()
        else:
            y = center + 0.2 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        if variant == "flat":
            y[-1] = 0.0
            v = np.zeros(n)
            v[-1] = rng.choice([-1.0, 1.0])
        normal = j % 3 != 1
        if variant == "gaps-at-1e-12":
            gap = np.nextafter(1e-12, 1.0) if normal else 1e-12
        else:
            gap = rng.uniform(0.01, 0.3) if normal else rng.choice([0.0, 1e-13])
        w = y + gap * v
        if variant == "nan-direction" and normal and seen == normals // 2:
            w = np.full(n, np.nan)
        draws.append((w, y, gap))
        seen += normal
    return center, draws


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", range(1, 10))
def test_sign_paired_reduction_equals_the_interleaved_blocks(n, variant):
    # Below 8 dimensions _pair_ratios fills its tensor a coordinate at a
    # time, from 8 on by broadcasting; both must reduce as the reference.
    for normals in NORMAL_COUNTS:
        for is_manifold in (False, True):
            flag = types.SimpleNamespace(is_manifold=is_manifold)
            center, draws = _synthetic_draws(n, normals, variant, 1000 * n + normals)
            got = _outcome(sets._super_regular_worst, flag, center, draws)
            assert got == _outcome(_reference_blocked_worst, flag, center, draws), (normals, is_manifold)
            got = _outcome(sets._sosh_worst, flag, center, draws)
            assert got == _outcome(_reference_sosh_worst, flag, center, draws), (normals, is_manifold)


@pytest.mark.parametrize("nan_at", [None, 3, 40, 70, 130])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_sign_paired_reduction_of_sampled_draws(geometry, nan_at):
    # The sampler's own draws on a manifold and off one, with their own
    # flag, and a NaN direction in one block of the first or a later tensor.
    oracle, center, _ = GEOMETRIES[geometry]
    draws = list(_draws_with_normals(geometry, 160))
    if nan_at is not None:
        w, y, gap = draws[nan_at]
        draws[nan_at] = (np.full_like(w, np.nan), y, gap if gap > 1e-12 else 1.0)
    c = np.array(center)
    for reduce, reference in ((sets._super_regular_worst, _reference_blocked_worst), (sets._sosh_worst, _reference_sosh_worst)):
        assert _outcome(reduce, oracle, c, draws) == _outcome(reference, oracle, c, draws)


def test_flat_ratios_keep_the_sign_of_zero():
    # Every numerator is exactly zero: a dot product with v or with -v
    # returns +0 whatever the signs of its terms, so the -v numerators must
    # not be taken as -num, whose zeros are -0.
    flag = types.SimpleNamespace(is_manifold=True)
    draws = [(np.array([t, -1.0]), np.array([t, 0.0]), 1.0) for t in np.linspace(-1.0, 1.0, 40)]
    c = np.zeros(2)
    got = sets._super_regular_worst(flag, c, draws)
    assert got.hex() == _reference_blocked_worst(flag, c, draws).hex() == "0x0.0p+0"
