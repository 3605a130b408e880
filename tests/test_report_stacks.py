"""The regularity report's batches kept as stacks from projection to
reduction, against the per-row paths they replace.

`SetOracle._project_rows` answers with one `sets._Outcomes`: the (k, n)
nearest points, the k distances and the rows that raised, which indexes,
slices and iterates as project's entries and hands out a fresh copy of a
nearest point on each read.  `_keep_draws` reads its stacks, or stacks a
list of entries.  `_super_regular_worst` takes one ratio per (normal,
member) pair and reduces each block of rows by one maximum, reducing a
block again from its `_pair_ratios` rows only where that maximum is ±0.0 or
NaN.  The intersection refinement takes the membership residuals of its
running rows as one stack per member where every member is a level set or
manifold curve whose f and grad answer on every row.  Each is compared with the path it replaces, kept here as the
reference: its bits, its exceptions and their order.
"""

import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shqp import gallery, sets
from shqp.sets import InsufficientSamplesError, ProjectionNotConvergedError
from test_closed_form_rows import _batch, _outcome_bits
from test_newton_stack import _bits


def _outcome(fn, *args):
    """fn's result as bits, or the type and message of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return out.hex() if isinstance(out, float) else [_bits(d) for d in out]


# --- the ratio reduction ---------------------------------------------------


def _reference_worst(oracle, center, draws):
    """_super_regular_worst as it reduced before: each chunk's _pair_ratios
    rows, both signs of a normal interleaved on a manifold, and the maximum
    of every _RATIO_BLOCK rows in turn by Python's max."""
    d = sets._stacks(draws, len(center))
    M = np.concatenate([center[None], d.Y])
    rounded = np.round(M, 12)
    normal = d.gaps > 1e-12
    if not np.any(rounded != rounded[0]) or not normal.any():
        raise InsufficientSamplesError("could not sample two distinct members plus a normal in the ball")
    Y = d.Y[normal]
    V = (d.W[normal] - Y) / d.gaps[normal][:, None]
    block = sets._RATIO_BLOCK // 2 if oracle.is_manifold else sets._RATIO_BLOCK
    step = max(block, min(sets._RATIO_BASES, sets._RATIO_TENSOR // M.size) // block * block)
    worst = -np.inf
    for s in range(0, len(Y), step):
        ratios = sets._pair_ratios(M, Y[s : s + step], V[s : s + step], oracle.is_manifold)
        for t in range(0, len(ratios), sets._RATIO_BLOCK):
            worst = max(worst, float(ratios[t : t + sets._RATIO_BLOCK].max()))
    if not np.isfinite(worst):
        raise InsufficientSamplesError("no usable member/normal pairs")
    return worst


@st.composite
def _ratio_draws(draw):
    """(center, draws) of up to 150 normals in R^1..R^4 or R^9, so that the
    last chunk of up to 64 bases may end in the middle of a block.  Some
    members repeat.  On an axis-aligned set the members lie on x_n = 0 and
    the directions are ±e_n, so every numerator is ±0.0, and each block's
    maximum is a zero of a sign, or -inf; one direction may be NaN."""
    n = draw(st.sampled_from([1, 2, 3, 4, 9]))
    normals = draw(st.integers(1, 150))
    flat = draw(st.sampled_from(["none", "all", "some"]))
    nan_at = draw(st.one_of(st.none(), st.integers(0, normals - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.standard_normal(n) * 0.1
    draws, seen = [], 0
    while seen < normals:
        j = len(draws)
        y = draws[int(rng.integers(0, j))][1].copy() if j > 2 and j % 7 == 0 else center + 0.2 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        if flat == "all" or flat == "some" and rng.random() < 0.5:
            y[-1] = 0.0
            v = np.zeros(n)
            v[-1] = rng.choice([-1.0, 1.0])
        normal = j % 3 != 1
        gap = rng.uniform(0.01, 0.3) if normal else 0.0
        w = y + gap * v
        if normal and seen == nan_at:
            w = np.full(n, np.nan)
        draws.append((w, y, gap))
        seen += normal
    if flat == "all":
        center[-1] = 0.0
    return center, draws


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_ratio_draws(), is_manifold=st.booleans())
def test_pair_ratio_maxima_equal_the_interleaved_blocks(case, is_manifold):
    center, draws = case
    flag = types.SimpleNamespace(is_manifold=is_manifold)
    want = _outcome(_reference_worst, flag, center, draws)
    assert _outcome(sets._super_regular_worst, flag, center, draws) == want


@pytest.mark.parametrize("is_manifold", [False, True])
def test_a_zero_block_takes_the_sign_of_its_rows(is_manifold):
    # One normal at the right end of a line of members, with direction
    # -e_2: every product of a numerator is -0.0 (d_1 * 0 with d_1 < 0, and
    # 0 * -1), and the zero the sum returns is the one the block's maximum
    # must keep.
    flag = types.SimpleNamespace(is_manifold=is_manifold)
    draws = [(np.array([1.0, -1.0]), np.array([1.0, 0.0]), 1.0)]
    draws += [(np.array([t, 0.0]), np.array([t, 0.0]), 0.0) for t in np.linspace(-1.0, 0.9, 20)]
    center = np.zeros(2)
    got = sets._super_regular_worst(flag, center, draws)
    assert got == 0.0 and got.hex() == _reference_worst(flag, center, draws).hex()


@pytest.mark.parametrize("kind", ["halfspace", "hyperplane"])
def test_zero_blocks_are_reduced_again_from_their_rows(kind, monkeypatch):
    # The draws project onto the boundary line x2 = 0, where the center
    # lies, and every normal is ±e_2: every numerator is zero, and so is
    # every block's maximum.  Off a manifold such a block is reduced again
    # from the ratios themselves; on one from the chunk's _pair_ratios rows
    # with both signs, once per chunk.
    calls = []
    pair_ratios = sets._pair_ratios

    def counted(*args):
        calls.append(args[3])
        return pair_ratios(*args)

    monkeypatch.setattr(sets, "_pair_ratios", counted)
    oracle = (sets.HalfspaceSet if kind == "halfspace" else sets.HyperplaneSet)([0.0, 1.0], 0.0)
    center = np.zeros(2)
    draws = sets._ball_draws(oracle, center, 0.25, 160, 3)
    got = sets._super_regular_worst(oracle, center, draws)
    if kind == "halfspace":
        assert calls == []
    else:
        assert calls and all(calls)
    monkeypatch.setattr(sets, "_pair_ratios", pair_ratios)
    assert got.hex() == _reference_worst(oracle, center, draws).hex() == "0x0.0p+0"


# --- the ball filter on stacks ----------------------------------------------


def _reference_keep_draws(ws, outs, center, radius):
    """_keep_draws as it was: the entries as a list of tuples, the answered
    ones stacked again before one masked filter under one watch."""
    count, n = ws.shape
    done = [out for out in outs if not isinstance(out, Exception)]
    ok = slice(None) if len(done) == count else np.array([not isinstance(out, Exception) for out in outs])
    Y = np.array([y for y, _ in done]).reshape(len(done), n)
    dists = np.full(count, np.inf)
    with sets._watch() as signalled:
        D = Y - center
        dists[ok] = np.sqrt(sets._row_dots(D, D))
        keep = ~(dists > radius)
    for j in range(count) if signalled else np.flatnonzero(dists == np.inf).tolist():
        out = outs[j]
        if isinstance(out, ProjectionNotConvergedError):
            continue
        if isinstance(out, Exception):
            raise out
        keep[j] = not sets._norm(out[0] - center) > radius
    kept = keep[ok]
    return sets._Draws(ws[keep], Y[kept], np.array([gap for _, gap in done])[kept])


class _Trapped(sets.Ball):
    """The unit ball, whose projection does something else at chosen draws
    (by their bytes): it does not converge, raises another error, lands
    1e200 out (its distance and filter norm overflow) or returns NaNs.
    With ``declines``, the stacked path raises, and the batch falls back to
    project on each point."""

    def __init__(self, traps, declines):
        super().__init__([0.0, 0.0], 1.0)
        self.traps, self.declines = traps, declines

    def _nearest_rows(self, X):
        if self.declines:
            raise RuntimeError("the stack declines")
        return super()._nearest_rows(X)

    def _project(self, x):
        trap = self.traps.get(x.tobytes())
        if trap == "not-converged":
            raise ProjectionNotConvergedError("refused", x)
        if trap == "error":
            raise ValueError("trapped")
        if trap == "far":
            return x + 1e200
        if trap == "nan":
            return np.full(2, np.nan)
        return super()._project(x)


TRAPS = ["not-converged", "error", "far", "nan"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    count=st.integers(0, 30),
    traps=st.dictionaries(st.integers(0, 29), st.sampled_from(TRAPS), max_size=4),
    declines=st.booleans(),
    over=st.sampled_from(["ignore", "raise", "warn"]),
    seed=st.integers(0, 99),
)
def test_kept_stacks_equal_the_tuple_path(count, traps, declines, over, seed):
    center = np.array([1.0, 0.0])
    ws = sets._draw_ball(2, center, 0.5, count, seed)
    oracle = _Trapped({ws[j].tobytes(): trap for j, trap in traps.items() if j < count}, declines)

    def kept(keep, as_list):
        with warnings.catch_warnings(record=True) as caught, np.errstate(over=over):
            warnings.simplefilter("always")
            outs = oracle._project_rows(ws)
            assert isinstance(outs, sets._Outcomes)
            out = _outcome(keep, ws, list(outs) if as_list else outs, center, 0.5)
        return out, sorted(str(w.message) for w in caught)

    want = kept(_reference_keep_draws, True)
    assert kept(sets._keep_draws, False) == want
    assert kept(sets._keep_draws, True) == want


# --- the sequence against _project_rows' contract ---------------------------


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(batch=_batch(), cut=st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
def test_outcomes_are_the_entries_of_project(batch, cut):
    oracle, points = batch
    inputs = [np.array(p, copy=True) for p in points]
    with np.errstate(all="ignore"):
        outs = oracle._project_rows(points)
        want = [_outcome_bits(sets._outcome(sets.project, oracle, x)) for x in points]
    assert isinstance(outs, sets._Outcomes) and len(outs) == len(points)
    entries = list(outs)
    assert [_outcome_bits(o) for o in entries] == want
    # Each entry indexes as it iterates, from either end.
    for j in range(-len(points), len(points)):
        assert _outcome_bits(outs[j]) == want[j]
    with pytest.raises(IndexError):
        outs[len(points)]
    a, b = cut
    assert [_outcome_bits(o) for o in outs[a:b]] == want[a:b]
    # The stacks hold the same entries: NaN where a row raised.
    assert sorted(outs.raised) == [j for j, o in enumerate(entries) if isinstance(o, Exception)]
    assert outs.Y.shape == (len(points), oracle.dimension) and outs.dists.shape == (len(points),)
    for j, o in enumerate(entries):
        if isinstance(o, Exception):
            assert outs.raised[j] is o and np.isnan(outs.Y[j]).all() and np.isnan(outs.dists[j])
        else:
            assert outs.Y[j].tobytes() == o[0].tobytes() and float(outs.dists[j]).hex() == o[1].hex()
    # Every read is a fresh copy that owns its data and shares memory with
    # no other read, no stack and no input.
    nearest = [o[0] for o in entries if not isinstance(o, Exception)]
    nearest += [o[0] for o in outs if not isinstance(o, Exception)]
    assert all(y.flags.owndata for y in nearest)
    assert not any(
        np.shares_memory(y, z) for i, y in enumerate(nearest) for z in nearest[i + 1 :] + inputs + [outs.Y]
    )
    assert [p.tobytes() for p in points if isinstance(p, np.ndarray)] == [p.tobytes() for p in inputs]


def test_an_empty_batch_is_an_empty_sequence():
    outs = sets.Ball([0.0], 1.0)._project_rows([])
    assert len(outs) == 0 and list(outs) == [] and outs == [] and outs.Y.shape == (0, 1)


# --- the refinement's stacked residuals -------------------------------------


def _parabola(curve=False, raise_below=None):
    """The level set x2 >= x1^2, or with curve the curve x2 = x1^2, whose f
    is NaN for x1 > 1 (so is the curve's residual; the level set's is 0.0)
    and, given raise_below, raises for x1 < raise_below, in its scalar form
    and in its row form (which then raises for the whole stack)."""

    def f(x):
        if raise_below is not None and x[0] < raise_below:
            raise ValueError(f"f refuses x1 = {float(x[0])!r}")
        return float(x[0] * x[0] - x[1]) if x[0] <= 1.0 else float("nan")

    def grad(x):
        return np.array([2.0 * x[0], -1.0])

    def hess(x):
        return np.array([[2.0, 0.0], [0.0, 0.0]])

    def f_rows(Y):
        if raise_below is not None and (Y[:, 0] < raise_below).any():
            raise ValueError("the row form refuses")
        return np.where(Y[:, 0] <= 1.0, Y[:, 0] * Y[:, 0] - Y[:, 1], np.nan)

    f.rows = f_rows
    grad.rows = lambda Y: np.stack([2.0 * Y[:, 0], np.full(len(Y), -1.0)], axis=1)
    hess.rows = lambda Y: np.broadcast_to(hess(None), (len(Y), 2, 2)).copy()
    return (sets.ManifoldCurve if curve else sets.LevelSet)(2, f, grad, hess, name="nan-parabola")


MEMBERS = {
    "lens": lambda: [
        gallery.polynomial_level_set([0.0, 0.0, 1.0], "above", convex=True),
        gallery.polynomial_level_set([0.0, 2.0, -1.0], "below", convex=True),
    ],
    "curves": lambda: [gallery.polynomial_curve([0.0, -1.0, 0.0, 1.0]), gallery.polynomial_curve([0.5, 0.0, -1.0])],
    "nan-first": lambda: [_parabola(), gallery.polynomial_curve([0.0, 1.0])],
    "nan-last": lambda: [gallery.polynomial_curve([0.0, 1.0]), _parabola()],
    "nan-curve-first": lambda: [_parabola(curve=True), gallery.polynomial_curve([0.0, 1.0])],
    "nan-curve-last": lambda: [gallery.polynomial_curve([0.0, 1.0]), _parabola(curve=True)],
    "raising": lambda: [gallery.polynomial_curve([0.0, 1.0]), _parabola(raise_below=-1.0)],
    "no-row-form": lambda: [gallery.PowerCusp(1.5), gallery.polynomial_curve([0.0, 1.0])],
    "ball": lambda: [sets.Ball([0.0, 0.0], 1.0), gallery.polynomial_curve([0.0, 1.0])],
}

_coordinate = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    members=st.sampled_from(sorted(MEMBERS)),
    rows=st.lists(st.tuples(_coordinate, _coordinate), min_size=0, max_size=8),
    odd=st.sampled_from([None, None, "nan", "inf"]),
)
def test_stacked_residuals_equal_the_residual_row_by_row(members, rows, odd):
    oracle = sets.IntersectionSet(MEMBERS[members]())
    Y = np.array(rows, dtype=float).reshape(len(rows), 2)
    if odd is not None and len(Y):
        Y[-1, 0] = np.nan if odd == "nan" else np.inf
    with np.errstate(all="ignore"):
        R, raised = oracle._residual_rows(Y)
        want = [sets._outcome(oracle._residual, y) for y in Y]
    got = [raised[j] if j in raised else R[j] for j in range(len(Y))]
    assert [
        (type(g), str(g)) if isinstance(g, Exception) else float(g).hex() for g in got
    ] == [(type(w), str(w)) if isinstance(w, Exception) else float(w).hex() for w in want]


def test_stacked_residuals_call_no_scalar_callable():
    # Where every member's row forms answer, no member's scalar f or grad
    # runs; where one row form raises, each row takes the scalar residual.
    def counting(fn, calls):
        def counted(x):
            calls.append(1)
            return fn(x)

        counted.rows = fn.rows
        return counted

    for name, stacked in (("lens", True), ("nan-last", True), ("raising", False)):
        members = MEMBERS[name]()
        calls = []
        for mem in members:
            mem.f, mem.grad = counting(mem.f, calls), counting(mem.grad, calls)
        Y = np.array([[0.5, 0.5], [-2.0, 1.0], [1.5, 0.0]])
        sets.IntersectionSet(members)._residual_rows(Y)
        assert (not calls) == stacked, name


@pytest.mark.parametrize("members", sorted(MEMBERS))
def test_refinement_batches_equal_project(members):
    # The refinement as a whole, with its stacked residuals: each row of a
    # batch ends where project ends on its point, error for error.
    oracle = sets.IntersectionSet(MEMBERS[members]())
    rng = np.random.default_rng(7)
    points = [rng.uniform(-1.5, 1.5, 2) for _ in range(12)] + [np.array([0.0, 0.0]), np.array([2.0, 0.5])]
    with np.errstate(all="ignore"):
        got = [_outcome_bits(o) for o in oracle._project_rows(points)]
        want = [_outcome_bits(sets._outcome(sets.project, oracle, x)) for x in points]
    assert got == want
