"""The batch projection of the sets projected point by point, against
sets.project, bit for bit.

The regularity report projects its draws as one batch per set
(`SetOracle._project_rows`).  The halfspace, hyperplane, affine subspace,
ball, sphere, box, point set, union, fixed-rank set and polyhedron check
each point of a batch and run their own `_project` on it; each entry must be
what `sets.project` returns on that point alone, or the exception it raises,
and no returned point may share memory with another or with an input (the
six closed-form kinds' points own their data).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shqp import polyhedra, sets

CLOSED_FORM = ["halfspace", "hyperplane", "affine-subspace", "ball", "sphere", "box"]
KINDS = CLOSED_FORM + ["point-set", "union", "fixed-rank", "polyhedron"]

_magnitude = st.floats(1e-3, 1e6)
_entry = st.one_of(st.just(0.0), st.just(-0.0), _magnitude, _magnitude.map(lambda v: -v))


def _vector(n):
    return st.lists(_entry, min_size=n, max_size=n).map(np.array)


def _outcome_bits(out):
    """A projection outcome in comparable form: the nearest point's bytes
    and the distance's type and hex, or the exception's type and message."""
    if isinstance(out, Exception):
        return type(out), str(out)
    nearest, d = out
    return nearest.tobytes(), type(d), d.hex()


@st.composite
def _batch(draw):
    """(oracle, points): a set of one of the ten kinds in R^1..R^6, and a
    batch of points that reaches each branch of its projection, sometimes
    with a point that project rejects or resolves by a tie rule."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 6))
    anchor = draw(_vector(n))
    points = draw(st.lists(_vector(n), min_size=1, max_size=10))
    if kind in ("halfspace", "hyperplane"):
        a = draw(_vector(n))
        assume(np.linalg.norm(a) > 1e-14)
        # The anchor has s = 0 exactly; anchor - a has s < 0 and anchor + a
        # has s > 0 for a halfspace.
        oracle = (sets.HalfspaceSet if kind == "halfspace" else sets.HyperplaneSet)(a, a @ anchor)
        points += [anchor, anchor - a, anchor + a]
    elif kind == "affine-subspace":
        basis = draw(st.lists(_vector(n), min_size=1, max_size=n))
        try:
            oracle = sets.AffineSubspace(anchor, basis)
        except ValueError:
            assume(False)
        points += [anchor, anchor + basis[0]]
    elif kind == "box":
        corners = np.sort(np.array([anchor, draw(_vector(n))]), axis=0)
        oracle = sets.Box(corners[0], corners[1])
        points += list(corners) + [corners[0] - 1.0, corners[1] + 1.0]
    elif kind == "point-set":
        # Each member, and the midpoint of the first two: a tie.
        members = [anchor] + draw(st.lists(_vector(n), min_size=1, max_size=4))
        oracle = sets.PointSet(members)
        points += members + [0.5 * (members[0] + members[1])]
    elif kind == "union":
        # Two balls that touch at anchor + radius e: a tie there.
        radius = draw(_magnitude)
        e = np.zeros(n)
        e[draw(st.integers(0, n - 1))] = 1.0
        members = [sets.Ball(anchor, radius), sets.Ball(anchor + 2.0 * radius * e, radius)]
        if draw(st.booleans()):
            members.append(sets.Box(anchor - radius, anchor))
        oracle = sets.UnionOfConvex(members)
        points += [anchor, anchor + radius * e, anchor - 3.0 * radius * e]
    elif kind == "fixed-rank":
        rows = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        cols = n // rows
        oracle = sets.FixedRankSet(rows, cols, draw(st.integers(1, min(rows, cols))))
        # A rank-one matrix, a member of every such set.
        u, v = draw(_vector(rows)), draw(_vector(cols))
        points += [np.outer(u, v).reshape(-1)]
    elif kind == "polyhedron":
        # Rows through the anchor, so that it is a member; sometimes one of
        # them an equality.
        normals = draw(st.lists(_vector(n), min_size=1, max_size=3))
        assume(all(np.linalg.norm(a) > 1e-14 for a in normals))
        equality = draw(st.integers(-1, len(normals) - 1))
        oracle = sets.PolyhedralSet(
            [
                polyhedra.Halfspace(a, a @ anchor, kind="equality" if i == equality else "inequality")
                for i, a in enumerate(normals)
            ]
        )
        points += [anchor] + [anchor + a for a in normals]
    else:
        radius = draw(_magnitude)
        oracle = (sets.Ball if kind == "ball" else sets.Sphere)(anchor, radius)
        # Interior (the center itself for the ball), on the boundary up to
        # rounding, and outside along an axis.
        e = np.zeros(n)
        e[draw(st.integers(0, n - 1))] = 1.0
        points += [anchor + 0.5 * radius * e, anchor + radius * e, anchor - 2.0 * radius * e]
        if kind == "ball":
            points.append(anchor.copy())
    odd = draw(st.sampled_from([None, None, None, None, "nan", "inf", "width", "center"]))
    at = draw(st.integers(0, len(points)))
    if odd in ("nan", "inf"):
        bad = draw(_vector(n))
        bad[draw(st.integers(0, n - 1))] = np.nan if odd == "nan" else -np.inf
        points.insert(at, bad)
    elif odd == "width":
        points.insert(at, draw(_vector(n + 1)))
    elif odd == "center" and kind == "sphere":
        points.insert(at, anchor.copy())
    return oracle, points


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_batch())
def test_closed_form_batches_equal_project_bit_for_bit(batch):
    oracle, points = batch
    inputs = [np.array(p, copy=True) for p in points]
    got = oracle._project_rows(points)
    want = [sets._outcome(sets.project, oracle, x) for x in points]
    assert [_outcome_bits(o) for o in got] == [_outcome_bits(o) for o in want]
    # No result shares memory with another or with an input: writing into
    # one result changes neither another result nor an input.
    nearest = [o[0] for o in got if not isinstance(o, Exception)]
    if oracle.kind in CLOSED_FORM:
        assert all(y.flags.owndata for y in nearest)
    assert not any(
        np.shares_memory(y, z)
        for i, y in enumerate(nearest)
        for z in nearest[i + 1 :] + [p for p in points if isinstance(p, np.ndarray)]
    )
    others = [y.tobytes() for y in nearest[1:]]
    if nearest:
        nearest[0][...] = 7.0
    assert [y.tobytes() for y in nearest[1:]] == others
    assert all(np.array_equal(p, q, equal_nan=True) for p, q in zip(points, inputs))


def test_a_halfspace_batch_reaches_both_branches():
    # s = 0 exactly keeps the point, s < 0 too, s > 0 moves it.
    h = sets.HalfspaceSet([1.0, 2.0], 3.0)
    points = [np.array([1.0, 1.0]), np.array([0.0, -1.0]), np.array([2.0, 2.0])]
    got = h._project_rows(points)
    assert [y.tobytes() for y, _ in got[:2]] == [p.tobytes() for p in points[:2]]
    assert [d for _, d in got[:2]] == [0.0, 0.0]
    assert got[2][1] > 0.0


@pytest.mark.parametrize("mode", ["raise", "ignore"])
def test_an_overflowing_distance_stays_with_its_row(mode):
    # Every point checks, but the second one's distance to the box,
    # 1e308 - (-1e308), overflows: with numpy's overflow an error, that row
    # alone holds the error that project raises there.
    box = sets.Box([-1.5e308], [-1e308])
    points = [np.array([-1.2e308]), np.array([1e308]), np.array([-1.4e308])]
    with np.errstate(over=mode):
        got = box._project_rows(points)
        want = [sets._outcome(sets.project, box, x) for x in points]
    assert [_outcome_bits(o) for o in got] == [_outcome_bits(o) for o in want]
    assert isinstance(got[1], FloatingPointError) == (mode == "raise")
