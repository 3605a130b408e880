"""The intersection refinement in lockstep against the one-point loop.

`IntersectionSet._nearest_rows`, the hook of `SetOracle._project_rows`,
refines a batch of points together: each sweep projects every row still
running onto each member with one `_project_rows` call, and
`IntersectionSet._project` is its one-row case.
Every row must end, bit for bit and error for error, where the one-point
loop the refinement ran before ends; that loop is kept here as the
reference.
"""

import numpy as np
import pytest

from shqp import diagnostics, gallery, sets
from shqp.gallery import polynomial_curve, polynomial_level_set
from test_newton_stack import _Failing, _outcome_bits, _reference_beta_probe
from test_report_pins import _problem


def _reference_refinement(oracle, x):
    """IntersectionSet._project as it was: one point, sweep after sweep of
    sets.project onto each member."""
    y = x.copy()
    for _ in range(sets.INTERSECTION_SWEEPS):
        y_start = y
        moved = 0.0
        for mem in oracle.members:
            y2, _ = sets.project(mem, y)
            moved = max(moved, sets._norm(y2 - y))
            y = y2
        if max(mem.membership_residual(y) for mem in oracle.members) <= 1e-12:
            return y
        if moved <= 1e-15 or sets._norm(y - y_start) <= 1e-15:
            break
    if max(mem.membership_residual(y) for mem in oracle.members) <= oracle.membership_tol:
        return y
    raise sets.ProjectionNotConvergedError(
        "intersection refinement stalled before reaching membership", y
    )


def _reference_project(oracle, x):
    p = sets._as_point(x, oracle.dimension)
    nearest = _reference_refinement(oracle, p)
    return nearest, sets._norm(p - nearest)


def _assert_refinements_match(oracle, points):
    """_project_rows on all points and sets.project on each equal the
    one-point loop, bit for bit and error for error (a stalled row's last
    iterate included)."""
    with np.errstate(all="ignore"):
        want = [_outcome_bits(sets._outcome(_reference_project, oracle, x)) for x in points]
        got = [_outcome_bits(out) for out in oracle._project_rows(points)]
        single = [_outcome_bits(sets._outcome(sets.project, oracle, x)) for x in points]
    assert got == want
    assert single == want
    return want


def _kinds(want):
    return {w[0] if isinstance(w[0], type) else "point" for w in want}


def _lens():
    return gallery.get_entry("parabola-lens").problem.intersection_oracle


# A point inside the lens, its corners, points the check rejects.
LENS_POINTS = [(0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (np.nan, 0.0), (0.2, 0.1, 0.0), (np.inf, 1.0)]


@pytest.mark.parametrize("sweeps", [1, 2, 5, sets.INTERSECTION_SWEEPS])
def test_lens_refinement_equals_the_one_point_loop(sweeps, monkeypatch):
    # Few sweeps leave rows that used every sweep: some within the
    # membership tolerance, some not.
    monkeypatch.setattr(sets, "INTERSECTION_SWEEPS", sweeps)
    rng = np.random.default_rng(4)
    points = [np.array(p) for p in LENS_POINTS] + list(rng.uniform(-1.0, 2.0, size=(40, 2)))
    want = _assert_refinements_match(_lens(), points)
    assert {"point", ValueError, sets.DimensionMismatchError} <= _kinds(want)
    if sweeps == 1:
        assert sets.ProjectionNotConvergedError in _kinds(want)


def test_disjoint_balls_stall_with_their_last_iterates():
    # Two balls that do not meet: each row settles into a 2-cycle whose
    # sweep ends where it began, and raises with its own last iterate.
    apart = sets.IntersectionSet([sets.Ball((0.0, 0.0), 1.0), sets.Ball((3.0, 1.0), 1.0)])
    rng = np.random.default_rng(9)
    points = list(rng.uniform(-3.0, 5.0, size=(24, 2))) + [np.array([1.5, 0.5])]
    want = _assert_refinements_match(apart, points)
    assert _kinds(want) == {sets.ProjectionNotConvergedError}
    assert len({w[2] for w in want}) > 1


def test_halfspace_corner_converges_in_lockstep():
    corner = sets.IntersectionSet(
        [sets.HalfspaceSet((1.0, 0.0), 0.0), sets.HalfspaceSet((0.0, 1.0), 0.0), sets.Ball((0.0, 0.0), 2.0)]
    )
    rng = np.random.default_rng(2)
    want = _assert_refinements_match(corner, list(rng.uniform(-3.0, 3.0, size=(30, 2))))
    assert _kinds(want) == {"point"}


def _picky_lens(limit=0.6):
    """The lens with a lower member whose gradient refuses x1 > limit: a
    row whose Newton start for that member runs out there raises, often
    after sweeps that went through."""
    k1 = polynomial_level_set([0.0, 0.0, 1.0], "above", convex=True)
    k2 = polynomial_level_set([0.0, 2.0, -1.0], "below", convex=True)
    grad = k1.grad

    def picky(y):
        if y[0] > limit:
            raise ValueError(f"gradient refuses x1 = {y[0]!r}")
        return grad(y)

    k1.grad = picky
    return sets.IntersectionSet([k2, k1]), k2


def test_member_that_raises_mid_refinement():
    lens, first = _picky_lens()
    rng = np.random.default_rng(6)
    points = list(rng.uniform(-1.0, 2.0, size=(40, 2))) + [np.array([np.nan, 0.0])]
    want = _assert_refinements_match(lens, points)
    assert {"point", ValueError} <= _kinds(want)
    # Some rows raise only after their first member projection went
    # through: the error comes from a later step of the refinement.
    late = [
        x
        for x, w in zip(points, want)
        if w[0] is ValueError
        and np.isfinite(x).all()
        and not isinstance(sets._outcome(sets.project, first, x), Exception)
    ]
    assert late


def test_curve_members_and_one_row_batches():
    # Manifold members (no interior test) and batches of zero and one row.
    cross = sets.IntersectionSet([polynomial_curve([0.0, 0.0, 1.0]), polynomial_curve([0.0, 1.0])])
    rng = np.random.default_rng(1)
    points = list(rng.uniform(-0.5, 1.5, size=(12, 2)))
    _assert_refinements_match(cross, points)
    _assert_refinements_match(cross, points[:1])
    assert cross._project_rows([]) == []


def _with_oracle(name, oracle):
    problem = _problem(name)
    return diagnostics.solvers.ProblemInstance(
        problem.name, problem.sets, problem.start, problem.known_solution, oracle
    )


def _beta_outcome(fn, problem, seed):
    """beta_hat's hex from fn, or the type and message of what it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn(problem, problem.known_solution, seed)[0].hex()
        except Exception as exc:
            return type(exc), str(exc)


def _polyhedron():
    return _problem("backtrack-example").intersection_oracle


# Intersection oracles for the beta probe, which projects the probes that
# need d(x, K) onto them as one batch: the lens refinement, also with a
# member that refuses some probes, and the polyhedral QP, also wrapped so
# that its projection k (counting from 0, one per probe) raises.
BETA_ORACLES = {
    "lens": lambda: _with_oracle("parabola-lens", _lens()),
    "picky-lens": lambda: _with_oracle("parabola-lens", _picky_lens(0.05)[0]),
    "polyhedron": lambda: _with_oracle("backtrack-example", _polyhedron()),
    **{
        f"{name}-fails-at-{k}": (
            lambda name=name, build=build, k=k: _with_oracle(
                name, _Failing(build(), {k: diagnostics.NoDistanceOracleError(f"distance call {k}")})
            )
        )
        for name, build in [("parabola-lens", _lens), ("backtrack-example", _polyhedron)]
        for k in (0, 3, 17)
    },
}


@pytest.mark.parametrize("oracle", sorted(BETA_ORACLES))
def test_beta_probe_with_batched_distances_equals_the_per_probe_loop(oracle):
    outcomes = []
    for seed in range(3):
        got = _beta_outcome(diagnostics._beta_probe, BETA_ORACLES[oracle](), seed)
        want = _beta_outcome(_reference_beta_probe, BETA_ORACLES[oracle](), seed)
        assert got == want
        outcomes.append(want)
    # The fixture is only a check if the failing oracles raise and the
    # others give a value.
    raised = [isinstance(w, tuple) for w in outcomes]
    assert all(raised) == ("fails" in oracle or oracle == "picky-lens")
