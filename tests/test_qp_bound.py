"""The polyhedral QP's worst-case bound: the dual active-set method stops
after (d + 1) times the number of row subsets of size <= d steps, and
passing that bound raises QPBreakdownError instead of returning a point."""

import math
import tracemalloc

import numpy as np
import pytest

from shqp import polyhedra
from shqp.polyhedra import Halfspace, Polyhedron, QPBreakdownError, project_onto_polyhedron

# (m, d): (d + 1) * sum over s <= min(m, d) of C(m, s), worked by hand.
BOUNDS = {(1, 1): 4, (3, 2): 21, (2, 5): 24, (4, 4): 80, (6, 3): 168, (10, 2): 168}


@pytest.mark.parametrize("m, d", sorted(BOUNDS))
def test_step_bound_is_d_plus_one_times_the_row_subsets(m, d):
    subsets = sum(math.comb(m, s) for s in range(min(m, d) + 1))
    assert polyhedra._step_bound(m, d) == (d + 1) * subsets == BOUNDS[(m, d)]


def _corner():
    """x <= 1 and y <= 1 from (3, 3): two full steps reach the corner."""
    return Polyhedron([Halfspace((1.0, 0.0), 1.0), Halfspace((0.0, 1.0), 1.0)])


def test_a_qp_that_passes_its_bound_raises(monkeypatch):
    x0 = np.array([3.0, 3.0])
    monkeypatch.setattr(polyhedra, "_step_bound", lambda m, d: 2)
    assert project_onto_polyhedron(_corner(), x0).point.tolist() == [1.0, 1.0]
    monkeypatch.setattr(polyhedra, "_step_bound", lambda m, d: 1)
    with pytest.raises(QPBreakdownError, match="passed its bound of 1 steps"):
        project_onto_polyhedron(_corner(), x0)
    with pytest.raises(QPBreakdownError, match="passed its bound of 1 steps"):
        project_onto_polyhedron(_corner().prepare(), x0)
    # eta is one call of the same QP and carries the same bound.
    with pytest.raises(QPBreakdownError, match="passed its bound of 1 steps"):
        polyhedra.eta([np.array([1.0, 0.0]), np.array([0.0, 1.0])])


@pytest.mark.parametrize("n", [1024, 4096])
def test_an_inequality_qp_takes_memory_in_its_rows_not_n_squared(n):
    # Five halfspaces that the start violates, in R^n: the active factor
    # holds one column per row that can be active (min(m, n)), so the QP's
    # peak stays a small multiple of the m x n rows, far below n x n.
    m = 5
    rng = np.random.default_rng(n)
    normals = rng.standard_normal((m, n))
    poly = Polyhedron([Halfspace(a, -1.0) for a in normals])
    x0 = normals.sum(axis=0)
    tracemalloc.start()
    try:
        result = project_onto_polyhedron(poly, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "optimal"
    assert len(result.active_set) >= 2
    assert peak < 8 * m * n * 8, peak
