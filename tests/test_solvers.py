"""Solver-level behavior: trajectories, schedules, statuses, trace shape."""

import math

import numpy as np
import pytest

from shqp import gallery, polyhedra, sets, solvers


def _point_problem():
    """Two disjoint singletons; no solver can reconcile them."""
    a = sets.PointSet([[0.0, 0.0]])
    b = sets.PointSet([[1.0, 0.0]])
    return solvers.ProblemInstance("disjoint-points", [a, b], [0.3, 0.7])


def _duplicated_halfspace_problem():
    h1 = sets.HalfspaceSet([1.0, 0.0], 0.0)
    h2 = sets.HalfspaceSet([1.0, 0.0], 0.0)
    return solvers.ProblemInstance("dup-halfspace", [h1, h2], [1.0, 0.3])


def test_problem_instance_validation():
    ball = sets.Ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="at least one set"):
        solvers.ProblemInstance("empty", [], [0.0, 0.0])
    with pytest.raises(ValueError, match="ambient dimension"):
        solvers.ProblemInstance("mixed", [ball, sets.Ball([0.0, 0.0, 0.0], 1.0)], [0.0, 0.0])
    with pytest.raises(ValueError, match="start point dimension"):
        solvers.ProblemInstance("bad-start", [ball], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not a member"):
        solvers.ProblemInstance("bad-known", [ball], [2.0, 0.0], known_solution=[3.0, 0.0])


def test_schedule_constructors_and_validation():
    cyc = solvers.Schedule.cyclic(3)
    assert cyc.kind == "blocks" and cyc.blocks == ((0,), (1,), (2,))
    mass = solvers.Schedule.mass(3)
    assert mass.blocks == ((0, 1, 2),)
    far = solvers.Schedule.farthest(pairing="fixed")
    assert far.kind == "farthest" and far.pairing == "fixed"

    with pytest.raises(ValueError, match="unknown schedule kind"):
        solvers.Schedule("diagonal")
    with pytest.raises(ValueError, match="pairing"):
        solvers.Schedule("blocks", ((0,),), pairing="both")
    with pytest.raises(ValueError, match="out of range"):
        solvers.Schedule.cyclic(3).validate_for(2)
    with pytest.raises(ValueError, match="cover every set"):
        solvers.Schedule("blocks", ((0,),)).validate_for(2)

    # The farthest schedule resolves against the current distances.
    assert far.groups(np.array([0.1, 0.7, 0.3])) == [(1,)]
    assert cyc.groups(np.array([1.0, 0.0, 0.0])) == [(0,), (1,), (2,)]


def test_basic_shqp_runs_the_farthest_schedule():
    """The farthest schedule needs no cover check, and the pooled method
    runs it to the corner of two orthogonal halfspaces."""
    problem = gallery.get_entry("halfspace-pair").problem
    trace = solvers.run_basic_shqp(problem, problem.start, schedule=solvers.Schedule.farthest())
    assert trace.status == "converged"
    np.testing.assert_array_equal(trace.final_point(), [0.0, 0.0])


def test_solver_config_validation():
    for bad in (dict(tau=1.0), dict(tau=-0.1), dict(pbar=-1),
                dict(max_outer_iterations=0), dict(stop_tolerance=0.0),
                dict(stop_tolerance=math.nan), dict(stop_tolerance=math.inf),
                dict(tau_schedule=()), dict(tau_schedule=(1.5,)),
                dict(tau_schedule=(0.1, math.nan)), dict(tau_schedule=(-0.1,)),
                dict(pbar=2.5), dict(pbar=math.nan), dict(pbar=True),
                dict(max_outer_iterations=2.5), dict(max_outer_iterations=math.nan),
                dict(max_outer_iterations=True)):
        with pytest.raises(ValueError):
            solvers.SolverConfig(**bad)


def test_tau_schedule_callable_and_sequence():
    cfg = solvers.SolverConfig(tau=0.3)
    assert cfg.tau_at(0) == 0.3 and cfg.tau_at(10) == 0.3
    cfg = solvers.SolverConfig(tau_schedule=lambda i: 0.5 / (i + 1))
    assert cfg.tau_at(0) == 0.5 and cfg.tau_at(4) == 0.1
    cfg = solvers.SolverConfig(tau_schedule=(0.5, 0.25))
    # The last value of a sequence schedule persists past its end.
    assert cfg.tau_at(0) == 0.5
    assert cfg.tau_at(1) == 0.25
    assert cfg.tau_at(7) == 0.25


def test_mass_trajectory_on_backtrack_example():
    prob = gallery.get_entry("backtrack-example").problem
    trace = solvers.run_mass_projection(prob)
    assert trace.status == "converged"
    assert [r.step_kind for r in trace.records] == ["start", "qp-step", "qp-step"]
    pts = [r.point for r in trace.records]
    np.testing.assert_allclose(pts[0], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pts[1], [-6.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(pts[2], [-6.0, 0.0, -6.0], atol=1e-9)
    # Distances recorded at the start row match the closed forms.
    d = trace.records[0].distances
    assert abs(d[0] - 1.0) <= 1e-12
    assert abs(d[1] - 3.0 / np.sqrt(10.0)) <= 1e-12


def test_memory_trajectory_on_backtrack_example():
    prob = gallery.get_entry("backtrack-example").problem
    cfg = solvers.SolverConfig(tau=0.0, pbar=3)
    trace = solvers.run_memory_shqp(prob, config=cfg)
    assert trace.status == "converged"
    outs = trace.outer_points()
    expect = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [-6.0, 0.0, 0.0], [-6.0, 0.0, -6.0]]
    assert len(outs) == len(expect)
    for got, want in zip(outs, expect):
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_memory_method_needs_positive_window():
    prob = gallery.get_entry("halfspace-pair").problem
    with pytest.raises(ValueError, match="pbar >= 1"):
        solvers.run_memory_shqp(prob, config=solvers.SolverConfig(pbar=0))


def test_map_is_basic_with_cyclic_fixed_schedule():
    """Cyclic singleton blocks with fixed pairing must reproduce plain
    alternating projections record for record."""
    prob = gallery.get_entry("circle-line").problem
    cfg = solvers.SolverConfig(tau=0.0)
    ta = solvers.run_basic_shqp(
        prob, schedule=solvers.Schedule.cyclic(2, pairing="fixed"), config=cfg
    )
    tb = solvers.run_map(prob, config=cfg)
    assert ta.status == tb.status == "converged"
    assert len(ta.records) == len(tb.records)
    for ra, rb in zip(ta.records, tb.records):
        assert ra.step_kind == rb.step_kind
        assert ra.outer_iteration == rb.outer_iteration
        assert ra.inner_step == rb.inner_step
        assert np.array_equal(ra.point, rb.point)
    # run_map forces tau = 0 itself, so the default config agrees too.
    tc = solvers.run_map(prob)
    assert len(tc.records) == len(tb.records)
    assert all(np.array_equal(rc.point, rb.point) for rc, rb in zip(tc.records, tb.records))


def test_two_shqp_wedge_rows():
    prob = gallery.get_entry("two-shqp-wedge").problem
    trace = solvers.run_two_shqp(prob)
    assert trace.status == "converged"
    kinds = [r.step_kind for r in trace.records[:4]]
    assert kinds == ["start", "set-projection-1", "set-projection-2", "qp-step"]
    a = 3.0 * np.pi / 8.0
    s, c = np.sin(a), np.cos(a)
    p1 = np.array([s * c, s * s])
    p2 = p1 - (2.0 * s * s * c) * np.array([s, c])
    np.testing.assert_allclose(trace.records[1].point, p1, atol=1e-12)
    np.testing.assert_allclose(trace.records[2].point, p2, atol=1e-12)
    # The acute-turn QP cuts straight to the wedge apex.
    assert np.linalg.norm(trace.records[3].point) <= 1e-9
    assert trace.copy_steps == 0


def test_two_shqp_obtuse_turn_copies():
    prob = gallery.get_entry("halfspace-ball").problem
    trace = solvers.run_two_shqp(prob)
    assert trace.status == "converged"
    assert [r.step_kind for r in trace.records] == [
        "start", "set-projection-1", "set-projection-2",
    ]
    assert trace.copy_steps == 1
    # The copied point really does sit in both sets.
    final = trace.final_point()
    for s in prob.sets:
        assert s.membership_residual(final) <= 1e-9


def test_two_shqp_rejects_wrong_set_count():
    ball = sets.Ball([0.0, 0.0], 1.0)
    prob = solvers.ProblemInstance("single", [ball], [2.0, 0.0])
    with pytest.raises(ValueError, match="exactly two sets"):
        solvers.run_two_shqp(prob)


def test_memory_relaxation_halves_the_gap():
    """On a duplicated halfspace the tau-relaxed cut puts the next iterate at
    (1 - tau) of the previous gap, so tau = 1/2 halves the x-coordinate."""
    prob = _duplicated_halfspace_problem()
    cfg = solvers.SolverConfig(tau=0.5, tau_zero_for_convex=False, pbar=2)
    trace = solvers.run_memory_shqp(prob, config=cfg)
    assert trace.status == "converged"
    xs = [p[0] for p in trace.outer_points()]
    np.testing.assert_allclose(xs[:5], [1.0, 0.5, 0.25, 0.125, 0.0625], rtol=1e-12)
    # The second coordinate never moves: every cut is vertical.
    assert all(abs(p[1] - 0.3) <= 1e-12 for p in trace.outer_points())


def test_tau_schedule_drives_the_trajectory():
    prob = _duplicated_halfspace_problem()
    cfg = solvers.SolverConfig(
        tau_schedule=(0.5, 0.25), tau_zero_for_convex=False, pbar=2
    )
    trace = solvers.run_memory_shqp(prob, config=cfg)
    xs = [p[0] for p in trace.outer_points()]
    np.testing.assert_allclose(xs[:4], [1.0, 0.5, 0.125, 0.03125], rtol=1e-12)


def test_qp_rows_carry_kkt_certificates():
    seen = 0
    for name, runner in [
        ("backtrack-example", solvers.run_mass_projection),
        ("circle-line", solvers.run_basic_shqp),
        ("two-parabolas", solvers.run_basic_shqp),
    ]:
        prob = gallery.get_entry(name).problem
        trace = runner(prob)
        for rec in trace.records:
            if rec.step_kind.startswith("qp"):
                assert rec.qp_active_size >= 1
                assert rec.qp_kkt_residual <= 1e-9
                seen += 1
    assert seen >= 3


def test_averaged_step_is_the_projection_mean():
    prob = gallery.get_entry("circle-line").problem
    cfg = solvers.SolverConfig(max_outer_iterations=1)
    trace = solvers.run_averaged_projections(prob, config=cfg)
    x0 = prob.start
    mean = np.mean([sets.project(s, x0)[0] for s in prob.sets], axis=0)
    assert trace.records[1].step_kind == "averaged-step"
    np.testing.assert_allclose(trace.records[1].point, mean, atol=1e-12)


def test_averaged_stalls_at_midpoint_of_disjoint_points():
    trace = solvers.run_averaged_projections(_point_problem())
    assert trace.status == "stalled"
    assert len(trace.records) == 2
    np.testing.assert_allclose(trace.final_point(), [0.5, 0.0], atol=1e-12)


def _parallel_lines_problem():
    """Two parallel lines: every pool QP with a cut from each is empty."""
    line0 = sets.HyperplaneSet([1.0, 0.0], 0.0)
    line1 = sets.HyperplaneSet([1.0, 0.0], 1.0)
    return solvers.ProblemInstance("parallel-lines", [line0, line1], [2.0, 0.5])


@pytest.mark.parametrize(
    "runner, landing, steps",
    [
        # The two tangent hyperplanes are inconsistent; their relaxed
        # halfspaces still meet on the first line.
        (solvers.run_mass_projection, "qp-inequality-relaxation", [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
        # The first inner step's lone cut is a plain projection; the second
        # step's pool is empty and falls back to the farthest set.
        (solvers.run_basic_shqp, "set-projection-1", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]),
    ],
)
def test_parallel_lines_exhaust_the_fallback(runner, landing, steps):
    """The fallback projection bounces between the lines, the farthest
    distance never shrinks, and the third try ends the run."""
    trace = runner(_parallel_lines_problem())
    assert trace.status == "qp-infeasible-fallback-exhausted"
    kinds = [landing, "fallback-projection"] * 2 + [landing]
    points = [[0.0, 0.5], [1.0, 0.5]] * 2 + [[0.0, 0.5]]
    expected = [("start", (0, -1), [2.0, 0.5])] + list(zip(kinds, steps, points))
    assert len(trace.records) == 6
    for rec, (kind, step, point) in zip(trace.records, expected):
        assert rec.step_kind == kind
        assert (rec.outer_iteration, rec.inner_step) == step
        np.testing.assert_array_equal(rec.point, point)


def test_global_rule_falls_back_on_parallel_lines():
    """The QP point, then line-search points that halve toward the averaged
    point, until no step lowers the merit and the averaged step lands on
    the midpoint, a fixed point of the averaging map."""
    trace = solvers.run_global(_parallel_lines_problem())
    assert trace.status == "stalled"
    expected = [("start", 0, [2.0, 0.5]), ("qp-step", 0, [0.0, 0.5])]
    expected += [("line-search", k, [0.5 + 0.5**(k + 1), 0.5]) for k in range(1, 9)]
    expected += [("averaged-step", 9, [0.5, 0.5])]
    assert len(trace.records) == len(expected)
    for rec, (kind, outer, point) in zip(trace.records, expected):
        assert (rec.step_kind, rec.outer_iteration) == (kind, outer)
        np.testing.assert_array_equal(rec.point, point)


def test_two_set_step_stalls_when_neither_projection_moves():
    """Both projections move x by less than the no-move floor and the leg to
    the first is degenerate, so the copy step ends the run at its start."""
    lines = [sets.HyperplaneSet([1.0, 0.0], 0.0), sets.HyperplaneSet([0.0, 1.0], 0.0)]
    prob = solvers.ProblemInstance("axis-lines", lines, [1e-16, 0.0])
    trace = solvers.run_two_shqp(prob, config=solvers.SolverConfig(stop_tolerance=1e-17))
    assert trace.status == "stalled"
    assert (len(trace.records), trace.copy_steps) == (1, 1)


def test_global_rule_stalls_at_zero_merit():
    """x lies outside both balls, so the pool has cuts, but the intersection
    oracle puts x at merit 0, which no step can lower."""
    balls = [sets.Ball([0.0, 0.0], 1.0), sets.Ball([0.5, 0.0], 1.0)]
    prob = solvers.ProblemInstance(
        "zero-merit", balls, [2.0, 0.0], intersection_oracle=sets.PointSet([(2.0, 0.0)])
    )
    trace = solvers.run_global(prob, merit="intersection-distance")
    assert trace.status == "stalled"
    assert len(trace.records) == 1


def test_global_rule_stalls_on_an_empty_pool():
    """Both distances are below the zero-gap floor, so no set gives a cut,
    and the averaged step moves x by less than the no-move floor."""
    lines = [sets.HyperplaneSet([1.0, 0.0], 0.0), sets.HyperplaneSet([1.0, 1.0], 0.0)]
    prob = solvers.ProblemInstance("slanted-lines", lines, [1e-15, -1e-15])
    trace = solvers.run_global(prob, config=solvers.SolverConfig(stop_tolerance=1e-17))
    assert trace.status == "stalled"
    assert len(trace.records) == 1


def test_map_cycles_forever_on_disjoint_points():
    cfg = solvers.SolverConfig(max_outer_iterations=30)
    trace = solvers.run_map(_point_problem(), config=cfg)
    assert trace.status == "max-iterations"


def test_global_method_backtracks_on_merit():
    prob = gallery.get_entry("backtrack-example").problem
    trace = solvers.run_global(prob, merit="max-distance")
    assert trace.status == "converged"
    kinds = {r.step_kind for r in trace.records}
    assert "line-search" in kinds
    assert kinds <= {"start", "qp-step", "qp-drop-oldest", "line-search", "averaged-step"}
    merits = [
        solvers.merit_value(prob, "max-distance", r.point) for r in trace.records
    ]
    assert all(b < a for a, b in zip(merits, merits[1:]))


def test_merit_value_routes():
    prob = gallery.get_entry("circle-line").problem
    x = np.array([2.0, 0.0])
    dists = np.array([sets.project(s, x)[1] for s in prob.sets])
    assert solvers.merit_value(prob, "sum-of-squares", x) == pytest.approx(dists @ dists)
    assert solvers.merit_value(prob, "max-distance", x) == pytest.approx(dists.max())
    with pytest.raises(ValueError, match="unknown merit"):
        solvers.merit_value(prob, "median", x)
    if prob.intersection_oracle is not None:
        want = sets.project(prob.intersection_oracle, x)[1]
        got = solvers.merit_value(prob, "intersection-distance", x)
        assert got == pytest.approx(want)
    bare = solvers.ProblemInstance("bare", list(prob.sets), prob.start)
    with pytest.raises(ValueError, match="intersection oracle"):
        solvers.merit_value(bare, "intersection-distance", x)


def test_trace_synthetic_and_outer_points():
    tr = solvers.Trace.from_points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert tr.status == "converged"
    assert [r.step_kind for r in tr.records] == ["start", "synthetic", "synthetic"]
    assert [r.inner_step for r in tr.records] == [-1, 0, 0]
    assert all(r.distances.size == 0 for r in tr.records)
    np.testing.assert_allclose(tr.final_point(), [1.0, 1.0])
    outs = tr.outer_points()
    assert len(outs) == 3 and np.allclose(outs[0], [0.0, 0.0])

    prob = gallery.get_entry("circle-line").problem
    run = solvers.run_mass_projection(prob)
    outs = run.outer_points()
    np.testing.assert_allclose(outs[0], prob.start, atol=1e-12)
    # One entry per outer iteration plus the start row.
    n_outer = len({r.outer_iteration for r in run.records if r.step_kind != "start"})
    assert len(outs) == n_outer + 1


def test_zero_gap_start_still_converges():
    """Starting exactly on one manifold must not strand the iterate: the
    tangent hyperplane keeps that set in the QP."""
    prob = gallery.get_entry("circle-line").problem
    x0 = np.array([np.cos(0.3), np.sin(0.3)])
    trace = solvers.run_basic_shqp(prob, x0=x0)
    assert trace.status == "converged"
    crossings = np.array([[1.0, 0.0], [0.5, -np.sqrt(3.0) / 2.0]])
    final = trace.final_point()
    assert np.linalg.norm(crossings - final, axis=1).min() <= 1e-8


def test_stop_tolerance_shortens_runs():
    prob = gallery.get_entry("circle-line").problem
    loose = solvers.run_basic_shqp(prob, config=solvers.SolverConfig(stop_tolerance=1e-4))
    tight = solvers.run_basic_shqp(prob, config=solvers.SolverConfig(stop_tolerance=1e-10))
    assert loose.status == tight.status == "converged"
    assert len(loose.records) < len(tight.records)


def test_explicit_x0_overrides_problem_start():
    prob = gallery.get_entry("circle-line").problem
    trace = solvers.run_map(prob, x0=prob.known_solution)
    assert trace.status == "converged"
    assert len(trace.records) == 1  # already a member: only the start row
    np.testing.assert_allclose(trace.final_point(), prob.known_solution)


def test_global_rank1_affine_from_a_base_start_converges():
    """This start once ended in an unverifiable-certificate RuntimeError
    from a drop-oldest QP; the run must end in a mapped status."""
    from shqp import harness

    prob = gallery.get_entry("rank1-affine").problem
    x0 = [0.9622652284945473, 0.4259582302726168, 0.38777222741573175, 0.09217595875133319]
    trace = solvers.run_global(prob, x0=np.array(x0))
    assert trace.status in harness._STATUS_EXIT
    assert trace.status == "converged"
    assert max(sets.project(s, trace.final_point())[1] for s in prob.sets) <= 1e-10


def test_global_step_warm_start_follows_dropped_rows(monkeypatch):
    """Each drop-oldest attempt is warm-started with the rows that were
    active in the last solved attempt, minus the dropped one."""
    calls = []
    project = polyhedra.project_onto_polyhedron

    def spy(poly, x0, warm_start=()):
        res = project(poly, x0, warm_start=warm_start)
        calls.append((list(poly.constraints), tuple(warm_start), res))
        return res

    monkeypatch.setattr(polyhedra, "project_onto_polyhedron", spy)
    trace = solvers.run_global(gallery.get_entry("rank1-affine").problem)
    assert trace.status == "converged"
    drops = 0
    warm_rows = []
    for (prev, _, prev_res), (cons, warm, _) in zip(calls, calls[1:]):
        if prev_res.status == "optimal":
            warm_rows = [prev[i] for i in prev_res.active_set]
        if not (len(cons) == len(prev) - 1 and all(a is b for a, b in zip(cons, prev[1:]))):
            warm_rows = []  # a fresh pool: the next global step starts cold
            continue
        drops += 1
        expect = [h for h in warm_rows if h is not prev[0]]
        # Halfspace compares by identity, so this checks the objects.
        assert [cons[i] for i in warm] == expect
        warm_rows = expect
    assert drops >= 3


def _count_projections(monkeypatch):
    """Count the solver's own sets.project calls by (oracle id, point
    bytes); calls an oracle makes inside its projection (an intersection
    oracle projecting onto its members) are not the solver's."""
    import collections

    calls = collections.Counter()
    project = sets.project
    depth = [0]

    def counting(oracle, x):
        if depth[0] == 0:
            calls[id(oracle), np.asarray(x, dtype=float).tobytes()] += 1
        depth[0] += 1
        try:
            return project(oracle, x)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sets, "project", counting)
    return calls


def _applicable_runs():
    for name in gallery.gallery_names():
        prob = gallery.get_entry(name).problem
        for alg, runner in solvers.SOLVERS.items():
            if alg != "two-shqp" or len(prob.sets) == 2:
                yield f"{name}/{alg}", prob, runner
        if prob.intersection_oracle is not None:
            yield (
                f"{name}/global/intersection-distance",
                prob,
                lambda p: solvers.run_global(p, merit="intersection-distance"),
            )


def test_every_solver_projects_each_point_once(monkeypatch):
    """Within one solver call no (set, point) pair is projected twice: the
    projections behind a record's distances are the ones the next step
    uses."""
    calls = _count_projections(monkeypatch)
    repeated = []
    for label, prob, runner in _applicable_runs():
        calls.clear()
        runner(prob)
        twice = sum(1 for n in calls.values() if n > 1)
        if twice:
            repeated.append((label, twice))
    assert repeated == []


def _count_qps(monkeypatch):
    """A list that grows by one entry per polyhedral QP: each
    project_onto_polyhedron call, and each point of a polyhedral set's
    batch entry (polyhedra._nearest_points), which runs the same QP
    without its report tail."""
    qps = []
    project, nearest = polyhedra.project_onto_polyhedron, polyhedra._nearest_points

    def counting_qp(*args, **kwargs):
        qps.append(1)
        return project(*args, **kwargs)

    def counting_rows(poly, X):
        qps.extend([1] * len(X))
        return nearest(poly, X)

    monkeypatch.setattr(polyhedra, "project_onto_polyhedron", counting_qp)
    monkeypatch.setattr(polyhedra, "_nearest_points", counting_rows)
    return qps


@pytest.mark.parametrize(
    "name, alg, oracle_calls, qp_calls",
    [
        ("two-lines-45", "averaged", 280, 0),
        ("backtrack-example", "map", 2002, 1001),
        ("two-parabolas", "global", 24, 27),
    ],
)
def test_projection_counts_of_benchmark_anchors(monkeypatch, name, alg, oracle_calls, qp_calls):
    """Exact oracle and QP call counts; a second identical solve makes the
    same counts, so no cached state outlives a call."""
    calls = _count_projections(monkeypatch)
    qps = _count_qps(monkeypatch)
    prob = gallery.get_entry(name).problem
    counts = []
    for _ in range(2):
        calls.clear()
        qps.clear()
        solvers.SOLVERS[alg](prob)
        counts.append((sum(calls.values()), len(qps)))
    assert counts == [(oracle_calls, qp_calls)] * 2


# One sha256 over (label, start, sets.project calls, QP calls) of every run
# of tests/test_trace_pins.py, recorded before the engine's projection reuse
# became a memo of the last point.
COUNTS_DIGEST = "3ae5238b3981292c586a542f9ac044a1bf762b27fd2f52ff28554178289dcfb8"


def test_oracle_and_qp_counts_of_every_gallery_run(monkeypatch):
    """Exact oracle and QP call counts of every gallery run from every start
    (the QP count includes the QPs a polyhedral oracle makes), and no run
    projects a (set, point) pair twice."""
    import hashlib

    from test_trace_pins import _runs, _starts

    calls = _count_projections(monkeypatch)
    qps = _count_qps(monkeypatch)
    digest = hashlib.sha256()
    totals = [0, 0]
    repeated = []
    for label, problem, runner in _runs():
        for k, x0 in enumerate(_starts(problem)):
            calls.clear()
            qps.clear()
            try:
                runner(problem, x0)
            except Exception:
                pass
            row = (label, k, sum(calls.values()), len(qps))
            digest.update(repr(row).encode())
            totals[0] += row[2]
            totals[1] += row[3]
            twice = sum(1 for n in calls.values() if n > 1)
            if twice:
                repeated.append((label, k, twice))
    assert repeated == []
    assert totals == [25281, 6858]
    assert digest.hexdigest() == COUNTS_DIGEST


def test_records_own_their_arrays():
    """Every record of every gallery run owns a writeable point and distance
    column that share memory with no other array of the trace."""
    for label, prob, runner in _applicable_runs():
        try:
            trace = runner(prob)
        except Exception:
            continue
        buffers = set()
        for rec in trace.records:
            for a in (rec.point, rec.distances):
                assert a.flags.writeable and a.flags.owndata and a.base is None, label
                buffers.add(a.ctypes.data)
        assert len(buffers) == 2 * len(trace.records), label


class _FlakyBall(sets.Ball):
    """A ball whose projection stops converging after a number of calls."""

    def __init__(self, center, radius, calls_left):
        super().__init__(center, radius)
        self.calls_left = calls_left

    def _project(self, x):
        self.calls_left -= 1
        if self.calls_left < 0:
            raise sets.ProjectionNotConvergedError("flaky ball gave up", x)
        return super()._project(x)


@pytest.mark.parametrize("alg", sorted(solvers.SOLVERS))
def test_oracle_failure_mid_run_ends_with_status(alg):
    from shqp import harness

    ball = _FlakyBall([0.0, 0.0], 1.0, calls_left=4)
    line = sets.HyperplaneSet([0.0, 1.0], 1.0)  # tangent: slow for every solver
    prob = solvers.ProblemInstance("flaky", [line, ball], [2.0, 3.0])
    trace = solvers.SOLVERS[alg](prob)
    assert trace.status == "oracle-failed"
    assert harness._STATUS_EXIT[trace.status] == harness.EXIT_NO_PROGRESS
    assert trace.oracle_failure["set_index"] == 1
    assert trace.oracle_failure["set_kind"] == "ball"
    assert "flaky ball gave up" in trace.oracle_failure["message"]
    assert len(trace.records) >= 2
    assert all(np.all(np.isfinite(r.distances)) for r in trace.records)


def test_oracle_failure_at_the_start_keeps_a_start_row():
    ball = _FlakyBall([0.0, 0.0], 1.0, calls_left=0)
    prob = solvers.ProblemInstance("flaky", [ball], [2.0, 3.0])
    trace = solvers.run_map(prob)
    assert trace.status == "oracle-failed"
    assert trace.oracle_failure["set_index"] == 0
    (start,) = trace.records
    assert start.step_kind == "start" and np.all(np.isnan(start.distances))
    np.testing.assert_array_equal(start.point, [2.0, 3.0])


class _NudgedLine(sets.HyperplaneSet):
    """A line whose projection lands one ulp to the right along it."""

    def _project(self, x):
        p = super()._project(x)
        p[0] = np.nextafter(p[0], np.inf)
        return p


def test_two_shqp_projects_an_unrecorded_copy_only_if_the_run_goes_on(monkeypatch):
    """The second leg moves by one ulp, too little to record, and the copy
    step hands on a point no record has projected: it is projected at the
    next stop test, so a run that ends there projects it nowhere."""
    calls = _count_projections(monkeypatch)
    line = sets.HyperplaneSet([0.0, 1.0], 0.0)
    prob = solvers.ProblemInstance("nudged", [line, _NudgedLine([0.0, 1.0], 0.0)], [1.0, 1.0])
    counts = []
    for budget in (1, 2):
        calls.clear()
        trace = solvers.run_two_shqp(prob, config=solvers.SolverConfig(max_outer_iterations=budget))
        counts.append((trace.status, trace.copy_steps, len(trace.records), sum(calls.values())))
    # The start and x1 are recorded; the second run also projects the
    # copied x2 at its stop test, and converges there.
    assert counts == [("max-iterations", 1, 2, 4), ("converged", 1, 2, 6)]


def test_every_solver_qp_row_is_a_supporting_cut(monkeypatch):
    """Every row of every solver QP, over every gallery run from every start,
    is a cut that polyhedra._supporting_cut returned in that run, or
    _qp_attempt's inequality relaxation of one: the same normal array,
    offset and tags, with the kind relaxed.  The gallery never reaches the
    relaxation rung, so the parallel lines' runs join it."""
    from test_trace_pins import _runs, _starts

    made, foreign, relaxations = {}, [], []
    cut, project = polyhedra._supporting_cut, polyhedra.project_onto_polyhedron

    def recording_cut(*args):
        out = cut(*args)
        made[id(out[0].normal)] = out[0]  # the cut keeps its normal alive
        return out

    def checking_qp(poly, *args, **kwargs):
        for h in poly.constraints:
            c = made.get(id(h.normal))
            relaxation = (
                c is not None
                and (c.kind, h.kind) == ("equality", "inequality")
                and (h.offset, h.source_set, h.outer_iteration, h.inner_step)
                == (c.offset, c.source_set, c.outer_iteration, c.inner_step)
            )
            relaxations.append(relaxation)
            if c is not h and not relaxation:
                foreign.append((label, k, h.kind))
        return project(poly, *args, **kwargs)

    monkeypatch.setattr(polyhedra, "_supporting_cut", recording_cut)
    monkeypatch.setattr(polyhedra, "project_onto_polyhedron", checking_qp)
    lines = _parallel_lines_problem()
    extra = [(f"parallel-lines/{alg}", lines, solvers.SOLVERS[alg]) for alg in ("mass", "basic-shqp")]
    for label, problem, runner in [*_runs(), *extra]:
        for k, x0 in enumerate(_starts(problem)):
            made.clear()
            try:
                runner(problem, x0)
            except Exception:
                pass
    assert foreign == []
    # Non-vacuous: many rows were checked, and the relaxation rung ran.
    assert len(relaxations) > 1000 and any(relaxations)


@pytest.mark.parametrize("runner", [solvers.run_map, solvers.run_mass_projection, solvers.run_basic_shqp])
@pytest.mark.parametrize(
    "start, status, kinds",
    [
        # 5e-15 off the first axis: below the zero-gap floor, so each group
        # gives only its tangent hyperplane through x, which x satisfies,
        # and no group moves; the fallback projects onto the farthest set.
        (5e-15, "converged", ["start", "fallback-projection"]),
        # 1e-16 off: the fallback's projection moves by less than the
        # no-move floor, and the run ends at its start.
        (1e-16, "qp-infeasible-fallback-exhausted", ["start"]),
    ],
)
def test_pooled_rule_falls_back_when_no_group_moves(runner, start, status, kinds):
    lines = [sets.HyperplaneSet([1.0, 0.0], 0.0), sets.HyperplaneSet([0.0, 1.0], 0.0)]
    prob = solvers.ProblemInstance("axis-lines", lines, [start, 0.0])
    trace = runner(prob, config=solvers.SolverConfig(stop_tolerance=1e-17))
    assert trace.status == status
    assert [r.step_kind for r in trace.records] == kinds
    if status == "converged":
        np.testing.assert_array_equal(trace.final_point(), [0.0, 0.0])
