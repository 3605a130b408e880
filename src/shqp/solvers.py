"""Set-intersection solvers built on supporting halfspaces and a QP
projection step.

Most methods share one engine: project the current point onto one or more
sets, turn each projection into a supporting halfspace (or a supporting
hyperplane for manifolds), keep the constraints in a pool with a finite
memory window, and move to the nearest point of the polyhedron the pool
describes.  Specializing the schedule, the pairing rule, and the relaxation
parameter recovers cyclic projections, simultaneous supporting halfspaces,
and the greedy farthest-set method with memory.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from . import polyhedra
from . import sets as sets_mod

__all__ = [
    "ProblemInstance",
    "Schedule",
    "SolverConfig",
    "TraceRecord",
    "Trace",
    "run_map",
    "run_basic_shqp",
    "run_mass_projection",
    "run_memory_shqp",
    "run_two_shqp",
    "run_averaged_projections",
    "global_step",
    "run_global",
    "merit_value",
    "SOLVERS",
]

_ZERO_GAP_FLOOR = 1e-14
_NO_MOVE = 1e-15


@dataclasses.dataclass
class ProblemInstance:
    """A finite family of closed sets whose intersection is sought.

    known_solution, when given, must belong to every set within 1e-8; the
    optional intersection_oracle is a SetOracle for the intersection itself,
    used by diagnostics when it is analytically available.
    """

    name: str
    sets: list
    start: np.ndarray
    known_solution: np.ndarray | None = None
    intersection_oracle: object | None = None

    def __post_init__(self):
        if not self.sets:
            raise ValueError("a problem needs at least one set")
        self.start = np.asarray(self.start, dtype=float)
        self.dimension = self.sets[0].dimension
        for s in self.sets:
            if s.dimension != self.dimension:
                raise ValueError("sets disagree on ambient dimension")
        if self.start.shape != (self.dimension,):
            raise ValueError("start point dimension mismatch")
        if self.known_solution is not None:
            self.known_solution = np.asarray(self.known_solution, dtype=float)
            for s in self.sets:
                if s.membership_residual(self.known_solution) > 1e-8:
                    raise ValueError(
                        f"known solution is not a member of set kind {s.kind!r}"
                    )


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Which sets each inner step projects onto, and what the QP sees.

    ``blocks`` lists the set indices per inner step; their union must cover
    all sets.  The ``farthest`` dynamic schedule ignores blocks and picks
    the currently farthest set each outer iteration.  ``pairing`` chooses
    the QP constraint list: "latest" means every surviving pool constraint
    (at most one per set and outer iteration, the newest inner step wins),
    "fixed" means only the constraints created by the current inner step.
    """

    kind: str
    blocks: tuple = ()
    pairing: str = "latest"

    def __post_init__(self):
        if self.kind not in ("blocks", "farthest"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.pairing not in ("latest", "fixed"):
            raise ValueError("pairing must be 'latest' or 'fixed'")
        object.__setattr__(
            self, "blocks", tuple(tuple(int(l) for l in blk) for blk in self.blocks)
        )

    @classmethod
    def cyclic(cls, set_count: int, pairing: str = "latest") -> "Schedule":
        return cls("blocks", tuple((l,) for l in range(set_count)), pairing)

    @classmethod
    def mass(cls, set_count: int, pairing: str = "latest") -> "Schedule":
        return cls("blocks", (tuple(range(set_count)),), pairing)

    @classmethod
    def farthest(cls, pairing: str = "latest") -> "Schedule":
        return cls("farthest", (), pairing)

    def validate_for(self, set_count: int):
        if self.kind == "farthest":
            return
        covered = set()
        for blk in self.blocks:
            for l in blk:
                if not 0 <= l < set_count:
                    raise ValueError(f"schedule block index {l} out of range")
                covered.add(l)
        if covered != set(range(set_count)):
            raise ValueError("schedule blocks must cover every set")

    def groups(self, distances) -> list[tuple[int, ...]]:
        if self.kind == "farthest":
            return [(int(np.argmax(distances)),)]
        return list(self.blocks)


@dataclasses.dataclass
class SolverConfig:
    """Shared knobs for every solver.

    tau is the halfspace relaxation in [0, 1): the supporting boundary
    passes through (1 - tau) * projection + tau * current point.  Convex
    sets keep tau = 0 unless ``tau_zero_for_convex`` is switched off, and
    manifolds always contribute unrelaxed hyperplanes.  ``pbar`` is the
    memory depth: constraints older than pbar outer iterations are evicted
    from the pool.
    """

    tau: float = 0.1
    tau_schedule: Callable[[int], float] | Sequence[float] | None = None
    tau_zero_for_convex: bool = True
    pbar: int = 8
    max_outer_iterations: int = 500
    stop_tolerance: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1)")
        if self.pbar < 0:
            raise ValueError("pbar must be nonnegative")
        if self.max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")
        if self.stop_tolerance <= 0.0:
            raise ValueError("stop tolerance must be positive")

    def tau_at(self, outer_iteration: int) -> float:
        if self.tau_schedule is None:
            return self.tau
        if callable(self.tau_schedule):
            return float(self.tau_schedule(outer_iteration))
        # A sequence schedule: its last value persists past the end.
        seq = self.tau_schedule
        return float(seq[min(outer_iteration, len(seq) - 1)])


@dataclasses.dataclass
class TraceRecord:
    outer_iteration: int
    inner_step: int
    step_kind: str
    point: np.ndarray
    distances: np.ndarray
    qp_active_size: int = 0
    qp_kkt_residual: float = 0.0


@dataclasses.dataclass
class Trace:
    """Recorded run: one row per accepted step plus the starting row.

    Per-set distances are recomputed at recording time, and consecutive
    recorded points always differ (a stalled run stops instead of
    repeating itself).
    """

    records: list
    status: str = "running"
    copy_steps: int = 0

    def final_point(self) -> np.ndarray:
        return self.records[-1].point

    def outer_points(self) -> list[np.ndarray]:
        """Start point followed by the last recorded point of each outer
        iteration."""
        pts = []
        last_by_outer: dict[int, np.ndarray] = {}
        for rec in self.records:
            if rec.step_kind == "start":
                pts.append(rec.point)
            else:
                last_by_outer[rec.outer_iteration] = rec.point
        pts.extend(last_by_outer[i] for i in sorted(last_by_outer))
        return pts

    @classmethod
    def from_points(cls, points, status: str = "converged") -> "Trace":
        """Build a synthetic trace from a bare iterate sequence."""
        records = []
        for k, p in enumerate(points):
            p = np.asarray(p, dtype=float)
            kind = "start" if k == 0 else "synthetic"
            records.append(
                TraceRecord(max(0, k - 1), -1 if k == 0 else 0, kind, p, np.zeros(0))
            )
        return cls(records, status=status)


def _distances(problem: ProblemInstance, x):
    nearest = []
    dists = np.empty(len(problem.sets))
    for l, s in enumerate(problem.sets):
        p, d = sets_mod.project(s, x)
        nearest.append(p)
        dists[l] = d
    return nearest, dists


def merit_value(problem: ProblemInstance, merit: str, x) -> float:
    """Evaluate a named merit function; zero exactly on the intersection.

    "sum-of-squares" is the sum of squared set distances, "max-distance"
    the largest set distance, and "intersection-distance" the distance to
    the intersection itself (requires problem.intersection_oracle).
    """
    if merit == "intersection-distance":
        if problem.intersection_oracle is None:
            raise ValueError("intersection-distance merit needs an intersection oracle")
        _, d = sets_mod.project(problem.intersection_oracle, x)
        return float(d)
    _, dists = _distances(problem, x)
    if merit == "sum-of-squares":
        return float(dists @ dists)
    if merit == "max-distance":
        return float(dists.max())
    raise ValueError(f"unknown merit {merit!r}")


def _qp_attempt(constraints, x):
    """QP with the drop-oldest / relax-equalities ladder.

    Returns (result, step_kind); (None, None) when every rung leaves the
    polyhedron empty.
    """
    work = list(constraints)
    kind = "qp-step"
    while True:
        res = polyhedra.project_onto_polyhedron(polyhedra.Polyhedron(work), x)
        if res.status == "optimal":
            return res, kind
        outers = sorted({h.outer_iteration for h in work})
        if len(outers) > 1:
            work = [h for h in work if h.outer_iteration != outers[0]]
            kind = "qp-drop-oldest"
            continue
        break
    if any(h.kind == "equality" for h in work):
        relaxed = [
            polyhedra.Halfspace(
                h.normal, h.offset, "inequality", h.source_set, h.outer_iteration, h.inner_step
            )
            for h in work
        ]
        res = polyhedra.project_onto_polyhedron(polyhedra.Polyhedron(relaxed), x)
        if res.status == "optimal":
            return res, "qp-inequality-relaxation"
    return None, None


def _zero_gap_tangent(s, x, came_from):
    """Unit normal of a manifold at a point the iterate already sits on.

    Once an iterate lands on one manifold of the family, its projection gap
    there vanishes and the set would stop contributing constraints, dropping
    the pooled QP back to single-set projections.  Keeping the tangent
    hyperplane through x in play preserves the coupled (Newton-like) step.
    Prefers the set's own normal field; otherwise recovers the normal from
    the projection residual of the previous iterate.  Returns None when no
    reliable direction exists.
    """
    g = s.analytic_normal(x)
    if g is not None:
        g = np.asarray(g, dtype=float)
        ng = np.linalg.norm(g)
        if ng > 1e-14 and np.all(np.isfinite(g)):
            return g / ng
    if came_from is None:
        return None
    p, dist = sets_mod.project(s, came_from)
    if dist <= 1e-12:
        return None
    return (np.asarray(came_from, dtype=float) - p) / dist


def _run_engine(
    problem: ProblemInstance,
    x0,
    schedule: Schedule,
    config: SolverConfig,
    force_inequality: bool = False,
    persistent: bool = False,
) -> Trace:
    x = np.asarray(x0 if x0 is not None else problem.start, dtype=float).copy()
    m = len(problem.sets)
    schedule.validate_for(m)
    zero_gap = max(config.stop_tolerance, _ZERO_GAP_FLOOR)
    pool: list[polyhedra.Halfspace] = []
    nearest, dists = _distances(problem, x)
    records = [TraceRecord(0, -1, "start", x.copy(), dists.copy())]
    trace = Trace(records)
    status = "max-iterations"
    fallback_streak = 0
    fallback_last = np.inf
    came_from = None

    for i in range(config.max_outer_iterations):
        if i > 0:
            nearest, dists = _distances(problem, x)
        if dists.max() <= config.stop_tolerance:
            status = "converged"
            break
        if persistent:
            # Memory window: keep constraints from the last pbar iterations.
            pool = [h for h in pool if h.outer_iteration >= i - config.pbar]
        else:
            # Inequality cuts from earlier iterations remain valid outer
            # approximations (the relaxation absorbs curvature), so they are
            # kept within the same window.  Tangent hyperplanes are only
            # trustworthy where they were built: stale equalities would pin
            # the QP to an old linearization, so they expire with their
            # iteration.
            pool = [
                h
                for h in pool
                if h.kind == "inequality" and h.outer_iteration >= i - config.pbar
            ]
        moved = False
        halted = False
        for j, group in enumerate(schedule.groups(dists)):
            if j == 0:
                cur_nearest, cur_dists = nearest, dists
            else:
                cur_nearest, cur_dists = _distances(problem, x)
            fresh: list[tuple[polyhedra.Halfspace, np.ndarray | None]] = []
            for l in group:
                p, dl = cur_nearest[l], cur_dists[l]
                s = problem.sets[l]
                if dl <= zero_gap:
                    # The iterate already sits on this set.  A manifold still
                    # constrains the move through its tangent hyperplane at x;
                    # a convex set that is satisfied simply drops out.
                    if s.is_manifold and not force_inequality:
                        v = _zero_gap_tangent(s, x, came_from)
                        if v is not None:
                            fresh.append(
                                (
                                    polyhedra.Halfspace(v, float(v @ x), "equality", l, i, j),
                                    None,
                                )
                            )
                    continue
                manifold = s.is_manifold and not force_inequality
                tau = config.tau_at(i)
                if manifold or (config.tau_zero_for_convex and s.is_convex):
                    tau = 0.0
                hs = polyhedra.halfspace_from_projection(
                    x,
                    p,
                    is_manifold=manifold,
                    tau=tau,
                    source_set=l,
                    outer_iteration=i,
                    inner_step=j,
                )
                target = p if manifold else polyhedra.relaxed_point(p, x, tau)
                fresh.append((hs, target))
            if not fresh:
                continue
            if schedule.pairing == "latest":
                for hs, _ in fresh:
                    pool = [
                        h
                        for h in pool
                        if (h.source_set, h.outer_iteration)
                        != (hs.source_set, hs.outer_iteration)
                    ]
                    pool.append(hs)
                qp_cons = sorted(
                    pool, key=lambda h: (h.outer_iteration, h.inner_step, h.source_set)
                )
            else:
                qp_cons = [hs for hs, _ in fresh]
            if all(t is None for _, t in fresh) and all(
                h.violation(x) <= 1e-12 for h in qp_cons
            ):
                # Only tangent constraints, all satisfied at x: nothing to
                # project onto, leave the iterate alone.
                continue
            if (
                len(qp_cons) == 1
                and qp_cons[0] is fresh[-1][0]
                and fresh[-1][1] is not None
            ):
                # Projecting onto a single supporting constraint built from x
                # lands exactly on the relaxation target; skip the QP.
                hs, target = fresh[-1]
                came_from = x
                x = target.copy()
                _, rec_d = _distances(problem, x)
                records.append(
                    TraceRecord(
                        i, j, f"set-projection-{hs.source_set + 1}", x.copy(), rec_d, 1, 0.0
                    )
                )
                moved = True
                continue
            res, kind = _qp_attempt(qp_cons, x)
            if res is not None:
                came_from = x
                x = res.point.copy()
                _, rec_d = _distances(problem, x)
                records.append(
                    TraceRecord(
                        i, j, kind, x.copy(), rec_d, len(res.active_set), res.kkt_residual
                    )
                )
                moved = True
                continue
            # Every QP rung failed: take a plain projection onto the
            # farthest set so the run can keep making progress.
            prev = x
            x, fallback_streak, fallback_last, ok = _fallback_projection(
                problem, x, records, i, j, fallback_streak, fallback_last
            )
            if x is not prev:
                came_from = prev
            if not ok:
                status = "qp-infeasible-fallback-exhausted"
                halted = True
                break
            moved = True
        if halted:
            break
        if not moved:
            prev = x
            x, fallback_streak, fallback_last, ok = _fallback_projection(
                problem, x, records, i, m, fallback_streak, fallback_last
            )
            if x is not prev:
                came_from = prev
            if not ok:
                status = "qp-infeasible-fallback-exhausted"
                break

    trace.status = status
    return trace


def _fallback_projection(problem, x, records, i, j, streak, last_dist):
    nearest, dists = _distances(problem, x)
    worst = float(dists.max())
    if worst >= last_dist - 1e-16:
        streak += 1
    else:
        streak = 1
    if streak >= 3:
        return x, streak, worst, False
    l = int(np.argmax(dists))
    x_new = nearest[l].copy()
    if np.linalg.norm(x_new - x) <= _NO_MOVE:
        return x, 3, worst, False
    _, rec_d = _distances(problem, x_new)
    records.append(TraceRecord(i, j, "fallback-projection", x_new.copy(), rec_d, 0, 0.0))
    return x_new, streak, worst, True


def run_basic_shqp(
    problem,
    x0=None,
    schedule: Schedule | None = None,
    config: SolverConfig | None = None,
) -> Trace:
    """Supporting-halfspace method over an explicit inner-step schedule.

    Each inner step projects onto its block of sets, converts the nonzero
    gaps into constraints, and moves to the nearest point of the surviving
    pool (pairing "latest") or of just the fresh constraints ("fixed").
    The default schedule is cyclic with pooled pairing.
    """
    config = config or SolverConfig()
    if schedule is None:
        schedule = Schedule.cyclic(len(problem.sets))
    return _run_engine(problem, x0, schedule, config)


def run_map(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Cyclic projections: the schedule engine with singleton pairing and
    tau = 0, so every move is the plain set projection itself."""
    base = config or SolverConfig()
    cfg = dataclasses.replace(base, tau=0.0, tau_schedule=None)
    return _run_engine(problem, x0, Schedule.cyclic(len(problem.sets), "fixed"), cfg)


def run_mass_projection(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Simultaneous supporting halfspaces: every set contributes from the
    same outer point, then one QP per outer iteration."""
    return _run_engine(
        problem, x0, Schedule.mass(len(problem.sets)), config or SolverConfig()
    )


def run_memory_shqp(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Greedy farthest-set method with constraint memory.

    One relaxed inequality per outer iteration from the farthest set
    (manifolds included — the method never emits equalities), windowed by
    pbar, QP from the current point.
    """
    config = config or SolverConfig()
    if config.pbar < 1:
        raise ValueError("the memory method needs pbar >= 1")
    return _run_engine(
        problem, x0, Schedule.farthest(), config, force_inequality=True, persistent=True
    )


def run_two_shqp(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Two-set method: both projections advance the iterate, then a QP fires
    only when the turn angle at the first projection is acute.

    With x the incoming point, x1 its projection onto the first set and x2
    the projection of x1 onto the second (each recorded when it moves), an
    acute angle at x1 (positive <x - x1, x2 - x1>) triggers projecting x2
    onto {<y - x1, x - x1> <= 0} and {<y - x2, x1 - x2> <= 0}.  Otherwise
    the iterate is repeated verbatim: that no-move step is tallied in
    copy_steps rather than recorded.  Degenerate legs shorter than 1e-14
    take the copy branch too, as does an empty two-halfspace polyhedron.
    """
    config = config or SolverConfig()
    if len(problem.sets) != 2:
        raise ValueError("the two-set method needs exactly two sets")
    x = np.asarray(x0 if x0 is not None else problem.start, dtype=float).copy()
    _, dists = _distances(problem, x)
    records = [TraceRecord(0, -1, "start", x.copy(), dists.copy())]
    trace = Trace(records)
    status = "max-iterations"
    for i in range(config.max_outer_iterations):
        if i > 0:
            _, dists = _distances(problem, x)
        if dists.max() <= config.stop_tolerance:
            status = "converged"
            break
        moved = False
        x1, _ = sets_mod.project(problem.sets[0], x)
        if np.linalg.norm(x1 - x) > _NO_MOVE:
            _, rec_d = _distances(problem, x1)
            records.append(TraceRecord(i, 0, "set-projection-1", x1.copy(), rec_d))
            moved = True
        x2, _ = sets_mod.project(problem.sets[1], x1)
        if np.linalg.norm(x2 - x1) > _NO_MOVE:
            _, rec_d = _distances(problem, x2)
            records.append(TraceRecord(i, 1, "set-projection-2", x2.copy(), rec_d))
            moved = True
        u = x - x1
        w = x2 - x1
        degenerate = np.linalg.norm(u) <= 1e-14 or np.linalg.norm(w) <= 1e-14
        stepped = False
        if not degenerate and u @ w > 0.0:
            cons = [
                polyhedra.Halfspace(u, float(u @ x1), "inequality", 0, i, 0),
                polyhedra.Halfspace(x1 - x2, float((x1 - x2) @ x2), "inequality", 1, i, 0),
            ]
            res = polyhedra.project_onto_polyhedron(polyhedra.Polyhedron(cons), x2)
            if res.status == "optimal":
                x = res.point.copy()
                _, rec_d = _distances(problem, x)
                records.append(
                    TraceRecord(
                        i, 2, "qp-step", x.copy(), rec_d, len(res.active_set), res.kkt_residual
                    )
                )
                stepped = True
        if not stepped:
            x = x2.copy()
            trace.copy_steps += 1
            if not moved:
                status = "stalled"
                break
    trace.status = status
    return trace


def run_averaged_projections(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Move to the mean of all set projections each iteration.

    The sum of squared set distances (recoverable from each record's
    distance column) never increases along these steps, whatever the sets
    are.  A fixed point that is not in the intersection stops the run.
    """
    config = config or SolverConfig()
    x = np.asarray(x0 if x0 is not None else problem.start, dtype=float).copy()
    nearest, dists = _distances(problem, x)
    records = [TraceRecord(0, -1, "start", x.copy(), dists.copy())]
    trace = Trace(records)
    status = "max-iterations"
    for i in range(config.max_outer_iterations):
        if i > 0:
            nearest, dists = _distances(problem, x)
        if dists.max() <= config.stop_tolerance:
            status = "converged"
            break
        x_new = np.mean(nearest, axis=0)
        if np.linalg.norm(x_new - x) <= _NO_MOVE:
            status = "stalled"
            break  # fixed point of the averaging map outside the intersection
        x = x_new
        _, rec_d = _distances(problem, x)
        records.append(TraceRecord(i, 0, "averaged-step", x.copy(), rec_d, 0, 0.0))
    trace.status = status
    return trace


def global_step(problem, x, polyhedron, merit: str, config: SolverConfig):
    """One globalized step controlled by a merit function.

    Tries the pool-QP point first; if the merit does not decrease, drops the
    oldest constraint and re-solves (warm-started) until the pool runs out,
    then bisects t over {1, 1/2, ..., 2^-8} on t * qp_point +
    (1 - t) * averaged_point.  Returns (next_point, accepted, record_fields)
    with record_fields = (step_kind, active_size, kkt_residual); accepted is
    False when nothing decreased the merit (the caller then takes the pure
    averaged step).
    """
    x = np.asarray(x, dtype=float)
    base = merit_value(problem, merit, x)
    if base == 0.0:
        return x, True, ("qp-step", 0, 0.0)
    cons = list(polyhedron)
    first_qp = None
    warm: tuple = ()
    while cons:
        res = polyhedra.project_onto_polyhedron(
            polyhedra.Polyhedron(cons), x, warm_start=warm
        )
        if res.status == "optimal":
            fields = (len(res.active_set), res.kkt_residual)
            if first_qp is None:
                first_qp = (res.point, fields)
            if merit_value(problem, merit, res.point) < base:
                kind = "qp-step" if len(cons) == len(polyhedron) else "qp-drop-oldest"
                return res.point.copy(), True, (kind, *fields)
            warm = res.active_set
        # Dropping the oldest row shifts every index down by one.
        cons = cons[1:]
        warm = tuple(w - 1 for w in warm if w > 0)
    if first_qp is None:
        return x, False, None
    nearest, _ = _distances(problem, x)
    x_avg = np.mean(nearest, axis=0)
    x_qp, fields = first_qp
    t = 1.0
    for _ in range(9):
        cand = t * x_qp + (1.0 - t) * x_avg
        if merit_value(problem, merit, cand) < base:
            return cand, True, ("line-search", *fields)
        t *= 0.5
    return x, False, None


def run_global(
    problem,
    x0=None,
    config: SolverConfig | None = None,
    merit: str = "sum-of-squares",
) -> Trace:
    """Globalized method: refresh the pool from every set, take the QP step
    only when the merit function decreases, otherwise fall back to the
    averaged-projection step."""
    config = config or SolverConfig()
    x = np.asarray(x0 if x0 is not None else problem.start, dtype=float).copy()
    m = len(problem.sets)
    zero_gap = max(config.stop_tolerance, _ZERO_GAP_FLOOR)
    pool: list[polyhedra.Halfspace] = []
    nearest, dists = _distances(problem, x)
    records = [TraceRecord(0, -1, "start", x.copy(), dists.copy())]
    trace = Trace(records)
    status = "max-iterations"
    for i in range(config.max_outer_iterations):
        if i > 0:
            nearest, dists = _distances(problem, x)
        if dists.max() <= config.stop_tolerance:
            status = "converged"
            break
        pool = [h for h in pool if h.outer_iteration >= i - config.pbar]
        for l in range(m):
            if dists[l] <= zero_gap:
                continue
            s = problem.sets[l]
            tau = config.tau_at(i)
            if config.tau_zero_for_convex and s.is_convex:
                tau = 0.0
            # Pool across iterations as halfspaces only: stale tangent
            # hyperplanes from curved manifolds would pin or empty the QP.
            hs = polyhedra.halfspace_from_projection(
                x,
                nearest[l],
                is_manifold=False,
                tau=tau,
                source_set=l,
                outer_iteration=i,
                inner_step=0,
            )
            pool = [
                h
                for h in pool
                if (h.source_set, h.outer_iteration) != (hs.source_set, hs.outer_iteration)
            ]
            pool.append(hs)
        accepted = False
        fields = None
        if pool:
            ordered = sorted(pool, key=lambda h: (h.outer_iteration, h.inner_step, h.source_set))
            x_next, accepted, fields = global_step(
                problem, x, polyhedra.Polyhedron(ordered), merit, config
            )
        if accepted:
            kind, active, kkt = fields
            x_new = x_next
        else:
            kind, active, kkt = "averaged-step", 0, 0.0
            x_new = np.mean(nearest, axis=0)
        if np.linalg.norm(x_new - x) <= _NO_MOVE:
            status = "stalled"
            break  # no step decreased the merit and the average froze
        x = np.asarray(x_new, dtype=float)
        _, rec_d = _distances(problem, x)
        records.append(TraceRecord(i, 0, kind, x.copy(), rec_d, active, kkt))
    trace.status = status
    return trace


SOLVERS = {
    "map": run_map,
    "basic-shqp": run_basic_shqp,
    "mass": run_mass_projection,
    "memory-shqp": run_memory_shqp,
    "two-shqp": run_two_shqp,
    "averaged": run_averaged_projections,
    "global": run_global,
}
