"""Set-intersection solvers built on supporting halfspaces and a QP
projection step.

Every method runs one outer loop, ``_run``, with a step rule of its own.
The loop records the start, tests convergence and spends the iteration
budget; a step rule projects the iterate onto the sets, turns each
projection into a supporting halfspace (or a supporting hyperplane for
manifolds) and moves by a small QP over them.  The pooled rule keeps its
constraints in a pool with a finite memory window; its schedule, pairing
rule and relaxation parameter give cyclic projections, simultaneous
supporting halfspaces and the greedy farthest-set method with memory.

Every solver call remembers the last point it projected, with its
projections onto every set.  A step records each point it moves to, and the
stop test and the next step ask for that same point, so each point is
projected onto each set once; the one older point a step reuses, a tangent
hyperplane's previous iterate, is kept by the pooled rule together with its
projections.  An oracle that fails to converge ends the run with status
"oracle-failed" instead of raising.

Arithmetic.  Past the oracles and the QP, a step's cost is mostly numpy's
fixed cost per call on arrays of two or three entries, so the engine takes
a cheaper call wherever it gives the same bits, and keeps numpy wherever a
reduction decides.  The averaged and global means are ``_mean``, the bits
of ``np.add.reduce(P, axis=0) / k``, the sum and the divide that
``np.mean`` runs on float64 points: numpy adds the rows of a (k, n) stack
in order, starting from 0.0, so fewer than 8 points of two or more
coordinates are added that way without stacking the tuple into an array,
and 8 or more points, or 1-d points, whose column numpy sums pairwise,
keep the reduce.  The no-move and degeneracy tests take the norm of a
fresh difference of two points with ``sets._norm``, the dot and square
root that ``np.linalg.norm`` takes on a C-contiguous 1-d array, and that
overflows in the same dot with the same warning.  A normal that may be a
strided view (an oracle's analytic normal, a caller's Halfspace normal)
goes through ``polyhedra._vector_norm``, which keeps numpy's norm for it,
since a dot over a strided view can sum in another order.  The stop test
compares each distance, as a Python float, with the tolerance, and
``NaN <= tol`` is false, so as with numpy's max a NaN distance never counts
as converged; the fallback's choice stays numpy's max and argmax of the
distance column.  A step that reads no cut builds none: a fixed-pairing
step on one set moves to the cut's boundary point
(``polyhedra._boundary_point``) without the Halfspace.  Asking for the
last point's projections again costs a ``tobytes`` and one comparison.
"""

from __future__ import annotations

import dataclasses
import math
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

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1)")
        for name in ("pbar", "max_outer_iterations"):
            setattr(self, name, sets_mod._integer(getattr(self, name), name))
        if self.pbar < 0:
            raise ValueError("pbar must be nonnegative")
        if self.max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")
        if not 0.0 < self.stop_tolerance < math.inf:
            raise ValueError("stop tolerance must be finite and positive")
        # A callable schedule is checked at each boundary point
        # (polyhedra._boundary_point), whether or not a cut is built there.
        if self.tau_schedule is not None and not callable(self.tau_schedule):
            if not len(self.tau_schedule):
                raise ValueError("tau schedule must not be empty")
            if not all(0.0 <= v < 1.0 for v in self.tau_schedule):
                raise ValueError("tau schedule entries must lie in [0, 1)")

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

    Per-set distances are computed once per point, and consecutive
    recorded points always differ (a stalled run stops instead of
    repeating itself).  A run whose set oracle fails ends with status
    "oracle-failed"; ``oracle_failure`` then names the set (its index, or
    None for the problem's intersection oracle) and the error, and the
    start row carries NaN distances if the start itself failed.
    """

    records: list
    status: str = "running"
    copy_steps: int = 0
    oracle_failure: dict | None = None

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


class _Projections:
    """Projections of one solver call's points onto every set.

    It remembers the last point it projected, keyed by the point's bytes,
    so asking again for that point is bit-identical to projecting it afresh;
    ``intersection_distance`` remembers its last point the same way.  A
    point is projected when it is recorded, and the stop test, the next
    step, the two-set method's middle point and the merits of the global
    rule's candidates ask for the point projected last, so each (set,
    point) pair is projected once.  Distances are returned read-only.  A
    failing oracle is described in ``failure`` before its
    ProjectionNotConvergedError propagates.
    """

    def __init__(self, problem: ProblemInstance):
        self.problem = problem
        self.failure: dict | None = None
        self._last = self._last_distance = (None, None)

    def at(self, x: np.ndarray):
        """(nearest points, distances) from x to every set."""
        key = x.tobytes()
        if key != self._last[0]:
            self._last = key, self._all_sets(x)
        return self._last[1]

    def intersection_distance(self, x: np.ndarray) -> float:
        oracle = self.problem.intersection_oracle
        for l, s in enumerate(self.problem.sets):
            if s is oracle:  # a one-set problem is its own intersection
                return self.at(x)[1][l]
        key = x.tobytes()
        if key != self._last_distance[0]:
            self._last_distance = key, self._project(None, oracle, x)[1]
        return self._last_distance[1]

    def _all_sets(self, x):
        nearest = []
        dists = np.empty(len(self.problem.sets))
        for l, s in enumerate(self.problem.sets):
            p, dists[l] = self._project(l, s, x)
            nearest.append(p)
        dists.flags.writeable = False
        return tuple(nearest), dists

    def _project(self, index, oracle, x):
        try:
            return sets_mod.project(oracle, x)
        except sets_mod.ProjectionNotConvergedError as exc:
            self.failure = {"set_index": index, "set_kind": oracle.kind, "message": str(exc)}
            raise


def _record(proj: _Projections, trace: Trace, i, j, kind, x, active=0, kkt=0.0):
    """Append a trace row at x that owns copies of the point and its
    distances; returns x."""
    dists = proj.at(x)[1]
    trace.records.append(TraceRecord(i, j, kind, x.copy(), dists.copy(), active, kkt))
    return x


def _run(problem: ProblemInstance, x0, config: SolverConfig, step) -> Trace:
    """The outer loop of every solver.

    Records the start, then in outer iteration i stops with "converged" once
    every set is within stop_tolerance, and otherwise lets the method's step
    rule ``step(proj, x, i, trace)`` record the points it moves through and
    return the next iterate, or a terminal status string that ends the run.
    The stop test asks ``proj`` for the iterate, which it remembers when the
    step recorded it last; an iterate the step did not record is projected
    here, so only if the run goes on.
    A run that spends max_outer_iterations ends with "max-iterations".  An
    oracle failure ends the run with status "oracle-failed" and keeps the
    records made so far.
    """
    proj = _Projections(problem)
    x = np.asarray(x0 if x0 is not None else problem.start, dtype=float).copy()
    trace = Trace([])
    tol = config.stop_tolerance
    try:
        _record(proj, trace, 0, -1, "start", x)
        for i in range(config.max_outer_iterations):
            # NaN <= tol is False, so a NaN distance never converges.
            if all(d <= tol for d in proj.at(x)[1].tolist()):
                trace.status = "converged"
                return trace
            out = step(proj, x, i, trace)
            if isinstance(out, str):
                trace.status = out
                return trace
            x = out
        trace.status = "max-iterations"
    except sets_mod.ProjectionNotConvergedError:
        if not trace.records:
            nan = np.full(len(problem.sets), np.nan)
            trace.records.append(TraceRecord(0, -1, "start", x, nan))
        trace.status = "oracle-failed"
        trace.oracle_failure = proj.failure
    return trace


def _merit(proj: _Projections, merit: str, x) -> float:
    if merit == "intersection-distance":
        if proj.problem.intersection_oracle is None:
            raise ValueError("intersection-distance merit needs an intersection oracle")
        return float(proj.intersection_distance(x))
    _, dists = proj.at(x)
    if merit == "sum-of-squares":
        return float(dists @ dists)
    if merit == "max-distance":
        return float(dists.max())
    raise ValueError(f"unknown merit {merit!r}")


def merit_value(problem: ProblemInstance, merit: str, x) -> float:
    """Evaluate a named merit function; zero exactly on the intersection.

    "sum-of-squares" is the sum of squared set distances, "max-distance"
    the largest set distance, and "intersection-distance" the distance to
    the intersection itself (requires problem.intersection_oracle).
    Nothing in the package calls it; it stays public because the
    benchmark's span table hooks it (bench/spans.py).
    """
    return _merit(_Projections(problem), merit, np.asarray(x, dtype=float))


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
        relaxed = [dataclasses.replace(h, kind="inequality") for h in work]
        res = polyhedra.project_onto_polyhedron(polyhedra.Polyhedron(relaxed), x)
        if res.status == "optimal":
            return res, "qp-inequality-relaxation"
    return None, None


def _zero_gap_tangent(proj, l, x, came_from):
    """Unit normal of manifold l at a point the iterate already sits on.

    Once an iterate lands on one manifold of the family, its projection gap
    there vanishes and the set would stop contributing constraints, dropping
    the pooled QP back to single-set projections.  Keeping the tangent
    hyperplane through x in play preserves the coupled (Newton-like) step.
    Prefers the set's own normal field; otherwise recovers the normal from
    the projection residual of the previous iterate, ``came_from`` being
    that iterate and its projections.  Returns None when no reliable
    direction exists.
    """
    g = proj.problem.sets[l].analytic_normal(x)
    if g is not None:
        g = np.asarray(g, dtype=float)
        ng = polyhedra._vector_norm(g)
        if ng > 1e-14 and np.all(np.isfinite(g)):
            return g / ng
    if came_from is None:
        return None
    y, (nearest, dists) = came_from
    if dists[l] <= 1e-12:
        return None
    return (y - nearest[l]) / dists[l]


class _PooledRule:
    """Step rule of map, basic-shqp (which describes the step), mass and
    memory-shqp.  It keeps the pool, the previous iterate with its
    projections and the fallback streak across outer iterations.
    ``force_inequality`` makes manifolds contribute relaxed inequalities, so
    no equality ever enters the pool.
    """

    def __init__(self, schedule: Schedule, config: SolverConfig, force_inequality=False):
        self.schedule = schedule
        self.config = config
        self.hyperplanes = not force_inequality
        self.pool: list[polyhedra.Halfspace] = []
        self.came_from = None
        self.streak = 0
        self.last_worst = np.inf

    def window(self, i):
        """Keep the inequalities of the last pbar outer iterations: they stay
        valid outer approximations (the relaxation absorbs curvature), while
        a stale tangent hyperplane would pin the QP to an old linearization."""
        oldest = i - self.config.pbar
        self.pool = [h for h in self.pool if h.kind == "inequality" and h.outer_iteration >= oldest]

    def cuts(self, proj, x, i, j, group, build=True):
        """(cut, target) for each set of ``group`` that x is not on.

        target is where projecting x onto the cut alone lands: the boundary
        point (polyhedra._boundary_point) that polyhedra._supporting_cut
        builds the cut through, from the one gap x - nearest.  Its distance
        is above the zero-gap floor, so the gap is nonzero without taking its
        norm again.  With ``build`` false the cut of a gap is None, for a
        caller that moves to target and reads no cut: the boundary point and
        its tau check are computed, the Halfspace is not.  target is None for
        the tangent hyperplane of a manifold the iterate already sits on,
        which is always built, since its violation is read.  A convex set
        that x already belongs to drops out.
        """
        config = self.config
        zero_gap = max(config.stop_tolerance, _ZERO_GAP_FLOOR)
        nearest, dists = proj.at(x)
        fresh: list[tuple[polyhedra.Halfspace, np.ndarray | None]] = []
        for l in group:
            s = proj.problem.sets[l]
            manifold = s.is_manifold and self.hyperplanes
            if dists[l] <= zero_gap:
                if manifold:
                    v = _zero_gap_tangent(proj, l, x, self.came_from)
                    if v is not None:
                        fresh.append((polyhedra._supporting_cut(v, x, True, 0.0, l, i, j)[0], None))
                continue
            tau = config.tau_at(i)
            if manifold or (config.tau_zero_for_convex and s.is_convex):
                tau = 0.0
            gap = x - nearest[l]
            if build:
                fresh.append(polyhedra._supporting_cut(gap, nearest[l], manifold, tau, l, i, j))
            else:
                fresh.append((None, polyhedra._boundary_point(gap, nearest[l], manifold, tau)))
        return fresh

    def admit(self, fresh):
        """Pool the fresh cuts, each replacing its set's cut from the same
        outer iteration, and return the pool oldest first."""
        for hs, _ in fresh:
            key = (hs.source_set, hs.outer_iteration)
            self.pool = [h for h in self.pool if (h.source_set, h.outer_iteration) != key]
            self.pool.append(hs)
        return sorted(self.pool, key=lambda h: (h.outer_iteration, h.inner_step, h.source_set))

    def move(self, proj, trace, x, x_new, i, j, kind, active=0, kkt=0.0):
        self.came_from = x, proj.at(x)
        return _record(proj, trace, i, j, kind, x_new, active, kkt)

    def fallback(self, proj, trace, x, i, j):
        """Project onto the farthest set, unless the farthest distance has
        not shrunk over three tries in a row or the projection stays put."""
        nearest, dists = proj.at(x)
        worst = float(dists.max())
        self.streak = self.streak + 1 if worst >= self.last_worst - 1e-16 else 1
        self.last_worst = worst
        x_new = nearest[int(dists.argmax())]
        if self.streak >= 3 or sets_mod._norm(x_new - x) <= _NO_MOVE:
            return "qp-infeasible-fallback-exhausted"
        return self.move(proj, trace, x, x_new, i, j, "fallback-projection")

    def __call__(self, proj, x, i, trace):
        self.window(i)
        moved = False
        latest = self.schedule.pairing == "latest"
        for j, group in enumerate(self.schedule.groups(proj.at(x)[1])):
            # A fixed-pairing step on one set moves to its target (below)
            # and reads no cut, unless the cut is a tangent hyperplane.
            fresh = self.cuts(proj, x, i, j, group, build=latest or len(group) > 1)
            if not fresh:
                continue
            qp_cons = self.admit(fresh) if latest else [hs for hs, _ in fresh]
            if all(t is None for _, t in fresh) and all(h.violation(x) <= 1e-12 for h in qp_cons):
                # Only tangent constraints, all satisfied at x: nothing to
                # project onto, leave the iterate alone.
                continue
            hs, target = fresh[-1]
            if len(qp_cons) == 1 and target is not None:
                # Projecting onto a single supporting constraint built from x
                # lands exactly on the relaxation target; skip the QP.  The
                # pool holds every fresh cut, so that constraint is hs, or
                # the unbuilt cut of a one-set group.
                source = group[0] if hs is None else hs.source_set
                kind = f"set-projection-{source + 1}"
                x = self.move(proj, trace, x, target, i, j, kind, 1)
            else:
                res, kind = _qp_attempt(qp_cons, x)
                if res is not None:
                    active, kkt = len(res.active_set), res.kkt_residual
                    x = self.move(proj, trace, x, res.point, i, j, kind, active, kkt)
                else:
                    # Every QP rung failed: take a plain projection onto the
                    # farthest set so the run can keep making progress.
                    out = self.fallback(proj, trace, x, i, j)
                    if isinstance(out, str):
                        return out
                    x = out
            moved = True
        if not moved:
            return self.fallback(proj, trace, x, i, len(proj.problem.sets))
        return x


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
    schedule.validate_for(len(problem.sets))
    return _run(problem, x0, config, _PooledRule(schedule, config))


def run_map(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Cyclic projections: the pooled rule with singleton pairing and
    tau = 0, so every move is the plain set projection itself."""
    base = config or SolverConfig()
    cfg = dataclasses.replace(base, tau=0.0, tau_schedule=None)
    return _run(problem, x0, cfg, _PooledRule(Schedule.cyclic(len(problem.sets), "fixed"), cfg))


def run_mass_projection(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Simultaneous supporting halfspaces: every set contributes from the
    same outer point, then one QP per outer iteration."""
    config = config or SolverConfig()
    return _run(problem, x0, config, _PooledRule(Schedule.mass(len(problem.sets)), config))


def run_memory_shqp(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Greedy farthest-set method with constraint memory.

    One relaxed inequality per outer iteration from the farthest set
    (manifolds included — the method never emits equalities), windowed by
    pbar, QP from the current point.
    """
    config = config or SolverConfig()
    if config.pbar < 1:
        raise ValueError("the memory method needs pbar >= 1")
    rule = _PooledRule(Schedule.farthest(), config, force_inequality=True)
    return _run(problem, x0, config, rule)


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
    return _run(problem, x0, config, _two_shqp_step)


def _two_shqp_step(proj, x, i, trace):
    moved = False
    x1 = proj.at(x)[0][0]
    if sets_mod._norm(x1 - x) > _NO_MOVE:
        _record(proj, trace, i, 0, "set-projection-1", x1)
        moved = True
    x2 = proj.at(x1)[0][1]
    if sets_mod._norm(x2 - x1) > _NO_MOVE:
        _record(proj, trace, i, 1, "set-projection-2", x2)
        moved = True
    u, w = x - x1, x2 - x1
    degenerate = sets_mod._norm(u) <= 1e-14 or sets_mod._norm(w) <= 1e-14
    if not degenerate and u @ w > 0.0:
        cons = [
            polyhedra._supporting_cut(u, x1, False, 0.0, 0, i, 0)[0],
            polyhedra._supporting_cut(x1 - x2, x2, False, 0.0, 1, i, 0)[0],
        ]
        res, kind = _qp_attempt(cons, x2)
        if res is not None:
            active, kkt = len(res.active_set), res.kkt_residual
            return _record(proj, trace, i, 2, kind, res.point, active, kkt)
    trace.copy_steps += 1
    if not moved:
        return "stalled"
    return x2


def run_averaged_projections(problem, x0=None, config: SolverConfig | None = None) -> Trace:
    """Move to the mean of all set projections each iteration.

    The sum of squared set distances (recoverable from each record's
    distance column) never increases along these steps, whatever the sets
    are.  A fixed point that is not in the intersection stops the run.
    """
    return _run(problem, x0, config or SolverConfig(), _averaged_step)


def _averaged_step(proj, x, i, trace, x_avg=None):
    """Move to x_avg, the mean of x's projections unless the caller passes
    it in; a fixed point of the averaging map stops the run."""
    if x_avg is None:
        x_avg = _mean(proj.at(x)[0])
    return _settle(proj, trace, x, x_avg, i, "averaged-step")


def _mean(points):
    """np.add.reduce(points, axis=0) / len(points) of a tuple of 1-d float
    arrays, bit for bit.  numpy reduces a (k, n) stack along axis 0 by adding
    its rows in order to add's identity 0.0, so fewer than 8 points of two
    or more coordinates are added here in that order, without stacking them.
    A 1-d problem's column is one contiguous run, which numpy sums pairwise
    from 8 entries on and with NaN bits of its own below, so it keeps the
    reduce, as does any sum of 8 or more points (BENCH_33.json,
    "mean_bits")."""
    k = len(points)
    if k >= 8 or points[0].shape[0] == 1:
        return np.add.reduce(points, axis=0) / k
    total = 0.0 + points[0]
    for p in points[1:]:
        total += p
    return total / k


def _settle(proj, trace, x, x_new, i, kind, active=0, kkt=0.0):
    """Record the move from x to x_new, or stop when it does not move."""
    if sets_mod._norm(x_new - x) <= _NO_MOVE:
        return "stalled"
    return _record(proj, trace, i, 0, kind, x_new, active, kkt)


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
    return _run(problem, x0, config, _GlobalRule(config, merit))


class _GlobalRule(_PooledRule):
    """Step rule of the globalized method: every set contributes a relaxed
    inequality (stale tangent hyperplanes from curved manifolds would pin or
    empty the QP), and a step moves only where the merit decreases.

    The pool-QP point is tried first; then the oldest constraint is dropped
    and the QP re-solved (warm-started) until the pool runs out; then t is
    bisected over {1/2, ..., 2^-8} on t * qp_point + (1 - t) * averaged_point
    (t = 1 is the first QP point, already rejected).  When nothing decreases
    the merit, the pure averaged step moves.
    """

    def __init__(self, config: SolverConfig, merit: str):
        super().__init__(None, config, force_inequality=True)
        self.merit = merit

    def __call__(self, proj, x, i, trace):
        self.window(i)
        x_avg = _mean(proj.at(x)[0])
        pool = self.admit(self.cuts(proj, x, i, 0, range(len(proj.problem.sets))))
        if not pool:
            return _averaged_step(proj, x, i, trace, x_avg)
        base = _merit(proj, self.merit, x)
        if base == 0.0:  # no step can decrease the merit, and x stays put
            return "stalled"
        cons, warm, first_qp = pool, (), None
        while cons:
            res = polyhedra.project_onto_polyhedron(polyhedra.Polyhedron(cons), x, warm_start=warm)
            if res.status == "optimal":
                if first_qp is None:
                    first_qp = res
                if _merit(proj, self.merit, res.point) < base:
                    kind = "qp-step" if len(cons) == len(pool) else "qp-drop-oldest"
                    active, kkt = len(res.active_set), res.kkt_residual
                    return _settle(proj, trace, x, res.point, i, kind, active, kkt)
                warm = res.active_set
            # Dropping the oldest row shifts every index down by one.
            cons = cons[1:]
            warm = tuple(w - 1 for w in warm if w > 0)
        if first_qp is not None:
            t = 1.0
            for _ in range(8):
                t *= 0.5
                cand = t * first_qp.point + (1.0 - t) * x_avg
                if _merit(proj, self.merit, cand) < base:
                    active, kkt = len(first_qp.active_set), first_qp.kkt_residual
                    return _settle(proj, trace, x, cand, i, "line-search", active, kkt)
        return _averaged_step(proj, x, i, trace, x_avg)


SOLVERS = {
    "map": run_map,
    "basic-shqp": run_basic_shqp,
    "mass": run_mass_projection,
    "memory-shqp": run_memory_shqp,
    "two-shqp": run_two_shqp,
    "averaged": run_averaged_projections,
    "global": run_global,
}
