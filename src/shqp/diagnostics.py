"""Convergence-rate measurement and predicted worst-case constants.

analyze_trace turns an iterate history into Q-ratios, a tail rate, a fitted
convergence order, and a monotonicity flag.  estimate_regularity probes the
geometry near a solution to estimate the metric-inequality constant beta,
the normal-separation constant eta, a super-regularity profile, and a
second-order supporting bound.  predicted_bounds evaluates the closed-form
worst-case rate constants that the estimated quantities plug into.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import polyhedra
from . import sets as sets_mod
from . import solvers

__all__ = [
    "InsufficientDataError",
    "NoDistanceOracleError",
    "RateReport",
    "RegularityEstimate",
    "PredictedBounds",
    "analyze_trace",
    "estimate_regularity",
    "predicted_bounds",
]


_RADII = (0.25, 0.1, 0.05)


class InsufficientDataError(RuntimeError):
    """Trace too short for rate statistics (fewer than 5 usable errors)."""


class NoDistanceOracleError(RuntimeError):
    """Distance to the intersection could not be evaluated for a probe."""


@dataclasses.dataclass
class RateReport:
    """Error statistics of a run against a reference point.

    q_ratios are consecutive error quotients; pbar_ratios skip ``pbar``
    outer iterations per quotient.  tail_qlinear_rate is the geometric mean
    of the last quartile of q_ratios (minimum 4), estimated_order the
    least-squares slope of log e_{i+1} against log e_i over that tail, and
    fejer_ok reports whether the errors never increased (1e-10 slack).
    """

    errors: list[float]
    q_ratios: list[float]
    pbar_ratios: list[float]
    pbar: int
    tail_qlinear_rate: float
    estimated_order: float
    fejer_ok: bool


@dataclasses.dataclass
class RegularityEstimate:
    """Sampled geometry constants near a solution point.

    beta_hat bounds d(x, K) / max_l d(x, K_l) over probes; eta_hat is the
    separation of one sampled unit normal per set (minimized over manifold
    orientations); delta_profile maps each probe radius to the worst
    super-regularity ratio seen at that scale; sosh_M_hat is the largest
    sampled second-order supporting quotient.  distance_oracle records how
    d(x, K) was computed.
    """

    beta_hat: float
    eta_hat: float
    delta_profile: dict[float, float]
    sosh_M_hat: float
    distance_oracle: str
    probe_count: int


@dataclasses.dataclass
class PredictedBounds:
    """Worst-case constants from the closed-form rate formulas.

    rho_basic / c_basic bound the pooled-halfspace method's linear rate and
    step length for m sets with metric constant beta; rho_relaxed / L_relaxed
    are the tau-relaxed single-constraint analogues; rho_cap / L_cap fix
    tau = 1/2, and contraction = 8 * L_cap * tau bounds the pbar-step ratio
    of the memory method.  vacuous flags rho_basic >= 1 (the bound then says
    nothing; it is not an error).
    """

    rho_basic: float
    c_basic: float
    rho_relaxed: float
    L_relaxed: float
    rho_cap: float
    L_cap: float
    contraction: float
    vacuous: bool


def analyze_trace(trace, xbar=None, pbar: int = 1) -> RateReport:
    """Rate statistics of a trace's outer iterates against ``xbar``.

    When xbar is omitted the final iterate serves as the reference and is
    excluded from the error sequence.  Errors are kept only while they stay
    above the floor 100 * machine-epsilon * ||xbar||; at least 5 must
    survive.
    """
    if pbar < 1:
        raise ValueError("pbar must be at least 1")
    pts = trace.outer_points()
    if xbar is None:
        xbar = pts[-1]
        pts = pts[:-1]
    xbar = np.asarray(xbar, dtype=float)
    floor = 100.0 * np.finfo(float).eps * float(np.linalg.norm(xbar))
    errors: list[float] = []
    for p in pts:
        e = float(np.linalg.norm(np.asarray(p, dtype=float) - xbar))
        if e <= floor:
            break
        errors.append(e)
    if len(errors) < 5:
        raise InsufficientDataError(
            f"insufficient-data: {len(errors)} usable errors, need 5"
        )
    e = np.array(errors)
    q_ratios = (e[1:] / e[:-1]).tolist()
    tail_qlinear_rate, tail_n = _tail_geometric_mean(q_ratios)
    # Tail error pairs feed the log-log order fit.
    le = np.log(e[len(e) - tail_n - 1 :])
    if np.ptp(le[:-1]) < 1e-12:
        estimated_order = float("nan")
    else:
        estimated_order = float(np.polyfit(le[:-1], le[1:], 1)[0])
    fejer_ok = bool(np.all(e[1:] <= e[:-1] + 1e-10))
    pbar_ratios = (e[pbar:] / e[: len(e) - pbar]).tolist() if len(e) > pbar else []
    return RateReport(
        errors=errors,
        q_ratios=q_ratios,
        pbar_ratios=pbar_ratios,
        pbar=pbar,
        tail_qlinear_rate=tail_qlinear_rate,
        estimated_order=estimated_order,
        fejer_ok=fejer_ok,
    )


def _tail_geometric_mean(ratios) -> tuple[float, int]:
    """Geometric mean of the tail of a nonempty ratio list, and the tail's
    length: the last quartile, at least 4 ratios (all of them if fewer)."""
    n = min(len(ratios), max(4, math.ceil(0.25 * len(ratios))))
    tail = np.asarray(ratios[-n:], dtype=float)
    return float(np.exp(np.mean(np.log(tail)))), n


def _intersection_distances(problem, points):
    """d(x, K) for each of points, in order, as a generator that raises a
    point's error when its turn comes.  With the problem's intersection
    oracle, the points are projected as one batch on the first request
    (SetOracle._project_rows); otherwise a pooled-halfspace run from each
    point, made when its turn comes, supplies an upper proxy."""
    oracle = problem.intersection_oracle
    if oracle is not None:
        for out in oracle._project_rows(points):
            if isinstance(out, Exception):
                raise out
            yield float(out[1])
    else:
        proxy_config = solvers.SolverConfig(stop_tolerance=1e-12, max_outer_iterations=300)
        for x in points:
            trace = solvers.run_mass_projection(problem, x, proxy_config)
            if trace.status != "converged":
                raise NoDistanceOracleError(
                    "no-K-oracle: proxy run from a probe did not converge "
                    f"(status {trace.status})"
                )
            yield float(np.linalg.norm(np.asarray(x, float) - trace.final_point()))


def _sample_normal(oracle, xstar, radius, rng, tries: int = 50):
    """One unit normal of the set near xstar, from a projection residual."""
    n = oracle.dimension
    for _ in range(tries):
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            continue
        y = xstar + radius * u / nu
        base, gap = sets_mod.project(oracle, y)
        if gap > 1e-10 and np.linalg.norm(base - xstar) <= 4 * radius:
            return (y - base) / gap
    return None


def _beta_probe(problem, xstar, rng, radii=_RADII, samples: int = 40) -> tuple[float, list]:
    """The beta_hat of estimate_regularity, without its other samplers.

    Validates xstar and radii, then draws the probes from ``rng`` (a
    Generator, or a seed for a fresh one) before anything else does, so
    the value is the same whichever function asks for it.  All probes are
    drawn first and projected as one batch per set (SetOracle._project_rows:
    on a smooth set, stacked Newton starts).  d(x, K) is needed for the
    probes outside some set, up to the first probe with a set error; with
    an intersection oracle those are projected onto it as one batch
    (_intersection_distances).  Then the probes are walked in order, so the
    error raised is the first in probe order, and within a probe a set's
    error (in set order) comes before the distance's.  A projection error
    is therefore raised only after every probe has been projected onto
    every set.  Returns ``(beta_hat, centers)``, where centers are xstar's
    projections onto the sets, made once for the membership check.
    """
    xstar = np.asarray(xstar, dtype=float)
    centers = []
    for s in problem.sets:
        center, d = sets_mod.project(s, xstar)
        if d > 1e-7:
            raise ValueError("xstar must lie in the intersection (within 1e-7)")
        centers.append(center)
    radii = tuple(float(r) for r in radii)
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ValueError("radii must be positive and finite")
    rng = np.random.default_rng(rng)
    big = max(radii)
    probes = []
    for _ in range(samples):
        u = rng.standard_normal(problem.dimension)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            continue
        r = big * rng.uniform() ** (1.0 / problem.dimension)
        probes.append(xstar + r * u / nu)
    walked, error = [], None  # (probe, its largest set distance), up to error
    for x, outcomes in zip(probes, zip(*[s._project_rows(probes) for s in problem.sets])):
        error = next((out for out in outcomes if isinstance(out, Exception)), None)
        if error is not None:
            break
        walked.append((x, max(d for _, d in outcomes)))
    outside = [(x, worst) for x, worst in walked if not worst <= 1e-10]
    beta_hat = 1.0
    for (x, worst), dk in zip(outside, _intersection_distances(problem, [x for x, _ in outside])):
        beta_hat = max(beta_hat, dk / worst)
    if error is not None:
        raise error
    return float(beta_hat), centers


def estimate_regularity(
    problem,
    xstar,
    radii=_RADII,
    samples: int = 40,
    rng_seed: int = 0,
) -> RegularityEstimate:
    """Probe the geometry of a problem near an intersection point.

    xstar must lie within 1e-7 of every set.  d(x, K) uses the problem's
    intersection oracle when present; otherwise a pooled-halfspace run from
    each probe supplies an upper proxy (recorded in distance_oracle).

    The super-regularity profile draws 160 points per set and radius r_k
    with seed rng_seed + 7k + l (set l), centered at xstar's projection onto
    the set; the second-order bound draws 160 per set at the largest radius
    with seed rng_seed + 31l.  Draws with the same (set, radius, seed) are
    made and projected once and feed both checks; with the default radii
    that is set 0's sosh draws, which are its first super-regularity draws.
    All draw batches of a set are drawn in full and projected as one batch
    (SetOracle._project_rows), bit for bit as one at a time, when the first
    reduction on that set asks for its draws; the beta probes on each set
    and on the intersection oracle are one batch each too.  A batch is kept
    (its errors raised, its draws filtered to the ball) only when its
    reduction asks for it, radius by radius and within a radius set by set,
    then the second-order bound's; so the error raised is the first in
    that order, and a set without samples at one radius is skipped there
    alone.
    """
    rng = np.random.default_rng(rng_seed)
    beta_hat, centers = _beta_probe(problem, xstar, rng, radii, samples)
    xstar = np.asarray(xstar, dtype=float)
    radii = tuple(float(r) for r in radii)
    big = max(radii)
    oracle_kind = (
        "intersection-oracle"
        if problem.intersection_oracle is not None
        else "mass-shqp-proxy"
    )

    # One sampled unit normal per set, of either sign on a manifold; eta_hat
    # is the smallest separation over those orientations.
    sampled = [(_sample_normal(s, xstar, min(radii) / 5.0, rng), s.is_manifold) for s in problem.sets]
    signs = [(v, -v) if flip else (v,) for v, flip in sampled if v is not None]
    eta_hat = float(min(polyhedra.eta(list(b)) for b in itertools.product(*signs))) if signs else 1.0

    centers = [sets_mod._member_center(s, c, "center") for s, c in zip(problem.sets, centers)]
    # Set l's draw batches as (radius, seed): the profile's at each radius,
    # then the second-order bound's.
    keys = [
        [(r, rng_seed + 7 * k + li) for k, r in enumerate(radii)] + [(big, rng_seed + 31 * li)]
        for li in range(len(problem.sets))
    ]

    @functools.cache
    def projected(li):
        """Each distinct draw batch of set li with its projections, from one
        batch projection of them all: each batch's slice of the batch's
        stacks (sets._Outcomes)."""
        s, unique = problem.sets[li], list(dict.fromkeys(keys[li]))
        ws = [sets_mod._draw_ball(s.dimension, centers[li], r, 160, seed) for r, seed in unique]
        outs = s._project_rows(np.concatenate(ws))
        ends = list(itertools.accumulate(len(w) for w in ws))
        return {key: (w, outs[end - len(w) : end]) for key, w, end in zip(unique, ws, ends)}

    @functools.cache
    def draws(li, key):
        w, outs = projected(li)[key]
        return sets_mod._keep_draws(w, outs, centers[li], key[0])

    def worst_over_sets(reduce, j):
        """The largest reduction of each set's j-th draw batch over the sets
        that have samples, or 0.0 if none has."""
        found = []
        for li, (s, center) in enumerate(zip(problem.sets, centers)):
            try:
                found.append(reduce(s, center, draws(li, keys[li][j])))
            except sets_mod.InsufficientSamplesError:
                continue
        return float(max(found, default=0.0))

    delta_profile = {r: worst_over_sets(sets_mod._super_regular_worst, k) for k, r in enumerate(radii)}
    sosh = worst_over_sets(sets_mod._sosh_worst, len(radii))

    return RegularityEstimate(
        beta_hat=float(beta_hat),
        eta_hat=eta_hat,
        delta_profile=delta_profile,
        sosh_M_hat=sosh,
        distance_oracle=oracle_kind,
        probe_count=samples,
    )


def predicted_bounds(set_count: int, beta: float, tau: float) -> PredictedBounds:
    """Closed-form worst-case constants for m sets, metric constant beta,
    and relaxation tau."""
    m = int(set_count)
    if m < 1:
        raise ValueError("need at least one set")
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    b2, b3, b4 = beta**2, beta**3, beta**4
    m2, m3, m5, m6, m8 = m**2, m**3, m**5, m**6, m**8
    rho_basic = math.sqrt(
        1.0
        + 1.0 / (b2 * m3)
        + 1.0 / (4.0 * b4 * m6)
        - 1.0 / (b2 * m2)
        + 1.0 / (2.0 * b3 * m5)
        - 1.0 / (16.0 * b4 * m8)
        + 1.0 / (16.0 * b4 * m6)
    )
    c_basic = math.sqrt(m) * math.sqrt(
        (1.0 + 1.0 / (4.0 * m3 * b2)) ** 2 + 1.0 / (16.0 * m6 * b4)
    )
    rho_relaxed = math.sqrt(max(0.0, b2 - (1.0 - tau) ** 2)) / beta
    L_relaxed = beta / (1.0 - rho_relaxed)
    rho_cap = math.sqrt(b2 - 0.25) / beta
    L_cap = beta / (1.0 - rho_cap)
    return PredictedBounds(
        rho_basic=rho_basic,
        c_basic=c_basic,
        rho_relaxed=rho_relaxed,
        L_relaxed=L_relaxed,
        rho_cap=rho_cap,
        L_cap=L_cap,
        contraction=8.0 * L_cap * tau,
        vacuous=rho_basic >= 1.0,
    )
