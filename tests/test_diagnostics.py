"""Rate analysis, regularity probing, and the closed-form rate constants."""

import math

import numpy as np
import pytest

from shqp import diagnostics, gallery, sets, solvers


def _halving_trace(n, xbar=(0.0, 0.0), bump=None):
    pts = []
    for i in range(n):
        e = 0.5**i
        if bump is not None and i == bump:
            e *= 3.0  # jumps above the previous error, not just above trend
        pts.append([xbar[0] + e, xbar[1]])
    return solvers.Trace.from_points(pts)


def test_analyze_linear_halving():
    rep = diagnostics.analyze_trace(_halving_trace(10), xbar=[0.0, 0.0])
    np.testing.assert_allclose(rep.errors, [0.5**i for i in range(10)], rtol=1e-12)
    np.testing.assert_allclose(rep.q_ratios, [0.5] * 9, rtol=1e-12)
    assert rep.tail_qlinear_rate == pytest.approx(0.5, rel=1e-9)
    assert rep.estimated_order == pytest.approx(1.0, abs=1e-6)
    assert rep.fejer_ok
    assert rep.pbar == 1
    np.testing.assert_allclose(rep.pbar_ratios, rep.q_ratios)

    rep2 = diagnostics.analyze_trace(_halving_trace(10), xbar=[0.0, 0.0], pbar=2)
    np.testing.assert_allclose(rep2.pbar_ratios, [0.25] * 8, rtol=1e-12)


def test_analyze_quadratic_sequence():
    pts = [[0.5 ** (2**i), 0.0] for i in range(6)]
    rep = diagnostics.analyze_trace(solvers.Trace.from_points(pts), xbar=[0.0, 0.0])
    assert rep.estimated_order == pytest.approx(2.0, abs=1e-6)
    assert rep.fejer_ok


def test_analyze_insufficient_data_message():
    with pytest.raises(
        diagnostics.InsufficientDataError,
        match=r"insufficient-data: 4 usable errors, need 5",
    ):
        diagnostics.analyze_trace(_halving_trace(4), xbar=[0.0, 0.0])


def test_analyze_error_floor_truncates():
    """Errors below 100 * eps * ||xbar|| are noise, not data."""
    xbar = np.array([1.0, 0.0])
    pts = [xbar + [0.5**i, 0.0] for i in range(80)]
    rep = diagnostics.analyze_trace(solvers.Trace.from_points(pts), xbar=xbar)
    floor = 100.0 * np.finfo(float).eps * np.linalg.norm(xbar)
    assert len(rep.errors) < 80
    assert min(rep.errors) > floor


def test_analyze_defaults_to_final_iterate():
    pts = [[0.5**i, 0.0] for i in range(8)] + [[0.0, 0.0]]
    rep = diagnostics.analyze_trace(solvers.Trace.from_points(pts))
    # The final point is the reference and drops out of the error list.
    assert len(rep.errors) == 8
    assert rep.tail_qlinear_rate == pytest.approx(0.5, rel=1e-9)


def test_analyze_flags_monotonicity_break():
    rep = diagnostics.analyze_trace(_halving_trace(10, bump=4), xbar=[0.0, 0.0])
    assert not rep.fejer_ok
    with pytest.raises(ValueError, match="pbar must be at least 1"):
        diagnostics.analyze_trace(_halving_trace(10), xbar=[0.0, 0.0], pbar=0)


def test_analyze_real_runs_recover_known_orders():
    cl = gallery.get_entry("circle-line").problem
    rep = diagnostics.analyze_trace(
        solvers.run_mass_projection(cl), xbar=cl.known_solution
    )
    assert rep.estimated_order == pytest.approx(1.897, abs=0.05)

    tp = gallery.get_entry("two-parabolas").problem
    rep = diagnostics.analyze_trace(
        solvers.run_mass_projection(tp), xbar=tp.known_solution
    )
    assert rep.estimated_order == pytest.approx(1.99, abs=0.05)


def test_predicted_bounds_closed_forms():
    pb = diagnostics.predicted_bounds(2, 1.0, 0.5)
    assert pb.rho_cap == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert pb.L_cap == pytest.approx(4.0 + 2.0 * math.sqrt(3.0), rel=1e-12)
    assert pb.contraction == pytest.approx(8.0 * pb.L_cap * 0.5, rel=1e-12)
    assert pb.rho_basic == pytest.approx(0.946184, abs=1e-5)
    assert not pb.vacuous
    assert pb.c_basic > 0

    # One set gives a vacuous linear-rate bound; that is reported, not raised.
    pb1 = diagnostics.predicted_bounds(1, 1.0, 0.0)
    assert pb1.rho_basic == pytest.approx(math.sqrt(1.75), rel=1e-12)
    assert pb1.vacuous
    assert pb1.rho_relaxed == 0.0
    assert pb1.L_relaxed == pytest.approx(1.0)

    pb2 = diagnostics.predicted_bounds(3, 2.0, 0.3)
    assert pb2.rho_relaxed == pytest.approx(math.sqrt(4.0 - 0.49) / 2.0, rel=1e-12)
    assert pb2.L_relaxed == pytest.approx(2.0 / (1.0 - pb2.rho_relaxed), rel=1e-12)

    assert diagnostics.predicted_bounds(2, 1.0, 0.01).contraction == pytest.approx(
        0.5971281292110203, rel=1e-12
    )

    for bad in [(0, 1.0, 0.1), (2, 0.5, 0.1), (2, 1.0, 1.0), (2, 1.0, -0.1)]:
        with pytest.raises(ValueError):
            diagnostics.predicted_bounds(*bad)


def test_estimate_regularity_with_exact_oracle():
    prob = gallery.get_entry("two-lines-45").problem
    est = diagnostics.estimate_regularity(prob, prob.known_solution, samples=30)
    assert est.distance_oracle == "intersection-oracle"
    assert est.probe_count == 30
    assert 1.0 <= est.beta_hat <= 2.7  # true constant is 1/sin(pi/8) ~ 2.61
    assert est.eta_hat == pytest.approx(np.sin(np.pi / 8.0), abs=2e-3)
    assert set(est.delta_profile) == {0.25, 0.1, 0.05}
    # Two flat lines: super-regularity ratios and curvature both vanish.
    assert max(est.delta_profile.values()) <= 1e-6
    assert est.sosh_M_hat <= 1e-6


def test_estimate_regularity_proxy_fallback():
    src = gallery.get_entry("two-lines-45").problem
    prob = solvers.ProblemInstance(
        "two-lines-no-oracle", list(src.sets), src.start,
        known_solution=src.known_solution,
    )
    est = diagnostics.estimate_regularity(prob, prob.known_solution)
    assert est.distance_oracle == "mass-shqp-proxy"
    # Deterministic sampled value; stays below the true constant 2.613.
    assert est.beta_hat == pytest.approx(2.52283, abs=1e-4)
    assert est.eta_hat == pytest.approx(0.3827, abs=1e-3)


def test_estimate_regularity_states_the_distance_it_checks():
    """xstar is rejected when a set lies farther than 1e-7 from it, and the
    message states that distance."""
    prob = gallery.get_entry("two-lines-45").problem
    with pytest.raises(ValueError, match=r"^xstar must lie in the intersection \(within 1e-7\)$"):
        diagnostics.estimate_regularity(prob, [0.0, 2e-7])
    beta_hat, _ = diagnostics._beta_probe(prob, [0.0, 5e-8], 0)
    assert beta_hat >= 1.0


def test_estimate_regularity_input_validation():
    prob = gallery.get_entry("two-lines-45").problem
    with pytest.raises(ValueError, match="must lie in the intersection"):
        diagnostics.estimate_regularity(prob, [1.0, 5.0])
    with pytest.raises(ValueError, match="radii must be positive"):
        diagnostics.estimate_regularity(prob, prob.known_solution, radii=())
    with pytest.raises(ValueError, match="radii must be positive"):
        diagnostics.estimate_regularity(prob, prob.known_solution, radii=(0.1, -0.2))


def test_estimate_regularity_projects_each_sample_once(monkeypatch):
    """One circle-line estimate at seed 0 makes 1,244 top-level oracle
    calls: set 0's second-order draws are its first super-regularity draws,
    so they are projected once, and so is xstar onto each set.  Calls an
    oracle makes inside its own projection are not counted.  A batch
    (SetOracle._project_rows, the one batch path) counts one call per
    row."""
    calls = [0]
    depth = [0]

    def counting(fn, count):
        def counted(oracle, x):
            if depth[0] == 0:
                calls[0] += count(x)
            depth[0] += 1
            try:
                return fn(oracle, x)
            finally:
                depth[0] -= 1

        return counted

    monkeypatch.setattr(sets.SetOracle, "_project_rows", counting(sets.SetOracle._project_rows, len))
    monkeypatch.setattr(sets, "project", counting(sets.project, lambda x: 1))
    prob = gallery.get_entry("circle-line").problem
    diagnostics.estimate_regularity(prob, prob.known_solution, rng_seed=0)
    assert calls[0] == 1244


@pytest.mark.parametrize("name", ["two-parabolas", "parabola-lens"])
@pytest.mark.parametrize("radii", [(0.25, 0.1, 0.05), (0.1, 0.25)])
def test_shared_draws_equal_the_public_checks(name, radii):
    """The estimate's profile and second-order bound are the public
    samplers' values at its documented seeds, bit for bit."""
    prob = gallery.get_entry(name).problem
    seed = 3
    est = diagnostics.estimate_regularity(prob, prob.known_solution, radii=radii, rng_seed=seed)
    centers = [sets.project(s, prob.known_solution)[0] for s in prob.sets]

    def worst(check, arg, radius, seed_of):
        found = []
        for li, (s, c) in enumerate(zip(prob.sets, centers)):
            try:
                found.append(check(s, c, arg, radius, sample_count=160, rng_seed=seed_of(li))[1])
            except sets.InsufficientSamplesError:
                pass
        return max(found, default=0.0)

    for k, r in enumerate(radii):
        want = worst(sets.check_super_regular, 0.0, r, lambda li: seed + 7 * k + li)
        assert est.delta_profile[r] == want
    want = worst(sets.check_sosh, np.inf, max(radii), lambda li: seed + 31 * li)
    assert est.sosh_M_hat == want


def test_memory_contraction_bound_is_sharp_somewhere():
    """A case where the memory-method bound is far from vacuous: duplicated
    halfspaces have beta = 1, so 8 * L * tau < 1 for small tau, and the
    observed pbar-step ratio sits comfortably underneath it."""
    h = sets.HalfspaceSet([1.0, 0.0], 0.0)
    prob = solvers.ProblemInstance(
        "dup-halfspace",
        [sets.HalfspaceSet([1.0, 0.0], 0.0), sets.HalfspaceSet([1.0, 0.0], 0.0)],
        [1.0, 0.3],
        known_solution=[0.0, 0.3],
        intersection_oracle=h,
    )
    est = diagnostics.estimate_regularity(prob, [0.0, 0.3], samples=30)
    assert est.beta_hat == pytest.approx(1.0, abs=1e-9)

    tau = 0.01
    bound = diagnostics.predicted_bounds(2, est.beta_hat, tau).contraction
    assert bound < 1.0

    cfg = solvers.SolverConfig(tau=tau, tau_zero_for_convex=False, pbar=1)
    trace = solvers.run_memory_shqp(prob, config=cfg)
    rep = diagnostics.analyze_trace(trace, xbar=[0.0, 0.3], pbar=1)
    assert max(rep.pbar_ratios) == pytest.approx(tau, rel=1e-6)
    assert max(rep.pbar_ratios) <= bound
