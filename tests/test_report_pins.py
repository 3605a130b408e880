"""The regularity report, pinned bit for bit on every problem `shqp run`
reports on in the CLI benchmark.

The sampler reductions in `sets` are vectorized; these values were recorded
with float.hex from the per-draw loops they replaced, so any change to the
arithmetic or the order of the reductions shows here first.
"""

import pytest

from shqp import diagnostics, gallery, harness

# The inline configs are built from JSON, as `shqp run --config` builds them.
INLINE = {
    "two-circles": {
        "name": "two-circles",
        "sets": [
            {"kind": "sphere", "center": [0.0, 0.0], "radius": 1.0},
            {"kind": "sphere", "center": [1.0, 0.0], "radius": 1.0},
        ],
        "start": [0.9, 1.3],
        "known_solution": [0.5, 0.8660254037844386],
    },
    "box-ball-plane": {
        "name": "box-ball-plane",
        "sets": [
            {"kind": "box", "lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 1.0]},
            {"kind": "ball", "center": [0.5, 0.5, 0.5], "radius": 1.0},
            {"kind": "hyperplane", "normal": [1.0, 1.0, 1.0], "offset": 1.0},
        ],
        "start": [2.0, -1.5, 0.7],
        "known_solution": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    },
}

# (problem, rng_seed): (beta_hat, eta_hat, delta_profile at radii 0.25, 0.1,
# 0.05, sosh_M_hat, distance_oracle), floats as float.hex.
PINS = {
    ("backtrack-example", 0): ("0x1.27d3b9751e87ap+2", "0x1.09716b77c9e2bp-2", ("0x1.ecb783ee7ef65p-38", "0x1.4e8b9f41b28bfp-40", "0x1.17e6abe1f8451p-38"), "0x1.d2533959e38e3p-40", "intersection-oracle"),
    ("backtrack-example", 3): ("0x1.c126470937927p+1", "0x1.d6bbd1610f34bp-2", ("0x1.5889ff1c73901p-43", "0x1.59262c38c69b6p-39", "0x1.8c9dea7afd938p-39"), "0x1.85a12124c76a5p-40", "intersection-oracle"),
    ("circle-line", 0): ("0x1.19e8f5b7f982ap+2", "0x1.0d02a6c772092p-2", ("0x1.f2bf6b63ce3c9p-3", "0x1.90096f4de3898p-4", "0x1.8798ffc8f7016p-5"), "0x1.000000000cc08p-1", "intersection-oracle"),
    ("circle-line", 3): ("0x1.f9f7fc5a6f243p+1", "0x1.053a484d40cc0p-2", ("0x1.e81d95922ed9bp-3", "0x1.896fc08731e7bp-4", "0x1.81496b2cd4ad9p-5"), "0x1.0000000033f93p-1", "intersection-oracle"),
    ("two-parabolas", 0): ("0x1.194cb3f361469p+1", "0x1.107a0ea2d8886p-1", ("0x1.b40449c7a0afap-2", "0x1.84085e9c870d0p-3", "0x1.7ac17a6f6c5ffp-4"), "0x1.ffffffcad86e0p-1", "intersection-oracle"),
    ("two-parabolas", 3): ("0x1.fc97b8800e721p+0", "0x1.0997fba64ea77p-1", ("0x1.b88674ff8b7b3p-2", "0x1.8cafa938c275dp-3", "0x1.912abcd203beap-4"), "0x1.fffbbc9535edbp-1", "intersection-oracle"),
    ("parabola-lens", 0): ("0x1.a6c7f545e7d77p+0", "0x1.0d0ea38615324p-1", ("-0x1.f40bdb4c9e4b5p-19", "-0x1.357972910a1cfp-18", "-0x1.9dd8963dd39dcp-24"), "0x1.ffffc70e111f2p-1", "intersection-oracle"),
    ("parabola-lens", 3): ("0x1.6b05955a6ee63p+0", "0x1.0ace48489beb1p-1", ("-0x1.3fe6666ce2623p-20", "-0x1.2047918052367p-18", "-0x1.723cab2a962d0p-25"), "0x1.fffde61e7dcbdp-1", "intersection-oracle"),
    ("rank1-affine", 0): ("0x1.251a5a9c84cf9p+1", "0x1.e66905edb43c4p-2", ("0x1.64d537f170129p-3", "0x1.2f99dd7883e00p-4", "0x1.27d10b85afb2ep-5"), "0x1.982996c56bf4ep-2", "intersection-oracle"),
    ("rank1-affine", 3): ("0x1.09e9274757afcp+1", "0x1.8f286d53faf3dp-2", ("0x1.4ee92e988a6fap-3", "0x1.27382a01b262ep-4", "0x1.245a68a9814f6p-5"), "0x1.954a5b9978e32p-2", "intersection-oracle"),
    ("two-circles", 0): ("0x1.00a83384b2c9bp+1", "0x1.fc383f4791a50p-2", ("0x1.daeaa6b9238c4p-3", "0x1.7eb4ef479d29dp-4", "0x1.900105b0bdf2bp-5"), "0x1.0000000001d23p-1", "mass-shqp-proxy"),
    ("two-circles", 3): ("0x1.ef233db3aa6b8p+0", "0x1.0442d04875066p-1", ("0x1.f410a60eb96bep-3", "0x1.8183cf8f4806fp-4", "0x1.89738cd47e4c8p-5"), "0x1.000000000d172p-1", "mass-shqp-proxy"),
    ("box-ball-plane", 0): ("0x1.0000000000000p+0", "0x1.ffffffffffffep-1", ("0x1.7acbfc06869dep-46", "0x1.289b94f2a35dap-44", "0x1.2675fb0c3c868p-42"), "0x1.7d26d660127b5p-38", "mass-shqp-proxy"),
    ("box-ball-plane", 3): ("0x1.0000000000000p+0", "0x1.ffffffffffffep-1", ("0x1.74701177bc063p-46", "0x1.618b46b568c00p-44", "0x1.bb62cae7e9056p-43"), "0x1.5bdb7a475b9b3p-42", "mass-shqp-proxy"),
}


def _problem(name):
    if name in INLINE:
        return harness.problem_from_config(INLINE[name])
    return gallery.get_entry(name).problem


@pytest.mark.parametrize("name, seed", sorted(PINS))
def test_regularity_report_is_bit_identical(name, seed):
    problem = _problem(name)
    est = diagnostics.estimate_regularity(problem, problem.known_solution, rng_seed=seed)
    got = (
        est.beta_hat.hex(),
        est.eta_hat.hex(),
        tuple(d.hex() for d in est.delta_profile.values()),
        est.sosh_M_hat.hex(),
        est.distance_oracle,
    )
    assert list(est.delta_profile) == [0.25, 0.1, 0.05]
    assert est.probe_count == 40
    assert got == PINS[(name, seed)]
