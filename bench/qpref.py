"""Independent reference for the qp-corpus workload.

The problem generator draws in the same order as the test suite's
``random_constraint_problem`` (so seed 0 reproduces the acceptance corpus),
and the brute-force nearest point and certificate check work on raw arrays,
never on the package's classes, so agreement is a genuine second route.
"""

import itertools

import numpy as np


def random_problem(rng):
    """One small projection problem: (A, b, is_eq, x0) with n <= 3, m <= 4.

    Row and offset scales mix 1e-3 .. 1e3 and about a quarter of the rows are
    equalities.
    """
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    scale = float(rng.choice([1e-3, 1.0, 1.0, 1.0, 1e3]))
    rows, offsets, is_eq = [], [], []
    for _ in range(m):
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        a = a * float(rng.choice([1e-3, 1.0, 1.0, 1e3]))
        offsets.append(float(rng.standard_normal()) * scale * np.linalg.norm(a))
        rows.append(a)
        is_eq.append(rng.random() < 0.25)
    x0 = rng.standard_normal(n) * scale
    return np.array(rows), np.array(offsets), np.array(is_eq), x0


def _unit_rows(A, b):
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], b / norms, norms


def nearest_point(A, b, is_eq, x0):
    """Nearest point of {x : A x <= b, with equality on is_eq rows} to x0.

    Enumerates every subset of inequality rows (equalities are in every
    subset), solves each equality-constrained least-distance problem with
    one refinement pass, and keeps the closest candidate that is feasible to
    a tolerance relative to its distance from x0.  Returns None when no
    candidate is feasible, i.e. the polyhedron is empty.
    """
    U, c, _ = _unit_rows(A, b)
    n = U.shape[1]
    eq = list(np.flatnonzero(is_eq))
    ineq = list(np.flatnonzero(~is_eq))
    best = None
    for size in range(min(len(ineq), n) + 1):
        for subset in itertools.combinations(ineq, size):
            rows = eq + list(subset)
            x = x0.copy()
            if rows:
                M = U[rows]
                gram = M @ M.T
                for _ in range(2):
                    step, *_ = np.linalg.lstsq(gram, M @ x - c[rows], rcond=None)
                    x = x - M.T @ step
            slack = U @ x - c
            tol = 1e-9 * (1.0 + float(np.linalg.norm(x - x0)))
            if np.any(np.abs(slack[is_eq]) > tol) or np.any(slack[~is_eq] > tol):
                continue
            dist = float(np.linalg.norm(x - x0))
            if best is None or dist < best[0] - 1e-15:
                best = (dist, x)
    return None if best is None else best[1]


def certificate_holds(A, b, is_eq, x0, lam):
    """Farkas check: A^T lam = 0, b^T lam < 0, lam >= 0 on inequality rows.

    The vector is rescaled so that sum |lam_i| * ||a_i|| = 1 before the
    tolerances apply, so neither its size nor the row scales can hide
    roundoff.
    """
    if lam is None:
        return False
    U, c, norms = _unit_rows(A, b)
    mu = np.asarray(lam, dtype=float) * norms
    weight = float(np.sum(np.abs(mu)))
    if not np.isfinite(weight) or weight <= 0.0:
        return False
    mu = mu / weight
    scale = max(1.0, float(np.linalg.norm(x0)), float(np.max(np.abs(c))))
    return bool(
        np.all(mu[~is_eq] >= -1e-12)
        and np.linalg.norm(U.T @ mu) <= 1e-8 * scale
        and c @ mu < -1e-12 * scale
    )
