"""The polyhedral QP, pinned bit for bit on a seeded corpus of edge cases.

Every case is projected twice, onto a fresh polyhedron (the one-shot path)
and onto a prepared one, each without and with a warm-start hint.  One
sha256 covers, per call, the status, the point, multiplier and certificate
bytes, ``kkt_residual.hex()`` and the active set, or the exception's type
and message; ``eta`` bundles contribute their value's hex or exception.

The corpus holds what the QP's fast paths must treat exactly as before:
NaN and +-inf offsets, NaN and infinite normal entries, query points near
1e+-300, warm hints that are valid, repeated, out of range or name rows the
pairwise reduction drops, parallel and antiparallel pairs, rank-deficient
equalities and inequality rows flat on the equality span, the
twin-equalities polyhedron whose certificate does not verify, and eta
bundles.  numpy's floating-point warnings are switched off while it runs,
so the digest holds the returned values and exceptions only, whatever
warning filter the suite runs under.

The digest was recorded before the QP's fixed-cost work, on x86-64 with
numpy 2.4 and its bundled OpenBLAS and LAPACK.  A BLAS or LAPACK that sums
in another order moves it, as it moves the report pins.
"""

import hashlib
import warnings

import numpy as np

from shqp.polyhedra import Halfspace, Polyhedron, eta, project_onto_polyhedron

DIGEST = "a12f59fe45d80bdba0e56ebfc7f09818a8e57b08f9d743ef7e97da18991eb0d4"

# Two equality rows with one offset whose unit normals differ by 2.7e-10:
# the QP finds a Farkas certificate that does not verify and raises
# QPBreakdownError.
TWIN_EQUALITIES = [
    ([0.30512942729120457, -0.9902701051808576], 0.0004255930654568889, "equality"),
    ([174.37625334230282, 238.23910313041532], 0.07178392517211876, "inequality"),
    ([0.30512942721128516, -0.9902701058754966], 0.0004255930654568889, "equality"),
]
TWIN_START = [-0.0013520526948978043, 0.0006956518408253057]


def _random_rows(rng):
    """Rows (normal, offset, kind) in R^n: integer or mixed-scale rows, then
    parallel and antiparallel copies, dependent equalities and inequality
    rows that the equality normals span."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    rows = []
    for _ in range(m):
        if rng.random() < 0.5:
            a = rng.integers(-2, 3, n).astype(float)
            if not a.any():
                a[int(rng.integers(n))] = 1.0
            off = float(rng.integers(-2, 3))
        else:
            a = rng.standard_normal(n) * float(rng.choice([1e-3, 1.0, 1e3]))
            off = float(rng.standard_normal() * np.linalg.norm(a))
        rows.append((a, off, "equality" if rng.random() < 0.3 else "inequality"))
    for _ in range(int(rng.integers(0, 3))):  # parallel and antiparallel copies
        a, off, _ = rows[int(rng.integers(len(rows)))]
        c = float(rng.choice([1.0, 2.0, -1.0, -0.5]))
        shift = float(rng.choice([0.0, 1e-12, -1e-8, 1e-3])) * float(np.linalg.norm(a))
        kind = "equality" if rng.random() < 0.3 else "inequality"
        rows.insert(int(rng.integers(len(rows) + 1)), (c * a, c * (off + shift), kind))
    eqs = [(a, off) for a, off, kind in rows if kind == "equality"]
    if len(eqs) >= 2 and rng.random() < 0.5:
        (a1, b1), (a2, b2) = eqs[:2]
        kind = "equality" if rng.random() < 0.5 else "inequality"
        slack = float(rng.choice([0.0, 1.0, -1.0]))  # flat rows: met or contradicted
        if np.any(a1 + 2.0 * a2):
            rows.append((a1 + 2.0 * a2, b1 + 2.0 * b2 + slack, kind))
    return rows


def _query_point(rng, n):
    u = rng.standard_normal(n)
    return u * float(rng.choice([1e-300, 1e-3, 1.0, 1e3, 1e300]))


def _warm_hint(rng, m):
    """Valid, repeated and out-of-range indices, in any order."""
    hint = [int(i) for i in rng.integers(0, m, int(rng.integers(1, 4)))]
    if rng.random() < 0.3:
        hint.append(hint[0])
    if rng.random() < 0.2:
        hint.append(m + 3)
    return hint


def _special_cases():
    """(rows, x0, warm) with non-finite data and extreme query points."""
    e = np.eye(3)
    base = [(e[0], 1.0, "inequality"), (e[1], 1.0, "inequality"), (e[2], -1.0, "equality")]
    x = np.array([3.0, 3.0, 3.0])
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(3):
            rows = list(base)
            rows[i] = (rows[i][0], bad, rows[i][2])
            cases.append((rows, x, [0, 1]))
            cases.append((rows, -x, [1]))
        rows = list(base)
        a = np.array([1.0, bad, 0.0])
        rows.insert(1, (a, 0.5, "inequality"))
        cases.append((rows, x, [1]))
        rows = list(base)
        rows[2] = (np.array([0.0, bad, 1.0]), -1.0, "equality")
        cases.append((rows, x, []))
    for scale in (1e300, -1e300, 1e-300, 1.7e308):
        cases.append((base, x * scale, [0]))
        cases.append((base[:2], np.array([scale, -scale, 0.5 * scale]), [1, 0]))
    cases.append((base, np.array([np.nan, 0.0, 0.0]), []))
    cases.append((base, np.array([np.inf, 1.0, 0.0]), [0]))
    # Parallel and antiparallel pairs: nested, equal, an empty slab, an
    # equality twin and an equality against an inequality.
    a = np.array([1.0, 1.0])
    for second in (
        (2.0 * a, 2.0, "inequality"),
        (a, 1.0, "inequality"),
        (-a, -2.0, "inequality"),
        (-a, 0.0, "inequality"),
        (3.0 * a, 3.0 * (1.0 + 1e-12), "equality"),
        (-a, -1.5, "equality"),
        (a, 0.5, "equality"),
    ):
        for kind in ("inequality", "equality"):
            rows = [(a, 1.0, kind), second, (np.array([1.0, -1.0]), 0.25, "inequality")]
            for x0 in (np.array([2.0, 0.5]), np.array([-1e6, 3e5])):
                cases.append((rows, x0, [0, 1, 2]))
    # A warm row through x0 enters with the multiplier -0.0, which the
    # result reports as 0.0.
    e2d = np.eye(2)
    corner = [(e2d[0], 1.0, "inequality"), (e2d[1], 1.0, "inequality")]
    cases.append((corner, np.array([1.0, 0.5]), [0]))
    cases.append((corner, np.array([1.0, 3.0]), [0]))
    # A NaN offset on a row its parallel twin drops: the slack and the
    # complementarity over all rows hold a NaN, and the offsets' largest
    # magnitude is NaN, so it does not scale the tolerances.
    cases.append(([
        (e2d[0], 1.0, "equality"), (e2d[0], 1.0 - 5e-10, "inequality"),
        (e2d[1], 1.0, "inequality"), (e2d[1], np.nan, "inequality"),
    ], np.array([3.0, 3.0]), []))
    cases.append(([
        (e2d[0], 1e6, "inequality"), (e2d[1], 0.0, "inequality"),
        (e2d[1], np.nan, "inequality"),
    ], np.array([0.0, 1e-8]), []))
    twins = [(np.array(a), off, kind) for a, off, kind in TWIN_EQUALITIES]
    cases.append((twins, np.array(TWIN_START), []))
    cases.append((twins, np.zeros(2), [1]))
    # Rank-deficient equalities, and inequality rows flat on their span.
    e1, e2 = np.eye(3)[:2]
    eq = [(e1, 1.0, "equality"), (e2, 2.0, "equality"), (e1 + e2, 3.0, "equality")]
    for flat in ((e1 - e2, -1.0, "inequality"), (e1 - e2, -2.0, "inequality"),
                 (2.0 * e1, 1.0, "inequality"), (e1 + e2, 3.5, "equality")):
        cases.append((eq + [flat], np.array([4.0, -1.0, 2.0]), [3, 0]))
    return cases


def _result_bytes(call):
    try:
        res = call()
    except Exception as exc:
        return repr((type(exc).__name__, str(exc)))
    cert = None if res.certificate is None else res.certificate.tobytes()
    return repr((
        res.status, res.point.tobytes(), res.multipliers.tobytes(), cert,
        float(res.kkt_residual).hex(), res.active_set,
    ))


def _project_both_ways(rows, x0, warm):
    """The one-shot and the prepared projection, cold and warm."""
    def fresh():
        return Polyhedron([Halfspace(a, off, kind) for a, off, kind in rows])

    try:
        prepared = fresh().prepare()
    except Exception as exc:
        prepared = None
        yield repr(("prepare", type(exc).__name__, str(exc)))
    for hint in ((), warm):
        yield _result_bytes(lambda: project_onto_polyhedron(fresh(), x0, warm_start=hint))
        if prepared is not None:
            yield _result_bytes(lambda: project_onto_polyhedron(prepared, x0, warm_start=hint))


def _eta_bytes(rng):
    d = int(rng.integers(1, 4))
    k = int(rng.integers(1, 6))
    V = rng.standard_normal((k, d))
    if rng.random() < 0.3:
        V[-1] = -V[0]  # an antipodal pair puts the origin in the hull
    V = V / np.linalg.norm(V, axis=1)[:, None]
    try:
        return repr(eta(list(V)).hex())
    except Exception as exc:
        return repr((type(exc).__name__, str(exc)))


def _corpus_lines():
    rng = np.random.default_rng(20151)
    for _ in range(600):
        rows = _random_rows(rng)
        n = rows[0][0].shape[0]
        x0 = _query_point(rng, n)
        yield from _project_both_ways(rows, x0, _warm_hint(rng, len(rows)))
    for rows, x0, warm in _special_cases():
        yield from _project_both_ways(rows, x0, warm)
    for _ in range(200):
        yield _eta_bytes(rng)


def corpus_digest():
    h = hashlib.sha256()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for line in _corpus_lines():
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def test_qp_corpus_is_bit_identical():
    assert corpus_digest() == DIGEST
