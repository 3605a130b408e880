"""The fixed-rank set's batch hook against its one-point projection, bit for
bit.

`FixedRankSet._nearest_rows` projects its rows, one or more, with one
`np.linalg.svd` over the (k, rows, cols) stack and one truncation over the
stack of factors.  Each row must get the bits `_project` gives it alone:
that rests on numpy running LAPACK's gesdd once per matrix of a stack, as it
does on one matrix, and on the stacked products rounding as the single ones
do.  A stack the svd refuses makes the hook raise.  Such a batch, and one
whose truncation signals a floating point error, is projected point by
point by `SetOracle._project_rows`, the batch boundary, so that every row
keeps its own outcome, warning or error.
"""

import warnings

import numpy as np
import pytest

from shqp import sets
from shqp.sets import FixedRankSet
from test_closed_form_rows import _outcome_bits

SHAPES = [
    (rows, cols, rank)
    for rows in range(1, 5)
    for cols in range(1, 5)
    for rank in range(1, min(rows, cols) + 1)
]
SCALES = [1e-150, 1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100, 1e150]


def _matrices(rows, cols, rng):
    """Random matrices, the zero matrix, one matrix of each rank below full,
    a matrix with equal singular values and one with a repeated row, each
    flattened to one row of the batch."""
    k = min(rows, cols)
    mats = [rng.standard_normal((rows, cols)) for _ in range(6)]
    mats.append(np.zeros((rows, cols)))
    mats += [rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)) for r in range(1, k)]
    mats.append(np.eye(rows, cols))
    repeated = rng.standard_normal((rows, cols))
    repeated[-1] = repeated[0]
    mats.append(repeated)
    return np.array([m.reshape(-1) for m in mats])


@pytest.mark.parametrize("rows, cols, rank", SHAPES)
def test_stacked_svd_equals_project_bit_for_bit(monkeypatch, rows, cols, rank):
    oracle = FixedRankSet(rows, cols, rank)
    rng = np.random.default_rng(100 * rows + 10 * cols + rank)
    project = FixedRankSet._project
    single = []

    def counted(self, x):
        single.append(x)
        return project(self, x)

    monkeypatch.setattr(FixedRankSet, "_project", counted)
    for scale in SCALES:
        X = _matrices(rows, cols, rng) * scale
        inputs = X.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle._nearest_rows(X)
        want = [project(oracle, x) for x in X]
        assert [y.tobytes() for y in got] == [y.tobytes() for y in want], f"numpy {np.__version__}: scale {scale}"
        # A stack of one row has the same bits.
        for x, y in zip(X, want):
            (alone,) = oracle._nearest_rows(x[None])
            assert alone.tobytes() == y.tobytes(), f"numpy {np.__version__}: scale {scale}"
        assert X.tobytes() == inputs.tobytes()
        assert not any(np.shares_memory(y, z) for i, y in enumerate(got) for z in got[i + 1 :] + [X])
        # And _project_rows gives what project gives, distances included.
        outcomes = oracle._project_rows(X)
        # The stack answered both: no row was projected on its own.
        assert not single, f"scale {scale}"
        assert [_outcome_bits(o) for o in outcomes] == [_outcome_bits(sets.project(oracle, x)) for x in X]
        single.clear()


def test_a_stack_the_svd_refuses_is_projected_row_by_row(monkeypatch):
    # The stack raises LinAlgError, and so does row 2 alone.  The hook
    # raises with the stack; the batch boundary then projects each row on
    # its own, so row 2 keeps its error and every other row its projection.
    svd = np.linalg.svd

    def refusing(a, *args, **kwargs):
        if a.ndim == 3 or a[0, 0] == 7.0:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    oracle = FixedRankSet(2, 3, 1)
    X = np.random.default_rng(5).standard_normal((5, 6))
    X[2, 0] = 7.0
    want = [FixedRankSet._project(oracle, x) for x in X]
    monkeypatch.setattr(np.linalg, "svd", refusing)
    with pytest.raises(np.linalg.LinAlgError):
        oracle._nearest_rows(X)
    outcomes = oracle._project_rows(X)
    assert isinstance(outcomes[2], np.linalg.LinAlgError)
    assert [o[0].tobytes() for i, o in enumerate(outcomes) if i != 2] == [
        y.tobytes() for i, y in enumerate(want) if i != 2
    ]
    assert [_outcome_bits(o) for o in outcomes] == [_outcome_bits(sets._outcome(sets.project, oracle, x)) for x in X]


@pytest.mark.parametrize("mode", ["warn", "raise"])
def test_a_truncation_that_underflows_is_projected_row_by_row(mode):
    # Two subnormal matrices: their truncation underflows.  Point by point,
    # each warns or raises on its own; one truncation of the stack would
    # warn once, or raise for every row.
    oracle = FixedRankSet(2, 2, 1)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 4))
    X[1] *= 1e-310
    X[3] *= 3e-310

    def run(fn):
        with warnings.catch_warnings(record=True) as caught, np.errstate(under=mode):
            warnings.simplefilter("always")
            outcomes = fn()
        return [_outcome_bits(o) for o in outcomes], sorted(str(w.message) for w in caught)

    got = run(lambda: oracle._project_rows(X))
    want = run(lambda: [sets._outcome(sets.project, oracle, x) for x in X])
    assert got == want
    # The fixture is only a check if both tiny rows signal on their own.
    if mode == "warn":
        assert want[1] == [
            f"underflow encountered in {op}" for op in ("dot", "matmul", "multiply") for _ in range(2)
        ]
    else:
        assert [b[0] is FloatingPointError for b in want[0]] == [False, True, False, True]
