"""A caller's numpy error state changes no result.

Every gallery solver run, from the starts `test_trace_pins` uses, and four
`shqp run` reports through `cli.main` give the same digests under numpy's
default error state, with every error raising, with underflow raising, and
with every error ignored.  The digests are compared within one process, so
nothing here pins the bits of one numpy or BLAS build.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from shqp import cli
from test_trace_pins import _runs, _starts, _trace_bytes

# numpy's documented default, and the three states compared with it.
DEFAULT = {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}
STATES = {"all-raise": {"all": "raise"}, "under-raise": {"under": "raise"}, "all-ignore": {"all": "ignore"}}

# The four reports put the smooth sets' Newton stacks, the intersection
# refinement, the fixed-rank stacked SVD, the polyhedral stack with the
# 3-row intersection oracle's batch, and the sphere, affine subspace and
# point set stacks under the caller's state.
REPORTS = [
    ("parabola-lens", "mass"),
    ("rank1-affine", "basic-shqp"),
    ("backtrack-example", "mass"),
    ("circle-line", "mass"),
]


def _gallery_digests():
    digests = {}
    for label, problem, runner in _runs():
        for k, x0 in enumerate(_starts(problem)):
            trace = _trace_bytes(lambda: runner(problem, x0))
            digests[f"{label}@{k}"] = hashlib.sha256(trace.encode()).hexdigest()
    return digests


def _report_digests(out_root):
    """Each report's exit code and output files, without the wall clock
    and the output directory."""
    digests = {}
    for problem, algorithm in REPORTS:
        out_dir = os.path.join(out_root, f"{problem}-{algorithm}")
        code = cli.main(["run", "--problem", problem, "--algorithm", algorithm, "--out-dir", out_dir])
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            if name == "report.json":
                report = json.loads(data)
                report.pop("wallclock_ms")
                report["config_echo"].pop("out_dir")
                data = json.dumps(report, sort_keys=True).encode()
            files[name] = hashlib.sha256(data).hexdigest()
        digests[problem, algorithm] = (code, files)
    return digests


def _digests(state, out_root):
    with np.errstate(**state):
        return _gallery_digests(), _report_digests(out_root)


@pytest.fixture(scope="module")
def default_digests(tmp_path_factory):
    return _digests(DEFAULT, str(tmp_path_factory.mktemp("default")))


@pytest.mark.parametrize("name", sorted(STATES))
def test_results_do_not_depend_on_the_error_state(name, default_digests, tmp_path_factory):
    default = default_digests
    got = _digests(STATES[name], str(tmp_path_factory.mktemp(name)))
    assert len(got[0]) == 3 * 94 and len(got[1]) == len(REPORTS)
    changed = sorted(label for label in default[0] if got[0][label] != default[0][label])
    assert not changed, f"{len(changed)} gallery runs differ under {name}: {changed[:5]}"
    assert got[1] == default[1]
