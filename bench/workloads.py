"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times), hands out ops in rounds, and checks every
op's output.  An op is one unit of user work; a round is a fixed batch of
ops, and a timed run always ends on a round boundary so that every run
measures the same mix.

check() returns (failure, wrong): ``failure`` names why an op did not
deliver a verified result (it raised, or stopped short of the stated
accuracy); ``wrong`` describes an output that claims success but fails its
check.  Both count as failed ops; a wrong output also makes the run
incorrect.
"""

import contextlib
import csv
import functools
import hashlib
import json
import os
import shutil
import time

import numpy as np

import qpref

# Besides its stock start, each problem has BASE_STARTS fixed starts spread
# over B(known_solution, START_RADIUS).  They do not move with the seed:
# some solves change course under a 1e-9 change of the start (rank1-affine
# with the global method ends either in a 40 ms error or in a 1.4 s solve),
# so seeded starts made a run's cost swing by a third from seed to seed.
# The seed orders the ops of each round instead, and in cli-report it also
# seeds the report's sampling.
BASE_STARTS = 3
START_RADIUS = 0.5


class Op:
    __slots__ = ("label", "key", "fn")

    def __init__(self, label, key, fn):
        self.label = label
        self.key = key
        self.fn = fn


def _roberts_alpha(dim):
    """Additive recurrence of the generalised golden ratio in ``dim``
    dimensions: a low-discrepancy sequence whose every prefix is spread
    evenly over the unit cube."""
    phi = 2.0
    for _ in range(100):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return np.array([phi ** -(i + 1) for i in range(dim)]) % 1.0


def base_starts(center, count=BASE_STARTS, radius=START_RADIUS):
    """The first ``count`` points of a low-discrepancy sequence mapped into
    the ball B(center, radius); the same for every seed."""
    from statistics import NormalDist

    n = center.size
    k = np.arange(1, count + 1)[:, None]
    t = (0.5 + k * _roberts_alpha(n + 1)) % 1.0
    inv = NormalDist().inv_cdf
    g = np.array([[inv(v) for v in row[:n]] for row in t])
    directions = g / np.linalg.norm(g, axis=1, keepdims=True)
    return center + (radius * t[:, n] ** (1.0 / n))[:, None] * directions


def _shuffled(ops, seed, k):
    order = np.random.default_rng([seed, k]).permutation(len(ops))
    return [ops[i] for i in order]


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class GallerySolve:
    """Every gallery problem x every applicable solver, through the library.

    A round runs each pair from the problem's stock start and from each of
    its base starts, in a seeded order.  Default SolverConfig, so the stated
    accuracy is its stop_tolerance.
    """

    name = "gallery-solve"
    tail_percentile = 98.0
    traced_rounds = 1
    anchors = {
        "two-parabolas/global": {"sets.project": 90, "polyhedra.project_onto_polyhedron": 27},
        "backtrack-example/map": {"sets.project": 4000, "polyhedra.project_onto_polyhedron": 2000},
        "two-lines-45/averaged": {"sets.project": 558},
    }

    def __init__(self, seed, shqp, workdir):
        self.shqp = shqp
        self.seed = seed
        self.config = shqp.solvers.SolverConfig()
        self.problems = []
        for name in shqp.gallery.gallery_names():
            problem = shqp.gallery.get_entry(name).problem
            # The two-set method is defined for exactly two sets.
            algs = [a for a in shqp.solvers.SOLVERS if a != "two-shqp" or len(problem.sets) == 2]
            self.problems.append((name, problem, base_starts(problem.known_solution), algs))

    def round(self, k, tag=""):
        ops = []
        for name, problem, base, algs in self.problems:
            for j, x0 in enumerate([problem.start, *base]):
                for alg in algs:
                    label = f"{name}/{alg}" + (f"@{j}" if j else "")
                    ops.append(Op(label, label, functools.partial(self._solve, problem, alg, x0)))
        return _shuffled(ops, self.seed, k)

    def _solve(self, problem, alg, x0):
        return self.shqp.solvers.SOLVERS[alg](problem, x0, config=self.config)

    def check(self, op, out, err):
        if err is not None:
            return err, None
        x = out.final_point()
        if not np.all(np.isfinite(x)):
            return "non-finite", f"{op.label}: non-finite final point"
        if out.status != "converged":
            return out.status, None
        tol = self.config.stop_tolerance
        worst = max(self.shqp.sets.project(s, x)[1] for s in op.fn.args[0].sets)
        if worst > tol:
            return "check", f"{op.label}: converged with set distance {worst:.3g} > {tol:g}"
        return None, None

    def fingerprint(self, op, out, err):
        if err is not None:
            return _digest("error", err)
        return _digest(
            out.status,
            out.copy_steps,
            *[
                (r.outer_iteration, r.inner_step, r.step_kind, r.qp_active_size,
                 r.qp_kkt_residual, r.point.tobytes(), r.distances.tobytes())
                for r in out.records
            ],
        )

    def discard(self, op):
        pass

    def traced_extras(self, ops, untraced_s):
        return {}

    def close(self):
        pass


class QpCorpus:
    """Seeded random small projections fed straight to the polyhedral QP.

    The corpus is 10,000 problems drawn like the acceptance criterion's; a
    round is the next 500 of them, wrapping around.
    """

    name = "qp-corpus"
    tail_percentile = 99.9
    corpus_size = 10_000
    round_size = 500
    traced_rounds = corpus_size // round_size
    anchors = {
        "seed-0 corpus": {
            "polyhedra.enumeration": 609,
            "polyhedra.phase1_lp": 535,
            "polyhedra.project_onto_polyhedron.infeasible": 2357,
        }
    }

    def __init__(self, seed, shqp, workdir):
        self.shqp = shqp
        self.seed = seed
        self.problems, self.polys = self.corpus(seed)
        self.references = {}
        self.reference_s = 0.0

    def corpus(self, seed):
        poly = self.shqp.polyhedra
        rng = np.random.default_rng(seed)
        problems = [qpref.random_problem(rng) for _ in range(self.corpus_size)]
        polys = [
            poly.Polyhedron(
                [
                    poly.Halfspace(a, off, "equality" if eq else "inequality")
                    for a, off, eq in zip(A, b, is_eq)
                ]
            )
            for A, b, is_eq, _ in problems
        ]
        return problems, polys

    def round(self, k, tag=""):
        base = (k * self.round_size) % self.corpus_size
        for i in range(base, base + self.round_size):
            yield Op(f"qp-{i}", i, functools.partial(self._project, i))

    def _project(self, i):
        return self.shqp.polyhedra.project_onto_polyhedron(self.polys[i], self.problems[i][3])

    def check(self, op, out, err):
        if err is not None:
            return err, None
        fp = self.fingerprint(op, out, err)
        seen = self.references.get(op.key)
        if seen is not None:
            if seen != fp:
                return "check", f"{op.label}: a repeated projection gave a different result"
            return None, None
        self.references[op.key] = fp
        A, b, is_eq, x0 = self.problems[op.key]
        t = time.perf_counter()
        ref = qpref.nearest_point(A, b, is_eq, x0)
        self.reference_s += time.perf_counter() - t
        if out.status == "optimal":
            if ref is None:
                return "check", f"{op.label}: optimal, but brute force finds the polyhedron empty"
            gap = np.linalg.norm(out.point - ref) / (1.0 + np.linalg.norm(ref))
            if not gap <= 1e-8:
                return "check", f"{op.label}: {gap:.3g} from the brute-force nearest point"
            return None, None
        if out.status == "infeasible":
            if ref is not None:
                return "check", f"{op.label}: infeasible, but brute force finds a point"
            if not qpref.certificate_holds(A, b, is_eq, x0, out.certificate):
                return "check", f"{op.label}: infeasibility certificate does not verify"
            return None, None
        return out.status, None

    def fingerprint(self, op, out, err):
        if err is not None:
            return _digest("error", err)
        cert = None if out.certificate is None else out.certificate.tobytes()
        return _digest(
            out.status, out.point.tobytes(), out.active_set, out.multipliers.tobytes(),
            out.kkt_residual, cert,
        )

    def discard(self, op):
        pass

    def traced_extras(self, ops, untraced_s):
        # Our corpus time over the benchmark's brute force on the same problems.
        return {"polyhedra.bruteforce_ratio": untraced_s / self.reference_s}

    def close(self):
        pass


# Inline problems carry no intersection oracle, so the report estimates
# d(x, K) with pooled-halfspace proxy runs and builds sets from JSON.
INLINE_PROBLEMS = (
    {
        "name": "two-circles",
        "sets": [
            {"kind": "sphere", "center": [0.0, 0.0], "radius": 1.0},
            {"kind": "sphere", "center": [1.0, 0.0], "radius": 1.0},
        ],
        "start": [0.9, 1.3],
        "known_solution": [0.5, 0.8660254037844386],
    },
    {
        "name": "box-ball-plane",
        "sets": [
            {"kind": "box", "lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 1.0]},
            {"kind": "ball", "center": [0.5, 0.5, 0.5], "radius": 1.0},
            {"kind": "hyperplane", "normal": [1.0, 1.0, 1.0], "offset": 1.0},
        ],
        "start": [2.0, -1.5, 0.7],
        "known_solution": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    },
)


class CliReport:
    """In-process ``shqp`` command lines, each writing into its own directory.

    A round runs every (gallery problem, algorithm) pair below, every inline
    config with two algorithms, and one tau x pbar sweep; every round is the
    same set of command lines, in a seeded order.  Each algorithm starts
    from its own start of the problem (the stock start or a base start).
    The report seed is the benchmark seed, so the same (problem, xbar,
    seed) comes back across algorithms and rounds.
    """

    name = "cli-report"
    tail_percentile = 80.0
    traced_rounds = 1
    anchors = {}
    run_problems = ("backtrack-example", "circle-line", "two-parabolas", "parabola-lens", "rank1-affine")
    run_algorithms = ("mass", "memory-shqp", "global")
    inline_algorithms = ("mass", "memory-shqp")
    sweep = ("two-parabolas", "memory-shqp", "0.2,0.1,0.05", "2,4")

    def __init__(self, seed, shqp, workdir):
        self.shqp = shqp
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.base = {}
        for name in self.run_problems:
            known = shqp.gallery.get_entry(name).problem.known_solution
            self.base[name] = base_starts(known)
        self.configs = []
        for spec in INLINE_PROBLEMS:
            path = os.path.join(workdir, f"{spec['name']}.json")
            with open(path, "w") as fh:
                json.dump({"problem": spec}, fh)
            self.base[spec["name"]] = base_starts(np.array(spec["known_solution"]))
            self.configs.append((spec["name"], path))
        self.devnull = open(os.devnull, "w")

    def _x0(self, name, j):
        """The stock start (j = 0) or base start j as an --x0 flag."""
        return ["--x0=" + ",".join(f"{v:.17g}" for v in self.base[name][j - 1])] if j else []

    def round(self, k, tag=""):
        seed = ["--seed", str(self.seed)]
        argvs = []
        for name in self.run_problems:
            for j, alg in enumerate(self.run_algorithms):
                argvs.append((f"run {name}/{alg}", ("run", name),
                              ["run", "--problem", name, "--algorithm", alg, *self._x0(name, j), *seed]))
        for name, path in self.configs:
            for j, alg in enumerate(self.inline_algorithms):
                argvs.append((f"run inline {name}/{alg}", ("run", name),
                              ["run", "--config", path, "--algorithm", alg, "--format", "json",
                               *self._x0(name, j), *seed]))
        problem, alg, taus, pbars = self.sweep
        argvs.append((f"sweep {problem}/{alg}", ("sweep", problem),
                      ["sweep", "--problem", problem, "--algorithm", alg, *self._x0(problem, BASE_STARTS),
                       "--tau-grid", taus, "--pbar-grid", pbars, *seed]))
        ops = []
        for i, (label, key, argv) in enumerate(argvs):
            out_dir = os.path.join(self.workdir, f"{tag}r{k}-{i}")
            ops.append(Op(label, key, functools.partial(self._main, argv + ["--out-dir", out_dir])))
        return _shuffled(ops, self.seed, k)

    def _main(self, argv):
        with contextlib.redirect_stdout(self.devnull):
            return self.shqp.cli.main(argv)

    @staticmethod
    def _out_dir(op):
        return op.fn.args[0][-1]

    def _outputs(self, op):
        """Raw output files of one op, or a description of what is missing."""
        out_dir = self._out_dir(op)
        files = {}
        try:
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files[name] = fh.read()
        except OSError as exc:
            return None, f"cannot read outputs: {exc}"
        return files, None

    def check(self, op, out, err):
        if err is not None:
            return err, None
        files, problem = self._outputs(op)
        if problem:
            return "check", f"{op.label}: {problem}"
        try:
            if op.key[0] == "sweep":
                return self._check_sweep(op, out, files)
            return self._check_run(op, out, files)
        except (KeyError, ValueError, csv.Error) as exc:
            return "check", f"{op.label}: unreadable output ({type(exc).__name__}: {exc})"

    def _check_run(self, op, code, files):
        report = json.loads(files["report.json"])
        status = report["terminal_status"]
        if "trace.csv" in files:
            rows = list(csv.reader(files["trace.csv"].decode().splitlines()))
            if len(rows) < 2 or rows[0][:3] != ["outer_i", "inner_j", "step_kind"]:
                return "check", f"{op.label}: trace.csv has no records"
        else:
            body = json.loads(files["trace.json"])
            if body["status"] != status or not body["records"]:
                return "check", f"{op.label}: trace.json disagrees with the report"
        # Documented exit codes: 0 converged, 2 iteration budget, else no progress.
        expected_ok = (code == 0) == (status == "converged") and (
            status != "max-iterations" or code == 2
        ) and code != 64
        if not expected_ok:
            return "check", f"{op.label}: exit {code} for status {status!r}"
        return (None if code == 0 else status), None

    def _check_sweep(self, op, code, files):
        rows = list(csv.DictReader(files["sweep.csv"].decode().splitlines()))
        cells = len(self.sweep[2].split(",")) * len(self.sweep[3].split(","))
        if code != 0 or len(rows) != cells:
            return "check", f"{op.label}: exit {code} with {len(rows)} of {cells} rows"
        bad = [r["status"] or r["error"] for r in rows if r["status"] != "converged"]
        return (bad[0] if bad else None), None

    def fingerprint(self, op, out, err):
        if err is not None:
            return _digest("error", err)
        files, problem = self._outputs(op)
        if problem:
            return _digest("missing", problem)
        parts = [out]
        for name, data in files.items():
            if name == "report.json":
                report = json.loads(data)
                report.pop("wallclock_ms", None)
                report["config_echo"].pop("out_dir", None)
                data = json.dumps(report, sort_keys=True)
            parts += [name, data]
        return _digest(*parts)

    def discard(self, op):
        shutil.rmtree(self._out_dir(op), ignore_errors=True)

    def traced_extras(self, ops, untraced_s):
        """Report sizes and the share of run ops whose (problem, xbar, seed)
        already ran earlier in the op list."""
        report_bytes = 0
        for op in ops:
            path = os.path.join(self._out_dir(op), "report.json")
            if os.path.exists(path):
                report_bytes += os.path.getsize(path)
        seen, runs, repeats = set(), 0, 0
        for op in ops:
            if op.key[0] == "run":
                runs += 1
                repeats += op.key in seen
                seen.add(op.key)
        return {
            "harness.report.bytes": report_bytes,
            "harness.repeat_share": repeats / runs if runs else 0.0,
        }

    def close(self):
        self.devnull.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GallerySolve, QpCorpus, CliReport)}
