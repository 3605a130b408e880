"""Span recorder for the traced benchmark run.

Layers are timed from outside the package: each hooked function is replaced,
on its module (or in the solver registry that ``harness._dispatch`` reads),
by a wrapper that records one span per call -- name, start, end, the span
that caused it, the thread and the benchmark op -- and then calls the
original.  Spans are held in flat arrays and turned into per-layer numbers
when the run ends; ``uninstall`` puts every original back, so correctness
checks run untraced.
"""

import collections
import functools
import os
import sys
import threading
import time
from array import array

import numpy as np

SET_KINDS = (
    "halfspace",
    "hyperplane",
    "affine-subspace",
    "ball",
    "box",
    "sphere",
    "smooth-level-set",
    "smooth-manifold",
    "fixed-rank-matrix-set",
    "point-set",
    "finite-union-of-convex",
    "polyhedron",
    "intersection",
)
_KIND_ID = {k: i for i, k in enumerate(SET_KINDS)}

STEP_KINDS = (
    "qp-step",
    "qp-drop-oldest",
    "qp-inequality-relaxation",
    "fallback-projection",
    "line-search",
    "averaged-step",
    "set-projection",
)

SOLVER_FUNCTIONS = (
    "run_map",
    "run_basic_shqp",
    "run_mass_projection",
    "run_memory_shqp",
    "run_two_shqp",
    "run_averaged_projections",
    "run_global",
)

# Private functions a later rewrite of the QP may delete; a missing one is
# reported as not hooked instead of failing the run.
OPTIONAL = ("polyhedra.enumeration", "polyhedra.phase1_lp")


class Recorder:
    """Spans of one traced run, with a span stack per thread.

    A span opened on a thread whose stack is empty (a sweep cell on the
    harness's worker pool) takes the innermost open span of the thread that
    installed the recorder as its cause.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("i")
        self.op = array("i")
        self.info = array("q")
        self.current_op = -1
        self.trace_counts = collections.Counter()
        self.hooked = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = {}
        self._patches = []
        self._main_stack = []

    # -- recording -------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        ident = threading.get_ident()
        with self._lock:
            tid = self._threads.setdefault(ident, len(self._threads))
            idx = len(self.name)
            self.name.append(name_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(parent)
            self.thread.append(tid)
            self.op.append(self.current_op)
            self.info.append(0)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- hooks -----------------------------------------------------------
    def hook(self, owner, attr, name, info=None, cpu=False):
        """Wrap ``owner.attr`` (or ``owner[attr]`` for a dict) as span ``name``.

        ``info(recorder, args, kwargs, result)`` returns an integer kept with
        the span; with ``cpu`` the span keeps its thread's CPU time in ns.
        """
        is_map = isinstance(owner, dict)
        original = owner.get(attr) if is_map else getattr(owner, attr, None)
        if not callable(original):
            self.hooked.setdefault(name, False)
            return
        self.hooked[name] = True
        name_id = self.name_id(name)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = recorder._open(name_id)
            cpu0 = time.thread_time_ns() if cpu else 0
            try:
                result = original(*args, **kwargs)
            finally:
                if cpu:
                    recorder.info[idx] = time.thread_time_ns() - cpu0
                recorder._close(idx)
            if info is not None:
                recorder.info[idx] = info(recorder, args, kwargs, result)
            return result

        if is_map:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, is_map))

    def install(self, shqp):
        """Hook every layer of the package; call from the main thread."""
        self._local.stack = self._main_stack
        sets, polyhedra, solvers = shqp.sets, shqp.polyhedra, shqp.solvers
        diagnostics, harness, cli, gallery = (
            shqp.diagnostics, shqp.harness, shqp.cli, shqp.gallery
        )
        self.hook(sets, "project", "sets.project", _set_kind)
        self.hook(sets, "check_super_regular", "sets.check_super_regular")
        self.hook(sets, "check_sosh", "sets.check_sosh")
        self.hook(
            polyhedra, "project_onto_polyhedron", "polyhedra.project_onto_polyhedron", _qp_info
        )
        self.hook(polyhedra, "_enumerate_nearest", "polyhedra.enumeration")
        self.hook(polyhedra, "_phase_one_certificate", "polyhedra.phase1_lp")
        self.hook(polyhedra, "eta", "polyhedra.eta")
        for fn in SOLVER_FUNCTIONS:
            self.hook(solvers, fn, "solvers.solve", _trace_info)
        for key in list(solvers.SOLVERS):
            self.hook(solvers.SOLVERS, key, "solvers.solve", _trace_info)
        self.hook(solvers, "merit_value", "solvers.merit_value")
        self.hook(diagnostics, "estimate_regularity", "diagnostics.estimate_regularity")
        self.hook(diagnostics, "analyze_trace", "diagnostics.analyze_trace")
        self.hook(harness, "validate_experiment", "harness.validate_experiment")
        self.hook(harness, "set_from_json", "harness.set_from_json")
        self.hook(harness, "build_report", "harness.build_report")
        self.hook(harness, "write_trace_csv", "harness.write_trace", _file_size)
        self.hook(harness, "write_trace_json", "harness.write_trace", _file_size)
        self.hook(harness, "_sweep_cell", "harness.sweep_cell", cpu=True)
        self.hook(harness, "run_sweep", "harness.run_sweep")
        self.hook(cli, "main", "cli.main")
        self.hook(gallery, "get_entry", "gallery.get_entry")
        for name in OPTIONAL:
            if not self.hooked.get(name):
                print(f"trace: nothing found to hook for {name}; counted as 0", file=sys.stderr)

    def uninstall(self):
        while self._patches:
            owner, attr, original, is_map = self._patches.pop()
            if is_map:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "thread": np.array(self.thread, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "info": np.array(self.info, dtype=np.int64),
        }

    def write(self, path):
        """Write every span, plus the name table, as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _set_kind(recorder, args, kwargs, result):
    kind = getattr(args[0] if args else kwargs.get("oracle"), "kind", None)
    return _KIND_ID.get(kind, len(SET_KINDS))


def _qp_info(recorder, args, kwargs, result):
    poly = args[0] if args else kwargs["poly"]
    warm = args[2] if len(args) > 2 else kwargs.get("warm_start", ())
    return 4 * len(poly) + 2 * (result.status == "infeasible") + (len(warm) > 0)


def _trace_info(recorder, args, kwargs, result):
    records = result.records
    steps = collections.Counter(
        "set-projection" if r.step_kind.startswith("set-projection") else r.step_kind
        for r in records
    )
    moved = [r.outer_iteration for r in records if r.step_kind != "start"]
    with recorder._lock:
        recorder.trace_counts["records"] += len(records)
        recorder.trace_counts["outer_iterations"] += max(moved) + 1 if moved else 0
        recorder.trace_counts["copy_steps"] += result.copy_steps
        recorder.trace_counts.update({f"step.{k}": v for k, v in steps.items()})
    return len(records)


def _file_size(recorder, args, kwargs, result):
    path = kwargs.get("path", args[-1] if args else None)
    return os.path.getsize(path)


def self_times(cols):
    """Each span's duration minus the part of it that its child spans cover.

    Children on the parent's own thread run one after another, so their
    durations add up; children on other threads may overlap, so for those
    parents the union of all child intervals is subtracted.
    """
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    n = dur.size
    has = parent >= 0
    same = np.zeros(n, dtype=bool)
    same[has] = cols["thread"][has] == cols["thread"][parent[has]]
    covered = np.bincount(parent[same], weights=dur[same], minlength=n)[:n]
    self_t = dur - covered
    cross = np.unique(parent[has & ~same])
    for p in cross:
        kids = np.flatnonzero(parent == p)
        lo = np.clip(cols["start"][kids], cols["start"][p], cols["end"][p])
        hi = np.clip(cols["end"][kids], cols["start"][p], cols["end"][p])
        order = np.argsort(lo)
        total, cur_lo, cur_hi = 0.0, None, None
        for a, b in zip(lo[order], hi[order]):
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        self_t[p] = dur[p] - total
    return dur, self_t


def _count(name):
    return (name, "count", "lower")


def _seconds(name):
    return (name, "s", "lower")


# name, unit, better -- the per-layer metrics every traced run reports.
PER_LAYER = [
    _count("sets.project.calls"),
    ("sets.project.calls.per_op", "count/op", "lower"),
    _seconds("sets.project.self_s"),
    *[_count(f"sets.project.calls.{kind}") for kind in SET_KINDS],
    _count("sets.project.calls.other"),
    _count("sets.check_super_regular.calls"),
    _seconds("sets.check_super_regular.self_s"),
    _count("sets.check_sosh.calls"),
    _seconds("sets.check_sosh.self_s"),
    _count("polyhedra.project_onto_polyhedron.calls"),
    ("polyhedra.project_onto_polyhedron.calls.per_op", "count/op", "lower"),
    _seconds("polyhedra.project_onto_polyhedron.self_s"),
    ("polyhedra.project_onto_polyhedron.rows_mean", "rows", "lower"),
    _count("polyhedra.project_onto_polyhedron.infeasible"),
    ("polyhedra.project_onto_polyhedron.warm_started", "count", "higher"),
    _count("polyhedra.enumeration.calls"),
    ("polyhedra.enumeration.calls.per_op", "count/op", "lower"),
    _seconds("polyhedra.enumeration.self_s"),
    ("polyhedra.enumeration.hooked", "flag", "higher"),
    _count("polyhedra.phase1_lp.calls"),
    ("polyhedra.phase1_lp.calls.per_op", "count/op", "lower"),
    _seconds("polyhedra.phase1_lp.self_s"),
    ("polyhedra.phase1_lp.hooked", "flag", "higher"),
    ("polyhedra.bruteforce_ratio", "ratio", "lower"),
    _count("polyhedra.eta.calls"),
    _seconds("polyhedra.eta.self_s"),
    _count("solvers.solve.calls"),
    _seconds("solvers.engine.self_s"),
    _count("solvers.outer_iterations"),
    ("solvers.outer_iterations.per_op", "count/op", "lower"),
    _count("solvers.records"),
    _count("solvers.copy_steps"),
    *[_count(f"solvers.step.{kind}") for kind in STEP_KINDS],
    ("solvers.oracle_calls_per_record", "ratio", "lower"),
    ("solvers.qp_calls_per_record", "ratio", "lower"),
    _count("solvers.merit_value.calls"),
    _count("diagnostics.estimate_regularity.calls"),
    _seconds("diagnostics.estimate_regularity.total_s"),
    _seconds("diagnostics.estimate_regularity.self_s"),
    ("diagnostics.estimate_regularity.share", "share", "lower"),
    _count("diagnostics.analyze_trace.calls"),
    _seconds("diagnostics.analyze_trace.self_s"),
    _seconds("harness.validate_experiment.self_s"),
    _count("harness.set_from_json.calls"),
    _seconds("harness.build_report.self_s"),
    _seconds("harness.write_trace.self_s"),
    ("harness.write_trace.bytes", "B", "lower"),
    ("harness.report.bytes", "B", "lower"),
    _count("harness.sweep_cell.calls"),
    _seconds("harness.sweep_cell.busy_s"),
    _seconds("harness.run_sweep.total_s"),
    ("harness.sweep.parallelism", "ratio", "higher"),
    ("harness.repeat_share", "share", "higher"),
    _count("cli.main.calls"),
    _seconds("cli.main.self_s"),
    _count("gallery.get_entry.calls"),
    _seconds("gallery.get_entry.self_s"),
    ("trace.ops", "count", "higher"),
    _count("trace.spans"),
    ("trace.overhead_ratio", "ratio", "lower"),
    _count("trace.anchor_mismatches"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(recorder, ops, traced_s, extras):
    """Per-layer numbers of one traced run.

    ``ops`` is the number of traced ops, ``traced_s`` their summed wall
    time, and ``extras`` the numbers measured outside the spans (the
    workload's own, the anchor mismatches and the tracing overhead).
    """
    cols = recorder.arrays()
    dur, self_t = self_times(cols)
    names = cols["name"]

    def mask(name):
        ids = recorder._name_ids
        return names == ids[name] if name in ids else np.zeros(names.size, dtype=bool)

    def calls(name):
        return int(mask(name).sum())

    def self_s(name):
        return float(self_t[mask(name)].sum())

    m = {}
    for layer in (
        "sets.project",
        "sets.check_super_regular",
        "sets.check_sosh",
        "polyhedra.project_onto_polyhedron",
        "polyhedra.enumeration",
        "polyhedra.phase1_lp",
        "polyhedra.eta",
        "solvers.solve",
        "solvers.merit_value",
        "diagnostics.estimate_regularity",
        "diagnostics.analyze_trace",
        "harness.set_from_json",
        "harness.sweep_cell",
        "cli.main",
        "gallery.get_entry",
    ):
        m[f"{layer}.calls"] = calls(layer)
    for layer in (
        "sets.project",
        "sets.check_super_regular",
        "sets.check_sosh",
        "polyhedra.project_onto_polyhedron",
        "polyhedra.enumeration",
        "polyhedra.phase1_lp",
        "polyhedra.eta",
        "diagnostics.estimate_regularity",
        "diagnostics.analyze_trace",
        "harness.validate_experiment",
        "harness.build_report",
        "harness.write_trace",
        "cli.main",
        "gallery.get_entry",
    ):
        m[f"{layer}.self_s"] = self_s(layer)

    kinds = cols["info"][mask("sets.project")]
    for k, kind in enumerate(SET_KINDS):
        m[f"sets.project.calls.{kind}"] = int((kinds == k).sum())
    m["sets.project.calls.other"] = int((kinds >= len(SET_KINDS)).sum())

    qp = cols["info"][mask("polyhedra.project_onto_polyhedron")]
    m["polyhedra.project_onto_polyhedron.rows_mean"] = float((qp >> 2).mean()) if qp.size else 0.0
    m["polyhedra.project_onto_polyhedron.infeasible"] = int(((qp >> 1) & 1).sum())
    m["polyhedra.project_onto_polyhedron.warm_started"] = int((qp & 1).sum())
    for name in OPTIONAL:
        m[f"{name}.hooked"] = int(bool(recorder.hooked.get(name)))
    m["polyhedra.bruteforce_ratio"] = 0.0

    solver = mask("solvers.solve") | mask("solvers.merit_value")
    m["solvers.engine.self_s"] = float(self_t[solver].sum())
    counts = recorder.trace_counts
    records = counts["records"]
    m["solvers.outer_iterations"] = counts["outer_iterations"]
    m["solvers.records"] = records
    m["solvers.copy_steps"] = counts["copy_steps"]
    for kind in STEP_KINDS:
        m[f"solvers.step.{kind}"] = counts[f"step.{kind}"]

    def called_by_solver(name):
        par = cols["parent"][mask(name)]
        par = par[par >= 0]
        return int(solver[par].sum())

    # Calls the solvers make themselves (not nested inside another oracle).
    m["solvers.oracle_calls_per_record"] = called_by_solver("sets.project") / records if records else 0.0
    m["solvers.qp_calls_per_record"] = (
        called_by_solver("polyhedra.project_onto_polyhedron") / records if records else 0.0
    )

    est = mask("diagnostics.estimate_regularity")
    m["diagnostics.estimate_regularity.total_s"] = float(dur[est].sum())
    m["diagnostics.estimate_regularity.share"] = float(dur[est].sum()) / traced_s if traced_s else 0.0

    m["harness.write_trace.bytes"] = int(cols["info"][mask("harness.write_trace")].sum())
    m["harness.report.bytes"] = 0
    cells = mask("harness.sweep_cell")
    busy = float(cols["info"][cells].sum()) * 1e-9
    m["harness.sweep_cell.busy_s"] = busy
    m["harness.run_sweep.total_s"] = float(dur[mask("harness.run_sweep")].sum())
    # Parallelism of the cell pool: the cells' CPU time over the wall time
    # from the first cell's start to the last cell's end, per sweep.  Wall
    # time per cell would count the time a thread waits for the interpreter
    # lock as busy.
    pool_wall = 0.0
    for sweep in np.flatnonzero(mask("harness.run_sweep")):
        mine = cells & (cols["parent"] == sweep)
        if mine.any():
            pool_wall += float(cols["end"][mine].max() - cols["start"][mine].min())
    m["harness.sweep.parallelism"] = busy / pool_wall if pool_wall else 0.0
    m["harness.repeat_share"] = 0.0

    m["trace.ops"] = ops
    m["trace.spans"] = int(names.size)
    m.update(extras)
    for name in (
        "sets.project.calls",
        "polyhedra.project_onto_polyhedron.calls",
        "polyhedra.enumeration.calls",
        "polyhedra.phase1_lp.calls",
        "solvers.outer_iterations",
    ):
        m[f"{name}.per_op"] = m[name] / ops if ops else 0.0
    return m


def op_counts(recorder, name, ops):
    """Number of ``name`` spans in each traced op."""
    cols = recorder.arrays()
    ids = recorder._name_ids
    if name not in ids:
        return np.zeros(ops, dtype=int)
    op = cols["op"][(cols["name"] == ids[name]) & (cols["op"] >= 0)]
    return np.bincount(op, minlength=ops)[:ops]


def op_infeasible(recorder, ops):
    """Number of infeasible QP results in each traced op."""
    cols = recorder.arrays()
    ids = recorder._name_ids
    name = "polyhedra.project_onto_polyhedron"
    if name not in ids:
        return np.zeros(ops, dtype=int)
    sel = (cols["name"] == ids[name]) & (cols["op"] >= 0) & (((cols["info"] >> 1) & 1) == 1)
    return np.bincount(cols["op"][sel], minlength=ops)[:ops]
