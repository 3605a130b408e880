"""Experiment configuration, execution, and machine-readable output.

A run takes an ExperimentConfig (JSON document or keyword dict), executes
one algorithm on one problem, and writes a trace file plus a report JSON.
A sweep runs a grid of (tau, pbar, x0_seed) cells one after another and
writes one summary row per cell.  Exit codes: 0 converged, 2 iteration
budget exhausted, 3 no further progress possible (including a set oracle
that failed to converge), 64 bad configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import numbers
import operator
import os
import time

import numpy as np

from . import diagnostics, gallery, polyhedra, solvers
from . import sets as sets_mod

__all__ = [
    "UsageError",
    "ExperimentConfig",
    "CONFIG_SCHEMA",
    "validate_config",
    "validate_experiment",
    "problem_from_config",
    "set_from_json",
    "resolve_x0",
    "run_experiment",
    "run_sweep",
    "build_report",
    "write_trace_csv",
    "write_trace_json",
    "EXIT_CONVERGED",
    "EXIT_MAX_ITERATIONS",
    "EXIT_NO_PROGRESS",
    "EXIT_USAGE",
]

EXIT_CONVERGED = 0
EXIT_MAX_ITERATIONS = 2
EXIT_NO_PROGRESS = 3
EXIT_USAGE = 64

_STATUS_EXIT = {
    "converged": EXIT_CONVERGED,
    "max-iterations": EXIT_MAX_ITERATIONS,
    "stalled": EXIT_NO_PROGRESS,
    "qp-infeasible-fallback-exhausted": EXIT_NO_PROGRESS,
    "oracle-failed": EXIT_NO_PROGRESS,
}


def _exit_code(status: str) -> int:
    try:
        return _STATUS_EXIT[status]
    except KeyError:
        raise RuntimeError(f"solver ended with an unmapped status {status!r}") from None


class UsageError(ValueError):
    """Bad configuration, unknown name, or invalid parameter combination."""


_VECTOR = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_NONNEGATIVE_INT = {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_RELAXATION = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}
_TRACE_FORMATS = ["csv", "json"]


def _nullable(schema: dict) -> dict:
    return {"oneOf": [schema, {"type": "null"}]}


_SET_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"type": "string"}},
}

_PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["name", "sets", "start"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "sets": {"type": "array", "items": _SET_SCHEMA, "minItems": 1},
        "start": _VECTOR,
        "known_solution": _nullable(_VECTOR),
        "intersection": _nullable(_SET_SCHEMA),
    },
}


def _param(schema: dict, help: str | None = None, default=dataclasses.MISSING, **flag):
    """A run parameter's field and its default, with its CONFIG_SCHEMA
    property and, given help, the argparse keywords of its run flag."""
    flag = None if help is None else dict(flag, help=help)
    return dataclasses.field(default=default, metadata={"schema": schema, "flag": flag})


def _field_type(field: dataclasses.Field):
    """int or float for a field annotated so (None allowed), else None."""
    return {"int": int, "float": float}.get(field.type.split(" ")[0])


@dataclasses.dataclass
class ExperimentConfig:
    """One experiment: a problem, an algorithm, and solver parameters.

    Each field declares its run parameter once.  CONFIG_SCHEMA's properties
    are the fields' schemas in field order, and it requires each field
    without a default.  A field with help gets the run flag
    --name-with-dashes, typed by its int or float annotation.
    """

    problem: object = _param(
        {"oneOf": [{"type": "string", "minLength": 1}, _PROBLEM_SCHEMA]}, "gallery name (see `list`)"
    )
    algorithm: str = _param({"enum": list(solvers.SOLVERS)}, "one of: " + ", ".join(solvers.SOLVERS))
    x0: list | None = _param(_nullable(_VECTOR), "starting point, comma-separated (e.g. 0,1,0)", None)
    x0_seed: int | None = _param(
        _nullable(_NONNEGATIVE_INT), "seed a random start near the known solution", None
    )
    x0_radius: float = _param(_POSITIVE, "radius of the seeded-start ball", 0.25)
    tau: float = _param(_RELAXATION, "halfspace relaxation parameter in [0,1)", 0.1)
    tau_schedule: list | None = _param(
        _nullable({"type": "array", "items": _RELAXATION, "minItems": 1}), default=None
    )
    pbar: int = _param(_NONNEGATIVE_INT, "memory depth in outer iterations", 8)
    schedule: dict | None = _param(
        _nullable(
            {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["blocks", "farthest"]},
                    "blocks": {
                        "type": "array",
                        "items": {"type": "array", "items": _NONNEGATIVE_INT, "minItems": 1},
                    },
                    "pairing": {"enum": ["latest", "fixed"]},
                },
            }
        ),
        default=None,
    )
    merit: str = _param(
        {"enum": ["sum-of-squares", "max-distance", "intersection-distance"]}, default="sum-of-squares"
    )
    seed: int = _param(
        _NONNEGATIVE_INT, "seed for the report's regularity sampling (no solver draws from it)", 0
    )
    max_iters: int = _param({"type": "integer", "minimum": 1}, "outer iteration cap", 500)
    tol: float = _param(_POSITIVE, "stop when every set distance is below this", 1e-10)
    out_dir: str | None = _param(_nullable({"type": "string"}), "directory for trace and report files", None)
    format: str = _param(
        {"enum": _TRACE_FORMATS}, "trace file format (default csv)", "csv", choices=_TRACE_FORMATS
    )
    sweep: dict | None = _param(
        _nullable(
            {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "tau": {"type": "array", "items": {"type": "number"}},
                    "pbar": {"type": "array", "items": {"type": "integer"}},
                    "x0_seeds": {"type": "array", "items": {"type": "integer"}},
                },
            }
        ),
        default=None,
    )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        validate_config(data)
        # The schema counts an integral float such as 50.0 as an integer.
        ints = {f.name for f in dataclasses.fields(cls) if _field_type(f) is int}
        return cls(**{k: int(v) if k in ints and v is not None else v for k, v in data.items()})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def solver_config(self) -> solvers.SolverConfig:
        schedule = None if self.tau_schedule is None else tuple(self.tau_schedule)
        return solvers.SolverConfig(
            tau=self.tau,
            tau_schedule=schedule,
            pbar=self.pbar,
            max_outer_iterations=self.max_iters,
            stop_tolerance=self.tol,
        )


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [f.name for f in dataclasses.fields(ExperimentConfig) if f.default is dataclasses.MISSING],
    "additionalProperties": False,
    "properties": {f.name: f.metadata["schema"] for f in dataclasses.fields(ExperimentConfig)},
}


# The JSON types as Draft 2020-12 reads them: a bool is not a number, and
# an integral float is an integer.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}

# The type each keyword constrains; a value of another type satisfies it.
_KEYWORD_TYPES = {
    "required": "object",
    "properties": "object",
    "additionalProperties": "object",
    "items": "array",
    "minItems": "array",
    "minLength": "string",
    "minimum": "number",
    "exclusiveMinimum": "number",
    "exclusiveMaximum": "number",
}

_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _schema_errors(value, schema, path=()):
    """Yield (path, message) for each way value breaks schema, in the order
    of jsonschema's Draft202012Validator.iter_errors: the schema's keywords
    in order, depth first, and a failing oneOf as one error at its own
    path.  Raises ValueError on a keyword it does not interpret."""
    for key, rule in schema.items():
        if key in _KEYWORD_TYPES and not _JSON_TYPES[_KEYWORD_TYPES[key]](value):
            continue
        if key == "type":
            if not _JSON_TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum":
            # Every enum here lists strings, and jsonschema compares a string
            # only with a string.
            if not (isinstance(value, str) and value in rule):
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "oneOf":
            valid = [sub for sub in rule if next(_schema_errors(value, sub, path), None) is None]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                reprs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
                yield path, f"{value!r} is valid under each of {reprs}"
        elif key == "required":
            for name in rule:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties":
            # Every additionalProperties here is false.
            extras = sorted(set(value) - set(schema.get("properties", {})), key=str)
            if extras:
                names = ", ".join(repr(name) for name in extras)
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "items":
            for index, item in enumerate(value):
                yield from _schema_errors(item, rule, path + (index,))
        elif key in ("minItems", "minLength"):
            if len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key in _BOUNDS:
            breaks, words = _BOUNDS[key]
            if breaks(value, rule):
                yield path, f"{value!r} is {words} of {rule!r}"
        elif key != "$schema":
            raise ValueError(f"schema keyword {key!r} is not interpreted")


def validate_config(data: dict) -> None:
    """Validate a raw config dict against CONFIG_SCHEMA; raise UsageError
    with the offending JSON path on failure.

    The schema is walked here, without a JSON Schema library.  The walk
    interprets the keywords CONFIG_SCHEMA uses (type, required,
    additionalProperties: false, properties, items, minItems, minLength,
    enum over strings, oneOf, minimum, exclusiveMinimum, exclusiveMaximum)
    and ignores $schema.  The error raised, and its path and message, are
    those of jsonschema's Draft202012Validator: of its errors, the first by
    JSON path, ties in the schema's keyword order.
    """
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    error = min(_schema_errors(data, CONFIG_SCHEMA), key=lambda e: e[0], default=None)
    if error is not None:
        path = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in error[0])
        raise UsageError(f"config invalid at {path}: {error[1]}")


def _vec(obj, path, dimension=None):
    # A list of JSON numbers: a string, a bool or a nested list is no component.
    if not (isinstance(obj, list) and obj and all(map(_JSON_TYPES["number"], obj))):
        raise UsageError(f"{path}: expected a flat nonempty vector")
    v = np.asarray(obj, dtype=float)
    if dimension is not None and v.size != dimension:
        raise UsageError(f"{path}: expected {dimension} components, got {v.size}")
    # JSON's NaN and Infinity parse, and so do "nan" and "inf" in --x0.
    if not np.isfinite(v).all():
        raise UsageError(f"{path}: expected finite components")
    return v


def _number(value, path) -> float:
    if not (_JSON_TYPES["number"](value) and math.isfinite(value)):
        raise UsageError(f"{path}: expected a finite number")
    return float(value)


def _json_number(value, path):
    """A JSON number, NaN and the infinities included, for a constructor that checks it."""
    if not _JSON_TYPES["number"](value):
        raise UsageError(f"{path}: expected a number")
    return value


def _as_given(value, path):
    return value


def _each(read):
    """A reader of a JSON list that reads each item with read, at the item's path."""

    def read_list(items, path):
        if not isinstance(items, list):
            raise UsageError(f"{path}: expected a list")
        return [read(item, f"{path}[{i}]") for i, item in enumerate(items)]

    return read_list


def _build(obj, path, make, fields, known=("kind",)):
    """make(*args), args being obj's fields read in the order of fields (a
    dict of name: reader); obj may also carry the known names.  A ValueError
    from make is a UsageError at path."""
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected an object")
    for key in fields:
        if key not in obj:
            raise UsageError(f"{path}: missing required field {key!r}")
    extra = set(obj) - set(fields) - set(known)
    if extra:
        raise UsageError(f"{path}: unknown field(s) {sorted(extra)}")
    args = [read(obj[key], f"{path}.{key}") for key, read in fields.items()]
    try:
        return make(*args)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _row(obj, path):
    """A polyhedron's row: a halfspace's fields and an optional constraint kind."""
    kind = obj.get("kind", "inequality") if isinstance(obj, dict) else None
    return _build(obj, path, lambda normal, offset: polyhedra.Halfspace(normal, offset, kind), _LINEAR)


_LINEAR = {"normal": _vec, "offset": _number}
# Members are built through the module's name, so that a wrapper put in
# its place sees the nested sets too.
_MEMBERS = {"members": _each(lambda obj, path: set_from_json(obj, path))}
_COEFFICIENTS = {"coefficients": _each(_json_number)}

# Each set kind's constructor and its fields' readers, in the constructor's
# argument order; a smooth kind maps each function name to such an entry.
# The readers check a field's JSON shape, and the constructor its value.
_SET_KINDS = {
    "halfspace": (sets_mod.HalfspaceSet, _LINEAR),
    "hyperplane": (sets_mod.HyperplaneSet, _LINEAR),
    "affine-subspace": (sets_mod.AffineSubspace, {"point": _vec, "basis": _each(_vec)}),
    "ball": (sets_mod.Ball, {"center": _vec, "radius": _number}),
    "sphere": (sets_mod.Sphere, {"center": _vec, "radius": _number}),
    "box": (sets_mod.Box, {"lower": _vec, "upper": _vec}),
    "point-set": (sets_mod.PointSet, {"points": _each(_vec)}),
    "polyhedron": (sets_mod.PolyhedralSet, {"halfspaces": _each(_row)}),
    "finite-union-of-convex": (sets_mod.UnionOfConvex, _MEMBERS),
    "intersection": (sets_mod.IntersectionSet, _MEMBERS),
    "fixed-rank-matrix-set": (sets_mod.FixedRankSet, dict.fromkeys(["rows", "cols", "rank"], _as_given)),
    "smooth-level-set": {
        "polynomial-curve": (
            gallery.polynomial_level_set,
            {**_COEFFICIENTS, "side": _as_given, "convex": _as_given},
        ),
        "power-cusp": (gallery.PowerCusp, {"exponent": _number}),
    },
    "smooth-manifold": {"polynomial-curve": (gallery.polynomial_curve, _COEFFICIENTS)},
}


def set_from_json(obj: dict, path: str = "$.set") -> sets_mod.SetOracle:
    """Build a SetOracle from its JSON description (_SET_KINDS).

    Smooth sets are named through a function registry ('polynomial-curve'
    with coefficients, 'power-cusp' with an exponent) since JSON cannot
    carry callables.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError(f"{path}: set description must be an object with a 'kind'")
    kind, func = obj["kind"], obj.get("function")
    entry = _SET_KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise UsageError(f"{path}.kind: unknown set kind {kind!r}")
    if not isinstance(entry, dict):
        return _build(obj, path, *entry)
    if not (isinstance(func, str) and func in entry):
        raise UsageError(f"{path}.function: unknown {kind} function {func!r} (available: {', '.join(entry)})")
    return _build(obj, path, *entry[func], known=("kind", "function"))


def problem_from_config(problem_field) -> solvers.ProblemInstance:
    """Resolve a problem name (gallery) or inline JSON description."""
    if isinstance(problem_field, str):
        try:
            return gallery.get_entry(problem_field).problem
        except KeyError as exc:
            raise UsageError(str(exc).strip("'\"")) from exc
    spec = problem_field
    sets = [set_from_json(s, f"$.problem.sets[{i}]") for i, s in enumerate(spec["sets"])]
    start = _vec(spec["start"], "$.problem.start", sets[0].dimension)
    known = spec.get("known_solution")
    known = None if known is None else _vec(known, "$.problem.known_solution")
    oracle = spec.get("intersection")
    oracle = None if oracle is None else set_from_json(oracle, "$.problem.intersection")
    try:
        return solvers.ProblemInstance(spec["name"], sets, start, known, oracle)
    except ValueError as exc:
        raise UsageError(f"$.problem: {exc}") from exc


def resolve_x0(problem: solvers.ProblemInstance, cfg: ExperimentConfig):
    """Explicit vector wins; otherwise a seeded uniform draw from the ball
    around the known solution; otherwise the problem's stock start."""
    if cfg.x0 is not None:
        return _vec(cfg.x0, "$.x0", problem.dimension)
    if cfg.x0_seed is not None:
        if problem.known_solution is None:
            raise UsageError("x0_seed requires a problem with a known solution")
        rng = np.random.default_rng(cfg.x0_seed)
        direction = rng.standard_normal(problem.dimension)
        direction /= np.linalg.norm(direction)
        radius = cfg.x0_radius * rng.random() ** (1.0 / problem.dimension)
        return problem.known_solution + radius * direction
    return np.asarray(problem.start, dtype=float).copy()


def _check_algorithm(cfg: ExperimentConfig, problem: solvers.ProblemInstance) -> None:
    """Algorithm compatibility and solver parameter ranges."""
    if cfg.algorithm == "two-shqp" and len(problem.sets) != 2:
        raise UsageError("two-shqp requires exactly 2 sets")
    if cfg.algorithm == "memory-shqp" and cfg.pbar < 1:
        raise UsageError("memory-shqp requires pbar >= 1")
    if cfg.schedule is not None and cfg.algorithm != "basic-shqp":
        raise UsageError("schedule applies only to basic-shqp")
    merit_needs_oracle = cfg.algorithm == "global" and cfg.merit == "intersection-distance"
    if merit_needs_oracle and problem.intersection_oracle is None:
        raise UsageError("merit 'intersection-distance' needs a problem with an intersection")
    try:
        cfg.solver_config()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _schedule_from_config(cfg: ExperimentConfig, set_count: int):
    if cfg.schedule is None:
        return None
    kind = cfg.schedule["kind"]
    blocks = tuple(tuple(int(i) for i in b) for b in cfg.schedule.get("blocks", ()))
    pairing = cfg.schedule.get("pairing", "latest")
    try:
        sched = solvers.Schedule(kind=kind, blocks=blocks, pairing=pairing)
        sched.validate_for(set_count)
    except ValueError as exc:
        raise UsageError(f"$.schedule: {exc}") from exc
    return sched


def validate_experiment(config) -> tuple[ExperimentConfig, solvers.ProblemInstance]:
    """Full pre-run validation: schema, problem resolution, algorithm
    compatibility, and solver parameter ranges.  Raises UsageError.  An
    ExperimentConfig gets the checks of its to_dict()."""
    cfg = ExperimentConfig.from_dict(config.to_dict() if isinstance(config, ExperimentConfig) else config)
    problem = problem_from_config(cfg.problem)
    _number(cfg.x0_radius, "$.x0_radius")
    _check_algorithm(cfg, problem)
    if cfg.schedule is not None:
        _schedule_from_config(cfg, len(problem.sets))
    return cfg, problem


def _dispatch(cfg: ExperimentConfig, problem, x0) -> solvers.Trace:
    solver_cfg = cfg.solver_config()
    if cfg.algorithm == "basic-shqp":
        schedule = _schedule_from_config(cfg, len(problem.sets))
        return solvers.run_basic_shqp(problem, x0, schedule=schedule, config=solver_cfg)
    if cfg.algorithm == "global":
        return solvers.run_global(problem, x0, config=solver_cfg, merit=cfg.merit)
    runner = solvers.SOLVERS[cfg.algorithm]
    return runner(problem, x0, config=solver_cfg)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


# The errors that turn the regularity estimate into an "error" entry.
_ESTIMATE_ERRORS = (diagnostics.NoDistanceOracleError, sets_mod.ProjectionNotConvergedError, ValueError)


def build_report(cfg: ExperimentConfig, problem, trace: solvers.Trace, x0, wallclock_ms: float) -> dict:
    """Assemble the run report: config echo, terminal status, measured rates,
    sampled geometry constants, and the closed-form predictions."""
    echo = _jsonable(cfg.to_dict())
    echo["x0_resolved"] = _jsonable(np.asarray(x0, dtype=float))

    xbar = problem.known_solution
    if xbar is None and trace.status == "converged":
        xbar = trace.final_point()
    try:
        rate = _jsonable(dataclasses.asdict(diagnostics.analyze_trace(trace, xbar=xbar, pbar=cfg.pbar)))
    except diagnostics.InsufficientDataError as exc:
        rate = {"error": str(exc)}

    regularity: dict
    bounds: dict
    if xbar is None:
        regularity = {"error": "no-reference-point: run did not converge and the problem has no known solution"}
        bounds = {"error": "no-beta-estimate"}
    else:
        try:
            est = diagnostics.estimate_regularity(problem, xbar, rng_seed=cfg.seed)
            regularity = _jsonable(dataclasses.asdict(est))
            bounds = _jsonable(
                dataclasses.asdict(
                    diagnostics.predicted_bounds(len(problem.sets), est.beta_hat, cfg.tau)
                )
            )
        except _ESTIMATE_ERRORS as exc:
            regularity = {"error": str(exc)}
            bounds = {"error": "no-beta-estimate"}

    report = {
        "config_echo": echo,
        "terminal_status": trace.status,
        "rate_report": rate,
        "regularity_estimate": regularity,
        "predicted_bounds": bounds,
        "wallclock_ms": float(wallclock_ms),
    }
    if trace.oracle_failure is not None:
        report["oracle_failure"] = trace.oracle_failure
    return report


def write_trace_csv(trace: solvers.Trace, set_count: int, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["outer_i", "inner_j", "step_kind", "x"]
            + [f"dist_to_set_{l + 1}" for l in range(set_count)]
            + ["qp_active_size", "qp_kkt_residual"]
        )
        for rec in trace.records:
            writer.writerow(
                [
                    rec.outer_iteration,
                    rec.inner_step,
                    rec.step_kind,
                    ";".join(f"{v:.17g}" for v in rec.point),
                ]
                + [f"{d:.17g}" for d in rec.distances]
                + [rec.qp_active_size, f"{rec.qp_kkt_residual:.17g}"]
            )


def write_trace_json(trace: solvers.Trace, path: str) -> None:
    body = {
        "status": trace.status,
        "copy_steps": trace.copy_steps,
        "records": [
            {
                "outer_i": rec.outer_iteration,
                "inner_j": rec.inner_step,
                "step_kind": rec.step_kind,
                "x": _jsonable(rec.point),
                "distances": _jsonable(rec.distances),
                "qp_active_size": rec.qp_active_size,
                "qp_kkt_residual": rec.qp_kkt_residual,
            }
            for rec in trace.records
        ],
    }
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config, out_dir: str | None = None) -> tuple[int, dict]:
    """Execute one configured run and write its output files.

    Returns (exit_code, outputs) where outputs maps 'trace' and 'report' to
    the written paths and carries the report dict under 'report_data'.
    """
    cfg, problem = validate_experiment(config)
    x0 = resolve_x0(problem, cfg)

    start_time = time.perf_counter()
    trace = _dispatch(cfg, problem, x0)
    wallclock_ms = (time.perf_counter() - start_time) * 1000.0

    report = build_report(cfg, problem, trace, x0, wallclock_ms)

    directory = out_dir or cfg.out_dir or "."
    os.makedirs(directory, exist_ok=True)
    if cfg.format == "csv":
        trace_path = os.path.join(directory, "trace.csv")
        write_trace_csv(trace, len(problem.sets), trace_path)
    else:
        trace_path = os.path.join(directory, "trace.json")
        write_trace_json(trace, trace_path)
    report_path = os.path.join(directory, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return _exit_code(trace.status), {
        "trace": trace_path,
        "report": report_path,
        "report_data": report,
        "trace_data": trace,
    }


# One sweep row's fields, in the order of sweep.csv's columns.
_SWEEP_COLUMNS = (
    "tau", "pbar", "x0_seed", "status",
    "tail_qlinear_rate", "pbar_step_ratio", "predicted_contraction", "error",
)


def _sweep_cell(cell_cfg: ExperimentConfig, problem, beta_hat, x0):
    tau, pbar = cell_cfg.tau, cell_cfg.pbar
    row = dict.fromkeys(_SWEEP_COLUMNS)
    row.update(tau=tau, pbar=pbar, x0_seed=cell_cfg.x0_seed, status="", error="")
    try:
        trace = _dispatch(cell_cfg, problem, x0)
        row["status"] = trace.status
        if beta_hat is not None:
            row["predicted_contraction"] = diagnostics.predicted_bounds(
                len(problem.sets), beta_hat, tau
            ).contraction
        rate = diagnostics.analyze_trace(trace, xbar=problem.known_solution, pbar=pbar)
        row["tail_qlinear_rate"] = rate.tail_qlinear_rate
        if rate.pbar_ratios:
            row["pbar_step_ratio"] = diagnostics._tail_geometric_mean(rate.pbar_ratios)[0]
    except diagnostics.InsufficientDataError as exc:
        row["error"] = str(exc)
    except Exception as exc:  # cell failures are recorded, the sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(config, out_dir: str | None = None) -> tuple[int, dict]:
    """Run a (tau, pbar, x0_seed) grid and write one summary row per cell.

    Cells run one after another in grid order, so output is deterministic
    given seeds.  Before any cell runs, each cell's config gets the checks
    that run_experiment makes, its start included, and the first that fails
    raises UsageError.  Without ``x0_seeds`` in the grid or an ``x0_seed``
    the seed axis is [0], or [None] (the stock start, as `run` uses) on a
    problem without a known solution.
    """
    cfg, problem = validate_experiment(config)
    grid = cfg.sweep or {}
    taus = [float(t) for t in grid.get("tau", [cfg.tau])]
    pbars = grid.get("pbar", [cfg.pbar])
    if "x0_seeds" in grid:
        seeds = grid["x0_seeds"]
    elif cfg.x0_seed is not None:
        seeds = [cfg.x0_seed]
    else:
        # Seeded starts are drawn around the known solution; without one,
        # the cells start where `run` starts.
        seeds = [0 if problem.known_solution is not None else None]
    for name, axis in (("tau", taus), ("pbar", pbars), ("x0_seeds", seeds)):
        if not axis:
            raise UsageError(f"sweep grid axis {name!r} is empty")
    cells = []
    for tau, pbar, seed in itertools.product(taus, pbars, seeds):
        if not 0.0 <= tau < 1.0:
            raise UsageError(f"sweep tau value {tau} outside [0, 1)")
        cell = ExperimentConfig.from_dict({**cfg.to_dict(), "tau": tau, "pbar": pbar, "x0_seed": seed})
        _check_algorithm(cell, problem)
        cells.append((cell, resolve_x0(problem, cell)))

    beta_hat = None
    if problem.known_solution is not None:
        # Only beta feeds the rows; the rest of estimate_regularity is skipped.
        try:
            beta_hat, _ = diagnostics._beta_probe(problem, problem.known_solution, cfg.seed)
        except _ESTIMATE_ERRORS:
            beta_hat = None

    rows = [_sweep_cell(cell, problem, beta_hat, x0) for cell, x0 in cells]

    directory = out_dir or cfg.out_dir or "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    "" if row[c] is None else (f"{row[c]:.17g}" if isinstance(row[c], float) else row[c])
                    for c in _SWEEP_COLUMNS
                ]
            )
    return EXIT_CONVERGED, {"sweep": path, "rows": rows}
