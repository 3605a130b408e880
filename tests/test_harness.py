"""Config validation, JSON set descriptions, experiment runs, sweeps, CLI."""

import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shqp
from shqp import cli, gallery, harness, sets, solvers

DISJOINT_PROBLEM = {
    "name": "disjoint-points",
    "sets": [
        {"kind": "point-set", "points": [[0.0, 0.0]]},
        {"kind": "point-set", "points": [[1.0, 0.0]]},
    ],
    "start": [0.3, 0.7],
}


def _cfg(**overrides):
    data = {"problem": "circle-line", "algorithm": "map"}
    data.update(overrides)
    return data


# ---------------------------------------------------------------- schema


def test_validate_config_accepts_minimal():
    harness.validate_config(_cfg())
    harness.validate_config(_cfg(tau=0.3, pbar=4, format="json"))


def test_validate_config_reports_json_path():
    with pytest.raises(harness.UsageError) as err:
        harness.validate_config(_cfg(tau=1.5))
    assert str(err.value) == (
        "config invalid at $.tau: 1.5 is greater than or equal to the maximum of 1"
    )
    with pytest.raises(harness.UsageError, match=r"\$: 'algorithm' is a required"):
        harness.validate_config({"problem": "circle-line"})
    with pytest.raises(harness.UsageError, match="Additional properties"):
        harness.validate_config(_cfg(bogus=1))
    with pytest.raises(harness.UsageError, match=r"\$\.algorithm"):
        harness.validate_config(_cfg(algorithm="gradient-descent"))
    with pytest.raises(harness.UsageError, match="must be a JSON object"):
        harness.validate_config([1, 2, 3])


# jsonschema is the reference for the package's own schema walk; only these
# tests import it.


def _jsonschema_errors(config, schema):
    import jsonschema

    validator = jsonschema.Draft202012Validator(schema)
    return [(tuple(e.absolute_path), e.message) for e in validator.iter_errors(config)]


def _jsonschema_verdict(config):
    """What validate_config raised while it called jsonschema: None, or the
    first error by JSON path (ties in jsonschema's order), with its path."""
    errors = sorted(_jsonschema_errors(config, harness.CONFIG_SCHEMA), key=lambda e: list(e[0]))
    if not errors:
        return None
    path, message = errors[0]
    where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return f"config invalid at {where}: {message}"


def _verdict(config):
    try:
        harness.validate_config(config)
    except harness.UsageError as exc:
        return str(exc)
    return None


# Values a config may hold where the schema wants another: bools, integral
# and fractional floats at the bounds, empty strings, lists and objects.
_JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.sampled_from([0, 1, -1, 0.0, 1.0, 4.0, -1.0, 0.5, 1.5]),
        st.sampled_from(["", "x", "map", "blocks", "circle-line"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "name", "bogus"]), inner, max_size=2),
    ),
    max_leaves=5,
)

_NUMBERS = {
    "number": [0, 1, 2, -1, 0.0, 0.1, 0.5, 1.0, 1.5, -0.5, 1e-12, True, False],
    "integer": [0, 1, 2, 8, -1, 0.0, 4.0, -1.0, 2.5, True, False],
}


@st.composite
def _config_value(draw, schema, slips):
    """A value for schema.  Without slips it fits schema (jsonschema picks
    the fitting numbers and strings); with slips, any level may hold junk,
    leave out a required key, add an unknown key, or put a bool, an
    integral float, an empty string or an empty list where it does not
    fit."""
    if slips and draw(st.integers(0, 11)) == 0:
        return draw(_JUNK)
    if "oneOf" in schema:
        return draw(_config_value(draw(st.sampled_from(schema["oneOf"])), slips))
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    kind = schema["type"]
    if kind == "object":
        out = {}
        for name, sub in schema["properties"].items():
            # In twelfths: a required key is left out only with slips.
            odds = 3 if name not in schema.get("required", ()) else 11 if slips else 12
            if draw(st.integers(0, 11)) < odds:
                out[name] = draw(_config_value(sub, slips))
        for name in ("bogus", "zz", "Tau"):
            if slips and draw(st.integers(0, 15)) == 0:
                out[name] = draw(_JUNK)
        return out
    if kind == "array":
        size = 0 if slips else schema.get("minItems", 0)
        return draw(st.lists(_config_value(schema["items"], slips), min_size=size, max_size=3))
    if kind == "null":
        return None
    pool = ["circle-line", "x", ""] if kind == "string" else _NUMBERS[kind]
    if not slips:
        pool = [v for v in pool if not _jsonschema_errors(v, schema)]
    return draw(st.sampled_from(pool))


# Whole configs: objects, half of them drawn with slips.
_CONFIGS = (
    st.booleans()
    .flatmap(lambda slips: _config_value(harness.CONFIG_SCHEMA, slips))
    .filter(lambda config: isinstance(config, dict))
)

_INLINE = {"name": "p", "sets": [{"kind": "hyperplane"}], "start": [0.0]}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(config=_CONFIGS)
@example(config=_cfg(bogus=1, zz=2))
@example(config={"algorithm": "map", "bogus": 1})
@example(config=_cfg(pbar=True, tau=False))
@example(config=_cfg(pbar=4.0, x0_seed=0.0, max_iters=3.0))
@example(config=_cfg(problem="", x0=[], tau_schedule=[]))
@example(config=_cfg(problem=dict(_INLINE, extra=1)))
@example(config=_cfg(problem={"name": "", "sets": [], "start": [True], "known_solution": []}))
@example(config=_cfg(schedule={"kind": "blocks", "blocks": [[]], "zz": 0}, sweep={"bogus": []}))
@example(config=_cfg(sweep={"tau": [True], "pbar": [1.0, 1.5], "x0_seeds": []}))
def test_validate_config_matches_jsonschema(config):
    """The schema walk reports what jsonschema reports: the same errors in
    the same order, so validate_config accepts the same configs and names
    the same path and message."""
    assert list(harness._schema_errors(config, harness.CONFIG_SCHEMA)) == _jsonschema_errors(
        config, harness.CONFIG_SCHEMA
    )
    assert _verdict(config) == _jsonschema_verdict(config)


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"oneOf": [{"type": "number"}, {"type": "integer"}, {"minimum": 0}]}, 2),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}, {"minimum": 0}]}, -1.5),
        ({"oneOf": [{"type": "string"}, {"type": "null"}]}, 3),
        ({"type": "array", "minItems": 2, "items": {"type": "string", "minLength": 3}}, ["ab"]),
        ({"type": "array", "minItems": 2, "items": {"type": "string", "minLength": 3}}, "ab"),
        ({"type": "integer", "minimum": 0, "exclusiveMaximum": 1}, -2.0),
    ],
)
def test_schema_walk_matches_jsonschema_beyond_the_config_schema(schema, value):
    """The branches CONFIG_SCHEMA does not reach today: two valid oneOf
    branches, and length bounds above 1."""
    assert list(harness._schema_errors(value, schema)) == _jsonschema_errors(value, schema)


def _schema_nodes(schema):
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]:
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])


def test_schema_walk_interprets_every_keyword_of_the_config_schema():
    """A keyword, or a form of one, that the walk does not interpret fails
    here instead of passing unchecked in validate_config."""
    for node in _schema_nodes(harness.CONFIG_SCHEMA):
        for value in (None, True, 0, 1.5, "", [], {}):
            list(harness._schema_errors(value, node))  # ValueError on an unknown keyword
        assert isinstance(node.get("type", ""), str)
        assert node.get("additionalProperties", False) is False
        assert all(isinstance(member, str) for member in node.get("enum", ()))


def test_validate_config_imports_no_json_schema_library(tmp_path):
    """A fresh `validate-config` process loads none of jsonschema and its
    dependencies."""
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_cfg()))
    code = (
        "import sys\n"
        "import shqp, shqp.cli\n"
        "assert shqp.cli.main(['validate-config', '--config', sys.argv[1]]) == 0\n"
        "print(sorted({'jsonschema', 'attrs', 'referencing', 'rpds'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(shqp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines() == ["ok", "[]"]


_FROZEN_VECTOR = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_FROZEN_SET = {"type": "object", "required": ["kind"], "properties": {"kind": {"type": "string"}}}

# CONFIG_SCHEMA as it was written out by hand before ExperimentConfig's
# fields declared it.
FROZEN_CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["problem", "algorithm"],
    "additionalProperties": False,
    "properties": {
        "problem": {
            "oneOf": [
                {"type": "string", "minLength": 1},
                {
                    "type": "object",
                    "required": ["name", "sets", "start"],
                    "additionalProperties": False,
                    "properties": {
                        "name": {"type": "string", "minLength": 1},
                        "sets": {"type": "array", "items": _FROZEN_SET, "minItems": 1},
                        "start": _FROZEN_VECTOR,
                        "known_solution": {"oneOf": [_FROZEN_VECTOR, {"type": "null"}]},
                        "intersection": {"oneOf": [_FROZEN_SET, {"type": "null"}]},
                    },
                },
            ]
        },
        "algorithm": {
            "enum": ["map", "basic-shqp", "mass", "memory-shqp", "two-shqp", "averaged", "global"]
        },
        "x0": {"oneOf": [_FROZEN_VECTOR, {"type": "null"}]},
        "x0_seed": {"oneOf": [{"type": "integer", "minimum": 0}, {"type": "null"}]},
        "x0_radius": {"type": "number", "exclusiveMinimum": 0},
        "tau": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "tau_schedule": {
            "oneOf": [
                {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                    "minItems": 1,
                },
                {"type": "null"},
            ]
        },
        "pbar": {"type": "integer", "minimum": 0},
        "schedule": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["blocks", "farthest"]},
                        "blocks": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                                "minItems": 1,
                            },
                        },
                        "pairing": {"enum": ["latest", "fixed"]},
                    },
                },
                {"type": "null"},
            ]
        },
        "merit": {"enum": ["sum-of-squares", "max-distance", "intersection-distance"]},
        "seed": {"type": "integer", "minimum": 0},
        "max_iters": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "out_dir": {"oneOf": [{"type": "string"}, {"type": "null"}]},
        "format": {"enum": ["csv", "json"]},
        "sweep": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "tau": {"type": "array", "items": {"type": "number"}},
                        "pbar": {"type": "array", "items": {"type": "integer"}},
                        "x0_seeds": {"type": "array", "items": {"type": "integer"}},
                    },
                },
                {"type": "null"},
            ]
        },
    },
}


def test_config_schema_built_from_the_fields_is_the_frozen_schema():
    # json.dumps keeps key order, which fixes the order of the schema walk's errors.
    assert json.dumps(harness.CONFIG_SCHEMA) == json.dumps(FROZEN_CONFIG_SCHEMA)
    assert harness.CONFIG_SCHEMA == FROZEN_CONFIG_SCHEMA


# ---------------------------------------------------- set descriptions


def test_set_from_json_builds_every_kind():
    descriptions = [
        ({"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0}, "halfspace"),
        ({"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 1.0}, "hyperplane"),
        (
            {"kind": "affine-subspace", "point": [1.0, 0.0], "basis": [[0.5, 0.8660254037844386]]},
            "affine-subspace",
        ),
        ({"kind": "ball", "center": [0.0, -1.0], "radius": 1.0}, "ball"),
        ({"kind": "sphere", "center": [0.0, 0.0], "radius": 1.0}, "sphere"),
        ({"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "box"),
        ({"kind": "point-set", "points": [[0.0, 0.0], [1.0, 0.0]]}, "point-set"),
        (
            {
                "kind": "polyhedron",
                "halfspaces": [
                    {"normal": [1.0, 0.0], "offset": 0.0},
                    {"normal": [0.0, 1.0], "offset": 0.0, "kind": "equality"},
                ],
            },
            "polyhedron",
        ),
        (
            {
                "kind": "finite-union-of-convex",
                "members": [
                    {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
                    {"kind": "ball", "center": [2.0, 0.0], "radius": 0.5},
                ],
            },
            "finite-union-of-convex",
        ),
        (
            {
                "kind": "intersection",
                "members": [
                    {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 1.0},
                    {"kind": "halfspace", "normal": [-1.0, 0.0], "offset": 0.0},
                ],
            },
            "intersection",
        ),
        ({"kind": "fixed-rank-matrix-set", "rows": 2, "cols": 2, "rank": 1}, "fixed-rank-matrix-set"),
        (
            {
                "kind": "smooth-level-set",
                "function": "polynomial-curve",
                "coefficients": [0.0, 0.0, 1.0],
                "side": "above",
                "convex": True,
            },
            "smooth-level-set",
        ),
        (
            {"kind": "smooth-level-set", "function": "power-cusp", "exponent": 1.5},
            "smooth-level-set",
        ),
        (
            {
                "kind": "smooth-manifold",
                "function": "polynomial-curve",
                "coefficients": [0.0, 0.0, 1.0],
            },
            "smooth-manifold",
        ),
    ]
    rng = np.random.default_rng(0)
    for obj, kind in descriptions:
        oracle = harness.set_from_json(obj)
        assert oracle.kind == kind
        x = rng.standard_normal(oracle.dimension)
        y, d = sets.project(oracle, x)
        assert d >= 0.0 and y.shape == x.shape
        assert oracle.membership_residual(y) <= 1e-6


def test_set_from_json_error_paths():
    with pytest.raises(harness.UsageError, match="unknown set kind 'frisbee'"):
        harness.set_from_json({"kind": "frisbee"})
    with pytest.raises(harness.UsageError, match="missing required field 'offset'"):
        harness.set_from_json({"kind": "halfspace", "normal": [1.0, 0.0]})
    with pytest.raises(harness.UsageError, match="unknown field"):
        harness.set_from_json(
            {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "color": "red"}
        )
    with pytest.raises(harness.UsageError, match="normal must be nonzero"):
        harness.set_from_json({"kind": "halfspace", "normal": [0.0, 0.0], "offset": 0.0})
    with pytest.raises(harness.UsageError, match="unknown smooth-level-set function"):
        harness.set_from_json({"kind": "smooth-level-set", "function": "spline"})
    with pytest.raises(harness.UsageError, match="set description must be an object"):
        harness.set_from_json("ball")


# One description per _SET_KINDS entry, keyed by (kind, function).
SET_DESCRIPTIONS = {
    ("halfspace", None): {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0},
    ("hyperplane", None): {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 1.0},
    ("affine-subspace", None): {"kind": "affine-subspace", "point": [1.0, 0.0], "basis": [[0.0, 1.0]]},
    ("ball", None): {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    ("sphere", None): {"kind": "sphere", "center": [0.0, 0.0], "radius": 1.0},
    ("box", None): {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    ("point-set", None): {"kind": "point-set", "points": [[0.0, 0.0], [1.0, 0.0]]},
    ("polyhedron", None): {
        "kind": "polyhedron",
        "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.0, "kind": "equality"}],
    },
    ("finite-union-of-convex", None): {
        "kind": "finite-union-of-convex",
        "members": [{"kind": "ball", "center": [0.0, 0.0], "radius": 0.5}],
    },
    ("intersection", None): {
        "kind": "intersection",
        "members": [{"kind": "halfspace", "normal": [1.0, 0.0], "offset": 1.0}],
    },
    ("fixed-rank-matrix-set", None): {"kind": "fixed-rank-matrix-set", "rows": 2, "cols": 2, "rank": 1},
    ("smooth-level-set", "polynomial-curve"): {
        "kind": "smooth-level-set",
        "function": "polynomial-curve",
        "coefficients": [0.0, 0.0, 1.0],
        "side": "above",
        "convex": True,
    },
    ("smooth-level-set", "power-cusp"): {"kind": "smooth-level-set", "function": "power-cusp", "exponent": 1.5},
    ("smooth-manifold", "polynomial-curve"): {
        "kind": "smooth-manifold",
        "function": "polynomial-curve",
        "coefficients": [0.0, 0.0, 1.0],
    },
}


def _set_kind_entries():
    """{(kind, function): field names} of harness._SET_KINDS."""
    entries = {}
    for kind, entry in harness._SET_KINDS.items():
        for func, (_, fields) in entry.items() if isinstance(entry, dict) else [(None, entry)]:
            entries[kind, func] = list(fields)
    return entries


def _field_paths(obj, path=()):
    """The key path of every field of obj, through nested objects and lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        if isinstance(obj, dict):
            yield path + (key,)
        yield from _field_paths(value, path + (key,))


def _malformed_descriptions():
    for entry, description in SET_DESCRIPTIONS.items():
        for fields in _field_paths(description):
            for value in (None, "1", True, {}, [], [[1]], math.nan):
                obj = json.loads(json.dumps(description))
                *keys, last = fields
                target = obj
                for key in keys:
                    target = target[key]
                target[last] = value
                yield pytest.param(obj, id=f"{entry[0]}-{entry[1]}-{'.'.join(map(str, fields))}-{value!r}")


def test_every_set_kind_has_a_description():
    assert set(SET_DESCRIPTIONS) == set(_set_kind_entries())
    for (kind, _), description in SET_DESCRIPTIONS.items():
        assert harness.set_from_json(description).kind == kind


@pytest.mark.parametrize("obj", list(_malformed_descriptions()))
def test_malformed_set_descriptions_build_or_name_their_path(obj):
    # Each field of each kind, nested rows and members included, replaced
    # by a JSON value of another shape: either the set still builds, or a
    # UsageError names a path under $.set; never another exception.
    try:
        oracle = harness.set_from_json(obj)
    except harness.UsageError as exc:
        message = str(exc)
        assert message.startswith("$.set") and message[len("$.set")] in ":.[", message
        assert "\n" not in message
    else:
        assert isinstance(oracle, sets.SetOracle) and oracle.dimension >= 1


def test_readme_lists_every_set_kind_and_its_fields():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| `kind` | `function` | fields |") + 2
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
        kind, func, fields = (cell.strip() for cell in line.strip("|").split("|"))
        names = re.findall(r"`([^`]+)`", fields)
        table[kind.strip("`"), func.strip("`") or None] = names
    assert table == _set_kind_entries()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("known_solution", [math.nan, 0.0], "$.problem.known_solution: expected finite components"),
        ("intersection", {"kind": "frisbee"}, "$.problem.intersection.kind: unknown set kind 'frisbee'"),
    ],
    ids=["known-solution", "intersection"],
)
def test_problem_fields_are_named_once(field, value, message):
    # Both used to be read inside the problem's own wrap, which put
    # "$.problem: " before their message.
    spec = {"name": "p", "sets": [SET_DESCRIPTIONS["ball", None]], "start": [0.0, 0.0], field: value}
    with pytest.raises(harness.UsageError) as err:
        harness.problem_from_config(spec)
    assert str(err.value) == message


def test_problem_from_config_gallery_and_inline():
    prob = harness.problem_from_config("circle-line")
    assert prob.name == "circle-line"

    with pytest.raises(harness.UsageError) as err:
        harness.problem_from_config("nope")
    assert str(err.value).startswith(
        "unknown gallery problem 'nope'; available: backtrack-example"
    )

    inline = dict(DISJOINT_PROBLEM)
    prob = harness.problem_from_config(inline)
    assert prob.name == "disjoint-points" and len(prob.sets) == 2

    bad = dict(DISJOINT_PROBLEM, known_solution=[5.0, 5.0])
    with pytest.raises(harness.UsageError, match=r"\$\.problem: known solution"):
        harness.problem_from_config(bad)


# ------------------------------------------------------------ start point


def test_resolve_x0_precedence():
    prob = harness.problem_from_config("circle-line")
    cfg = harness.ExperimentConfig(**_cfg(x0=[2.0, 2.0], x0_seed=3))
    np.testing.assert_allclose(harness.resolve_x0(prob, cfg), [2.0, 2.0])

    cfg = harness.ExperimentConfig(**_cfg(x0_seed=3, x0_radius=0.5))
    got = harness.resolve_x0(prob, cfg)
    rng = np.random.default_rng(3)
    d = rng.standard_normal(2)
    d /= np.linalg.norm(d)
    want = prob.known_solution + 0.5 * rng.random() ** 0.5 * d
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert np.linalg.norm(got - prob.known_solution) <= 0.5

    cfg = harness.ExperimentConfig(**_cfg())
    np.testing.assert_allclose(harness.resolve_x0(prob, cfg), prob.start)

    bare = harness.problem_from_config(dict(DISJOINT_PROBLEM))
    cfg = harness.ExperimentConfig(problem=DISJOINT_PROBLEM, algorithm="map", x0_seed=1)
    with pytest.raises(harness.UsageError, match="x0_seed requires a problem"):
        harness.resolve_x0(bare, cfg)


def test_validate_experiment_compatibility_rules():
    one_set = {
        "name": "single",
        "sets": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}],
        "start": [2.0, 0.0],
    }
    with pytest.raises(harness.UsageError, match="two-shqp requires exactly 2 sets"):
        harness.validate_experiment({"problem": one_set, "algorithm": "two-shqp"})
    with pytest.raises(harness.UsageError, match="memory-shqp requires pbar >= 1"):
        harness.validate_experiment(_cfg(algorithm="memory-shqp", pbar=0))
    with pytest.raises(harness.UsageError, match="schedule applies only to basic-shqp"):
        harness.validate_experiment(_cfg(schedule={"kind": "farthest"}))
    with pytest.raises(harness.UsageError, match=r"config invalid at \$\.algorithm: 'bogus' is not one of "):
        harness.validate_experiment(
            harness.ExperimentConfig(problem="circle-line", algorithm="bogus")
        )
    # A valid schedule passes through to the solver.
    cfg, prob = harness.validate_experiment(
        _cfg(algorithm="basic-shqp", schedule={"kind": "blocks", "blocks": [[0], [1]], "pairing": "fixed"})
    )
    assert cfg.algorithm == "basic-shqp" and len(prob.sets) == 2
    with pytest.raises(harness.UsageError, match=r"\$\.schedule: schedule blocks must cover"):
        harness.validate_experiment(
            _cfg(algorithm="basic-shqp", schedule={"kind": "blocks", "blocks": [[0]]})
        )


@pytest.mark.parametrize(
    "field",
    [{"format": "xml"}, {"pbar": 2.5}, {"tau": "0.1"}, {"merit": "bogus"}],
    ids=["format", "pbar", "tau", "merit"],
)
def test_run_experiment_checks_an_instance_as_its_dict(tmp_path, field):
    """An ExperimentConfig gets the schema's checks, and the same message,
    as the dict it holds, before any output is written."""
    out = tmp_path / "out"
    cfg = harness.ExperimentConfig(problem="circle-line", algorithm="mass", out_dir=str(out), **field)
    with pytest.raises(harness.UsageError) as from_dict:
        harness.validate_config(cfg.to_dict())
    assert str(from_dict.value).startswith(f"config invalid at $.{next(iter(field))}: ")
    with pytest.raises(harness.UsageError) as from_instance:
        harness.run_experiment(cfg)
    assert str(from_instance.value) == str(from_dict.value)
    assert not out.exists()


# ------------------------------------------------------------------ runs


def test_run_experiment_writes_trace_and_report(tmp_path):
    code, out = harness.run_experiment(_cfg(), out_dir=str(tmp_path))
    assert code == harness.EXIT_CONVERGED
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "config_echo",
        "predicted_bounds",
        "rate_report",
        "regularity_estimate",
        "terminal_status",
        "wallclock_ms",
    }
    assert report["terminal_status"] == "converged"
    assert report["wallclock_ms"] >= 0.0
    np.testing.assert_allclose(report["config_echo"]["x0_resolved"], [1.45, 0.3])
    assert sorted(report["rate_report"]) == [
        "errors",
        "estimated_order",
        "fejer_ok",
        "pbar",
        "pbar_ratios",
        "q_ratios",
        "tail_qlinear_rate",
    ]
    assert report["rate_report"]["tail_qlinear_rate"] < 1.0
    assert report["predicted_bounds"]["rho_basic"] > 0.0

    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "outer_i", "inner_j", "step_kind", "x",
        "dist_to_set_1", "dist_to_set_2",
        "qp_active_size", "qp_kkt_residual",
    ]
    trace = out["trace_data"]
    assert len(rows) == len(trace.records) + 1
    # %.17g round-trips doubles exactly.
    for row, rec in zip(rows[1:], trace.records):
        got = np.array([float(v) for v in row[3].split(";")])
        assert np.array_equal(got, rec.point)
        assert row[2] == rec.step_kind


def test_run_experiment_short_run_reports_insufficient_data(tmp_path):
    code, out = harness.run_experiment(
        _cfg(problem="halfspace-pair"), out_dir=str(tmp_path)
    )
    assert code == harness.EXIT_CONVERGED
    rate = out["report_data"]["rate_report"]
    assert set(rate) == {"error"}
    assert rate["error"].startswith("insufficient-data:")


def test_run_experiment_exit_codes(tmp_path):
    code, _ = harness.run_experiment(
        {"problem": DISJOINT_PROBLEM, "algorithm": "map", "max_iters": 20},
        out_dir=str(tmp_path / "a"),
    )
    assert code == harness.EXIT_MAX_ITERATIONS
    code, out = harness.run_experiment(
        {"problem": DISJOINT_PROBLEM, "algorithm": "averaged"},
        out_dir=str(tmp_path / "b"),
    )
    assert code == harness.EXIT_NO_PROGRESS
    assert out["report_data"]["terminal_status"] == "stalled"


DISJOINT_BALLS_PROBLEM = {
    "name": "disjoint",
    "sets": [
        {
            "kind": "intersection",
            "members": [
                {"kind": "ball", "center": [0, 0], "radius": 1},
                {"kind": "ball", "center": [3, 0], "radius": 1},
            ],
        },
        {"kind": "hyperplane", "normal": [0, 1], "offset": 0},
    ],
    "start": [1.5, 1.0],
}


def test_cli_oracle_failure_exits_3_with_outputs(tmp_path):
    """The intersection of two disjoint balls cannot be projected onto; the
    run ends with a status and writes its files instead of raising."""
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps({"problem": DISJOINT_BALLS_PROBLEM, "algorithm": "mass"}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["terminal_status"] == "oracle-failed"
    assert report["oracle_failure"]["set_index"] == 0
    assert report["oracle_failure"]["set_kind"] == "intersection"
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[2] for r in rows[1:]] == ["start"]


# Two equality rows with one offset whose unit normals differ by 2.7e-10:
# too far apart for the QP's parallel-pair check (1e-10), too close for the
# Farkas certificate it then finds to verify.
TWIN_EQUALITIES_PROBLEM = {
    "name": "twin-equalities",
    "sets": [
        {
            "kind": "polyhedron",
            "halfspaces": [
                {
                    "normal": [0.30512942729120457, -0.9902701051808576],
                    "offset": 0.0004255930654568889,
                    "kind": "equality",
                },
                {"normal": [174.37625334230282, 238.23910313041532], "offset": 0.07178392517211876},
                {
                    "normal": [0.30512942721128516, -0.9902701058754966],
                    "offset": 0.0004255930654568889,
                    "kind": "equality",
                },
            ],
        },
        {"kind": "ball", "center": [0, 0], "radius": 1},
    ],
    "start": [-0.0013520526948978043, 0.0006956518408253057],
}


def test_cli_qp_breakdown_in_a_polyhedron_exits_3(tmp_path):
    """A polyhedral set whose QP breaks down is an oracle failure: the run
    exits 3 with its files instead of escaping with a traceback."""
    path = tmp_path / "twins.json"
    path.write_text(json.dumps({"problem": TWIN_EQUALITIES_PROBLEM, "algorithm": "mass"}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["terminal_status"] == "oracle-failed"
    assert report["oracle_failure"]["set_index"] == 0
    assert report["oracle_failure"]["set_kind"] == "polyhedron"


def test_cli_empty_polyhedron_exits_3(tmp_path):
    """Halfspaces that do not meet leave the polyhedral set empty: its
    projection fails and the run ends as an oracle failure."""
    slab = {
        "name": "empty-slab",
        "sets": [
            {
                "kind": "polyhedron",
                "halfspaces": [
                    {"normal": [1.0, 0.0], "offset": -1.0},
                    {"normal": [-1.0, 0.0], "offset": -1.0},
                ],
            },
            {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        ],
        "start": [0.5, 0.5],
    }
    path = tmp_path / "slab.json"
    path.write_text(json.dumps({"problem": slab, "algorithm": "mass"}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["oracle_failure"] == {
        "set_index": 0,
        "set_kind": "polyhedron",
        "message": "polyhedral set projection failed: infeasible",
    }


def _finite_problem():
    """A polyhedron, a halfspace and a ball that meet; every field finite."""
    return {
        "name": "finite",
        "sets": [
            {
                "kind": "polyhedron",
                "halfspaces": [
                    {"normal": [1.0, 0.0], "offset": 1.0},
                    {"normal": [0.0, 1.0], "offset": 1.0},
                ],
            },
            {"kind": "halfspace", "normal": [1.0, 1.0], "offset": 1.5},
            {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        ],
        "start": [0.5, 0.5],
    }


def _set_field(field, value):
    def setter(problem):
        *keys, last = field
        obj = problem
        for key in keys:
            obj = obj[key]
        obj[last] = value

    return setter


@pytest.mark.parametrize(
    "mutate, flags, where",
    [
        (lambda p: None, [], None),
        (_set_field(["sets", 0, "halfspaces", 0, "normal", 1], math.nan), [], "$.problem.sets[0].halfspaces[0].normal"),
        (_set_field(["sets", 0, "halfspaces", 1, "offset"], -math.inf), [], "$.problem.sets[0].halfspaces[1].offset"),
        (_set_field(["sets", 1, "offset"], math.inf), [], "$.problem.sets[1].offset"),
        (_set_field(["sets", 1, "normal", 0], -math.inf), [], "$.problem.sets[1].normal"),
        (_set_field(["sets", 2, "radius"], math.nan), [], "$.problem.sets[2].radius"),
        (_set_field(["sets", 2, "radius"], math.inf), [], "$.problem.sets[2].radius"),
        (_set_field(["start", 1], math.inf), [], "$.problem.start"),
        (lambda p: None, ["--x0=nan,0"], "$.x0"),
        (lambda p: None, ["--x0=0,-inf"], "$.x0"),
        (_set_field(["known_solution"], [0.5, 0.5]), ["--x0-seed=1", "--x0-radius=nan"], "$.x0_radius"),
        (_set_field(["known_solution"], [0.5, 0.5]), ["--x0-seed=1", "--x0-radius=inf"], "$.x0_radius"),
    ],
    ids=[
        "finite", "normal-nan", "polyhedron-offset-inf", "halfspace-offset-inf", "halfspace-normal-inf",
        "radius-nan", "radius-inf", "start-inf", "x0-nan", "x0-inf", "x0-radius-nan", "x0-radius-inf",
    ],
)
def test_cli_run_rejects_non_finite_numbers(tmp_path, capsys, mutate, flags, where):
    # json writes NaN and Infinity, and reads them back, as a user's file
    # may; --x0 parses "nan" and "inf".  Each is a usage error: exit 64,
    # one line on stderr naming the field, and no output directory.
    problem = _finite_problem()
    mutate(problem)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"problem": problem, "algorithm": "mass"}))
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(path), "--out-dir", str(out), *flags])
    err = capsys.readouterr().err
    if where is None:
        assert rc == 0
        return
    assert rc == 64
    assert err.startswith(f"error: {where}: expected ") and "finite" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"tol": math.nan}, "stop tolerance must be finite and positive"),
        ({"tol": math.inf}, "stop tolerance must be finite and positive"),
        ({"tau_schedule": [math.nan]}, "tau schedule entries must lie in [0, 1)"),
    ],
    ids=["tol-nan", "tol-inf", "tau-schedule-nan"],
)
def test_cli_run_rejects_non_finite_run_parameters(tmp_path, capsys, fields, message):
    # The schema's bounds let NaN through; a NaN tol used to turn a zero
    # gap into a cut, and a NaN schedule entry failed in the first cut.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "two-parabolas", "algorithm": "memory-shqp", **fields}))
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 64
    assert err == f"error: {message}\n"
    assert not out.exists()


TWO_CIRCLES_PROBLEM = {
    "name": "two-circles",
    "sets": [
        {"kind": "sphere", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "sphere", "center": [1.0, 0.0], "radius": 1.0},
    ],
    "start": [0.9, 1.3],
    "known_solution": [0.5, 0.8660254037844386],
}


def test_cli_intersection_merit_needs_an_intersection_oracle(tmp_path, capsys):
    """The global method's intersection-distance merit is a usage error on a
    problem without an intersection oracle, for every subcommand."""
    path = tmp_path / "merit.json"
    path.write_text(
        json.dumps(
            {"problem": TWO_CIRCLES_PROBLEM, "algorithm": "global", "merit": "intersection-distance"}
        )
    )
    out = str(tmp_path / "out")
    for argv in (
        ["validate-config", "--config", str(path)],
        ["run", "--config", str(path), "--out-dir", out],
        ["sweep", "--config", str(path), "--tau-grid", "0.1", "--out-dir", out],
    ):
        assert cli.main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'intersection-distance'" in captured.err
    # Any other method ignores the merit.
    path.write_text(
        json.dumps(
            {"problem": TWO_CIRCLES_PROBLEM, "algorithm": "mass", "merit": "intersection-distance"}
        )
    )
    assert cli.main(["validate-config", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_every_solver_status_has_an_exit_code():
    """Every terminal status string in the solvers module maps to an exit
    code, and an unmapped status is an error rather than a default."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(solvers))
    statuses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Return):
            value = node.value
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", getattr(t, "attr", None)) == "status" for t in node.targets
        ):
            value = node.value
        else:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            statuses.add(value.value)
    assert {"converged", "max-iterations", "stalled", "oracle-failed"} <= statuses
    assert statuses <= set(harness._STATUS_EXIT)
    with pytest.raises(RuntimeError, match="unmapped status 'running'"):
        harness._exit_code("running")


def test_build_report_records_oracle_failure_in_regularity(monkeypatch):
    from shqp import diagnostics

    def failing(*args, **kwargs):
        raise sets.ProjectionNotConvergedError("probe projection stalled", np.zeros(2))

    monkeypatch.setattr(diagnostics, "estimate_regularity", failing)
    cfg, problem = harness.validate_experiment(_cfg())
    trace = solvers.run_map(problem)
    report = harness.build_report(cfg, problem, trace, problem.start, 0.0)
    assert report["regularity_estimate"] == {"error": "probe projection stalled"}
    assert report["predicted_bounds"] == {"error": "no-beta-estimate"}
    assert "oracle_failure" not in report


def test_trace_json_format(tmp_path):
    _, out = harness.run_experiment(
        _cfg(problem="two-shqp-wedge", algorithm="two-shqp", format="json"),
        out_dir=str(tmp_path),
    )
    body = json.loads((tmp_path / "trace.json").read_text())
    assert set(body) == {"copy_steps", "records", "status"}
    assert body["status"] == "converged"
    rec = body["records"][0]
    assert sorted(rec) == [
        "distances", "inner_j", "outer_i",
        "qp_active_size", "qp_kkt_residual", "step_kind", "x",
    ]
    assert body["records"][0]["step_kind"] == "start"
    assert len(body["records"][0]["x"]) == 2


def test_rerun_is_deterministic(tmp_path):
    cfg = _cfg(problem="two-parabolas", algorithm="basic-shqp", x0_seed=4)
    _, a = harness.run_experiment(cfg, out_dir=str(tmp_path / "a"))
    _, b = harness.run_experiment(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("wallclock_ms")
    rb.pop("wallclock_ms")
    assert ra == rb


# ----------------------------------------------------------------- sweep


def test_run_sweep_grid(tmp_path):
    cfg = _cfg(
        algorithm="memory-shqp",
        sweep={"tau": [0.05, 0.1], "pbar": [2, 4], "x0_seeds": [0, 1]},
    )
    code, out = harness.run_sweep(cfg, out_dir=str(tmp_path))
    assert code == 0
    assert len(out["rows"]) == 8
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "tau", "pbar", "x0_seed", "status",
        "tail_qlinear_rate", "pbar_step_ratio", "predicted_contraction", "error",
    ]
    assert len(rows) == 9
    # Grid order: tau major, then pbar, then seed.
    assert [r[:3] for r in rows[1:]] == [
        [t, p, s]
        for t in ("0.050000000000000003", "0.10000000000000001")
        for p in ("2", "4")
        for s in ("0", "1")
    ]
    for r in rows[1:]:
        assert r[3] == "converged"
        assert r[7] == ""

    code2, _ = harness.run_sweep(cfg, out_dir=str(tmp_path / "again"))
    assert (tmp_path / "sweep.csv").read_bytes() == (
        tmp_path / "again" / "sweep.csv"
    ).read_bytes()


def test_run_sweep_records_cell_errors_and_validates(tmp_path):
    with pytest.raises(harness.UsageError, match="sweep grid axis 'tau' is empty"):
        harness.run_sweep(_cfg(sweep={"tau": []}), out_dir=str(tmp_path))
    with pytest.raises(harness.UsageError, match=r"outside \[0, 1\)"):
        harness.run_sweep(_cfg(sweep={"tau": [1.5]}), out_dir=str(tmp_path))
    # A failing cell is recorded in its row; the sweep still completes.
    cfg = {
        "problem": DISJOINT_PROBLEM,
        "algorithm": "map",
        "max_iters": 20,
        "sweep": {"tau": [0.0]},
    }
    code, out = harness.run_sweep(cfg, out_dir=str(tmp_path))
    assert code == 0
    row = out["rows"][0]
    assert row["status"] == "max-iterations"
    assert row["error"].startswith("insufficient-data")


def test_sweep_records_a_raising_cell_and_runs_the_rest(tmp_path, monkeypatch):
    """A cell whose solve raises gets an error row naming the exception;
    the other cells run, and the sweep exits 0."""
    dispatch = harness._dispatch

    def raising_at_tau_01(cfg, problem, x0):
        if cfg.tau == 0.1:
            raise RuntimeError("solver blew up")
        return dispatch(cfg, problem, x0)

    monkeypatch.setattr(harness, "_dispatch", raising_at_tau_01)
    cfg = _cfg(algorithm="memory-shqp", sweep={"tau": [0.05, 0.1, 0.2]})
    code, out = harness.run_sweep(cfg, out_dir=str(tmp_path))
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["tau"]), r["status"], r["error"]) for r in rows] == [
        (0.05, "converged", ""),
        (0.1, "", "RuntimeError: solver blew up"),
        (0.2, "converged", ""),
    ]
    assert rows[1]["predicted_contraction"] == rows[1]["tail_qlinear_rate"] == ""
    assert rows[0]["predicted_contraction"] != ""


# Two lines through the origin, inline: no intersection oracle.
CROSSING_LINES = {
    "name": "crossing-lines",
    "sets": [
        {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
        {"kind": "hyperplane", "normal": [-0.5, 1.0], "offset": 0.0},
    ],
    "start": [1.0, 0.3],
    "known_solution": [0.0, 0.0],
}


def test_report_and_sweep_without_a_distance_estimate(tmp_path, monkeypatch):
    """Without an intersection oracle, d(x, K) comes from mass-projection
    runs; when one of them does not converge there is no beta: the
    estimate raises NoDistanceOracleError, the report records it, and the
    sweep leaves every predicted contraction empty."""
    from shqp import diagnostics

    cfg, problem = harness.validate_experiment({"problem": CROSSING_LINES, "algorithm": "map"})
    assert problem.intersection_oracle is None
    trace = solvers.run_map(problem)
    assert trace.status == "converged"

    def stuck(problem, x0=None, config=None):
        return solvers.Trace(records=[], status="max-iterations")

    monkeypatch.setattr(solvers, "run_mass_projection", stuck)
    with pytest.raises(diagnostics.NoDistanceOracleError, match="status max-iterations"):
        diagnostics.estimate_regularity(problem, problem.known_solution)
    report = harness.build_report(cfg, problem, trace, problem.start, 0.0)
    assert report["regularity_estimate"]["error"].startswith("no-K-oracle")
    assert report["predicted_bounds"] == {"error": "no-beta-estimate"}

    sweep = {"problem": CROSSING_LINES, "algorithm": "map", "sweep": {"tau": [0.0, 0.1]}}
    code, out = harness.run_sweep(sweep, out_dir=str(tmp_path))
    assert code == 0
    assert [row["predicted_contraction"] for row in out["rows"]] == [None, None]
    with open(tmp_path / "sweep.csv", newline="") as fh:
        assert [r["predicted_contraction"] for r in csv.DictReader(fh)] == ["", ""]
    assert [row["status"] for row in out["rows"]] == ["converged", "converged"]


# Two circles through (0, 1) and (0, -1), with no known solution.
TWO_CIRCLES = {
    "name": "two-circles",
    "sets": [
        {"kind": "sphere", "center": [2.0, 0.0], "radius": 5.0 ** 0.5},
        {"kind": "sphere", "center": [-2.0, 0.0], "radius": 5.0 ** 0.5},
    ],
    "start": [0.3, 1.4],
}


def test_sweep_without_known_solution_starts_where_run_starts(tmp_path):
    """With no seed axis, a problem without a known solution sweeps from
    its stock start, as `run` does, instead of failing every cell."""
    cfg = {"problem": TWO_CIRCLES, "algorithm": "map", "sweep": {"tau": [0.0, 0.1]}}
    code, out = harness.run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
    assert code == 0
    assert [(r["x0_seed"], r["status"], r["error"]) for r in out["rows"]] == [
        (None, "converged", ""),
        (None, "converged", ""),
    ]
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        assert [r[2] for r in list(csv.reader(fh))[1:]] == ["", ""]
    code, run = harness.run_experiment(
        {"problem": TWO_CIRCLES, "algorithm": "map"}, out_dir=str(tmp_path / "run")
    )
    assert code == 0
    assert run["trace_data"].status == "converged"


def test_sweep_rejects_start_seeds_without_known_solution(tmp_path, capsys):
    """Explicit start seeds on a problem without a known solution exit 64
    before any cell runs, with the message `run --x0-seed` gives."""
    out = tmp_path / "sweep"
    cfg = {"problem": TWO_CIRCLES, "algorithm": "map", "sweep": {"x0_seeds": [0, 1]}}
    with pytest.raises(harness.UsageError, match="x0_seed requires a problem with a known solution"):
        harness.run_sweep(cfg, out_dir=str(out))
    assert not out.exists()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"problem": TWO_CIRCLES, "algorithm": "map"}))
    sweep = ["sweep", "--config", str(config), "--x0-seeds", "0,1", "--out-dir", str(out)]
    assert cli.main(sweep) == 64
    message = capsys.readouterr().err
    assert "x0_seed requires a problem with a known solution" in message
    assert not out.exists()
    run = ["run", "--config", str(config), "--x0-seed", "0", "--out-dir", str(tmp_path / "run")]
    assert cli.main(run) == 64
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "sweep_flags, run_flags, message",
    [
        (
            ["--algorithm", "memory-shqp", "--pbar-grid", "0,2"],
            ["--algorithm", "memory-shqp", "--pbar", "0"],
            "memory-shqp requires pbar >= 1",
        ),
        (
            ["--algorithm", "mass", "--x0-seeds=3,-1"],
            ["--algorithm", "mass", "--x0-seed=-1"],
            "config invalid at $.x0_seed",
        ),
        (
            ["--algorithm", "mass", "--pbar-grid=4,-2"],
            ["--algorithm", "mass", "--pbar=-2"],
            "config invalid at $.pbar",
        ),
    ],
    ids=["memory-pbar-0", "negative-seed", "negative-pbar"],
)
def test_cli_sweep_rejects_cells_that_run_rejects(tmp_path, capsys, sweep_flags, run_flags, message):
    """A grid value that `run` exits 64 on makes the sweep exit 64 with the
    same message before any cell runs, instead of writing error rows."""
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--problem", "circle-line", *sweep_flags, "--out-dir", str(out)]) == 64
    assert message in capsys.readouterr().err
    assert not out.exists()
    run = ["run", "--problem", "circle-line", *run_flags, "--out-dir", str(tmp_path / "run")]
    assert cli.main(run) == 64
    assert message in capsys.readouterr().err


def test_sweep_contraction_matches_the_full_regularity_estimate(tmp_path):
    """The sweep probes only beta, and gets the value estimate_regularity
    reports, bit for bit."""
    from shqp import diagnostics

    cfg = _cfg(
        problem="two-parabolas",
        algorithm="memory-shqp",
        seed=3,
        sweep={"tau": [0.05, 0.2], "pbar": [2], "x0_seeds": [0]},
    )
    _, out = harness.run_sweep(cfg, out_dir=str(tmp_path))
    problem = gallery.get_entry("two-parabolas").problem
    beta = diagnostics.estimate_regularity(problem, problem.known_solution, rng_seed=3).beta_hat
    assert len(out["rows"]) == 2
    for row in out["rows"]:
        want = diagnostics.predicted_bounds(len(problem.sets), beta, row["tau"]).contraction
        assert row["predicted_contraction"] == want


# ------------------------------------------------------------------- CLI


def test_cli_run_prints_summary(tmp_path, capsys):
    rc = cli.main(
        ["run", "--problem", "circle-line", "--algorithm", "map",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line == (
        f"map: converged (exit 0); trace={tmp_path}/trace.csv "
        f"report={tmp_path}/report.json"
    )


@pytest.mark.parametrize(
    "smooth",
    [
        {"kind": "smooth-manifold", "function": "polynomial-curve", "coefficients": []},
        {"kind": "smooth-manifold", "function": "polynomial-curve", "coefficients": [0.0, float("nan")]},
        {"kind": "smooth-level-set", "function": "polynomial-curve", "coefficients": [],
         "side": "above", "convex": False},
        {"kind": "smooth-level-set", "function": "polynomial-curve",
         "coefficients": [float("inf"), 1.0], "side": "below", "convex": False},
    ],
    ids=["curve-empty", "curve-nan", "level-empty", "level-inf"],
)
def test_cli_run_rejects_bad_coefficients(tmp_path, capsys, smooth):
    # json writes NaN and Infinity, and reads them back, as a user's file may.
    problem = {
        "name": "p",
        "start": [0.5, 0.5],
        "sets": [{"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0}, smooth],
    }
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"problem": problem}))
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(path), "--algorithm", "map", "--out-dir", str(out)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: $.problem.sets[1]: polynomial coefficients must be")
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_set, start, message",
    [
        ({"kind": "ball", "center": [0.0, 0.0], "radius": None}, [0.5, 0.5],
         "$.problem.sets[0].radius: expected a finite number"),
        ({"kind": "smooth-level-set", "function": "polynomial-curve", "coefficients": [0.0, 0.0, 1.0],
          "side": "above", "convex": "no"}, [0.5, 0.5],
         "$.problem.sets[0]: convex must be a bool, got 'no'"),
        ({"kind": "fixed-rank-matrix-set", "rows": 2.5, "cols": 2, "rank": 1}, [1.0, 0.0, 0.0, 1.0],
         "$.problem.sets[0]: rows must be an integer"),
    ],
    ids=["radius-null", "convex-string", "rows-fractional"],
)
@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_cli_rejects_a_malformed_set_field(tmp_path, capsys, bad_set, start, message, command):
    # A null radius was a TypeError traceback (exit 1); "convex": "no" ran
    # as a convex set, and rows 2.5 as 2, each with exit 0.
    path = tmp_path / "config.json"
    problem = {"name": "p", "start": start, "sets": [bad_set]}
    path.write_text(json.dumps({"problem": problem, "algorithm": "map"}))
    out = tmp_path / "out"
    flags = ["--out-dir", str(out)] if command == "run" else []
    rc = cli.main([command, "--config", str(path), *flags])
    err = capsys.readouterr().err
    assert rc == 64
    assert err == f"error: {message}\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_list_gallery(capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert lines[0].split() == ["name", "m", "dim", "convex", "sosh", "beta", "eta"]
    assert [l.split()[0] for l in lines[1:]] == gallery.gallery_names()


def test_cli_validate_config(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_cfg()))
    assert cli.main(["validate-config", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_cfg(tau=1.5)))
    assert cli.main(["validate-config", "--config", str(bad)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid at $.tau")

    assert cli.main(["validate-config", "--config", str(tmp_path / "missing.json")]) == 64
    assert "cannot read config file" in capsys.readouterr().err

    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]")
    assert cli.main(["validate-config", "--config", str(notdict)]) == 64
    assert "must contain a JSON object" in capsys.readouterr().err


def test_cli_usage_errors(tmp_path, capsys):
    assert cli.main(["run", "--algorithm", "map"]) == 64
    assert "a problem is required" in capsys.readouterr().err

    assert cli.main(["run", "--problem", "nope", "--algorithm", "map"]) == 64
    assert "unknown gallery problem 'nope'" in capsys.readouterr().err

    assert (
        cli.main(["sweep", "--problem", "circle-line", "--algorithm", "map"]) == 64
    )
    err = capsys.readouterr().err.strip()
    assert err == (
        "error: sweep requires at least one grid axis "
        "(--tau-grid, --pbar-grid, --x0-seeds)"
    )

    # argparse-level mistakes also exit 64, with the prog-prefixed message.
    assert cli.main(["run", "--bogus-flag"]) == 64
    assert "shqp: error: unrecognized arguments" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0


def test_cli_sweep_and_overrides(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "--problem", "circle-line", "--algorithm", "memory-shqp",
         "--tau-grid", "0.05,0.1", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == f"2 cells written to {tmp_path}/sweep.csv"

    rc = cli.main(
        ["run", "--problem", "circle-line", "--algorithm", "map",
         "--x0", "1.2,0.4", "--tol", "1e-6", "--out-dir", str(tmp_path / "r")]
    )
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    np.testing.assert_allclose(report["config_echo"]["x0_resolved"], [1.2, 0.4])
    assert report["config_echo"]["tol"] == 1e-6


def test_cli_config_file_with_flag_overrides(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(tau=0.2)))
    rc = cli.main(
        ["run", "--config", str(path), "--algorithm", "mass",
         "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 0
    line = capsys.readouterr().out
    assert line.startswith("mass: converged (exit 0)")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config_echo"]["algorithm"] == "mass"
    assert report["config_echo"]["tau"] == 0.2


def test_integral_floats_in_integer_fields_run_as_integers(tmp_path, capsys):
    """Draft 2020-12 counts 50.0 as an integer, so the schema passes it; the
    run then writes what the config with 50 writes."""
    whole = {"max_iters": 50, "pbar": 3, "x0_seed": 2, "seed": 1}
    outputs = []
    for fields in (whole, {k: float(v) for k, v in whole.items()}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"problem": "two-parabolas", "algorithm": "memory-shqp", **fields}))
        cfg, _ = harness.validate_experiment(json.loads(path.read_text()))
        assert all(type(getattr(cfg, name)) is int for name in whole)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("wallclock_ms")
        outputs.append(((out / "trace.csv").read_bytes(), report))
    assert outputs[0] == outputs[1]
    assert "Traceback" not in capsys.readouterr().err
    # A sweep cell is checked as a config, so its grid values are made ints too.
    grid = {"pbar": [2.0], "x0_seeds": [1.0]}
    _, sweep = harness.run_sweep(
        {"problem": "two-parabolas", "algorithm": "memory-shqp", "sweep": grid}, out_dir=str(tmp_path / "sweep")
    )
    assert [(type(row["pbar"]), type(row["x0_seed"])) for row in sweep["rows"]] == [(int, int)]


def test_solver_config_takes_an_integral_float_as_an_int():
    cfg = solvers.SolverConfig(pbar=3.0, max_outer_iterations=5.0)
    assert (cfg.pbar, cfg.max_outer_iterations) == (3, 5)
    assert type(cfg.pbar) is int and type(cfg.max_outer_iterations) is int


@pytest.mark.parametrize("algorithm", ["mass", "map"])
def test_cli_runs_an_affine_subspace_whose_qr_overflows(tmp_path, capsys, algorithm):
    path = tmp_path / "huge.json"
    problem = {
        "name": "huge-line-ball",
        "sets": [
            {"kind": "affine-subspace", "point": [0, 0], "basis": [[1e308, 1e308]]},
            {"kind": "ball", "center": [0, 0], "radius": 1},
        ],
        "start": [2.0, 0.5],
    }
    path.write_text(json.dumps({"problem": problem, "algorithm": algorithm}))
    rc = cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc in (0, 2, 3)
    assert (tmp_path / "out" / "report.json").exists()


# The run and sweep flags as they were written out by hand before
# ExperimentConfig's fields declared them: option string, dest, type,
# choices and help, in order (every default is None).
_ALGORITHMS = "map, basic-shqp, mass, memory-shqp, two-shqp, averaged, global"
FROZEN_RUN_FLAGS = [
    ("--config", "config", None, None, "JSON config file; flags override its fields"),
    ("--problem", "problem", None, None, "gallery name (see `list`)"),
    ("--algorithm", "algorithm", None, None, "one of: " + _ALGORITHMS),
    ("--x0", "x0", None, None, "starting point, comma-separated (e.g. 0,1,0)"),
    ("--x0-seed", "x0_seed", int, None, "seed a random start near the known solution"),
    ("--x0-radius", "x0_radius", float, None, "radius of the seeded-start ball"),
    ("--tau", "tau", float, None, "halfspace relaxation parameter in [0,1)"),
    ("--pbar", "pbar", int, None, "memory depth in outer iterations"),
    ("--seed", "seed", int, None, "seed for the report's regularity sampling (no solver draws from it)"),
    ("--max-iters", "max_iters", int, None, "outer iteration cap"),
    ("--tol", "tol", float, None, "stop when every set distance is below this"),
    ("--out-dir", "out_dir", None, None, "directory for trace and report files"),
    ("--format", "format", None, ["csv", "json"], "trace file format (default csv)"),
]
FROZEN_SWEEP_FLAGS = FROZEN_RUN_FLAGS + [
    ("--tau-grid", "tau_grid", None, None, "comma-separated tau values"),
    ("--pbar-grid", "pbar_grid", None, None, "comma-separated pbar values"),
    ("--x0-seeds", "x0_seeds", None, None, "comma-separated start seeds"),
]


@pytest.mark.parametrize("command, flags", [("run", FROZEN_RUN_FLAGS), ("sweep", FROZEN_SWEEP_FLAGS)])
def test_run_and_sweep_flags_are_the_frozen_flags(monkeypatch, command, flags):
    monkeypatch.setenv("COLUMNS", "80")
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    parser = commands.choices[command]
    got = [
        (a.option_strings, a.dest, a.type, a.choices, a.default, a.help)
        for a in parser._actions
        if a.dest != "help"
    ]
    assert got == [([flag], dest, kind, choices, None, text) for flag, dest, kind, choices, text in flags]
    reference = cli._Parser(prog=f"shqp {command}")
    for flag, dest, kind, choices, text in flags:
        reference.add_argument(flag, dest=dest, type=kind, choices=choices, help=text)
    assert parser.format_help() == reference.format_help()
