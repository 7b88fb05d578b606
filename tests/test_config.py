"""Config shape validation, held to the JSON Schema it replaced.

``CONFIG_SCHEMA`` is the draft 2020-12 schema that configs were once
validated against through jsonschema.  It stays here as the oracle for the
shape pass, ``invdecomp.cli.field_problems`` over ``CONFIG_FIELDS``, with
the two type rules of that pass: an integer is a JSON integer (not a bool,
not ``64.0``) and a number is finite.  Presets mutated at random (dropped
keys, unknown keys, values of any JSON type) and presets with each key set
to each value on or just past its bounds go to both, and both must accept
or reject the same configs.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.validators import extend

from invdecomp.cli import CHECKS, CONFIG_FIELDS, DEFAULT_TOLERANCES, PRESETS, field_problems, validate_config
from invdecomp.sampling import EXP_STREAM

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kernel", "checks"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "kernel": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "path": {"type": "string"},
                        "cutoff": {"type": "integer", "minimum": 1},
                        "mgf_pairs": {
                            "type": "array", "items": _PAIR, "minItems": 1, "maxItems": EXP_STREAM // 2
                        },
                    },
                },
            },
        },
        "action": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"name": {"enum": ["reversal", "negation", "none"]}},
        },
        "grid": {
            "type": "object",
            "required": ["n"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["interval", "torus"]},
                "n": {
                    "oneOf": [
                        {"type": "integer", "minimum": 2},
                        {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 2},
                            "minItems": 1,
                            "maxItems": 3,
                        },
                    ]
                },
                "basis": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
            },
        },
        "rho": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "n_max": {"type": "integer", "minimum": 1, "maximum": 12},
        "samples": {"type": "integer", "minimum": 2000},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": list(CHECKS)},
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                key: (
                    {"type": "array", "items": _POSITIVE, "minItems": len(val), "maxItems": len(val)}
                    if isinstance(val, list)
                    else _POSITIVE
                )
                for key, val in DEFAULT_TOLERANCES.items()
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}


def _is_integer(checker, value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(checker, value) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


ORACLE = extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"integer": _is_integer, "number": _is_number}
    ),
)(CONFIG_SCHEMA)


def _objects(schema=CONFIG_SCHEMA, path=()):
    """(path, known keys) of every object the schema describes."""
    if schema.get("type") == "object":
        yield path, tuple(schema["properties"])
        for key, sub in schema["properties"].items():
            yield from _objects(sub, path + (key,))


def _slots(schema=CONFIG_SCHEMA, path=()):
    """(path, schema) of every key the schema names, nested ones included."""
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,), sub
        yield from _slots(sub, path + (key,))


def _valid(schema):
    """One value the schema accepts."""
    if "enum" in schema or "oneOf" in schema:
        return schema["enum"][0] if "enum" in schema else _valid(schema["oneOf"][0])
    kind = schema["type"]
    if kind == "array":
        return [_valid(schema["items"])] * schema.get("minItems", 1)
    if kind == "object":
        return {key: _valid(schema["properties"][key]) for key in schema.get("required", ())}
    if "minimum" in schema:
        return schema["minimum"]
    if "exclusiveMinimum" in schema:
        return schema["exclusiveMinimum"] + 0.5
    return {"string": "x", "integer": 1, "number": 0.5}[kind]


def _edges(schema) -> list:
    """Values on and just past each bound of the schema: range ends, integral floats, and
    lists of 0 to 4 valid items (every minItems and maxItems here is at most 3, but for
    mgf_pairs' maxItems of 16,384, whose edge ``tests/test_cli.py`` checks)."""
    if "oneOf" in schema:
        return [v for sub in schema["oneOf"] for v in _edges(sub)]
    out = [_valid(schema)]
    for key in ("minimum", "maximum", "exclusiveMinimum"):
        if key in schema:
            out += [schema[key], schema[key] - 1, schema[key] + 1, float(schema[key])]
    if schema.get("type") == "array":
        out += [[_valid(schema["items"])] * k for k in range(5)]
    return out


def _paths(value, path=()):
    """The path of every key and list item inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield path + (key,)
        yield from _paths(sub, path + (key,))


OBJECTS = dict(_objects())
SLOTS = dict(_slots())
WORDS = list(CHECKS) + list(DEFAULT_TOLERANCES) + ["interval", "torus", "json", "csv", "reversal", "none"]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 14),
    st.sampled_from([1999, 2000, 2**64 - 1, 2**64, -(2**63), 10**400]),
    st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5, 2.0, 64.0, 2000.0, 1e-9, 1e308]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(WORDS + ["frobnicate", "", "NaN"]),
    st.text(max_size=4),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["name", "n", "dir", "path", "x"]), inner, max_size=2),
    ),
    max_leaves=6,
)
_unknown = st.one_of(
    st.text(min_size=1, max_size=6), st.sampled_from(["group", "Seed", "nme", "n", "name", "dir"])
)


def _at(cfg, path):
    """The value at ``path``, creating the missing objects on the way."""
    for key in path:
        cfg = cfg.setdefault(key, {}) if isinstance(cfg, dict) else cfg[key]
    return cfg


@st.composite
def mutated_presets(draw):
    """A preset with one mutation, and the path of the key the mutation touched."""
    cfg = copy.deepcopy(PRESETS[draw(st.sampled_from(list(PRESETS)))])
    kind = draw(st.sampled_from(["drop", "unknown", "set"]))
    if kind == "drop":
        path = draw(st.sampled_from(list(_paths(cfg))))
        parent = _at(cfg, path[:-1])
        del parent[path[-1]]
        if isinstance(parent, list):
            path = path[:-1]  # a short list is the list's problem
    elif kind == "unknown":
        parent, known = draw(st.sampled_from(list(OBJECTS.items())))
        path = parent + (draw(_unknown.filter(lambda key: key not in known)),)
        _at(cfg, parent)[path[-1]] = draw(_values)
    else:
        path = draw(st.sampled_from(list(SLOTS) + list(_paths(cfg))))
        _at(cfg, path[:-1])[path[-1]] = draw(_values)
    return cfg, "/".join(str(key) for key in path) or "<root>"


def _names_path(message: str, path: str) -> bool:
    return message.startswith(path + ":") or message.startswith(path + "/")


def _agree(cfg, path: str) -> None:
    """Both validators accept ``cfg`` or both reject it, and each problem names ``path``."""
    problems = field_problems(cfg, CONFIG_FIELDS)
    oracle = [e.message for e in ORACLE.iter_errors(cfg)]
    assert bool(problems) == bool(oracle), (problems, oracle)
    assert all(_names_path(p, path) for p in problems), (path, problems)
    # whatever passes the shape pass, the semantic rules judge without raising
    assert isinstance(validate_config(cfg), list)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(mutated_presets())
def test_the_shape_pass_agrees_with_the_schema_on_mutated_presets(case):
    _agree(*case)


def test_the_shape_pass_agrees_with_the_schema_on_every_bound():
    """Each preset with each key set in turn to each value of ``_edges``."""
    for preset in PRESETS.values():
        for path, schema in SLOTS.items():
            for value in _edges(schema):
                cfg = copy.deepcopy(preset)
                _at(cfg, path[:-1])[path[-1]] = copy.deepcopy(value)
                _agree(cfg, "/".join(path))


def _preset(**overrides):
    cfg = copy.deepcopy(PRESETS["watson-duplication"])
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize(
    "cfg, path",
    [
        (_preset(grid={"n": [4, 4], "basis": [[1.0, math.nan], [0.0, 1.0]]}), "grid/basis/0/1"),
        (
            _preset(kernel={"name": "watson", "params": {"mgf_pairs": [[0.5, -math.inf]]}}),
            "kernel/params/mgf_pairs/0/1",
        ),
        (_preset(grid={"n": True}), "grid/n"),
        (_preset(rho=False), "rho"),
    ],
)
def test_the_shape_pass_rejects_what_the_schema_rejects(cfg, path):
    """Non-finite numbers deep in a list, and bools, which the generated cases may miss."""
    assert field_problems(cfg, CONFIG_FIELDS)
    _agree(cfg, path)


def test_a_non_object_config_is_a_root_problem():
    assert field_problems([], CONFIG_FIELDS) == ["<root>: expected an object, got []"]
    assert validate_config("watson") == ['<root>: expected an object, got "watson"']
