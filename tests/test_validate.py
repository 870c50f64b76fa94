"""The config validator against jsonschema's Draft 2020-12 validator."""

import copy
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from feynlab import cli
from feynlab._validate import SchemaError, Validator
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
CONFIG_SCHEMA = json.loads(
    (resources.files("feynlab") / "schemas" / "config.schema.json").read_text()
)
VALIDATOR = Validator(CONFIG_SCHEMA)

GRID = {"extent": [8.0, 8.0], "points": [16, 16]}
# one valid config per subcommand, every optional parameter set
VALID = {
    "roots": {"subcommand": "roots", "params": {"n": 4, "K": 5}, "seed": 3, "out": "o"},
    "spectrum": {"subcommand": "spectrum", "params": {"n": 4, "K": 5}},
    "weights": {"subcommand": "weights", "params": {"n": 4, "K": 3, "l_samples": [0.5, -1.0]}},
    "flow": {
        "subcommand": "flow",
        "params": {"n": 4, "count": 2, "T": 3.0, "future": True, "mixed": False, "tol": 1e-8,
                   "write_traces": False},
    },
    "propagate": {
        "subcommand": "propagate",
        "grid": GRID,
        "params": {"kind": "retarded", "eps": 0.5,
                   "source": {"type": "gaussian", "width": 1.0, "amplitude": 2.0,
                              "center": [0.0, 1.0]}},
    },
    "wick": {
        "subcommand": "wick",
        "grid": GRID,
        "params": {"eps": 0.1, "steps": 4, "band": 0.4, "cone_gap": 0.0},
    },
    "picard": {
        "subcommand": "picard",
        "grid": GRID,
        "params": {"p": 3, "lam": 0.1, "kind": "feynman", "eps": 0.3,
                   "source": {"type": "random", "band": 0.5, "decay": 2.0}, "tol": 1e-10,
                   "residual_tol": 1e-6, "max_iter": 5},
    },
    "product-check": {
        "subcommand": "product-check",
        "params": {"dims": [1, 2], "rules": ["cone-product"], "margin": 0.1, "repeats": 1},
    },
}

# swapped-in values: bools, floats (1.0 is an integer), strings, null, lists,
# zero, negative and out-of-range numbers, wrong-length points, unknown kinds
# and source types
SWAPS = [
    True, False, None, 0, -1, -2.5, 0.0, 1.0, 1, 2, 3, 4, 6.0, 7, 1.5, 1e300,
    2**64 - 1, 2**64, "", "x", "sideways", "feynman", "roots", [], [1], [True], [1.0],
    [16], [16, 16, 16], [3, 16], [0.0, 8.0], {}, {"type": "gaussian"}, {"type": "uniform"},
    {"type": "random", "width": 1.0},
]
ADDED_KEYS = ["zzz", "n", "type", "grid", "kind", "seed", "band"]


def paths(x, prefix=()):
    """Every path into x, x itself first."""
    yield prefix
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from paths(v, prefix + (k,))


def at(x, path):
    for k in path:
        x = x[k]
    return x


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(VALID[draw(st.sampled_from(sorted(VALID)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(cfg))))
        target = at(cfg, path)
        op = draw(st.sampled_from(["swap", "drop", "add"] if path else ["add", "drop"]))
        if op == "swap":
            at(cfg, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        elif op == "drop" and path:
            del at(cfg, path[:-1])[path[-1]]
        elif op == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif isinstance(target, dict):
            target[draw(st.sampled_from(ADDED_KEYS))] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        elif isinstance(target, list):
            target.append(copy.deepcopy(draw(st.sampled_from(SWAPS))))
    return cfg


BOUNDARY_CASES = [
    # two unknown keys, out of sorted order
    dict(VALID["roots"], params={"n": 4, "K": 5, "zzz": 1, "band": 2}),
    # each bound's edge: exclusive, inclusive, the largest seed, multipleOf
    dict(VALID["propagate"], params=dict(VALID["propagate"]["params"], eps=0)),
    dict(VALID["wick"], params=dict(VALID["wick"]["params"], cone_gap=0.0, band=1)),
    dict(VALID["roots"], seed=2**64 - 1),
    dict(VALID["roots"], seed=2**64),
    dict(VALID["picard"], grid={"extent": [8.0, 0.0], "points": [4, 3]}),
    # no source branch, and a dim that is true
    dict(VALID["picard"], params=dict(VALID["picard"]["params"], source={"type": "uniform"})),
    dict(VALID["product-check"], params={"dims": [True, 2.0]}),
]


@given(mutated_configs())
def test_mutated_configs_get_jsonschemas_verdicts(reference_errors, cfg):
    # the same violations, sorted by path the same way, with the same messages
    assert VALIDATOR.errors(cfg) == reference_errors(cfg)


@pytest.mark.parametrize("cfg", BOUNDARY_CASES)
def test_boundary_configs_get_jsonschemas_verdicts(reference_errors, cfg):
    assert VALIDATOR.errors(cfg) == reference_errors(cfg)


def test_mutations_reach_accepted_and_rejected_configs():
    # the differential test above must see both verdicts, and every error site
    verdicts, sites = set(), set()

    @given(mutated_configs())
    def collect(cfg):
        errors = VALIDATOR.errors(cfg)
        verdicts.add(not errors)
        sites.update(path[:2] for path, _ in errors)

    collect()
    assert verdicts == {True, False}
    assert {(), ("grid",), ("params",), ("seed",)} <= sites


@pytest.mark.parametrize("subcommand", sorted(VALID))
def test_valid_configs_validate(reference_errors, subcommand):
    assert VALIDATOR.errors(VALID[subcommand]) == []
    assert reference_errors(VALID[subcommand]) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_configs_validate_under_both(reference_errors, workload):
    for seed in (0, 1, 2):
        for cfg in WORKLOADS[workload].configs(seed):
            assert VALIDATOR.errors(cfg) == []
            assert reference_errors(cfg) == []


@pytest.mark.parametrize(
    "value,valid",
    [(4, True), (4.0, True), (True, False), (False, False), (4.5, False), ("4", False)],
)
def test_bool_is_no_integer_and_float_integers_are(value, valid):
    cfg = {"subcommand": "roots", "params": {"n": value, "K": 1}}
    assert (VALIDATOR.errors(cfg) == []) == valid


@pytest.mark.parametrize("dims,valid", [([1], True), ([1.0], True), ([True], False)])
def test_enum_tells_true_from_one(dims, valid):
    cfg = {"subcommand": "product-check", "params": {"dims": dims}}
    assert (VALIDATOR.errors(cfg) == []) == valid


def test_const_tells_true_from_one():
    v = Validator({"const": 1})
    assert v.errors(1) == [] and v.errors(1.0) == []
    assert v.errors(True) == [((), "1 was expected")]


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "patternProperties": {"^x": {}}},
        {"properties": {"a": {"maxItems": 2}}},
        {"if": {"type": "object"}, "then": {}, "else": {}},
        {"items": {"pattern": "^a"}},
        {"$ref": "#/definitions/a"},
        {"$ref": "#/$defs/missing", "$defs": {}},
        {"$defs": {"a": {"type": "object", "format": "date"}}},
        {"additionalProperties": {"type": "string"}},
        {"multipleOf": 0.5},
        {"type": "decimal"},
        {"items": True},
        {"properties": {"a": {"$defs": {}}}},
    ],
)
def test_unknown_keywords_and_forms_raise_at_load(schema):
    with pytest.raises(SchemaError):
        Validator(schema)


def test_config_error_message_names_the_first_path():
    with pytest.raises(cli.ConfigError) as info:
        cli.ExperimentConfig.from_dict(
            {"subcommand": "picard", "grid": {"extent": [8.0, 8.0], "points": [16, 3]},
             "params": {"p": True, "lam": 0.1}}
        )
    assert str(info.value) == "config invalid at grid/points/1: 3 is less than the minimum of 4"


def test_cli_import_loads_no_jsonschema_and_no_thread_pool():
    # a fresh process, so that no other test's imports count; the version is
    # a constant, so importlib.metadata (and the email package it pulls in)
    # stays off the cold start too
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p)
    script = (
        "import json, sys\nimport feynlab.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('jsonschema', 'referencing', 'email') or m.startswith('concurrent.futures') "
        "or m.startswith('importlib.metadata'))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
