"""Config parsing, artifact emission, manifests, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from feynlab import cli, propagators
from feynlab.cli import (
    ArtifactIOError,
    ConfigError,
    ExperimentConfig,
    NumericDivergence,
    _write_all,
    _write_field_csv,
    load_config,
    main,
    run_experiment,
)
from feynlab.errors import ClassificationError
from feynlab.fields import GridSpec, SpectralField, gaussian_source, random_band_limited
from feynlab.orders import PRODUCT_RULES, sweep_plan


def write_config(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data))
    return path


def load_schema(name: str) -> dict:
    res = resources.files("feynlab") / "schemas" / f"{name}.schema.json"
    return json.loads(res.read_text())


def check_schema(payload: dict, name: str) -> None:
    jsonschema.Draft202012Validator(load_schema(name)).validate(payload)


def read_strict_json(path: Path):
    """The JSON in path, rejecting NaN and Infinity as a strict parser does."""

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


ROOTS = {"subcommand": "roots", "params": {"n": 4, "K": 5}}
PICARD = {
    "subcommand": "picard",
    "grid": {"extent": [16.0, 16.0], "points": [64, 64]},
    "params": {"p": 3, "lam": 0.1, "source": {"type": "gaussian", "width": 1.0}},
}


# --- config handling ------------------------------------------------------

def test_config_round_trips():
    cfg = ExperimentConfig.from_dict(dict(PICARD, seed=9, out="somewhere"))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.grid == GridSpec((16.0, 16.0), (64, 64))


def test_config_round_trips_without_grid():
    cfg = ExperimentConfig.from_dict(ROOTS)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.grid is None and cfg.seed == 0 and cfg.out is None


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(ROOTS, surprise=1))


def test_unknown_param_key_rejected():
    bad = {"subcommand": "roots", "params": {"n": 4, "K": 5, "payload": 1}}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_unknown_subcommand_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"subcommand": "frobnicate", "params": {}})


def test_missing_required_param_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"subcommand": "roots", "params": {"K": 5}})


def test_grid_required_for_field_subcommands():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"subcommand": "picard", "params": {"p": 3, "lam": 0.1}}
        )


def test_grid_length_mismatch_rejected():
    bad = dict(ROOTS, grid={"extent": [8.0, 8.0], "points": [16, 16, 16]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_odd_point_count_rejected():
    bad = dict(ROOTS, grid={"extent": [8.0, 8.0], "points": [16, 17]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_strict_json_duplicate_keys(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"subcommand": "roots", "params": {"n": 4, "K": 5}, "seed": 1, "seed": 2}')
    with pytest.raises(ConfigError):
        load_config(p)


def test_strict_json_nonfinite(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"subcommand": "picard", "params": {"p": 3, "lam": Infinity}}')
    with pytest.raises(ConfigError):
        load_config(p)


def test_strict_json_top_level_array(tmp_path):
    p = write_config(tmp_path / "c.json", {})
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(p)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_load_config_overrides_and_default_root(tmp_path, monkeypatch):
    p = write_config(tmp_path / "c.json", dict(ROOTS, seed=1))
    cfg = load_config(p, seed=7, out=str(tmp_path / "o"))
    assert cfg.seed == 7 and cfg.out == str(tmp_path / "o")
    monkeypatch.setenv("FEYNLAB_OUT", str(tmp_path / "envroot"))
    cfg2 = load_config(p)
    assert cfg2.out == str(tmp_path / "envroot" / "c")
    monkeypatch.delenv("FEYNLAB_OUT")
    monkeypatch.chdir(tmp_path)
    cfg3 = load_config(p)
    assert cfg3.out == str(Path("feynlab-runs") / "c")


def test_content_hash_ignores_output_location():
    a = ExperimentConfig.from_dict(dict(ROOTS, out="here"))
    b = ExperimentConfig.from_dict(dict(ROOTS, out="there"))
    c = ExperimentConfig.from_dict(dict(ROOTS, seed=5))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_content_hash_golden():
    # the canonical form of a config with a grid, which every manifest records
    cfg = ExperimentConfig.from_dict(PICARD)
    assert cfg.content_hash() == (
        "77971163c63ba89ce47418aebd5672123fe8da4a73c9e298e508a93aaa0c60d1"
    )


# --- running subcommands --------------------------------------------------

def run_dict(tmp_path, data, name="cfg"):
    cfg = ExperimentConfig.from_dict(dict(data, out=str(tmp_path / name)))
    manifest = run_experiment(cfg)
    return Path(cfg.out), manifest


def test_roots_run_artifact(tmp_path):
    out, manifest = run_dict(tmp_path, ROOTS)
    payload = json.loads((out / "roots.json").read_text())
    check_schema(payload, "roots")
    assert payload["roots"] == [float(k) for k in range(-6, 7) if k != 0]
    assert payload["gap"] == 1.0
    assert [f["name"] for f in manifest.to_dict()["files"]] == ["roots.json"]


def test_spectrum_run_artifacts(tmp_path):
    out, _ = run_dict(tmp_path, {"subcommand": "spectrum", "params": {"n": 4, "K": 3}})
    payload = json.loads((out / "spectrum.json").read_text())
    check_schema(payload, "spectrum")
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 4  # header + k = 0..3
    assert [e["multiplicity"] for e in payload["entries"]] == [1, 4, 9, 16]


def test_weights_run_artifact(tmp_path):
    out, _ = run_dict(
        tmp_path,
        {"subcommand": "weights", "params": {"n": 4, "l_samples": [0.5, 1.5, -1.5]}},
    )
    payload = json.loads((out / "weights.json").read_text())
    check_schema(payload, "weights")
    by_l = {row["l"]: row for row in payload["index_table"]}
    assert by_l[0.5]["index"] == 0
    assert by_l[1.5]["index"] == -1
    assert by_l[-1.5]["index"] == 1


def test_flow_run_artifacts(tmp_path):
    data = {
        "subcommand": "flow",
        "seed": 11,
        "params": {"n": 4, "count": 2, "T": 25.0},
    }
    out, manifest = run_dict(tmp_path, data)
    payload = json.loads((out / "flow.json").read_text())
    check_schema(payload, "flow")
    for ray in payload["rays"]:
        assert ray["forward"]["classification"].startswith("sink")
        assert ray["backward"]["classification"].startswith("source")
        assert (out / ray["trace_file"]).exists()
    names = [f["name"] for f in manifest.to_dict()["files"]]
    assert "trace-000.csv" in names and "trace-001.csv" in names


def test_flow_shorter_than_a_step_runs(tmp_path):
    # |T| <= 1e-12 is schema-valid: every leg ends at its start sample
    out, _ = run_dict(tmp_path, {"subcommand": "flow", "params": {"n": 4, "count": 1, "T": 1e-13}})
    payload = json.loads((out / "flow.json").read_text())
    check_schema(payload, "flow")
    assert [ray["forward"]["truncated"] for ray in payload["rays"]] == [None]
    rows = (out / "trace-000.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 1


def test_flow_leg_that_classify_limit_rejects_is_written_unclassified(tmp_path, monkeypatch):
    # classify_limit raises for a non-null trace that reaches the radial set;
    # the seeded rays are null, so the rejection is injected
    def reject(trace):
        raise ClassificationError("non-null trace converged to the radial set")

    monkeypatch.setattr(cli, "classify_limit", reject)
    out, _ = run_dict(tmp_path, {"subcommand": "flow", "params": {"n": 4, "count": 1, "T": 5.0}})
    payload = read_strict_json(out / "flow.json")
    check_schema(payload, "flow")
    legs = [ray[leg] for ray in payload["rays"] for leg in ("forward", "backward")]
    assert [leg["classification"] for leg in legs] == [None, None]
    assert all(leg["rho_end"] > 0.0 for leg in legs)


def test_propagate_run_artifacts(tmp_path):
    data = {
        "subcommand": "propagate",
        "grid": {"extent": [8.0, 8.0], "points": [16, 16]},
        "params": {"kind": "retarded", "eps": 0.5},
    }
    out, _ = run_dict(tmp_path, data)
    payload = json.loads((out / "propagate.json").read_text())
    check_schema(payload, "propagate")
    assert payload["residual"] <= 1e-10
    assert not payload["zero_mode_projected"]
    rows = (out / "field.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 16 * 16
    assert rows[0] == "x0,t,re,im"


def test_wick_run_artifact(tmp_path):
    data = {
        "subcommand": "wick",
        "seed": 5,
        "grid": {"extent": [12.0, 12.0], "points": [32, 32]},
        "params": {"steps": 6, "eps": 0.01, "cone_gap": 4.0},
    }
    out, _ = run_dict(tmp_path, data)
    payload = json.loads((out / "wick.json").read_text())
    check_schema(payload, "wick")
    assert payload["char_energy_f"] < 1e-3
    assert payload["rel_difference"] < 0.1


def test_picard_run_end_to_end(tmp_path):
    out, _ = run_dict(tmp_path, PICARD)
    payload = json.loads((out / "picard.json").read_text())
    check_schema(payload, "picard")
    assert payload["converged"] is True
    assert payload["residual"] <= 1e-6
    assert (out / "solution.csv").exists()


def test_picard_divergence_raises_after_writing(tmp_path):
    data = {
        "subcommand": "picard",
        "grid": {"extent": [16.0, 16.0], "points": [64, 64]},
        "params": {
            "p": 3,
            "lam": 50.0,
            "source": {"type": "gaussian", "width": 1.0, "amplitude": 10.0},
        },
        "out": str(tmp_path / "div"),
    }
    cfg = ExperimentConfig.from_dict(data)
    with pytest.raises(NumericDivergence) as info:
        run_experiment(cfg)
    assert info.value.manifest is not None
    payload = json.loads((tmp_path / "div" / "picard.json").read_text())
    assert payload["diverged"] is True
    assert (tmp_path / "div" / "manifest.json").exists()


def test_product_check_run_artifacts(tmp_path):
    data = {
        "subcommand": "product-check",
        "params": {"dims": [1], "rules": ["cone-product"]},
    }
    out, _ = run_dict(tmp_path, data)
    payload = json.loads((out / "product-check.json").read_text())
    check_schema(payload, "product-check")
    assert payload["total"] == 4  # two thresholds, straddled both ways
    assert payload["fraction"] == 1.0
    rows = (out / "product_check.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + payload["total"]


def test_empty_product_plan_is_config_error(tmp_path):
    data = {
        "subcommand": "product-check",
        "params": {"rules": ["no-such-rule"]},
        "out": str(tmp_path / "x"),
    }
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(data))


def test_product_check_unknown_rule_exits_two(tmp_path, capsys):
    # a misspelled rule next to a known one must not be dropped silently
    data = {
        "subcommand": "product-check",
        "params": {"dims": [1], "rules": ["cone-prodcut", "low-reg-cone-product"]},
    }
    p = write_config(tmp_path / "typo.json", data)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    unknown, known = err.split("known:")
    assert "'cone-prodcut'" in unknown and "'low-reg-cone-product'" not in unknown
    assert all(repr(rule) in known for rule in PRODUCT_RULES)
    assert not (tmp_path / "o").exists()


def test_product_check_rule_without_a_row_in_the_dims_exits_two(tmp_path, capsys):
    # split-algebra has no 1-D flat model; it must not vanish from the plan
    data = {
        "subcommand": "product-check",
        "params": {"dims": [1], "rules": ["split-algebra", "cone-product"]},
    }
    p = write_config(tmp_path / "line.json", data)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'split-algebra'" in err and "[2]" in err and "'cone-product'" not in err
    assert not (tmp_path / "o").exists()


def test_product_check_with_non_finite_schur_sums_exits_two(tmp_path, capsys):
    # margin 50 puts the weights' orders 50 past the threshold, and the
    # weight quotients overflow: an infinite Schur sum is no "finite" verdict
    data = {
        "subcommand": "product-check",
        "params": {"dims": [1], "rules": ["cone-product"], "margin": 50},
    }
    p = write_config(tmp_path / "far.json", data)
    with np.errstate(all="ignore"):
        assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "Schur sums not finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_schema_dims_are_the_swept_dims():
    # a dim the rule table sweeps must be reachable from a config, and no other
    params = load_schema("config")["$defs"]["product_check_params"]
    assert params["properties"]["dims"]["items"]["enum"] == sorted(
        {dim for _, dim, _ in sweep_plan()}
    )


def test_subcommand_table_defaults_are_the_optional_params():
    # the schema names the subcommands and their parameters; the table gives
    # each optional parameter its default, and no required one a default
    schema = load_schema("config")
    assert sorted(cli._SUBCOMMANDS) == sorted(schema["properties"]["subcommand"]["enum"])
    for rule in schema["allOf"]:
        name = rule["if"]["properties"]["subcommand"]["const"]
        ref = rule["then"]["properties"]["params"]["$ref"]
        params = schema["$defs"][ref.rsplit("/", 1)[1]]
        optional = set(params["properties"]) - set(params.get("required", []))
        assert set(cli._SUBCOMMANDS[name].defaults) == optional, name


def test_run_experiment_needs_resolved_out():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(ROOTS))


@pytest.mark.parametrize(
    "subcommand,params",
    [("propagate", {"kind": "retarded"}), ("wick", {}), ("picard", {"p": 3, "lam": 0.1})],
)
def test_directly_built_config_without_grid_is_config_error(tmp_path, subcommand, params):
    # a library caller skips from_dict; the schema's grid rule still holds
    out = tmp_path / "o"
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(subcommand, params, out=str(out)))
    assert not out.exists()


def test_directly_built_config_with_unknown_subcommand_is_config_error(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig("frobnicate", {}, out=str(out)))
    assert not out.exists()


# Per subcommand with optional parameters: its smallest schema-valid config,
# and every parameter default written out.  The defaults are the literals the
# subcommands have always used; an eps derived from the grid is written as the
# first run echoes it (the uncapped 10 (2 pi / 8)^2 for retarded, the cap pi/4
# for Feynman, 0.1 for the Wick path), and a gaussian source as its own
# defaults.  Both runs must write the same bytes.
GAUSSIAN = {"type": "gaussian", "width": 1.0, "amplitude": 1.0}
DEFAULTS_PIN = {
    "weights": ({"params": {"n": 4, "l_samples": [0.5]}}, {"K": 10}),
    "flow": (
        {"params": {}},
        {"n": 4, "count": 6, "T": 30.0, "future": True, "mixed": True, "tol": 1e-10,
         "write_traces": True},
    ),
    "propagate": (
        {"grid": {"extent": [8.0, 8.0], "points": [16, 16]}, "params": {"kind": "retarded"}},
        {"eps": 6.168502750680849, "source": GAUSSIAN},
    ),
    "wick": (
        {"grid": {"extent": [12.0, 12.0], "points": [32, 32]}, "params": {}},
        {"eps": 0.1, "steps": 8, "band": 0.4, "cone_gap": 0.0},
    ),
    "picard": (
        {"grid": {"extent": [16.0, 16.0], "points": [32, 32]}, "params": {"p": 3, "lam": 0.1}},
        {"kind": "feynman", "eps": 0.7853981633974483, "source": GAUSSIAN, "max_iter": 20,
         "tol": 1e-10, "residual_tol": 1e-6},
    ),
    "product-check": ({"params": {}}, {"dims": [1], "margin": 0.1, "repeats": 1}),
}


@pytest.mark.parametrize("subcommand", list(DEFAULTS_PIN))
def test_written_out_defaults_write_the_same_bytes(tmp_path, subcommand):
    base, defaults = DEFAULTS_PIN[subcommand]
    minimal = dict(base, subcommand=subcommand)
    written = dict(minimal, params=dict(base["params"], **defaults))
    out, m_minimal = run_dict(tmp_path, minimal, name="minimal")
    _, m_written = run_dict(tmp_path, written, name="written")
    if "eps" in defaults:
        assert json.loads((out / f"{subcommand}.json").read_text())["eps"] == defaults["eps"]
    assert m_minimal.files == m_written.files


# --- manifest and determinism --------------------------------------------

def test_config_schema_is_read_once_per_process(tmp_path, monkeypatch):
    # each run validates its config twice, in from_dict and in run_experiment
    reads = []

    def spy(name, _schema=cli._schema):
        reads.append(name)
        return _schema(name)

    monkeypatch.setattr(cli, "_schema", spy)
    cli._validator.cache_clear()
    for name in ("first", "second"):
        run_dict(tmp_path, ROOTS, name)
    assert reads == ["config"]


def test_manifest_checksums_and_schema(tmp_path):
    out, manifest = run_dict(tmp_path, dict(PICARD, seed=3))
    stored = json.loads((out / "manifest.json").read_text())
    check_schema(stored, "manifest")
    assert stored["files"] == manifest.to_dict()["files"]
    for entry in stored["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert emitted == {e["name"] for e in stored["files"]}


def test_same_config_same_checksums(tmp_path):
    _, m1 = run_dict(tmp_path, dict(PICARD, seed=9), name="a")
    _, m2 = run_dict(tmp_path, dict(PICARD, seed=9), name="b")
    assert m1.files == m2.files
    assert m1.config_hash == m2.config_hash


def test_seed_changes_random_artifacts(tmp_path):
    wick = {
        "subcommand": "wick",
        "grid": {"extent": [12.0, 12.0], "points": [32, 32]},
        "params": {"steps": 4, "eps": 0.01},
    }
    _, m1 = run_dict(tmp_path, dict(wick, seed=1), name="a")
    _, m2 = run_dict(tmp_path, dict(wick, seed=2), name="b")
    assert m1.files != m2.files


# --- field CSV bytes ------------------------------------------------------

# picard.json of PICARD (feynman) and of its retarded variant (eps 0.5): a
# change of the Picard arithmetic must reproduce these within the stated
# tolerances before the picard.json and solution.csv digests are recorded
# again.  Ratios: relative 1e-3 (the last ratios divide successive
# differences of 1e-11 and 1e-13); norm_u: relative 1e-10; residual: absolute
# 1e-12 (it sits at rounding level).
PICARD_RUNS = {
    "feynman": (5, True, 0.424529994947, 2.08546548241e-13,
                (0.00162459764695, 0.00414463773073, 0.00407108947666,
                 0.00406583505804)),
    "retarded": (5, True, 0.252582466889, 1.32991622313e-14,
                 (0.000912314646727, 0.00131505664974, 0.000708261695336,
                  0.000449156614553)),
}


def check_picard_run(payload):
    iterations, converged, norm_u, residual, ratios = PICARD_RUNS[payload["kind"]]
    assert (payload["iterations"], payload["converged"]) == (iterations, converged)
    assert np.allclose(payload["ratios"], ratios, rtol=1e-3, atol=0.0)
    assert abs(payload["norm_u"] - norm_u) <= 1e-10 * norm_u
    assert abs(payload["residual"] - residual) <= 1e-12


# propagate.json of the propagate configs of GOLDEN_FIELDS, by kind and grid
# points: a change of the propagate or residual arithmetic must reproduce
# these before the propagate.json and field.csv digests are recorded again.
# eps and the zero-mode flag exact; norms relative 1e-12; residual absolute
# 1e-14 (it sits at rounding level).
PROPAGATE_RUNS = {
    ("retarded", (16, 16)): (
        0.5, False, 0.5183157514239092, 0.2838991692025352, 1.95328732174e-15
    ),
    ("feynman", (6, 10, 12)): (
        0.3, True, 2.386753235499524, 3.0085951835450033, 4.28659384644e-15
    ),
    ("retarded", (256, 256)): (
        0.5, False, 0.11078105697341692, 0.016954215447928682, 6.182536953539166e-14
    ),
}


def check_propagate_run(payload, data):
    key = (payload["kind"], tuple(data["grid"]["points"]))
    eps, projected, norm_f, norm_u, residual = PROPAGATE_RUNS[key]
    assert (payload["eps"], payload["zero_mode_projected"]) == (eps, projected)
    assert abs(payload["norm_f"] - norm_f) <= 1e-12 * norm_f
    assert abs(payload["norm_u"] - norm_u) <= 1e-12 * norm_u
    assert abs(payload["residual"] - residual) <= 1e-14


# sha256 of the field artifact, pinned from the per-element csv.writer output
GOLDEN_FIELDS = [
    (
        {
            "subcommand": "propagate",
            "grid": {"extent": [8.0, 8.0], "points": [16, 16]},
            "params": {"kind": "retarded", "eps": 0.5},
        },
        "field.csv",
        "8ecda3fd79f4e33e8128a262eee26cf33bfcf15ea5ce7b604249d4c1fce0b87d",
    ),
    (
        {
            "subcommand": "propagate",
            "seed": 11,
            "grid": {"extent": [6.0, 5.0, 8.0], "points": [6, 10, 12]},
            "params": {"kind": "feynman", "eps": 0.3, "source": {"type": "random"}},
        },
        "field.csv",
        "54a9ecc638645f25d9c9f7f6e137c44da9806ae3d495cbe61f45708e60ae68e5",
    ),
    (
        PICARD,
        "solution.csv",
        "157ffb68db5a0e677d485476871739db86548d5118f609cd501b63deb70348d6",
    ),
    # the first propagate config of the field-dump benchmark workload at seed
    # 0: the writer at workload scale, 256 slabs of 256 rows
    (
        {
            "subcommand": "propagate",
            "seed": 1972736745,
            "grid": {"extent": [16.0, 16.0], "points": [256, 256]},
            "params": {
                "kind": "retarded",
                "eps": 0.5,
                "source": {"type": "gaussian", "width": 0.25, "center": [-2.4208, -1.7595]},
            },
        },
        "field.csv",
        "b80b817c807d998583f281afa2879bb19cf335fd8ffaee00db38e3333c2ce944",
    ),
]


@pytest.mark.parametrize(
    "data,name,digest",
    GOLDEN_FIELDS,
    ids=["propagate-2d", "propagate-3d", "picard", "propagate-256"],
)
def test_field_csv_golden_bytes(tmp_path, data, name, digest):
    out, manifest = run_dict(tmp_path, data)
    if name == "solution.csv":
        check_picard_run(json.loads((out / "picard.json").read_text()))
    else:
        check_propagate_run(json.loads((out / "propagate.json").read_text()), data)
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert dict(manifest.files)[name] == digest


# sha256 of the reports: the zero-mode and cone-mask paths behind them
# (the cone mask, and the one residual with its zero-mode rule, projected for
# Feynman and full for retarded) must not move
FLOW = {"subcommand": "flow", "seed": 0, "params": {"n": 4, "count": 2, "T": 30.0}}
# Per leg of FLOW: (ray, leg, classification, truncated, rho_end, gamma_end),
# which a change of the flow arithmetic must reproduce within FLOW_TOL before
# the flow.json digest is recorded again; taken from the flow with the
# interior axis mode, before one entry and one exit event replaced it.
FLOW_TOL = 1e-9
FLOW_LEGS = [
    (0, "forward", "sink_future", None, 1e-05, 0.999999999707),
    (0, "backward", "source_past", None, 1e-05, -0.999999999707),
    (1, "forward", "sink_past", None, 1e-05, 0.999999998263),
    (1, "backward", "source_future", None, 1e-05, -0.999999998198),
]


# wick.json of the three wick configs of GOLDEN_REPORTS, by (eps, steps,
# cone_gap): a change of the Wick arithmetic must reproduce these before the
# wick.json digests are recorded again.  Terminal values (re, im), relative
# difference and both diffs lists: relative 1e-10 (the sums round at 1e-14 of
# their size); characteristic energies, fractions in [0, 1]: absolute 1e-12
# (the cone-gap mask leaves them at rounding level).
WICK_RUNS = {
    (0.01, 6, 4.0): (
        (-0.23724403147, 0.609346316871), (-0.233270644484, 0.608308393367),
        0.00628031951475, 2.93371254589e-33, 2.93250919763e-33,
        (0.000901946307482, 0.000899606722718, 0.00089728493296, 0.000894981250944,
         0.00089269598073),
        (0.000903613556873, 0.000902284619339, 0.000900891209241, 0.00089943397921,
         0.000897913601034),
    ),
    (0.01, 4, 0.0): (
        (-565.39354185, 74.0105840188), (-455.359307078, -348.151552892),
        0.761102936397, 0.375711166222, 0.405363736412,
        (1139.98559239, 380.005305814, 190.010260424),
        (1139.96391731, 379.983571961, 189.988467713),
    ),
    (0.05, 8, 0.0): (
        (61.1090495009, -14.9116153759), (47.0799915884, 21.7064132784),
        0.623404586086, 0.254059308189, 0.0865803733018,
        (207.785057339, 69.2472110274, 34.6138361445, 20.7613825041, 13.8359249019,
         9.87919873953, 7.40685451417),
        (207.702557421, 69.1621616071, 34.5261981687, 20.6711166456, 13.7429914359,
         9.78355795753, 7.30846725893),
    ),
}


def check_wick_run(payload):
    straight, diagonal, rel, energy_f, energy_g, s_diffs, d_diffs = WICK_RUNS[
        (payload["eps"], payload["steps"], payload["cone_gap"])
    ]
    assert np.allclose(payload["terminal_straight"], straight, rtol=1e-10, atol=0.0)
    assert np.allclose(payload["terminal_diagonal"], diagonal, rtol=1e-10, atol=0.0)
    assert abs(payload["rel_difference"] - rel) <= 1e-10 * rel
    assert abs(payload["char_energy_f"] - energy_f) <= 1e-12
    assert abs(payload["char_energy_g"] - energy_g) <= 1e-12
    assert len(payload["straight_diffs"]) == len(s_diffs)
    assert np.allclose(payload["straight_diffs"], s_diffs, rtol=1e-10, atol=0.0)
    assert len(payload["diagonal_diffs"]) == len(d_diffs)
    assert np.allclose(payload["diagonal_diffs"], d_diffs, rtol=1e-10, atol=0.0)


def check_flow_legs(report):
    legs = [(r["index"], leg, r[leg]) for r in report["rays"] for leg in ("forward", "backward")]
    assert len(legs) == len(FLOW_LEGS)
    for (i, leg, got), (*head, rho, gamma) in zip(legs, FLOW_LEGS):
        assert [i, leg, got["classification"], got["truncated"]] == head
        assert abs(got["rho_end"] - rho) <= FLOW_TOL
        assert abs(got["gamma_end"] - gamma) <= FLOW_TOL


GOLDEN_REPORTS = [
    (GOLDEN_FIELDS[0][0], "propagate.json",
     "de941fcff360e151c3baaad83c9b4270a0b02107047801eeb7faaeea5324407e"),
    (
        {
            "subcommand": "wick",
            "seed": 5,
            "grid": {"extent": [12.0, 12.0], "points": [32, 32]},
            "params": {"steps": 6, "eps": 0.01, "cone_gap": 4.0},
        },
        "wick.json",
        "7de0964ca649db942dcb8f40d4f2b3d0456daeceb7dfb296beeb9ac94a55504e",
    ),
    (
        {
            "subcommand": "wick",
            "seed": 1,
            "grid": {"extent": [12.0, 12.0], "points": [32, 32]},
            "params": {"steps": 4, "eps": 0.01},
        },
        "wick.json",
        "501dddf604f29925d0de2ce94ed2cc810a762f08168d40218e133c2b187bd9c4",
    ),
    # the wick config of the field-dump benchmark workload at seed 0: at
    # 256^2 its arrays are past the 256 KiB at which numpy reuses a
    # temporary's buffer, where a complex product can round differently
    (
        {
            "subcommand": "wick",
            "seed": 2126424205,
            "grid": {"extent": [12.0, 12.0], "points": [256, 256]},
            "params": {"eps": 0.05, "steps": 8},
        },
        "wick.json",
        "bad6f7634c9a7c6e18a1090ee5da0fee7d2347007fdba676db416ec94089effc",
    ),
    (PICARD, "picard.json",
     "085d906cdc7771121310eb93d9e4dd4badaa9f8708b186584e996803fa3d0c07"),
    (
        dict(PICARD, params=dict(PICARD["params"], kind="retarded", eps=0.5)),
        "picard.json",
        "f6d66f88f1b07c7333d14785c38beecd09ade182f535a0edb32a6cc4ec31f364",
    ),
    # the compactified flow (bichar) behind the ray report and its trace, and
    # the exact root and spectrum tables (normal_op)
    (FLOW, "flow.json",
     "531b4cabfba7148c694aab2a5c42e1dbff7b18cd104436d18b8dc498ce650d3e"),
    (FLOW, "trace-000.csv",
     "697baa2f5b2acd2177da4411c7f28d9095e7918ea20e9ec6c2f414e31d9be68f"),
    (ROOTS, "roots.json",
     "cfed063bf9f588bb3d0135f17939d1dc3649d9bdf5ffa7a133fd0e66127fdaa3"),
    ({"subcommand": "spectrum", "params": {"n": 4, "K": 3}}, "spectrum.json",
     "33ca7b77f7c52f9a79b1cc3505ca6077779409651b2ac5dbe376181c540f09a2"),
    (
        {"subcommand": "weights", "params": {"n": 4, "l_samples": [0.5, 1.5, -1.5]}},
        "weights.json",
        "ea847984265c1c05d9301b44537bf3a063523131344a69883093095975bf754d",
    ),
]


@pytest.mark.parametrize(
    "data,name,digest",
    GOLDEN_REPORTS,
    ids=[
        "propagate", "wick-cone-gap", "wick", "wick-256", "picard", "picard-retarded",
        "flow", "flow-trace", "roots", "spectrum", "weights",
    ],
)
def test_json_report_golden_bytes(tmp_path, data, name, digest):
    out, manifest = run_dict(tmp_path, data)
    if name == "flow.json":
        check_flow_legs(json.loads((out / name).read_text()))
    if name == "picard.json":
        check_picard_run(json.loads((out / name).read_text()))
    if name == "propagate.json":
        check_propagate_run(json.loads((out / name).read_text()), data)
    if name == "wick.json":
        check_wick_run(json.loads((out / name).read_text()))
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert dict(manifest.files)[name] == digest


# sha256 of the 1-D product-check artifacts (the sweep workload's first
# config): the lattice sums behind every growth exponent must not move
SWEEP_1D = {"subcommand": "product-check", "params": {"dims": [1]}}
# Growth exponent of each row of SWEEP_1D, to 12 significant digits: a change
# of the lattice arithmetic must reproduce them within SWEEP_TOL (absolute)
# before the GOLDEN_SWEEP digests are recorded again.
SWEEP_TOL = 1e-9
SWEEP_ROWS = {
    ("cone-product", "sum", 0.1): -1.60466790894,
    ("cone-product", "sum", -0.1): 0.196743379549,
    ("cone-product", "order_rs", 0.1): -2.80827249489,
    ("cone-product", "order_rs", -0.1): 0.194569803853,
    ("low-reg-cone-product", "sum", 0.1): -0.116259234806,
    ("low-reg-cone-product", "sum", -0.1): 0.300015014152,
    ("low-reg-cone-product", "order_s0sp", 0.1): -0.328464357713,
    ("low-reg-cone-product", "order_s0sp", -0.1): 0.229998997868,
}
GOLDEN_SWEEP = {
    "product-check.json": "e150313aa2e0230da9a4a6ae8aa1abd3c25dbc06cc68ff314d9d115080d0ce40",
    "product_check.csv": "31a17507240cac4a60fea3a95f31a4d258689d0b92b6a2c093a7220bab3da585",
}


# The sweep workload's 2-D config at its real size: its top lattice is 768^2
# (4.5 MiB per array), past the 256 KiB at which numpy reuses a temporary's
# buffer, which the 128^2 lattices of GOLDEN_FLAT_2D stay under.  Exponents
# within SWEEP_TOL first, then the digests of both artifacts.
SWEEP_2D = {
    "subcommand": "product-check",
    "seed": 0,
    "params": {"dims": [2], "rules": ["cone-product"]},
}
SWEEP_2D_ROWS = {
    ("cone-product", "sum", 0.1): 0.0809774865756,
    ("cone-product", "sum", -0.1): 0.154308999386,
    ("cone-product", "order_rs", 0.1): -3.81393894021,
    ("cone-product", "order_rs", -0.1): 0.258169122877,
}
GOLDEN_SWEEP_2D = {
    "product-check.json": "772c1a640ae297a9fd8cbdd93466020e00028e67fdfe2610192fa01019b82feb",
    "product_check.csv": "e485b91cbd50f511bff9681a6f115a92f93541f9c9e4f484079b911d5abe4118",
}


def check_sweep_run(out, exponents, digests):
    with (out / "product_check.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {
        (r["rule"], r["threshold"], float(r["offset"])): float(r["growth_exponent"])
        for r in rows
    }
    assert got.keys() == exponents.keys() and len(rows) == len(exponents)
    for key, exponent in exponents.items():
        assert abs(got[key] - exponent) <= SWEEP_TOL, key
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    files = read_strict_json(out / "manifest.json")["files"]
    assert {f["name"]: f["sha256"] for f in files} == digests


def test_product_check_golden_bytes(tmp_path):
    check_sweep_run(run_dict(tmp_path, SWEEP_1D)[0], SWEEP_ROWS, GOLDEN_SWEEP)


def test_product_check_2d_golden_bytes(tmp_path):
    check_sweep_run(run_dict(tmp_path, SWEEP_2D)[0], SWEEP_2D_ROWS, GOLDEN_SWEEP_2D)


def reference_field_csv(field) -> str:
    """The per-element writer the streamed one replaced: one list of
    np.float64 per grid point, formatted by csv.writer."""
    grid = field.grid
    header = [f"x{i}" for i in range(grid.dim - 1)] + ["t", "re", "im"]
    axes = grid.axes()
    rows = []
    for idx in np.ndindex(*grid.points):
        val = field.values[idx]
        rows.append([axes[d][idx[d]] for d in range(grid.dim)] + [val.real, val.imag])
    buf = io.StringIO(newline="")
    wr = csv.writer(buf)
    wr.writerow(header)
    wr.writerows(rows)
    return buf.getvalue()


# exponent switch of repr on both sides, signed zero, subnormals, specials
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, -1e16, 1e300]
SPECIAL_FLOATS += [float("inf"), float("-inf"), float("nan")]


@st.composite
def fields(draw):
    dim = draw(st.integers(1, 3))
    points = tuple(draw(st.sampled_from([4, 6])) for _ in range(dim))
    extent = tuple(
        draw(st.floats(1e-6, 1e17, allow_nan=False, allow_infinity=False))
        for _ in range(dim)
    )
    parts = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
    values = np.empty(points, dtype=np.complex128)
    values.real = draw(arrays(np.float64, points, elements=parts))
    values.imag = draw(arrays(np.float64, points, elements=parts))
    return SpectralField(GridSpec(extent, points), values)


@given(fields())
def test_field_csv_matches_per_element_writer(field):
    buf = io.StringIO(newline="")
    _write_field_csv(buf, field)
    assert buf.getvalue() == reference_field_csv(field)


# --- write failures -------------------------------------------------------

class _ExplodingRows:
    def __iter__(self):
        raise OSError("disk gone")


def test_partial_write_cleanup(tmp_path):
    artifacts = {"good.json": {"fine": True}, "bad.csv": (["col"], _ExplodingRows())}
    with pytest.raises(ArtifactIOError):
        _write_all(tmp_path, artifacts)
    assert list(tmp_path.iterdir()) == []


def test_field_write_failure_midway_cleans_up(tmp_path, monkeypatch):
    class FailsOnSecondSlab:
        """A text file whose second body slab cannot be written: the header
        is the first write, and each slab one more."""

        def __init__(self, fh):
            self.fh = fh
            self.writes = 0
            self.slabs = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                self.slabs += 1
                if self.slabs == 2:
                    raise OSError("disk full")
            self.fh.write(text)

    opened = []

    def failing_open(*args, **kwargs):
        opened.append(FailsOnSecondSlab(open(*args, **kwargs)))
        return opened[-1]

    grid = GridSpec((8.0, 8.0), (16, 16))
    field = SpectralField(grid, np.ones(grid.points))
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    artifacts = {"good.json": {"fine": True}, "field.csv": field}
    with pytest.raises(ArtifactIOError):
        _write_all(tmp_path, artifacts)
    assert [f.slabs for f in opened] == [2]
    assert list(tmp_path.iterdir()) == []


def test_manifest_write_failure_leaves_no_artifact(tmp_path):
    out = tmp_path / "run"
    (out / "manifest.json").mkdir(parents=True)  # the manifest cannot be written
    with pytest.raises(ArtifactIOError, match="manifest"):
        run_experiment(ExperimentConfig.from_dict(dict(ROOTS, out=str(out))))
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").is_dir()


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    data = dict(ROOTS, out=str(blocker / "sub"))
    with pytest.raises(ArtifactIOError):
        run_experiment(ExperimentConfig.from_dict(data))


# --- the command line -----------------------------------------------------

def test_main_single_run_exit_zero(tmp_path, capsys):
    p = write_config(tmp_path / "roots.json", ROOTS)
    code = main(["--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "ok" in capsys.readouterr().out
    assert (tmp_path / "o" / "manifest.json").exists()


def test_main_config_error_exit_two(tmp_path, capsys):
    p = write_config(tmp_path / "bad.json", {"subcommand": "roots", "params": {}})
    code = main(["--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rotation_eps_outside_the_angle_range_exits_two(tmp_path, capsys):
    data = dict(PICARD, params=dict(PICARD["params"], kind="antifeynman", eps=2.0))
    p = write_config(tmp_path / "bad.json", data)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "angle in (0, pi/2)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_missing_config_exit_two(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2


def test_main_divergence_exit_three(tmp_path):
    p = write_config(
        tmp_path / "div.json",
        {
            "subcommand": "picard",
            "grid": {"extent": [16.0, 16.0], "points": [64, 64]},
            "params": {
                "p": 3,
                "lam": 50.0,
                "source": {"type": "gaussian", "width": 1.0, "amplitude": 10.0},
            },
        },
    )
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert (tmp_path / "o" / "manifest.json").exists()


def test_main_non_finite_iterate_exit_three(tmp_path):
    # lam u^p overflows in the second iterate: a diverged run, not an "ok"
    # one that writes NaN after max_iter iterations
    p = write_config(
        tmp_path / "nan.json",
        {
            "subcommand": "picard",
            "grid": {"extent": [16.0, 16.0], "points": [32, 32]},
            "params": {
                "p": 5,
                "lam": 1e300,
                "max_iter": 40,
                "source": {"type": "gaussian", "width": 1.0, "amplitude": 30.0},
            },
        },
    )
    with np.errstate(all="ignore"):
        assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 3

    payload = read_strict_json(tmp_path / "o" / "picard.json")
    check_schema(payload, "picard")
    assert payload["diverged"] is True and payload["iterations"] == 2
    # the overflowed numbers are written as null
    assert payload["norm_u"] is None and payload["residual"] is None
    assert payload["final_ratio"] is None and payload["norms"][-1] is None


@pytest.mark.parametrize(
    "params",
    [{"kind": "retarded", "eps": 0.5, "source": {"type": "gaussian", "amplitude": 1e308}}],
    ids=["amplitude"],
)
def test_main_non_finite_propagate_exit_three(tmp_path, params):
    p = write_config(
        tmp_path / "nan.json",
        {"subcommand": "propagate", "grid": {"extent": [8.0, 8.0], "points": [16, 16]},
         "params": params},
    )
    with np.errstate(all="ignore"):
        assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 3

    payload = read_strict_json(tmp_path / "o" / "propagate.json")
    check_schema(payload, "propagate")
    assert payload["norm_u"] is None and payload["residual"] is None


def eps_config(subcommand, eps):
    params = {"p": 3, "lam": 0.1} if subcommand == "picard" else {}
    return {
        "subcommand": subcommand,
        "grid": {"extent": [8.0, 8.0], "points": [16, 16]},
        "params": dict(params, kind="retarded", eps=eps),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand", ["propagate", "picard"])
def test_main_non_finite_multiplier_exits_two(tmp_path, capsys, subcommand):
    # eps^2 overflows, so no grid can use this shift: one line names the
    # eps, no numpy warning is printed and no output directory is made
    p = write_config(tmp_path / "eps.json", eps_config(subcommand, 1e200))
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "config error" in err[0]
    assert "eps = 1e+200 gives a non-finite multiplier" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["propagate", "picard"])
def test_main_large_finite_eps_still_runs(tmp_path, subcommand):
    # eps^2 = 1e300 is finite: the multiplier check leaves the run alone
    p = write_config(tmp_path / "eps.json", eps_config(subcommand, 1e150))
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 0


def edge(code, subcommand, params, extent=(8.0, 8.0), points=8):
    data = {"subcommand": subcommand, "params": params}
    if subcommand in ("propagate", "wick", "picard"):
        data["grid"] = {"extent": list(extent), "points": [points] * len(extent)}
    return code, data


# Configs at the edges of what the schema admits, with the exit code each
# must end in: extents whose squared frequencies overflow or whose cell
# volume overflows or underflows (a bad grid), overflowing sources, couplings
# and margins, out-of-range eps values, a flow tol below the stepper's floor
# of 100 EPS, and a flow tol so loose that a leg's integration fails.
TINY, HUGE = (1e-160, 8.0), (1e300, 1e300)
FLOW_EDGE = {"n": 3, "count": 1, "T": 5.0}
EDGE_RUNS = {
    "tiny-propagate-retarded": edge(2, "propagate", {"kind": "retarded"}, TINY),
    "tiny-propagate-feynman": edge(2, "propagate", {"kind": "feynman"}, TINY),
    "tiny-picard": edge(2, "picard", {"p": 3, "lam": 0.1}, (8.0, 1e-200)),
    "tiny-wick": edge(2, "wick", {}, TINY),
    "tiny-wick-eps": edge(2, "wick", {"eps": 0.05}, TINY),
    "tiny-propagate-3d": edge(2, "propagate", {"kind": "feynman"}, (1e-150,) * 3, points=4),
    "huge-propagate": edge(2, "propagate", {"kind": "retarded"}, HUGE),
    "huge-picard": edge(2, "picard", {"p": 3, "lam": 0.1}, HUGE),
    "huge-wick": edge(2, "wick", {}, HUGE),
    "amplitude": edge(
        3, "propagate", {"kind": "retarded", "source": {"type": "gaussian", "amplitude": 1e308}}
    ),
    "lam": edge(3, "picard", {"p": 3, "lam": 1e300}),
    "width-retarded": edge(
        3, "propagate", {"kind": "retarded", "source": {"type": "gaussian", "width": 1e-300}}
    ),
    "width-feynman": edge(
        3, "propagate", {"kind": "feynman", "source": {"type": "gaussian", "width": 1e-300}}
    ),
    "margin": edge(2, "product-check", {"margin": 1e300}),
    "margin-2d": edge(
        2, "product-check", {"dims": [2], "rules": ["cone-product"], "margin": 1e300}
    ),
    "eps": edge(2, "propagate", {"kind": "retarded", "eps": 1e200}),
    "wick-eps": edge(2, "wick", {"eps": 1.6}),
    "flow-tol": edge(2, "flow", dict(FLOW_EDGE, tol=1e-15)),
    "flow-stiff": edge(3, "flow", dict(FLOW_EDGE, tol=0.5)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(EDGE_RUNS))
def test_edge_configs_end_in_one_verdict_line(tmp_path, capsys, name):
    # no traceback and no warning (an error here): one stderr line, and an
    # output directory, with its manifest, only for a run that diverged
    code, data = EDGE_RUNS[name]
    p = write_config(tmp_path / "edge.json", data)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == code
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert (tmp_path / "o").exists() == (code == 3)
    assert (tmp_path / "o" / "manifest.json").exists() == (code == 3)
    if name.startswith(("tiny", "huge")):
        assert "bad grid" in err
    if name == "flow-stiff":
        rays = read_strict_json(tmp_path / "o" / "flow.json")["rays"]
        assert [ray["forward"]["truncated"] for ray in rays] == ["stiff"]


def test_overflowing_run_prints_only_its_verdict(tmp_path):
    # in a process of its own, with Python's default warning filters: numpy's
    # overflow warnings would print source excerpts before the verdict
    p = write_config(tmp_path / "amp.json", EDGE_RUNS["amplitude"][1])
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "feynlab.cli", "--config", str(p), "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "amp.json: diverged: numerics diverged; see the written report"
    ]


def test_wick_measures_the_gap_and_the_energies_once(tmp_path, monkeypatch):
    # counted through both modules' globals, so a call from either counts
    calls = {"_symbol_gap": 0, "characteristic_energy_fraction": 0}
    for module in (cli, propagators):
        for name in calls:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    studies = []
    study = cli.wick_continuation_study
    monkeypatch.setattr(
        cli, "wick_continuation_study", lambda *args: studies.append(study(*args)) or studies[-1]
    )
    run_dict(tmp_path, edge(0, "wick", {}, (12.0, 12.0))[1])
    assert calls == {"_symbol_gap": 1, "characteristic_energy_fraction": 2}
    assert [sorted(s) for s in studies] == [["diffs", "thetas", "values"]] * 2


@pytest.mark.parametrize("kind", ["gaussian", "random"])
def test_bare_source_specs_use_the_library_defaults(kind):
    # the builders hold the defaults; these are the values the CLI once
    # wrote out itself
    grid = GridSpec((8.0, 8.0), (16, 16))
    got = cli._build_source({"type": kind}, grid, 3)
    if kind == "gaussian":
        want = gaussian_source(grid, width=1.0, center=None, amplitude=1.0)
    else:
        want = random_band_limited(grid, 3, band=0.5, decay=2.0)
    assert got.values.tobytes() == want.values.tobytes() and got.meta == want.meta


def test_main_long_source_center_exit_two(tmp_path, capsys):
    p = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "propagate",
            "grid": {"extent": [8.0, 8.0], "points": [16, 16]},
            "params": {
                "kind": "retarded",
                "eps": 0.5,
                "source": {"type": "gaussian", "center": [0.5, 0.5, 0.5]},
            },
        },
    )
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "center dimension does not match grid" in capsys.readouterr().err


def test_main_io_error_exit_four(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    p = write_config(tmp_path / "roots.json", ROOTS)
    assert main(["--config", str(p), "--out", str(blocker / "sub")]) == 4


def test_main_batch_mode(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_config(batch / "one.json", ROOTS)
    write_config(batch / "two.json", {"subcommand": "spectrum", "params": {"n": 3, "K": 2}})
    code = main(
        ["--config", str(batch), "--out", str(tmp_path / "root"), "--threads", "2"]
    )
    assert code == 0
    assert (tmp_path / "root" / "one" / "roots.json").exists()
    assert (tmp_path / "root" / "two" / "spectrum.json").exists()


def test_main_batch_threads_match_serial(tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_config(batch / "roots.json", ROOTS)
    write_config(batch / "spectrum.json", {"subcommand": "spectrum", "params": {"n": 3, "K": 2}})
    grid = {"extent": [8.0, 8.0], "points": [32, 32]}
    write_config(batch / "propagate.json", dict(GOLDEN_FIELDS[0][0], grid=grid))
    write_config(batch / "sweep.json", SWEEP_1D)
    digests = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads-{threads}"
        assert main(["--config", str(batch), "--out", str(root), "--threads", threads]) == 0
        digests[threads] = {
            run.name: json.loads((run / "manifest.json").read_text())["files"]
            for run in root.iterdir()
        }
    assert len(digests["1"]) == 4
    assert digests["2"] == digests["1"]


def test_main_batch_reports_worst_code(tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_config(batch / "ok.json", ROOTS)
    write_config(batch / "bad.json", {"subcommand": "roots", "params": {}})
    code = main(["--config", str(batch), "--out", str(tmp_path / "root")])
    assert code == 2
    assert (tmp_path / "root" / "ok" / "roots.json").exists()


def test_main_empty_batch_dir(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["--config", str(empty)]) == 2


def test_main_rejects_bad_flag_values(tmp_path):
    p = write_config(tmp_path / "c.json", ROOTS)
    assert main(["--config", str(p), "--threads", "0"]) == 2
    assert main(["--config", str(p), "--seed", "-1"]) == 2
