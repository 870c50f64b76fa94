"""Config parsing, artifact emission, manifests, exit codes."""

import csv
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from feynlab import cli
from feynlab.cli import (
    ArtifactIOError,
    ConfigError,
    ExperimentConfig,
    NumericDivergence,
    _Artifact,
    _write_all,
    _write_field_csv,
    load_config,
    main,
    run_experiment,
)
from feynlab.fields import GridSpec, SpectralField


def write_config(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data))
    return path


def load_schema(name: str) -> dict:
    res = resources.files("feynlab") / "schemas" / f"{name}.schema.json"
    return json.loads(res.read_text())


def check_schema(payload: dict, name: str) -> None:
    jsonschema.Draft202012Validator(load_schema(name)).validate(payload)


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


def test_run_experiment_needs_resolved_out():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(ROOTS))


# --- manifest and determinism --------------------------------------------

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
        "4fd0079090cf6ed276cd006ddf630483bcde2c283cf0cdc80b0392237becf23c",
    ),
]


@pytest.mark.parametrize(
    "data,name,digest", GOLDEN_FIELDS, ids=["propagate-2d", "propagate-3d", "picard"]
)
def test_field_csv_golden_bytes(tmp_path, data, name, digest):
    out, manifest = run_dict(tmp_path, data)
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert dict(manifest.files)[name] == digest


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
    artifacts = [
        _Artifact("good.json", "json", {"fine": True}),
        _Artifact("bad.csv", "csv", (["col"], _ExplodingRows())),
    ]
    with pytest.raises(ArtifactIOError):
        _write_all(tmp_path, artifacts)
    assert list(tmp_path.iterdir()) == []


def test_field_write_failure_midway_cleans_up(tmp_path, monkeypatch):
    class FailsOnSecondSlab:
        """A text file whose second body slab cannot be written."""

        def __init__(self, fh):
            self.fh = fh
            self.slabs = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text)

        def writelines(self, lines):
            self.slabs += 1
            if self.slabs == 2:
                raise OSError("disk full")
            self.fh.writelines(lines)

    opened = []

    def failing_open(*args, **kwargs):
        opened.append(FailsOnSecondSlab(open(*args, **kwargs)))
        return opened[-1]

    grid = GridSpec((8.0, 8.0), (16, 16))
    field = SpectralField(grid, np.ones(grid.points))
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    artifacts = [
        _Artifact("good.json", "json", {"fine": True}),
        _Artifact("field.csv", "field", field),
    ]
    with pytest.raises(ArtifactIOError):
        _write_all(tmp_path, artifacts)
    assert [f.slabs for f in opened] == [2]
    assert list(tmp_path.iterdir()) == []


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
