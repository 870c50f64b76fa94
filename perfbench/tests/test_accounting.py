"""Failure accounting of the benchmark worker: a failing config counts in
fail_frac and does not stop the configs after it."""

import json

from perfbench.run import _accounting
from perfbench.worker import run_configs, verify_output


def _write(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_failed_configs_count_and_the_rest_still_run(tmp_path):
    configs = [
        _write(tmp_path, "a-roots", {"subcommand": "roots", "params": {"n": 4, "K": 60}}),
        # an unknown key: load_config rejects it, which the CLI reports as exit 2
        _write(tmp_path, "b-exit2", {"subcommand": "roots", "params": {"n": 4, "K": 5},
                                     "bogus": 1}),
        # a Gaussian centre shorter than the grid: an uncaught IndexError
        _write(tmp_path, "c-index", {
            "subcommand": "propagate",
            "grid": {"extent": [4.0, 4.0], "points": [8, 8]},
            "params": {"kind": "retarded", "eps": 0.5,
                       "source": {"type": "gaussian", "center": [0.0]}},
        }),
        _write(tmp_path, "d-spectrum", {"subcommand": "spectrum", "params": {"n": 4, "K": 20}}),
    ]
    result = run_configs("field-dump", configs, tmp_path / "out")
    status = {r["name"]: r["status"] for r in result["configs"]}
    assert status == {
        "a-roots": "ok",
        "b-exit2": "exit 2",
        "c-index": "raised IndexError",
        "d-spectrum": "ok",
    }
    for row in result["configs"]:
        if row["status"] == "ok":
            assert row["science"] == [True]
            assert row["artifact_bytes"] > 0

    acc = _accounting("field-dump", [result])
    assert (acc["attempted"], acc["failed"]) == (4, 2)
    assert acc["ok_frac"] == 0.5
    assert acc["check_frac"] == 1.0
    assert acc["correct"] is False


def test_output_that_does_not_match_its_manifest_fails(tmp_path):
    cfg = _write(tmp_path, "roots", {"subcommand": "roots", "params": {"n": 4, "K": 60}})
    out = tmp_path / "out"
    assert run_configs("field-dump", [cfg], out)["configs"][0]["status"] == "ok"

    (out / "roots" / "roots.json").write_text("{}\n")
    problem, _ = verify_output(out / "roots")
    assert problem == "roots.json: checksum mismatch"
