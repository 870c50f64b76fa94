"""The four benchmark workloads: config generators, work units and checks.

Every config is generated from the workload seed alone, so the same seed
gives the same inputs.  Every ``eps`` is pinned, so a later change to the
library defaults cannot change what a workload runs.  The reasons for each
workload are in ``perfbench/README.md``.

This module uses the standard library only: the parent process imports it
without paying for numpy or feynlab.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

def _centre(rng: random.Random, extent: float, dim: int = 2) -> list:
    # The inner half of the box: gaussian_source does not wrap around the
    # periodic box, so a bump near an edge would be cut and its solve easier.
    return [round(rng.uniform(-extent / 4.0, extent / 4.0), 4) for _ in range(dim)]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def field_dump_configs(seed: int) -> list:
    rng = random.Random(f"field-dump:{seed}")
    grid = {"extent": [16.0, 16.0], "points": [256, 256]}
    configs = []
    kinds = [("retarded", 0.5), ("advanced", 0.5), ("feynman", 0.3), ("antifeynman", 0.3)]
    for i, (kind, eps) in enumerate(kinds):
        if i % 2 == 0:
            source = {"type": "gaussian", "width": 0.25, "center": _centre(rng, 16.0)}
        else:
            source = {"type": "random"}
        configs.append(
            {
                "subcommand": "propagate",
                "grid": grid,
                "seed": _seed(rng),
                "params": {"kind": kind, "eps": eps, "source": source},
            }
        )
    configs.append(
        {
            "subcommand": "wick",
            "grid": {"extent": [12.0, 12.0], "points": [256, 256]},
            "seed": _seed(rng),
            "params": {"eps": 0.05, "steps": 8},
        }
    )
    configs.append({"subcommand": "roots", "params": {"n": 4, "K": 60}})
    configs.append({"subcommand": "spectrum", "params": {"n": 4, "K": 200}})
    l_samples = [round(rng.uniform(-4.0, 4.0), 3) for _ in range(6)]
    configs.append(
        {"subcommand": "weights", "params": {"n": 4, "K": 20, "l_samples": l_samples}}
    )
    return configs


def picard_configs(seed: int) -> list:
    rng = random.Random(f"picard:{seed}")
    configs = []
    for p, lam in ((3, 0.5), (4, 1.0), (5, 2.0)):
        configs.append(
            {
                "subcommand": "picard",
                "grid": {"extent": [16.0, 16.0], "points": [192, 192]},
                "seed": _seed(rng),
                "params": {
                    "p": p,
                    "lam": lam,
                    "kind": rng.choice(["feynman", "antifeynman"]),
                    "eps": 0.3,
                    "tol": 1e-12,
                    "max_iter": 40,
                    "source": {
                        "type": "gaussian",
                        "width": 1.0,
                        "amplitude": 3.0,
                        "center": _centre(rng, 16.0),
                    },
                },
            }
        )
    return configs


def rays_configs(seed: int) -> list:
    rng = random.Random(f"rays:{seed}")
    return [
        {
            "subcommand": "flow",
            "seed": _seed(rng),
            "params": {"n": 4, "count": 12, "T": 100.0, "tol": 1e-10, "write_traces": True},
        }
        for _ in range(4)
    ]


def sweep_configs(seed: int) -> list:
    # The workload seed goes to the sweep unchanged, so a seed here names the
    # same probe directions as `rule_sweep(seed=...)` does in a test.
    return [
        {"subcommand": "product-check", "seed": seed, "params": {"dims": [1]}},
        {
            "subcommand": "product-check",
            "seed": seed,
            "params": {"dims": [2], "rules": ["cone-product"]},
        },
    ]


# --- work units ------------------------------------------------------------

def _load(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _field_points(cfg: dict, out_dir: Path) -> float:
    if cfg["subcommand"] != "propagate":
        return 0.0
    n = 1
    for q in cfg["grid"]["points"]:
        n *= q
    return float(n)


def _picard_iterations(cfg: dict, out_dir: Path) -> float:
    return float(_load(out_dir, "picard.json")["iterations"])


def _ray_legs(cfg: dict, out_dir: Path) -> float:
    return 2.0 * len(_load(out_dir, "flow.json")["rays"])


def _sweep_rows(cfg: dict, out_dir: Path) -> float:
    return float(_load(out_dir, "product-check.json")["total"])


# --- checks ----------------------------------------------------------------
# A check returns (strict, science): strict flags are program correctness and
# must all hold; science flags are the scientific verdicts behind check_frac.

def _field_dump_checks(cfg: dict, out_dir: Path) -> tuple[list, list]:
    sub = cfg["subcommand"]
    if sub == "propagate":
        ok = _load(out_dir, "propagate.json")["residual"] <= 1e-10
        return [], [ok]
    if sub == "roots":
        want = [float(-k) for k in range(61, 0, -1)] + [float(k) for k in range(1, 62)]
        return [], [_load(out_dir, "roots.json")["roots"] == want]
    if sub == "spectrum":
        entries = _load(out_dir, "spectrum.json")["entries"]
        ok = bool(entries) and all(
            e["shifted"][0] == (e["k"] + 1) ** 2 * e["shifted"][1] for e in entries
        )
        return [], [ok]
    return [], []


def _picard_checks(cfg: dict, out_dir: Path) -> tuple[list, list]:
    rep = _load(out_dir, "picard.json")
    return [], [rep["converged"] is True, rep["residual"] <= 1e-6]


def _rays_checks(cfg: dict, out_dir: Path) -> tuple[list, list]:
    science = []
    for ray in _load(out_dir, "flow.json")["rays"]:
        fwd, bwd = ray["forward"], ray["backward"]
        science.append(str(fwd["classification"]).startswith("sink_"))
        science.append(str(bwd["classification"]).startswith("source_"))
        science.append(fwd["symbol_drift"] <= 1e-8)
        science.append(bwd["symbol_drift"] <= 1e-8)
    return [], science


def _sweep_checks(cfg: dict, out_dir: Path) -> tuple[list, list]:
    from feynlab.orders import GROWTH_THRESHOLD  # checks run in the worker only

    summary = _load(out_dir, "product-check.json")
    with open(out_dir / summary["rows_file"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    agree = [r["agree"] == "True" for r in rows]
    # the row table and the summary must tell the same story
    strict = [
        len(rows) == summary["total"],
        sum(agree) == summary["agreeing"],
        all((r["agree"] == "True") == (r["predicted"] == r["measured_finite"]) for r in rows),
        all(
            (r["measured_finite"] == "True")
            == (float(r["growth_exponent"]) <= GROWTH_THRESHOLD)
            for r in rows
        ),
    ]
    return strict, agree


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of work_per_s counts
    configs: Callable[[int], list]
    work: Callable[[dict, Path], float]
    checks: Callable[[dict, Path], tuple]
    # True when a failed science check means the program is wrong; False when
    # the verdicts are seed dependent and only reported (the sweep)
    science_is_strict: bool
    # the reference kernel whose speed follows the workload's (perfbench.calibrate)
    kernel: str = "interp"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("field-dump", "field points", field_dump_configs, _field_points,
                 _field_dump_checks, True),
        Workload("picard", "Picard iterations", picard_configs, _picard_iterations,
                 _picard_checks, True),
        Workload("rays", "ray legs", rays_configs, _ray_legs, _rays_checks, True),
        Workload("sweep", "sweep rows", sweep_configs, _sweep_rows, _sweep_checks, False,
                 kernel="arrays"),
    )
}
