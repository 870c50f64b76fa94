"""Configuration-driven experiment runner.

One experiment per JSON file; the subcommand lives in the config, the
command line only says where the config is and where results go:

    feynlab --config run.json --out results/run1 --seed 7

A directory passed to --config runs every ``*.json`` inside it in name
order (batch mode), each config writing into its own subdirectory; a single
file is a batch of one.  Every run emits its artifacts plus ``manifest.json``
listing each file with a sha256 checksum; identical config and seed give
identical artifact checksums.

Each subcommand is one ``_SUBCOMMANDS`` entry: its parameter defaults and
the function that runs it.  ``run_experiment`` validates every config
against the schema, so a directly built ``ExperimentConfig`` meets the same
rules (a ``grid`` for ``propagate``, ``wick`` and ``picard``) as a file.
A float the schema takes as an integer (3.0) runs as that int, with the
same config hash and artifacts.

Exit codes: 0 success, 2 config error, 3 numeric divergence, 4 I/O error;
each error class carries its code.  Exit 3 always follows a written report
and manifest.
The default output root is ``$FEYNLAB_OUT`` (falling back to
``./feynlab-runs``) when neither the flag nor the config names a directory.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import hashlib
import json
import math
import operator
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._validate import Validator
from .bichar import classify_limit, flow, random_null_rays
from .errors import ClassificationError, FeynlabError
from .fields import GridSpec, SpectralField, gaussian_source, random_band_limited
from .normal_op import normal_report
from .orders import rule_sweep
from .propagators import (
    Kind,
    Prescription,
    _symbol_gap,
    characteristic_energy_fraction,
    default_epsilon,
    near_cone,
    prescription_residual,
    propagate,
    wick_continuation_study,
)
from .semilinear import SemilinearProblem, picard_solve

__version__ = "0.1.0"

ENV_OUTPUT_ROOT = "FEYNLAB_OUT"
_DEFAULT_ROOT = "feynlab-runs"


class _RunError(FeynlabError):
    """How a run that did not succeed ends: its exit code and stderr label."""

    exit_code: int
    label: str


class ConfigError(_RunError):
    """The configuration cannot be used (exit code 2)."""

    exit_code, label = 2, "config error"


class NumericDivergence(_RunError):
    """The run finished but the numerics diverged (exit code 3).

    Only ``run_experiment`` raises it, after the artifacts and the manifest
    are written.
    """

    exit_code, label = 3, "diverged"


class ArtifactIOError(_RunError):
    """Output could not be written; partial artifacts were removed (exit 4)."""

    exit_code, label = 4, "io error"


# --- schemas -------------------------------------------------------------

def _schema(name: str) -> dict:
    path = resources.files("feynlab") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


@functools.cache
def _validator() -> Validator:
    """The config schema's validator, read and built once per process."""
    return Validator(_schema("config"))


def validate_against_schema(payload: dict) -> dict:
    """Raise ConfigError with the config's first violation (by path), if any;
    else return the payload with each float the schema takes as an integer
    (3.0) made an int, so that it runs as its integer twin does."""
    errors, integral = _validator().check(payload)
    if errors:
        path, message = errors[0]
        where = "/".join(map(str, path)) or "(top level)"
        raise ConfigError(f"config invalid at {where}: {message}")
    if integral:
        payload = copy.deepcopy(payload)
        for *head, last in integral:
            parent = functools.reduce(operator.getitem, head, payload)
            parent[last] = int(parent[last])
    return payload


def _strict_json(text: str, origin: str) -> dict:
    def reject_constant(token):
        shown = token if len(token) <= 24 else f"{token[:12]}...({len(token)} characters)"
        raise ConfigError(f"{origin}: nonfinite literal {shown!r} not allowed")

    def finite_float(token):  # 1e400 parses to inf, as nonfinite as Infinity
        x = float(token)
        return x if math.isfinite(x) else reject_constant(token)

    def finite_int(token):  # so does a 400-digit integer, read as a float
        return int(token) if math.isfinite(float(token)) else reject_constant(token)

    def reject_duplicates(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise ConfigError(f"{origin}: duplicate key {key!r}")
            seen[key] = value
        return seen

    try:
        data = json.loads(text, parse_float=finite_float, parse_int=finite_int,
                          parse_constant=reject_constant, object_pairs_hook=reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{origin}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{origin}: top level must be an object")
    return data


# --- configuration -------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a subcommand plus its parameter block.

    The ``out`` directory may be left unset and resolved later from the
    command line or the environment; everything else round-trips through
    to_dict/from_dict unchanged.
    """

    subcommand: str
    params: dict
    grid: GridSpec | None = None
    seed: int = 0
    out: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = validate_against_schema(data)
        grid = None
        if "grid" in data:
            try:
                grid = GridSpec.from_dict(data["grid"])
            except ValueError as exc:  # DimensionError included
                raise ConfigError(f"bad grid: {exc}") from exc
        return cls(
            subcommand=data["subcommand"],
            params=dict(data["params"]),
            grid=grid,
            seed=int(data.get("seed", 0)),
            out=data.get("out"),
        )

    def to_dict(self) -> dict:
        data = {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
        }
        if self.grid is not None:
            data["grid"] = self.grid.to_dict()
        if self.out is not None:
            data["out"] = self.out
        return data

    def content_hash(self) -> str:
        """sha256 of the canonical config, output location excluded."""
        data = self.to_dict()
        data.pop("out", None)
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class RunManifest(NamedTuple):
    config_hash: str
    tool_version: str
    wall_time_s: float
    files: tuple  # of (name, sha256) pairs, in write order

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "wall_time_s": self.wall_time_s,
            "files": [{"name": n, "sha256": h} for n, h in self.files],
        }


def load_config(path, seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Read and validate a config file, applying command-line overrides."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = ExperimentConfig.from_dict(_strict_json(text, str(path)))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out is not None:
        cfg = replace(cfg, out=out)
    if cfg.out is None:
        root = os.environ.get(ENV_OUTPUT_ROOT, _DEFAULT_ROOT)
        cfg = replace(cfg, out=str(Path(root) / path.stem))
    return cfg


# --- subcommands ---------------------------------------------------------

def _build_source(spec: dict, grid: GridSpec, seed: int):
    # the schema allows only the builder's own parameter names besides type
    kwargs = {k: v for k, v in spec.items() if k != "type"}
    if spec["type"] == "gaussian":
        return gaussian_source(grid, **kwargs)
    return random_band_limited(grid, seed, **kwargs)


def _write_field_csv(fh, field) -> None:
    """Write a field as CSV: header ``x0,...,t,re,im``, then one row per grid
    point in row-major order (last axis fastest), floats as shortest
    round-trip ``repr``, ``\\r\\n`` line ends: the bytes ``csv.writer`` gives.

    Each axis is formatted once.  The body is one ``write`` per leading-axis
    slab, the join of one reused list of six slots per row (``x0,``, the
    tail coordinates, ``re``, ``,``, ``im``, ``\\r\\n``): the constant slots
    are filled once and each slab refills ``x0,`` and the values by slice
    assignment.  So only one slab of strings is held, and the only
    per-value work left is ``repr``.
    """
    grid = field.grid
    cols = [[repr(x) for x in ax.tolist()] for ax in grid.axes()]
    header = [f"x{i}" for i in range(grid.dim - 1)] + ["t", "re", "im"]
    fh.write(",".join(header) + "\r\n")
    # coordinates after the leading one, for every point of a slab
    tail = [""]
    for col in cols[1:]:
        tail = [f"{p}{c}," for p in tail for c in col]
    rows = len(tail)
    parts = [","] * (6 * rows)
    parts[1::6] = tail
    parts[5::6] = ["\r\n"] * rows
    for x0, slab in zip(cols[0], field.values.reshape(grid.points[0], -1)):
        parts[0::6] = [x0 + ","] * rows
        parts[2::6] = map(repr, slab.real.tolist())
        parts[4::6] = map(repr, slab.imag.tolist())
        fh.write("".join(parts))


def _cmd_roots(cfg, p):
    n, K = p["n"], p["K"]
    rd = normal_report(n, K, [])["roots"]
    payload = {
        "n": n,
        "K": K,
        "roots": sorted(num / den for num, den in rd["roots"]),
        "roots_exact": rd["roots"],
        "gap": rd["gap"][0] / rd["gap"][1],
        "gap_exact": rd["gap"],
        "degenerate": rd["degenerate"],
    }
    return {"roots.json": payload}, False


def _cmd_spectrum(cfg, p):
    n, K = p["n"], p["K"]
    entries = normal_report(n, K, [])["spectrum"]["entries"]
    payload = {"n": n, "K": K, "entries": entries, "rows_file": "spectrum.csv"}
    header = ["k", "eigenvalue", "shifted_num", "shifted_den", "multiplicity"]
    rows = [
        [e["k"], e["eigenvalue"], e["shifted"][0], e["shifted"][1], e["multiplicity"]]
        for e in entries
    ]
    return {"spectrum.json": payload, "spectrum.csv": (header, rows)}, False


def _cmd_weights(cfg, p):
    return {"weights.json": normal_report(p["n"], p["K"], p["l_samples"])}, False


def _leg_summary(trace):
    try:
        target = classify_limit(trace)
    except ClassificationError:
        target = None
    end = trace.points[-1]
    return {
        "classification": target.name.lower() if target is not None else None,
        "rho_end": end.rho,
        "gamma_end": end.gamma,
        "symbol_drift": trace.symbol_drift(),
        "truncated": trace.truncated,
    }


def _cmd_flow(cfg, p):
    rays = random_null_rays(
        p["n"], p["count"], cfg.seed, future=p["future"], mixed_components=p["mixed"]
    )
    # one ensemble: each ray forward and backward
    legs = flow([ray for ray in rays for _ in (0, 1)], [p["T"], -p["T"]] * len(rays), tol=p["tol"])
    traces = {}
    summaries = []
    diverged = False
    for i in range(len(rays)):
        fwd, bwd = legs[2 * i], legs[2 * i + 1]
        diverged |= "stiff" in (fwd.truncated, bwd.truncated)
        trace_file = f"trace-{i:03d}.csv" if p["write_traces"] else None
        if trace_file:
            traces[trace_file] = fwd
        summaries.append(
            {
                "index": i,
                "forward": _leg_summary(fwd),
                "backward": _leg_summary(bwd),
                "trace_file": trace_file,
            }
        )
    payload = {key: p[key] for key in ("n", "count", "T", "future", "mixed")}
    payload["rays"] = summaries
    return {"flow.json": payload, **traces}, diverged


def _cmd_propagate(cfg, p):
    kind = Kind(p["kind"])
    pres = Prescription(kind, eps=p["eps"])
    f = _build_source(p["source"], cfg.grid, cfg.seed)
    u = propagate(f, pres)
    payload = {
        "kind": kind.value,
        "eps": u.meta["eps"],
        "zero_mode_projected": bool(u.meta.get("zero_mode_projected", False)),
        "norm_f": f.norm(),
        "norm_u": u.norm(),
        "residual": prescription_residual(f, u, pres),
        "field_file": "field.csv",
    }
    finite = math.isfinite(payload["norm_u"]) and math.isfinite(payload["residual"])
    return {"propagate.json": payload, "field.csv": u}, not finite


def _cmd_wick(cfg, p):
    grid = cfg.grid
    # the straight path tops out at i*eps, which must stay below i*pi/2
    eps = min(default_epsilon(grid), 0.1) if p["eps"] is None else p["eps"]
    steps, band, cone_gap = p["steps"], p["band"], p["cone_gap"]
    f = random_band_limited(grid, cfg.seed, band=band)
    g = random_band_limited(grid, cfg.seed + 1, band=band)
    gap = _symbol_gap(grid)
    if cone_gap > 0.0:
        near = near_cone(grid, cone_gap * gap)
        f = SpectralField.from_coeffs(grid, np.where(near, 0.0, f.coeffs), dict(f.meta))
        g = SpectralField.from_coeffs(grid, np.where(near, 0.0, g.coeffs), dict(g.meta))
    # the band energies do not depend on the path: measured once, first
    energy_f = characteristic_energy_fraction(f, 0.5 * gap)
    energy_g = characteristic_energy_fraction(g, 0.5 * gap)
    s = np.linspace(1.0 / steps, 1.0, steps)
    straight = wick_continuation_study(f, g, 1j * eps * s)
    diagonal = wick_continuation_study(f, g, (1.0 + 1j) / np.sqrt(2.0) * eps * s)
    a = straight["values"][-1]
    b = diagonal["values"][-1]
    scale = max(abs(a), abs(b), 1e-300)
    payload = {
        "eps": eps,
        "steps": steps,
        "band": band,
        "cone_gap": cone_gap,
        "terminal_straight": [a.real, a.imag],
        "terminal_diagonal": [b.real, b.imag],
        "rel_difference": abs(a - b) / scale,
        "char_energy_f": energy_f,
        "char_energy_g": energy_g,
        "straight_diffs": straight["diffs"],
        "diagonal_diffs": diagonal["diffs"],
    }
    return {"wick.json": payload}, False


def _cmd_picard(cfg, p):
    kind = Kind(p["kind"])
    pres = Prescription(kind, eps=p["eps"])
    f = _build_source(p["source"], cfg.grid, cfg.seed)
    prob = SemilinearProblem(f=f, p=p["p"], lam=p["lam"], prescription=pres)
    u, report = picard_solve(
        prob, max_iter=p["max_iter"], tol=p["tol"], residual_tol=p["residual_tol"]
    )
    payload = dict(report.to_dict())
    payload.update(
        {
            "p": prob.p,
            "lam": prob.lam,
            "kind": kind.value,
            "eps": u.meta["eps"],
            "norm_u": u.norm(),
            "solution_file": "solution.csv",
        }
    )
    return {"picard.json": payload, "solution.csv": u}, report.diverged


def _cmd_product_check(cfg, p):
    dims, margin, repeats = p["dims"], p["margin"], p["repeats"]
    rows = rule_sweep(margin, repeats, cfg.seed, dims, p["rules"])
    # one column per rule_sweep key, in its order; params as sorted JSON
    header = list(rows[0])
    csv_rows = [
        [json.dumps(v, sort_keys=True) if k == "params" else v for k, v in r.items()]
        for r in rows
    ]
    agreeing = sum(1 for r in rows if r["agree"])
    payload = {
        "dims": sorted(set(dims)),
        "rules": sorted({r["rule"] for r in rows}),
        "margin": margin,
        "repeats": repeats,
        "total": len(rows),
        "agreeing": agreeing,
        "fraction": agreeing / len(rows),
        "rows_file": "product_check.csv",
    }
    return {"product-check.json": payload, "product_check.csv": (header, csv_rows)}, False


class _Subcommand(NamedTuple):
    """A subcommand: each optional parameter's default, and ``run(cfg,
    params)``, which gets the params over the defaults and returns
    ``({artifact name: payload}, diverged)``, diverged True when the written
    report records numerics that diverged.  How the run ends is decided in
    ``run_experiment`` and ``_run_one``, not here.  ``run`` calls the library
    through this module's globals, which perfbench's tracer rebinds."""

    defaults: dict
    run: Callable


# eps None: the kind's grid-scaled default (wick: capped at 0.1);
# rules None: every rule with a row in dims
_SUBCOMMANDS = {
    "roots": _Subcommand({}, _cmd_roots),
    "spectrum": _Subcommand({}, _cmd_spectrum),
    "weights": _Subcommand({"K": 10}, _cmd_weights),
    "flow": _Subcommand(
        {"n": 4, "count": 6, "T": 30.0, "future": True, "mixed": True, "tol": 1e-10,
         "write_traces": True},
        _cmd_flow,
    ),
    "propagate": _Subcommand({"eps": None, "source": {"type": "gaussian"}}, _cmd_propagate),
    "wick": _Subcommand({"eps": None, "steps": 8, "band": 0.4, "cone_gap": 0.0}, _cmd_wick),
    "picard": _Subcommand(
        {"kind": "feynman", "eps": None, "source": {"type": "gaussian"}, "max_iter": 20,
         "tol": 1e-10, "residual_tol": 1e-6},
        _cmd_picard,
    ),
    "product-check": _Subcommand(
        {"dims": [1], "rules": None, "margin": 0.1, "repeats": 1}, _cmd_product_check
    ),
}


# --- running -------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _remove_partial(paths) -> None:
    """Remove what a failed write left behind, as far as the file system lets."""
    for path in paths:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass


def _strict(x):
    """x with every NaN or infinite float as None: a diverged run overflows,
    and strict JSON has no NaN or Infinity."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return {k: _strict(v) for k, v in x.items()} if isinstance(x, dict) else x


def _write_all(out_dir: Path, artifacts: dict) -> None:
    """Write each ``{name: payload}`` by the payload's type: a dict as strict
    JSON (non-finite numbers as null), ``(header, rows)`` as CSV, a field as
    field CSV, else its ``to_csv``."""
    attempted = []
    try:
        for name, payload in artifacts.items():
            path = out_dir / name
            attempted.append(path)
            if isinstance(payload, dict):
                path.write_text(json.dumps(_strict(payload), indent=2, sort_keys=True) + "\n")
            elif isinstance(payload, tuple):
                header, rows = payload
                with open(path, "w", newline="") as fh:
                    wr = csv.writer(fh)
                    wr.writerow(header)
                    wr.writerows(rows)
            elif isinstance(payload, SpectralField):
                with open(path, "w", newline="") as fh:
                    _write_field_csv(fh, payload)
            else:
                payload.to_csv(path)
    except OSError as exc:
        _remove_partial(attempted)
        raise ArtifactIOError(f"write failed, partial output removed: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute one configured subcommand and write its artifacts.

    Raises ConfigError for unusable configs, ArtifactIOError when output
    cannot be written (anything partial is removed first), and
    NumericDivergence after a complete write, manifest included, whose
    numerics diverged.
    """
    cfg = ExperimentConfig.from_dict(cfg.to_dict())
    if cfg.out is None:
        raise ConfigError("no output directory resolved")
    entry = _SUBCOMMANDS[cfg.subcommand]
    start = time.monotonic()
    try:
        artifacts, diverged = entry.run(cfg, {**entry.defaults, **cfg.params})
    except (ValueError, KeyError) as exc:  # DimensionError, ChartError, PoleError
        raise ConfigError(f"invalid parameters for {cfg.subcommand}: {exc}") from exc

    out_dir = Path(cfg.out)  # made only now, so a config error leaves no directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ArtifactIOError(f"cannot create output directory {out_dir}: {exc}") from exc
    _write_all(out_dir, artifacts)
    files = tuple((name, _sha256(out_dir / name)) for name in artifacts)
    manifest = RunManifest(
        config_hash=cfg.content_hash(),
        tool_version=__version__,
        wall_time_s=time.monotonic() - start,
        files=files,
    )
    manifest_path = out_dir / "manifest.json"
    try:
        manifest_path.write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    except OSError as exc:
        _remove_partial([out_dir / name for name in artifacts] + [manifest_path])
        raise ArtifactIOError(f"manifest write failed: {exc}") from exc
    if diverged:
        raise NumericDivergence("numerics diverged; see the written report")
    return manifest


def _run_one(path: Path, seed: int | None, out: str | None) -> int:
    """Run one config file, print its verdict line and return its exit code."""
    # overflow shows in the verdict (exit 3, nulls in the JSON), not in numpy warnings
    with np.errstate(all="ignore"):
        try:
            cfg = load_config(path, seed=seed, out=out)
            manifest = run_experiment(cfg)
        except _RunError as exc:
            print(f"{path.name}: {exc.label}: {exc}", file=sys.stderr)
            return exc.exit_code
    n = len(manifest.files)
    print(f"{path.name}: ok ({n} artifact{'s' if n != 1 else ''}, {cfg.out})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="feynlab",
        description="Run a configured experiment (or a directory of them).",
    )
    ap.add_argument("--config", required=True, help="config file, or directory for batch mode")
    ap.add_argument("--out", help="output directory (single run) or output root (batch)")
    ap.add_argument("--seed", type=int, help="override the config seed")
    args = ap.parse_args(argv)

    target = Path(args.config)
    runs = [(target, args.out)]
    if target.is_dir():
        root = Path(args.out or os.environ.get(ENV_OUTPUT_ROOT, _DEFAULT_ROOT))
        runs = [(p, str(root / p.stem)) for p in sorted(target.glob("*.json"))]
        if not runs:
            print(f"no *.json configs in {target}", file=sys.stderr)
            return ConfigError.exit_code
    # each config in turn; the worst code wins: config error > io error >
    # divergence > ok
    order = (0, NumericDivergence.exit_code, ArtifactIOError.exit_code, ConfigError.exit_code)
    return max((_run_one(path, args.seed, out) for path, out in runs), key=order.index)


if __name__ == "__main__":
    sys.exit(main())
