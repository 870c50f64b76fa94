"""Configuration-driven experiment runner.

One experiment per JSON file; the subcommand lives in the config, the
command line only says where the config is and where results go:

    feynlab --config run.json --out results/run1 --seed 7

A directory passed to --config runs every ``*.json`` inside it (batch
mode), each config writing into its own subdirectory; --threads bounds the
batch concurrency.  Every run emits its artifacts plus ``manifest.json``
listing each file with a sha256 checksum; identical config and seed give
identical artifact checksums.

Exit codes: 0 success, 2 config error, 3 numeric divergence, 4 I/O error.
The default output root is ``$FEYNLAB_OUT`` (falling back to
``./feynlab-runs``) when neither the flag nor the config names a directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import metadata, resources
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np

from .bichar import classify_limit, flow, random_null_rays
from .errors import (
    ChartError,
    ClassificationError,
    DimensionError,
    FeynlabError,
    PoleError,
    StiffnessError,
    ZeroModeError,
)
from .fields import GridSpec, SpectralField, gaussian_source, random_band_limited
from .normal_op import normal_report
from .orders import rule_sweep, sweep_plan
from .propagators import (
    Kind,
    Prescription,
    default_epsilon,
    prescription_residual,
    propagate,
    wick_continuation_study,
)
from .semilinear import SemilinearProblem, picard_solve

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "ConfigError",
    "NumericDivergence",
    "ArtifactIOError",
    "load_config",
    "run_experiment",
    "main",
]

ENV_OUTPUT_ROOT = "FEYNLAB_OUT"
_DEFAULT_ROOT = "feynlab-runs"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


class ConfigError(FeynlabError):
    """The configuration cannot be used (exit code 2)."""


class NumericDivergence(FeynlabError):
    """The run finished but the numerics diverged (exit code 3).

    Artifacts and the manifest are written before this is raised; the
    manifest rides along on the exception.
    """

    def __init__(self, message: str, manifest: "RunManifest | None" = None):
        super().__init__(message)
        self.manifest = manifest


class ArtifactIOError(FeynlabError):
    """Output could not be written; partial artifacts were removed (exit 4)."""


# --- schemas -------------------------------------------------------------

def _schema(name: str) -> dict:
    path = resources.files("feynlab") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def validate_against_schema(payload: dict, name: str) -> None:
    """Raise ConfigError with the first violation, if any."""
    validator = jsonschema.Draft202012Validator(_schema(name))
    errors = sorted(validator.iter_errors(payload), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise ConfigError(f"config invalid at {where}: {e.message}")


def _strict_json(text: str, origin: str) -> dict:
    def reject_constant(token):
        raise ConfigError(f"{origin}: nonfinite literal {token!r} not allowed")

    def reject_duplicates(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise ConfigError(f"{origin}: duplicate key {key!r}")
            seen[key] = value
        return seen

    try:
        data = json.loads(
            text, parse_constant=reject_constant, object_pairs_hook=reject_duplicates
        )
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
        validate_against_schema(data, "config")
        grid = None
        if "grid" in data:
            g = data["grid"]
            if len(g["extent"]) != len(g["points"]):
                raise ConfigError("grid extent and points must have equal length")
            try:
                grid = GridSpec(tuple(g["extent"]), tuple(g["points"]))
            except (ValueError, DimensionError) as exc:
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
            data["grid"] = {
                "extent": list(self.grid.extent),
                "points": list(self.grid.points),
            }
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


def _tool_version() -> str:
    try:
        return metadata.version("feynlab")
    except metadata.PackageNotFoundError:
        return "0.0.0+local"


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


# --- artifacts -----------------------------------------------------------

class _Artifact(NamedTuple):
    name: str
    kind: str  # "json" | "csv" | "field" | "trace"
    payload: object


def _require_grid(cfg: ExperimentConfig) -> GridSpec:
    if cfg.grid is None:
        raise ConfigError(f"subcommand {cfg.subcommand!r} needs a grid")
    return cfg.grid


def _build_source(cfg: ExperimentConfig, grid: GridSpec):
    spec = cfg.params.get("source", {"type": "gaussian"})
    if spec["type"] == "gaussian":
        center = tuple(spec["center"]) if "center" in spec else None
        return gaussian_source(
            grid,
            width=spec.get("width", 1.0),
            center=center,
            amplitude=spec.get("amplitude", 1.0),
        )
    return random_band_limited(
        grid, cfg.seed, band=spec.get("band", 0.5), decay=spec.get("decay", 2.0)
    )


def _write_field_csv(fh, field) -> None:
    """Write a field as CSV: header ``x0,...,t,re,im``, then one row per grid
    point in row-major order (last axis fastest), floats as shortest
    round-trip ``repr``, ``\\r\\n`` line ends: the bytes ``csv.writer`` gives.

    Each axis is formatted once; the body streams one leading-axis slab at
    a time, so only one slab of strings is held.
    """
    grid = field.grid
    cols = [[repr(x) for x in ax.tolist()] for ax in grid.axes()]
    header = [f"x{i}" for i in range(grid.dim - 1)] + ["t", "re", "im"]
    fh.write(",".join(header) + "\r\n")
    # coordinates after the leading one, for every point of a slab
    tail = [""]
    for col in cols[1:]:
        tail = [f"{p}{c}," for p in tail for c in col]
    for x0, slab in zip(cols[0], field.values.reshape(grid.points[0], -1)):
        re = map(repr, slab.real.tolist())
        im = map(repr, slab.imag.tolist())
        fh.writelines(f"{x0},{p}{r},{i}\r\n" for p, r, i in zip(tail, re, im))


def _cmd_roots(cfg):
    n, K = cfg.params["n"], cfg.params["K"]
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
    return [_Artifact("roots.json", "json", payload)], EXIT_OK


def _cmd_spectrum(cfg):
    n, K = cfg.params["n"], cfg.params["K"]
    entries = normal_report(n, K, [])["spectrum"]["entries"]
    payload = {"n": n, "K": K, "entries": entries, "rows_file": "spectrum.csv"}
    header = ["k", "eigenvalue", "shifted_num", "shifted_den", "multiplicity"]
    rows = [
        [e["k"], e["eigenvalue"], e["shifted"][0], e["shifted"][1], e["multiplicity"]]
        for e in entries
    ]
    return [
        _Artifact("spectrum.json", "json", payload),
        _Artifact("spectrum.csv", "csv", (header, rows)),
    ], EXIT_OK


def _cmd_weights(cfg):
    payload = normal_report(
        cfg.params["n"], cfg.params.get("K", 10), cfg.params["l_samples"]
    )
    return [_Artifact("weights.json", "json", payload)], EXIT_OK


def _leg_summary(trace):
    try:
        target = classify_limit(trace)
    except ClassificationError:
        target = None
    end = trace.end_point()
    return {
        "classification": target.name.lower() if target is not None else None,
        "rho_end": end.rho,
        "gamma_end": end.gamma,
        "symbol_drift": trace.symbol_drift(),
        "truncated": trace.truncated,
    }


def _cmd_flow(cfg):
    p = cfg.params
    n = p.get("n", 4)
    count = p.get("count", 6)
    T = p.get("T", 30.0)
    future = p.get("future", True)
    mixed = p.get("mixed", True)
    tol = p.get("tol", 1e-10)
    write_traces = p.get("write_traces", True)
    rays = random_null_rays(n, count, cfg.seed, future=future, mixed_components=mixed)
    artifacts = []
    summaries = []
    for i, ray in enumerate(rays):
        fwd = flow(ray, T, tol=tol)
        bwd = flow(ray, -T, tol=tol)
        trace_file = None
        if write_traces:
            trace_file = f"trace-{i:03d}.csv"
            artifacts.append(_Artifact(trace_file, "trace", fwd))
        summaries.append(
            {
                "index": i,
                "forward": _leg_summary(fwd),
                "backward": _leg_summary(bwd),
                "trace_file": trace_file,
            }
        )
    payload = {
        "n": n,
        "count": count,
        "T": T,
        "future": future,
        "mixed": mixed,
        "rays": summaries,
    }
    return [_Artifact("flow.json", "json", payload)] + artifacts, EXIT_OK


def _cmd_propagate(cfg):
    grid = _require_grid(cfg)
    kind = Kind(cfg.params["kind"])
    eps = cfg.params.get("eps")
    pres = Prescription(kind, eps=eps)
    f = _build_source(cfg, grid)
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
    return [
        _Artifact("propagate.json", "json", payload),
        _Artifact("field.csv", "field", u),
    ], EXIT_OK


def _mask_near_cone(field, gap_frac: float):
    grid = field.grid
    zeta = grid.freq_mesh()
    sym = zeta[-1] ** 2 - np.sum(zeta[:-1] ** 2, axis=0)
    nonzero = np.abs(sym)[np.abs(sym) > 0]
    coeffs = np.array(field.coeffs)
    coeffs[np.abs(sym) < gap_frac * float(nonzero.min())] = 0.0
    return SpectralField.from_coeffs(grid, coeffs, dict(field.meta))


def _cmd_wick(cfg):
    grid = _require_grid(cfg)
    p = cfg.params
    # the straight path tops out at i*eps, which must stay below i*pi/2
    eps = p.get("eps", min(default_epsilon(grid), 0.1))
    steps = p.get("steps", 8)
    band = p.get("band", 0.4)
    cone_gap = p.get("cone_gap", 0.0)
    f = random_band_limited(grid, cfg.seed, band=band)
    g = random_band_limited(grid, cfg.seed + 1, band=band)
    if cone_gap > 0.0:
        f = _mask_near_cone(f, cone_gap)
        g = _mask_near_cone(g, cone_gap)
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
        "char_energy_f": straight["char_energy_f"],
        "char_energy_g": straight["char_energy_g"],
        "straight_diffs": straight["diffs"],
        "diagonal_diffs": diagonal["diffs"],
    }
    return [_Artifact("wick.json", "json", payload)], EXIT_OK


def _cmd_picard(cfg):
    grid = _require_grid(cfg)
    p = cfg.params
    kind = Kind(p.get("kind", "feynman"))
    eps = p.get("eps")
    pres = Prescription(kind, eps=eps)
    f = _build_source(cfg, grid)
    prob = SemilinearProblem(f=f, p=p["p"], lam=p["lam"], prescription=pres)
    u, report = picard_solve(
        prob,
        max_iter=p.get("max_iter", 20),
        tol=p.get("tol", 1e-10),
        residual_tol=p.get("residual_tol", 1e-6),
    )
    payload = dict(report.to_dict())
    payload.update(
        {
            "p": prob.p,
            "lam": prob.lam,
            "kind": kind.value,
            "eps": eps if eps is not None else default_epsilon(grid),
            "norm_u": u.norm(),
            "solution_file": "solution.csv",
        }
    )
    status = EXIT_DIVERGED if report.diverged else EXIT_OK
    return [
        _Artifact("picard.json", "json", payload),
        _Artifact("solution.csv", "field", u),
    ], status


def _cmd_product_check(cfg):
    p = cfg.params
    dims = p.get("dims", [1])
    rules = p.get("rules")
    margin = p.get("margin", 0.1)
    repeats = p.get("repeats", 1)
    plan = [
        row
        for row in sweep_plan()
        if row[1] in dims and (rules is None or row[0] in rules)
    ]
    if not plan:
        raise ConfigError("product-check plan is empty (no rule matches the filter)")
    rows = rule_sweep(margin=margin, repeats=repeats, seed=cfg.seed, plan=plan)
    header = [
        "rule",
        "dim",
        "threshold",
        "offset",
        "params",
        "predicted",
        "growth_exponent",
        "measured_finite",
        "agree",
    ]
    csv_rows = [
        [
            r["rule"],
            r["dim"],
            r["threshold"],
            r["offset"],
            json.dumps(r["params"], sort_keys=True),
            r["predicted"],
            r["growth_exponent"],
            r["measured_finite"],
            r["agree"],
        ]
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
    return [
        _Artifact("product-check.json", "json", payload),
        _Artifact("product_check.csv", "csv", (header, csv_rows)),
    ], EXIT_OK


_SUBCOMMANDS = {
    "roots": _cmd_roots,
    "spectrum": _cmd_spectrum,
    "weights": _cmd_weights,
    "flow": _cmd_flow,
    "propagate": _cmd_propagate,
    "wick": _cmd_wick,
    "picard": _cmd_picard,
    "product-check": _cmd_product_check,
}


# --- running -------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_all(out_dir: Path, artifacts: list) -> None:
    attempted = []
    try:
        for art in artifacts:
            path = out_dir / art.name
            attempted.append(path)
            if art.kind == "json":
                path.write_text(
                    json.dumps(art.payload, indent=2, sort_keys=True) + "\n"
                )
            elif art.kind == "csv":
                header, rows = art.payload
                with open(path, "w", newline="") as fh:
                    wr = csv.writer(fh)
                    wr.writerow(header)
                    wr.writerows(rows)
            elif art.kind == "field":
                with open(path, "w", newline="") as fh:
                    _write_field_csv(fh, art.payload)
            else:
                art.payload.to_csv(path)
    except OSError as exc:
        for path in attempted:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        raise ArtifactIOError(f"write failed, partial output removed: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute one configured subcommand and write its artifacts.

    Raises ConfigError for unusable configs, ArtifactIOError when output
    cannot be written (anything partial is removed first), and
    NumericDivergence after a complete write whose numerics diverged.
    """
    if cfg.subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {cfg.subcommand!r}")
    if cfg.out is None:
        raise ConfigError("no output directory resolved")
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ArtifactIOError(f"cannot create output directory {out_dir}: {exc}") from exc

    start = time.monotonic()
    try:
        artifacts, status = _SUBCOMMANDS[cfg.subcommand](cfg)
    except (ValueError, DimensionError, ChartError, KeyError) as exc:
        raise ConfigError(f"invalid parameters for {cfg.subcommand}: {exc}") from exc
    except (StiffnessError, PoleError, ZeroModeError) as exc:
        raise NumericDivergence(str(exc)) from exc

    _write_all(out_dir, artifacts)
    files = tuple((a.name, _sha256(out_dir / a.name)) for a in artifacts)
    manifest = RunManifest(
        config_hash=cfg.content_hash(),
        tool_version=_tool_version(),
        wall_time_s=time.monotonic() - start,
        files=files,
    )
    try:
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    except OSError as exc:
        for name, _ in files:
            try:
                (out_dir / name).unlink(missing_ok=True)
            except OSError:
                pass
        raise ArtifactIOError(f"manifest write failed: {exc}") from exc
    if status == EXIT_DIVERGED:
        raise NumericDivergence("iteration diverged; see the written report", manifest)
    return manifest


def _run_one(path: Path, seed: int | None, out: str | None) -> tuple[int, str]:
    try:
        cfg = load_config(path, seed=seed, out=out)
        manifest = run_experiment(cfg)
    except ConfigError as exc:
        return EXIT_CONFIG, f"{path.name}: config error: {exc}"
    except NumericDivergence as exc:
        return EXIT_DIVERGED, f"{path.name}: diverged: {exc}"
    except ArtifactIOError as exc:
        return EXIT_IO, f"{path.name}: io error: {exc}"
    n = len(manifest.files)
    return EXIT_OK, f"{path.name}: ok ({n} artifact{'s' if n != 1 else ''}, {cfg.out})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="feynlab",
        description="Run a configured experiment (or a directory of them).",
    )
    ap.add_argument("--config", required=True, help="config file, or directory for batch mode")
    ap.add_argument("--out", help="output directory (single run) or output root (batch)")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--threads", type=int, default=1, help="batch concurrency (default 1)")
    args = ap.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("seed must fit in 64 unsigned bits", file=sys.stderr)
        return EXIT_CONFIG
    if args.threads < 1:
        print("threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    target = Path(args.config)
    if target.is_dir():
        configs = sorted(target.glob("*.json"))
        if not configs:
            print(f"no *.json configs in {target}", file=sys.stderr)
            return EXIT_CONFIG
        root = args.out or os.environ.get(ENV_OUTPUT_ROOT, _DEFAULT_ROOT)
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(
                pool.map(
                    lambda p: _run_one(p, args.seed, str(Path(root) / p.stem)),
                    configs,
                )
            )
        worst = EXIT_OK
        for code, message in results:
            print(message, file=sys.stderr if code else sys.stdout)
            # precedence: config error > io error > divergence
            rank = {EXIT_OK: 0, EXIT_DIVERGED: 1, EXIT_IO: 2, EXIT_CONFIG: 3}
            if rank[code] > rank[worst]:
                worst = code
        return worst

    code, message = _run_one(target, args.seed, args.out)
    print(message, file=sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
