"""One pass of a workload in a fresh process, as one CLI call would run it.

    python3 -m perfbench.worker <spec.json>

The spec names the workload, its config files, the output root and whether
to trace.  The worker imports feynlab, loads and validates every config
(set-up), then runs the configs one at a time through
``feynlab.cli.run_experiment`` and times each run.  After all runs it
verifies each output directory against its manifest and the schemas and
applies the workload's checks.  It prints one JSON line with the result.

A config that fails to load, raises anything from ``run_experiment``, or
leaves output that does not match its manifest counts as failed; the other
configs still run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from importlib import resources
from pathlib import Path

from perfbench.workloads import WORKLOADS


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _schema(name: str):
    path = resources.files("feynlab") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text()) if path.is_file() else None


def verify_output(out_dir: Path) -> tuple[str | None, int]:
    """(problem or None, artifact bytes) for one run's output directory.

    The manifest must validate, list exactly the files present, and match
    each file's sha256; every JSON artifact with a schema must validate.
    """
    import jsonschema

    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return "no manifest.json", 0
    manifest = json.loads(manifest_path.read_text())
    try:
        jsonschema.validate(manifest, _schema("manifest"))
    except jsonschema.ValidationError as exc:
        return f"manifest invalid: {exc.message}", 0
    listed = {f["name"]: f["sha256"] for f in manifest["files"]}
    present = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    if present != set(listed):
        return f"files {sorted(present)} differ from manifest {sorted(listed)}", 0
    size = 0
    for name, digest in listed.items():
        path = out_dir / name
        size += path.stat().st_size
        if _sha256(path) != digest:
            return f"{name}: checksum mismatch", size
        schema = _schema(path.stem) if path.suffix == ".json" else None
        if schema is not None:
            try:
                jsonschema.validate(json.loads(path.read_text()), schema)
            except jsonschema.ValidationError as exc:
                return f"{name}: schema violation: {exc.message}", size
    return None, size


def run_configs(workload: str, config_paths: list, out_root: Path,
                sample_host: bool = False) -> dict:
    """Load, run, verify and check every config; never raises for one config.

    With ``sample_host`` the reference kernel is also timed during the runs
    (see ``perfbench.calibrate``); traced passes leave it off, so that their
    spans hold only feynlab's work.
    """
    import feynlab.cli as cli

    wl = WORKLOADS[workload]
    loaded = []
    results = []
    for path in config_paths:
        path = Path(path)
        try:
            cfg = cli.load_config(path, out=str(out_root / path.stem))
        except cli.ConfigError as exc:
            results.append({"name": path.stem, "status": "exit 2", "error": str(exc)})
            continue
        loaded.append((path, cfg))
    ready = time.monotonic()

    from perfbench import calibrate  # after set-up, which it must not lengthen

    calibrate.warm()
    exit_codes = ((cli.ConfigError, 2), (cli.NumericDivergence, 3), (cli.ArtifactIOError, 4))
    runs = []
    period = calibrate.PERIOD_S if sample_host else None
    with calibrate.HostSampler(wl.kernel, period) as host:
        for _ in range(2):  # with the first take() below, three samples near set-up
            host.take()
        for path, cfg in loaded:
            host.take()
            spent = host.spent
            start = time.perf_counter()
            host.timing(True)
            status, error = "ok", None
            try:
                cli.run_experiment(cfg)
            except Exception as exc:  # one config's failure must not stop the pass
                code = next((c for cls, c in exit_codes if isinstance(exc, cls)), None)
                if code is not None:
                    status, error = f"exit {code}", str(exc)
                else:  # the CLI itself would end in a traceback here
                    status, error = f"raised {type(exc).__name__}", traceback.format_exc(limit=3)
            host.timing(False)
            wall = time.perf_counter() - start - (host.spent - spent)
            runs.append((path, cfg, status, error, wall))
        host.take()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for path, cfg, status, error, wall in runs:
        row = {"name": path.stem, "status": status, "wall_s": wall}
        if error is not None:
            row["error"] = error
        if status == "ok":
            out_dir = Path(cfg.out)
            problem, size = verify_output(out_dir)
            row["artifact_bytes"] = size
            if problem is not None:
                row["status"] = "bad output"
                row["error"] = problem
            else:
                raw = json.loads(path.read_text())
                try:
                    strict, science = wl.checks(raw, out_dir)
                    row["work"] = wl.work(raw, out_dir)
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    strict, science = [False], []
                    row["error"] = f"check could not read the output: {exc!r}"
                row["strict"] = [bool(x) for x in strict]
                row["science"] = [bool(x) for x in science]
        results.append(row)
    # set-up is imports and config loading, interpreter work on every workload
    return {"ready": ready, "scale": host.scale(), "setup_scale": host.scale("interp"),
            "rss_mb": rss_mb, "configs": results}


def main(argv: list) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    tracer = None
    if spec["trace"]:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        missing = install(tracer)
        if missing:
            print(f"not traced (not found): {', '.join(missing)}", file=sys.stderr)
    out = run_configs(spec["workload"], spec["configs"], Path(spec["out"]),
                      sample_host=spec["sample_host"])
    if tracer is not None:
        from perfbench.tracing import layer_metrics

        size = sum(r.get("artifact_bytes", 0) for r in out["configs"])
        out["layers"] = layer_metrics(tracer, size)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
