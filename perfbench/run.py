"""feynlab benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload picard --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # every workload, in turn

Run from the repository root.  The loop is closed with one client: one
worker process at a time runs one config at a time (batch concurrency 1),
and each pass over the workload's configs is a fresh process, as each CLI
call is.  Passes repeat until ``--seconds`` have passed (at least three).
Every metric is the median over passes.  Times are scaled to a reference
host speed: each pass also times a fixed kernel (``perfbench/calibrate.py``)
between its configs and every half second while one runs, and its set-up
and run times are multiplied by the kernel's reference time over its median
time in the pass, so that the shared host's changing speed drops out.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones and the tracing overhead, then runs the layer tier's scaling series.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric with its unit and stamp the result with the code
version, library versions and machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

# the metric names and units this benchmark declares
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_PASSES = 3
RUN_BUDGET_S = 150.0  # stop starting passes after this, to finish within 180 s
PASS_TIMEOUT_S = 120.0
SCALING_SERIES = ("propagate", "picard_iter", "product_integral", "flow")  # perfbench.layers

class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # one client and no threads: keep BLAS from starting a pool of its own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list, timeout: float) -> tuple[str, float]:
    """Run ``python3 <args>`` from the root; (last stdout line, start time)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return lines[-1], start


def run_pass(workload: str, configs: list, work_dir: Path, trace: bool,
             sample_host: bool = False) -> dict:
    out_root = work_dir / "out"
    spec = work_dir / "spec.json"
    spec.write_text(json.dumps({"workload": workload, "configs": [str(p) for p in configs],
                                "out": str(out_root), "trace": trace,
                                "sample_host": sample_host}))
    line, start = _child(["-m", "perfbench.worker", str(spec)], PASS_TIMEOUT_S)
    shutil.rmtree(out_root, ignore_errors=True)
    result = json.loads(line)
    result["setup_s"] = result["ready"] - start
    return result


def _pass_summary(res: dict) -> dict:
    """One pass's metrics; times are scaled to the reference host speed."""
    rows = res["configs"]
    raw_wall = sum(r.get("wall_s", 0.0) for r in rows)
    wall = raw_wall * res["scale"]
    return {
        "setup_s": res["setup_s"] * res["setup_scale"],
        "wall_s": wall,
        "work_per_s": sum(r.get("work", 0.0) for r in rows) / wall if wall else 0.0,
        "peak_rss_mb": res["rss_mb"],
        "artifact_mb": sum(r.get("artifact_bytes", 0) for r in rows) / 1e6,
        "raw_setup_s": res["setup_s"],
        "raw_wall_s": raw_wall,
        "host_scale": res["scale"],
    }


def _median(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _accounting(workload: str, results: list) -> dict:
    """Failures, check fractions and correctness over every pass."""
    wl = WORKLOADS[workload]
    rows = [r for res in results for r in res["configs"]]
    failed = [r for r in rows if r["status"] != "ok"]
    science = [x for r in rows for x in r.get("science", [])]
    strict = [x for r in rows for x in r.get("strict", [])]
    check_frac = sum(science) / len(science) if science else 1.0
    correct = (not failed and all(strict)
               and (check_frac == 1.0 or not wl.science_is_strict))
    for r in failed:
        print(f"# failed: {r['name']}: {r['status']}: {r.get('error', '')}", file=sys.stderr)
    return {
        "attempted": len(rows),
        "failed": len(failed),
        "correct": correct,
        "ok_frac": 1.0 - len(failed) / len(rows),
        "check_frac": check_frac,
        "checks": len(science),
    }


def _until_budget(seconds: float, step, min_passes: int = MIN_PASSES) -> None:
    start = time.monotonic()
    n = 0
    while True:
        step(n)
        n += 1
        elapsed = time.monotonic() - start
        if n >= min_passes and elapsed >= seconds:
            return
        if elapsed >= RUN_BUDGET_S:
            if n < min_passes:
                raise BenchError(f"only {n} passes fit in {RUN_BUDGET_S:.0f} s")
            return


def end_to_end(workload: str, configs: list, work_dir: Path, seconds: float) -> dict:
    results = []
    _until_budget(seconds, lambda i: results.append(
        run_pass(workload, configs, work_dir, trace=False, sample_host=True)))
    passes = [_pass_summary(r) for r in results]
    for i, p in enumerate(passes):
        print(f"# pass {i}: " + ", ".join(f"{k} {v:.4g}" for k, v in p.items()), file=sys.stderr)
    acc = _accounting(workload, results)
    metrics = {k: _median(passes, k)
               for k in ("setup_s", "wall_s", "work_per_s", "peak_rss_mb", "artifact_mb")}
    metrics["ok_frac"] = acc["ok_frac"]
    metrics["check_frac"] = acc["check_frac"]
    return {"acc": acc, "passes": len(passes), "metrics": metrics}


def scaling() -> dict:
    """The layer tier's scaling series, each in its own process."""
    metrics = {}
    for name in SCALING_SERIES:
        line, _ = _child(["-m", "perfbench.layers", name], PASS_TIMEOUT_S)
        res = json.loads(line)
        metrics[f"scaling.{name}_exp"] = res["slope"]
        metrics[f"scaling.{name}_rss_mb"] = res["rss_mb"]
        sizes = ", ".join(f"{x:g}: {t * 1e3:.1f} ms" for x, t in zip(res["x"], res["t"]))
        print(f"# scaling {name}: {sizes}")
    return metrics


def per_layer(workload: str, configs: list, work_dir: Path, seconds: float) -> dict:
    plain, traced = [], []

    def step(i):
        # alternate, untraced first, so both sides see the same drift
        (plain if i % 2 == 0 else traced).append(
            run_pass(workload, configs, work_dir, trace=i % 2 == 1))

    _until_budget(seconds, step, min_passes=4)  # at least 2 of each kind
    acc = _accounting(workload, plain + traced)
    layer_runs = [r["layers"] for r in traced]
    metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
    untraced_wall = _median([_pass_summary(r) for r in plain], "raw_wall_s")
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced_wall - 1.0
    metrics.update(scaling())
    return {"acc": acc, "passes": len(plain) + len(traced), "metrics": metrics}


def stamp(workload: str, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        sha = "git unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "loop": "closed loop, one client, batch concurrency 1",
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = ROOT / ".perfbench-runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    config_dir = work_dir / "configs"
    config_dir.mkdir(parents=True)
    try:
        configs = []
        for i, cfg in enumerate(WORKLOADS[workload].configs(seed)):
            path = config_dir / f"{i:02d}-{cfg['subcommand']}.json"
            path.write_text(json.dumps(cfg, indent=1))
            configs.append(path)
        # untimed: compile feynlab's bytecode and warm the file cache, which
        # an installed package has done before its users' first call
        warm = "import feynlab.cli, perfbench.worker, perfbench.tracing, perfbench.layers"
        _child(["-c", warm + "; print()"], 60.0)
        measure = per_layer if trace else end_to_end
        res = measure(workload, configs, work_dir, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    res["stamp"] = stamp(workload, seed)
    return res


def report(workload: str, res: dict, trace: bool) -> dict:
    """Print the metrics declared in BENCHMARK.json; the result object."""
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(res["metrics"]):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(res['metrics']))}")
    acc = res["acc"]
    wl = WORKLOADS[workload]
    print(f"# stamp: {json.dumps(res['stamp'], sort_keys=True)}")
    print(f"# {workload}: {res['passes']} passes, {acc['attempted']} configs attempted, "
          f"{acc['failed']} failed (fail_frac {acc['failed'] / acc['attempted']:.4g}), "
          f"{acc['checks']} checks, work unit: {wl.unit}")
    for name, unit in declared.items():
        print(f"# {workload:10s} {name:34s} {res['metrics'][name]:14.6g} {unit}")
    return {
        "correct": acc["correct"],
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in declared.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "feynlab" / "cli.py").is_file():
        print(f"no feynlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            res = bench(name, args.seed, args.seconds, bool(args.trace))
            results[name] = report(name, res, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
