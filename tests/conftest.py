"""Shared test settings.

Property tests run under a derandomized ``hypothesis`` profile with a bounded
example count and no per-example deadline, so every run draws the same
examples and a slow shared host cannot fail them on timing.

feynlab validates configs with a validator of its own; jsonschema stays the
reference.  Every payload a test validates through ``feynlab.cli`` must get
the same violations, in the same order and with the same messages, from
both.

``run_child`` runs a script in a child process, for a call that might hang.
"""

import functools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import settings

settings.register_profile("feynlab", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("feynlab")


@functools.cache
def _reference_validator() -> jsonschema.Draft202012Validator:
    path = resources.files("feynlab") / "schemas" / "config.schema.json"
    return jsonschema.Draft202012Validator(json.loads(path.read_text()))


def _reference_errors(payload) -> list:
    """jsonschema's config violations as (path, message), sorted by path."""
    errors = sorted(
        _reference_validator().iter_errors(payload), key=lambda e: list(e.absolute_path)
    )
    return [(tuple(e.absolute_path), e.message) for e in errors]


@pytest.fixture(scope="session")
def reference_errors():
    return _reference_errors


ROOT = Path(__file__).resolve().parents[1]


def _run_child(script: str, *args: str, timeout: float = 120.0):
    """Run a Python script with args in a child process on this checkout's
    sources; a hang fails the test at the timeout instead of stalling the suite."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="session")
def run_child():
    return _run_child


@pytest.fixture(autouse=True)
def config_verdicts_match_jsonschema(monkeypatch):
    from feynlab import cli

    validate = cli.validate_against_schema

    def checked(payload):
        assert cli._validator().check(payload)[0] == _reference_errors(payload)
        return validate(payload)

    monkeypatch.setattr(cli, "validate_against_schema", checked)
