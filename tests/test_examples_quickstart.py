"""Smoke tests: every script under examples/ must run end-to-end.

Executes each example as a real subprocess (the way a user would);
quickstart.py is scaled down through its environment knobs so the suite
stays fast. This is what keeps the README's first code path from rotting
silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_example(name: str, env_overrides: dict[str, str] | None = None, cwd=None):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_overrides or {})
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name)],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _checkout_files() -> set[str]:
    """Every file in the checkout outside git's and Python's caches."""
    files = set()
    for root, dirs, names in os.walk(REPO_ROOT):
        dirs[:] = [d for d in dirs if d not in {".git", "__pycache__"}]
        files.update(os.path.join(root, name) for name in names)
    return files


def test_quickstart_runs_end_to_end():
    completed = _run_example(
        "quickstart.py",
        {"REPRO_QUICKSTART_SCALE": "tiny", "REPRO_QUICKSTART_ITERATIONS": "6"},
    )
    assert completed.returncode == 0, completed.stderr
    out = completed.stdout
    assert "community recovery NMI" in out
    assert "content perplexity" in out
    assert "served (graph-free) ranking" in out
    assert "fold-in of an unseen document" in out


@pytest.mark.parametrize(
    "name", ["campaign_targeting.py", "citation_flow_analysis.py", "parallel_scaling.py"]
)
def test_example_runs_and_writes_nothing_into_the_checkout(name, tmp_path):
    before = _checkout_files()
    completed = _run_example(name, cwd=tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert sorted(_checkout_files() - before) == []
