"""The import policy: each package loads only what its own code runs.

``import repro`` resolves its public names on first access, and the heavy
optional libraries (``scipy.stats``, networkx) load at the call sites that
use them. Every case runs in a fresh interpreter, so modules this test
process has already imported cannot leak into the answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEAVY = ("scipy.stats", "scipy.optimize", "networkx")


def _run(code: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> set[str]:
    return set(_run(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def test_import_repro_loads_no_subpackage():
    loaded = _loaded_after("import repro")
    assert sorted(m for m in loaded if m.startswith("repro.")) == []
    assert not loaded & set(HEAVY)


def test_import_repro_core_loads_no_serving_layer_or_heavy_extra():
    loaded = _loaded_after("import repro.core")
    unwanted = set(HEAVY) | {"repro.shard", "repro.gateway", "repro.apps"}
    assert sorted(loaded & unwanted) == []


@pytest.mark.parametrize("package", ["repro.evaluation", "repro.graph"])
def test_evaluation_and_graph_defer_scipy_stats_and_networkx(package):
    loaded = _loaded_after(f"import {package}")
    assert sorted(loaded & {"scipy.stats", "networkx"}) == []


def test_every_public_name_resolves_to_its_home_object():
    # each public name is a class or function; its home is the module
    # that defines it, wherever the package init says it comes from
    mismatched = _run(
        "import importlib, json, repro\n"
        "names = [n for n in repro.__all__ if n != '__version__']\n"
        "bad = [n for n in names if getattr(\n"
        "    importlib.import_module(getattr(repro, n).__module__), n, None)\n"
        "    is not getattr(repro, n)]\n"
        "print(json.dumps([bad, len(names)]))"
    )
    assert mismatched == [[], 39]


def test_star_import_binds_every_public_name():
    missing = _run(
        "import json\n"
        "from repro import *\n"
        "import repro\n"
        "print(json.dumps([n for n in repro.__all__ if n not in globals()]))"
    )
    assert missing == []


def test_dir_lists_every_public_name():
    missing = _run(
        "import json, repro\n"
        "print(json.dumps(sorted(set(repro.__all__) - set(dir(repro)))))"
    )
    assert missing == []


def test_an_unknown_name_raises_attribute_error():
    outcome = _run(
        "import json, repro\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
        "else:\n"
        "    print(json.dumps(None))"
    )
    assert outcome is not None and "no_such_name" in outcome


def test_artifact_save_and_load_load_only_the_fault_hook(tmp_path):
    # the io fault points need repro.resilience.faults alone, not the WAL,
    # recovery, streaming or serving layers the package also exports
    loaded = _loaded_after(
        "from repro.core import CPDConfig, CPDModel\n"
        "from repro.core.io import load_result, save_result\n"
        "from repro.datasets import twitter_scenario\n"
        "graph, _ = twitter_scenario('tiny', rng=0)\n"
        "config = CPDConfig(n_communities=2, n_topics=3, n_iterations=1)\n"
        "result = CPDModel(config, rng=0).fit(graph)\n"
        f"save_result(result, {str(tmp_path / 'model.cpd.npz')!r})\n"
        f"load_result({str(tmp_path / 'model.cpd.npz')!r})"
    )
    assert "repro.resilience.faults" in loaded
    unwanted = {"repro.resilience.wal", "repro.resilience.recovery", "repro.stream", "repro.serving"}
    assert sorted(loaded & unwanted) == []
