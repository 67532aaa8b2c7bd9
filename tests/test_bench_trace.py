"""The benchmark's tracer records every layer that the canned scenarios reach.

``bench/trace_child.py`` wraps library functions at the sites where the
library looks them up, and a traced benchmark operation fails when a
layer its workload names in ``bench/run.py`` records no span.  This test
runs the tracer on the canned scenario of each workload, so a refactor
that moves or hides a traced call fails here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from clfsec.config import canned_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# the canned scenario that runs each workload's code path
WORKLOAD_SCENARIOS = {"bio-scores": "bio_spoof_face", "spam-email": "spam_gwi_bwo", "ids-payload": "ids_poison"}


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")  # no bytecode left in bench/
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def workload_layers() -> dict:
    """``WORKLOADS[w]["layers"]`` of ``bench/run.py``, read in a child so its modules stay out of this process."""
    code = "import json, run; print(json.dumps({w: v['layers'] for w, v in run.WORKLOADS.items()}))"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload, scenario", sorted(WORKLOAD_SCENARIOS.items()))
def test_every_reached_layer_records_a_span(workload, scenario, workload_layers, tmp_path):
    # the canned data are synthetic, so ingestion is the one layer they do not reach
    assert canned_config(scenario)["data"]["source"].startswith("synthetic-")
    expected = [layer for layer in workload_layers[workload] if not layer.startswith("ingestion.")]
    trace = tmp_path / "trace.json"
    cmd = [sys.executable, str(BENCH / "trace_child.py"), str(trace), "evaluate", "--scenario", scenario, "--out", "out"]
    done = subprocess.run(cmd, cwd=tmp_path, env=_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    calls = Counter(span[3] for span in json.loads(trace.read_text(encoding="utf-8"))["spans"])
    assert [layer for layer in expected if calls[layer] == 0] == []
