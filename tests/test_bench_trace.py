"""The benchmark's tracer records every layer that the canned scenarios reach.

``bench/trace_child.py`` wraps library functions at the sites where the
library looks them up, and a traced benchmark operation fails when a
layer its workload names in ``bench/run.py`` records no span.  This test
runs the tracer on the canned scenario of each workload, so a refactor
that moves or hides a traced call fails here, not only in a benchmark run.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

from clfsec.config import canned_config
from clfsec.ingestion import tokenize_text

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


def test_email_ingestion_records_its_spans_and_counts(tmp_path):
    # the canned scenarios are synthetic, so this corpus is what reaches the ingestion hooks in tier-1
    rnd = random.Random(7)
    words = [f"w{i}" for i in range(120)]
    texts, lines = [], []
    for i in range(40):
        spam = i % 2 == 0
        text = " ".join(rnd.choice(words[:70] if spam else words[50:]) for _ in range(rnd.randrange(5, 15)))
        (tmp_path / f"msg.{i}").write_text(text, encoding="utf-8")
        texts.append(text)
        lines.append(f"{'spam' if spam else 'ham'} msg.{i}\n")
    (tmp_path / "index").write_text("".join(lines), encoding="utf-8")
    split = 24
    attack = canned_config("spam_gwi_bwo")["attack"]
    attack["strength"]["values"] = [0, 1, 2]
    config = {
        "version": 1,
        "data": {
            "source": "emails",
            "path": "index",
            "vocab_size": 30,
            "resampling": {"method": "chronological", "split_index": split},
        },
        "classifier": {"family": "linear_svm", "c": 1.0},
        "attack": attack,
        "evaluation": {"metric": "auc10", "seed": 1},
        "output": {"directory": "out"},
    }
    (tmp_path / "spam.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    trace = tmp_path / "trace.json"
    cmd = [sys.executable, str(BENCH / "trace_child.py"), str(trace), "evaluate", "--config", "spam.yaml"]
    done = subprocess.run(cmd, cwd=tmp_path, env=_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    doc = json.loads(trace.read_text(encoding="utf-8"))
    calls = Counter(span[3] for span in doc["spans"])
    assert [layer for layer in ("ingestion.tokenize", "ingestion.ig_select", "ingestion.vectorize") if calls[layer] != 1] == []
    assert doc["counts"]["ingestion.docs"] == len(texts)
    assert doc["counts"]["ingestion.terms_ranked"] == len(set().union(*map(tokenize_text, texts[:split])))

