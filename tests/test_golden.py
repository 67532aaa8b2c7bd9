"""Canned scenarios reproduce their stored curves and report ROCs.

``tests/golden/<scenario>.csv`` is the curve CSV and
``tests/golden/<scenario>_roc.json`` the report's ``roc_curves`` of
``clfsec evaluate --scenario <scenario>``.  Regenerate them from that
command only when a change is meant to move a curve, and say why in
CHANGES.md.  The tolerance is the one the benchmark's reference check
uses: it absorbs BLAS summation-order drift, nothing else.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from clfsec.cli import main
from clfsec.config import canned_scenario_names

GOLDEN = Path(__file__).resolve().parent / "golden"
TOLERANCE = 1e-9


def _curve_rows(text):
    lines = text.splitlines()
    assert lines[0] == "strength,mean,std,k"
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize("name", canned_scenario_names())
def test_canned_output_matches_golden(name, tmp_path):
    assert main(["evaluate", "--scenario", name, "--out", str(tmp_path)]) == 0
    (csv_path,) = tmp_path.glob("curve_*.csv")
    (report_path,) = tmp_path.glob("report_*.json")

    got = _curve_rows(csv_path.read_text(encoding="utf-8"))
    want = _curve_rows((GOLDEN / f"{name}.csv").read_text(encoding="utf-8"))
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOLERANCE)

    got_rocs = json.loads(report_path.read_text(encoding="utf-8"))["roc_curves"]
    want_rocs = json.loads((GOLDEN / f"{name}_roc.json").read_text(encoding="utf-8"))
    assert sorted(got_rocs) == sorted(want_rocs)
    for key, want_roc in want_rocs.items():
        for field in ("fp", "tp", "thresholds"):
            assert len(got_rocs[key][field]) == len(want_roc[field]), (key, field)
            np.testing.assert_allclose(
                got_rocs[key][field], want_roc[field], rtol=0, atol=TOLERANCE, err_msg=f"{key} {field}"
            )
