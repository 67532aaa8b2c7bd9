"""The four-step pipeline, driven through the command-line front end.

Every evaluation is declared by a config file: data + resampling,
classifier, a full adversary model (taxonomy, knowledge, capability,
strategy, strength range), and evaluation/output settings.  The canned
scenario configs ship inside the package; this script runs two of them and
merges the resulting reports into plot-ready figure data.

There is one way in: ``prepare`` and ``evaluate`` both ingest the source
the config's ``data`` section names.  ``prepare`` exports the design set
as a dense CSV; a config that points ``data`` at that export with
``source: dense`` evaluates to the scenario's own curve, byte for byte.
"""

import json
import tempfile
from pathlib import Path

import yaml

from clfsec.cli import main
from clfsec.config import canned_config

with tempfile.TemporaryDirectory(prefix="clfsec-demo-") as tmp:
    work = Path(tmp)
    print(f"working under {work}\n")

    print("$ clfsec validate --scenario spam_gwi_bwo")
    assert main(["validate", "--scenario", "spam_gwi_bwo"]) == 0

    print("\n$ clfsec prepare --scenario spam_gwi_bwo --out <dir>")
    assert main(["prepare", "--scenario", "spam_gwi_bwo", "--out", str(work / "svm")]) == 0

    reports = []
    for scenario, sub in (("spam_gwi_bwo", "svm"), ("spam_gwi_bwo_lr", "lr")):
        print(f"\n$ clfsec evaluate --scenario {scenario} --out <dir> --seed 42")
        assert main(["evaluate", "--scenario", scenario, "--out", str(work / sub), "--seed", "42"]) == 0
        reports.extend(str(p) for p in (work / sub).glob("report_*.json"))

    print("\n$ clfsec evaluate --config from_export.yaml   # data: {source: dense, path: <dir>/dataset.csv}")
    cfg = canned_config("spam_gwi_bwo")
    cfg["data"] = {"source": "dense", "path": "svm/dataset.csv", "resampling": cfg["data"]["resampling"]}
    cfg["evaluation"]["seed"] = 42
    cfg["output"]["directory"] = str(work / "from_export")
    (work / "from_export.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["evaluate", "--config", str(work / "from_export.yaml")]) == 0
    curve_name = "curve_spam_gwi_bwo_linear_svm.csv"
    assert (work / "from_export" / curve_name).read_bytes() == (work / "svm" / curve_name).read_bytes()
    print("the export's curve is byte-identical to the scenario's own")

    print("\n$ clfsec report <reports...> --out <figures>")
    assert main(["report", *reports, "--out", str(work / "figures")]) == 0

    merged = (work / "figures" / "security_curves.csv").read_text().strip().splitlines()
    print("\nmerged figure data (first rows):")
    for line in merged[:6]:
        print("  " + line)
    hints = json.loads((work / "figures" / "figure_hints.json").read_text())
    print(f"\naxis hints: {hints}")
    print(f"\nartifacts were written under {work}, which is removed on exit")
