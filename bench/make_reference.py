"""Rewrite ``reference.json``: each workload's curve at the reference seed.

    python3 bench/make_reference.py

Run it only when a change to the program is meant to move the curves,
and say why in the change's notes; the benchmark compares every
operation at the reference seed against this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import gen
import run


def main() -> int:
    refs = {}
    for workload in sorted(run.WORKLOADS):
        inputs = run.BENCH_DIR / "_work" / f"reference-{workload}"
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            gen.write_workload(workload, run.REFERENCE_SEED, inputs)
            subprocess.run(
                [sys.executable, "-m", "clfsec.cli", "evaluate", "--config", "config.yaml"],
                cwd=inputs, env=run.child_env(), check=True, stdout=subprocess.DEVNULL,
            )
            text = next((inputs / "out").glob("curve_*.csv")).read_text(encoding="utf-8")
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        curve, problems = check.parse_curve(text)
        problems = problems or check.check_curve(curve, run.WORKLOADS[workload])
        if problems:
            print(f"{workload}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        refs[workload] = {"seed": run.REFERENCE_SEED, "strengths": curve["strengths"],
                          "means": curve["means"], "stds": curve["stds"]}
    check.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
