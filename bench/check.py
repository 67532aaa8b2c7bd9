"""Output checks for one ``clfsec evaluate`` operation.

Every check returns a list of problems; an empty list means the output
passed.  The checks are structural (the curve has the configured strengths
and ``k``, values are finite and in the metric's range), per-lane
invariants that follow from the attack, and, at the default seed, a match
against the stored reference curve.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Absolute tolerance against the stored reference: the curves are
# deterministic, so this only absorbs summation-order drift in BLAS.
REFERENCE_TOLERANCE = 1e-9

HEADER = "strength,mean,std,k"


def parse_curve(text: str) -> tuple[dict | None, list[str]]:
    """Parse a curve CSV into {strengths, means, stds, k}."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return None, [f"curve CSV header is not {HEADER!r}"]
    curve = {"strengths": [], "means": [], "stds": [], "ks": []}
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            return None, [f"curve CSV line {n} has {len(parts)} fields"]
        try:
            curve["strengths"].append(float(parts[0]))
            curve["means"].append(float(parts[1]))
            curve["stds"].append(float(parts[2]))
            curve["ks"].append(int(parts[3]))
        except ValueError:
            return None, [f"curve CSV line {n} is not numeric"]
    return curve, []


def check_curve(curve: dict, lane: dict) -> list[str]:
    """Strengths, ``k``, value range and the lane invariant."""
    problems = []
    strengths, means, stds = curve["strengths"], curve["means"], curve["stds"]
    if strengths != [float(s) for s in lane["strengths"]]:
        problems.append(f"strengths {strengths} differ from the configured {lane['strengths']}")
        return problems
    if any(k != lane["k"] for k in curve["ks"]):
        problems.append(f"k is {sorted(set(curve['ks']))}, expected {lane['k']}")
    lo, hi = lane["range"]
    for s, m, sd in zip(strengths, means, stds):
        if not (math.isfinite(m) and lo <= m <= hi):
            problems.append(f"mean {m!r} at strength {s:g} outside [{lo}, {hi}]")
        if not (math.isfinite(sd) and sd >= 0.0):
            problems.append(f"std {sd!r} at strength {s:g} is not a finite nonnegative number")
    if problems:
        return problems
    return problems + INVARIANTS[lane["invariant"]](means)


def _spam_invariant(means: list[float]) -> list[str]:
    problems = []
    if any(b > a for a, b in zip(means, means[1:])):
        problems.append(f"evasion curve increases: {means}")
    if means[-1] != 0.0:
        problems.append(f"evasion curve does not reach 0 at the largest n_max: {means[-1]!r}")
    return problems


def _ids_invariant(means: list[float]) -> list[str]:
    problems = []
    if means[0] < 0.095:
        problems.append(f"clean auc10 {means[0]!r} is not near the clean detector's 0.1")
    if not means[-1] < means[0]:
        problems.append(f"poisoning does not lower auc10: {means[0]!r} -> {means[-1]!r}")
    return problems


def _bio_invariant(means: list[float]) -> list[str]:
    if means[-1] < means[0]:
        return [f"FAR at full spoofing {means[-1]!r} is below FAR without spoofing {means[0]!r}"]
    return []


INVARIANTS = {"spam": _spam_invariant, "ids": _ids_invariant, "bio": _bio_invariant}


def check_rocs(report: dict, lane: dict) -> list[str]:
    """Collected ROC curves: the configured keys, each a valid ROC polyline."""
    rocs = report.get("roc_curves", {})
    expected = sorted(f"strength_{float(s):g}" for s in lane["collect_roc"])
    if sorted(rocs) != expected:
        return [f"collected ROC curves {sorted(rocs)}, expected {expected}"]
    problems = []
    for name, c in rocs.items():
        fp, tp, th = c.get("fp", []), c.get("tp", []), c.get("thresholds", [])
        if not (len(fp) == len(tp) == len(th) >= 2):
            problems.append(f"ROC {name}: ragged or empty point lists")
            continue
        bad = (
            fp[0] != 0.0
            or fp[-1] != 1.0
            or tp[-1] != 1.0
            or th[0] != math.inf
            or any(b < a for a, b in zip(fp, fp[1:]))
            or any(b < a for a, b in zip(tp, tp[1:]))
            or any(not 0.0 <= v <= 1.0 for v in fp + tp)
            or any(b > a for a, b in zip(th, th[1:]))
        )
        if bad:
            problems.append(f"ROC {name} is not a monotone polyline from (0, tp0) to (1, 1)")
    return problems


def check_reference(curve: dict, workload: str, seed: int) -> list[str]:
    """At the reference seed, the curve matches the stored one."""
    refs = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    ref = refs.get(workload)
    if ref is None or ref["seed"] != seed:
        return []
    problems = []
    for key in ("strengths", "means", "stds"):
        got, want = curve[key], ref[key]
        if len(got) != len(want) or any(
            abs(g - w) > REFERENCE_TOLERANCE for g, w in zip(got, want)
        ):
            problems.append(f"{key} {got} differ from the reference {want} at seed {seed}")
    return problems


def check_output(out_dir: Path, lane: dict, workload: str, seed: int) -> tuple[str, list[str]]:
    """Check the curve CSV and report written to ``out_dir``; returns (csv text, problems)."""
    csvs = sorted(out_dir.glob("curve_*.csv"))
    reports = sorted(out_dir.glob("report_*.json"))
    if len(csvs) != 1 or len(reports) != 1:
        return "", [f"expected one curve CSV and one report in the output, found {len(csvs)} and {len(reports)}"]
    text = csvs[0].read_text(encoding="utf-8")
    curve, problems = parse_curve(text)
    if curve is None:
        return text, problems
    problems = check_curve(curve, lane)
    problems += check_rocs(json.loads(reports[0].read_text(encoding="utf-8")), lane)
    problems += check_reference(curve, workload, seed)
    return text, problems
