"""ROC metrics and security-evaluation sweeps.

A security evaluation measures a classifier's performance metric as a
function of attack strength, averaged over resampled (train, test) pairs.
An item retrains only when its training set changes: an exploratory
scenario leaves the training fold untouched, so each item trains once,
while a causative one retrains at each strength whose attack changes the
training set.  Whether a scenario can be swept at all, and what an attack
does to a training or testing phase (left untouched, or its attacked
pools, distribution spec and set size), are decided in :mod:`.attacks`;
this module only samples the sets, trains and scores.  The sweep keeps the
scores of work item (fold 0, repetition 0), and the reports' ROCs are
built from them, so each reported ROC comes from the model and testing
set the sweep scored at that strength; no item is run twice.

ROC curves are exact step/trapezoid constructions: samples tied on the
score move as one block, which makes every derived quantity invariant
under strictly increasing score transforms.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .attacks import (
    AttackScenario,
    build_scenario_pools,
    scenario_distribution_specs,
    sweep_problems,
)
from .classifiers import (
    CLASSIFIER_PARAMS,
    ClassifierConfig,
    decision_scores,
    train_classifier,
    train_linear_svm,
)
from .data_model import CrossValidation, Dataset, FoldSet, encode_labels, resample, sample_dataset
from .rng import derive_subseed

__all__ = [
    "RocCurve",
    "FarAtGarResult",
    "SecurityCurve",
    "EvaluationReport",
    "Auc10",
    "FarAtGar",
    "roc",
    "auc10",
    "far_at_gar",
    "security_sweep",
    "select_svm_c",
    "SweepError",
]


@dataclass(frozen=True)
class RocCurve:
    """Ordered ROC points; ``fp`` nondecreasing, endpoints (0, tp0) and (1, 1).

    ``thresholds[i]`` is the score at which point ``i`` is reached when
    classifying ``score >= threshold`` as malicious (the first point pairs
    with +inf).  In biometric fusion the coordinates read (FAR, GAR).
    """

    fp: np.ndarray
    tp: np.ndarray
    thresholds: np.ndarray


class FarAtGarResult(NamedTuple):
    far: float
    reachable: bool


def roc(scores, labels) -> RocCurve:
    """Exact ROC from scores oriented larger = more malicious.

    Tied scores are grouped, so the curve walks one diagonal segment per
    tie block.  ``labels`` are ``Label`` members, their values or 0/1
    codes; anything else raises ``ValueError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    codes = encode_labels(labels)
    n_m = int(codes.sum())
    n_l = int(len(codes) - n_m)
    if n_m == 0 or n_l == 0:
        raise ValueError("ROC needs at least one sample of each class")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    c = codes[order]
    # tie-block boundaries: last index of each run of equal scores
    block_end = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    cum_m = np.cumsum(c)[block_end]
    cum_l = (block_end + 1) - cum_m
    fp = np.r_[0.0, cum_l / n_l]
    tp = np.r_[0.0, cum_m / n_m]
    thresholds = np.r_[np.inf, s[block_end]]
    return RocCurve(fp=fp, tp=tp, thresholds=thresholds)


def auc10(curve: RocCurve) -> float:
    """Area under the ROC polyline for false-positive rates in [0, 0.1].

    Trapezoidal within tie blocks; the step segment containing FP = 0.1 is
    cut by linear interpolation.  The value lives in [0, 0.1].
    """
    limit = 0.1
    area = 0.0
    fp, tp = curve.fp, curve.tp
    for i in range(1, len(fp)):
        f0, f1, t0, t1 = fp[i - 1], fp[i], tp[i - 1], tp[i]
        if f1 <= limit:
            area += (f1 - f0) * (t0 + t1) / 2.0
            continue
        if f0 < limit:
            t_cut = t0 + (limit - f0) / (f1 - f0) * (t1 - t0)
            area += (limit - f0) * (t0 + t_cut) / 2.0
        break
    return float(area)


def far_at_gar(curve: RocCurve, gar: float) -> FarAtGarResult:
    """Smallest FAR on the curve whose GAR reaches the requested level."""
    if not 0.0 < gar <= 1.0:
        raise ValueError("gar must be in (0, 1]")
    fp, tp = curve.fp, curve.tp
    i = int(np.argmax(tp >= gar))  # the first point reaching gar; 0 when none does
    if tp[i] < gar:
        warnings.warn(f"GAR {gar} unreachable on this curve", RuntimeWarning, stacklevel=2)
        return FarAtGarResult(1.0, False)
    if i == 0 or fp[i] == fp[i - 1] or tp[i] == tp[i - 1]:
        return FarAtGarResult(float(fp[i]), True)
    frac = (gar - tp[i - 1]) / (tp[i] - tp[i - 1])
    return FarAtGarResult(float(fp[i - 1] + frac * (fp[i] - fp[i - 1])), True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Auc10:
    name = "auc10"
    # lower values mean a more successful attack
    worst = min

    def compute(self, scores: np.ndarray, label_codes: np.ndarray) -> float:
        return auc10(roc(scores, label_codes))


@dataclass(frozen=True)
class FarAtGar:
    gar: float
    worst = max

    @property
    def name(self) -> str:
        return f"far_at_gar_{self.gar:g}"

    def compute(self, scores: np.ndarray, label_codes: np.ndarray) -> float:
        return far_at_gar(roc(scores, label_codes), self.gar).far


Metric = Union[Auc10, FarAtGar]


# ---------------------------------------------------------------------------
# curves and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecurityCurve:
    """Metric mean/std over folds, indexed by attack-strength values.

    ``first_item`` holds the ``(scores, label_codes)`` that work item
    (fold 0, repetition 0) produced at each strength; it is not part of
    the curve's value and is not serialized.
    """

    strength_name: str
    strengths: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    k: int
    first_item: tuple[tuple[np.ndarray, np.ndarray], ...] = field(default=(), compare=False, repr=False)

    def to_csv_text(self) -> str:
        lines = ["strength,mean,std,k"]
        for s, m, sd in zip(self.strengths, self.means, self.stds):
            lines.append(f"{s!r},{m!r},{sd!r},{self.k}")
        return "\n".join(lines) + "\n"


@dataclass
class EvaluationReport:
    """Self-describing record of one security evaluation."""

    scenario: str
    classifier: str
    metric: str
    folds: int
    curve: SecurityCurve
    config: Mapping | None = None
    seed: int | None = None
    roc_curves: dict[str, RocCurve] = field(default_factory=dict)
    started_at: str = ""
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "format": "clfsec-report",
            "version": 1,
            "scenario": self.scenario,
            "classifier": self.classifier,
            "metric": self.metric,
            "folds": self.folds,
            "seed": self.seed,
            "config": dict(self.config) if self.config is not None else None,
            "curve": {
                "strength_name": self.curve.strength_name,
                "strengths": list(self.curve.strengths),
                "means": list(self.curve.means),
                "stds": list(self.curve.stds),
                "k": self.curve.k,
            },
            "roc_curves": {
                name: {"fp": c.fp.tolist(), "tp": c.tp.tolist(), "thresholds": c.thresholds.tolist()}
                for name, c in self.roc_curves.items()
            },
            "started_at": self.started_at,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "EvaluationReport":
        if not isinstance(doc, Mapping) or doc.get("format") != "clfsec-report" or doc.get("version") != 1:
            raise ValueError("unrecognized report document")
        cur = doc["curve"]
        return cls(
            scenario=doc["scenario"],
            classifier=doc["classifier"],
            metric=doc["metric"],
            folds=doc["folds"],
            seed=doc.get("seed"),
            config=doc.get("config"),
            curve=SecurityCurve(
                strength_name=cur["strength_name"],
                strengths=tuple(cur["strengths"]),
                means=tuple(cur["means"]),
                stds=tuple(cur["stds"]),
                k=cur["k"],
            ),
            roc_curves={
                name: RocCurve(
                    fp=np.array(c["fp"]), tp=np.array(c["tp"]), thresholds=np.array(c["thresholds"])
                )
                for name, c in doc.get("roc_curves", {}).items()
            },
            started_at=doc.get("started_at", ""),
            elapsed_seconds=doc.get("elapsed_seconds", 0.0),
        )


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


class SweepError(RuntimeError):
    pass


def _resolve_classifier(config: ClassifierConfig, train: Dataset, seed: int) -> ClassifierConfig:
    """Replace a C grid with the cross-validated choice on this training set."""
    if config.family == "linear_svm" and "c_grid" in config.params:
        params = dict(config.params)
        grid = params.pop("c_grid")
        tolerance = params.get("tolerance", CLASSIFIER_PARAMS["linear_svm"]["tolerance"])
        params["c"] = select_svm_c(train, grid, seed=seed, tolerance=tolerance)
        return ClassifierConfig(config.family, params)
    return config


def select_svm_c(
    train: Dataset,
    grid: Sequence[float],
    seed: int = 0,
    folds: int = 5,
    tolerance: float = 1e-6,
) -> float:
    """Pick the SVM C maximizing cross-validated partial AUC on the training set."""
    fold_set = resample(train, CrossValidation(folds), seed=derive_subseed(seed, "cgrid-folds"))
    metric = Auc10()
    best_c, best_v = None, -np.inf
    for c in grid:
        vals = []
        for tr, va in fold_set.pairs:
            model = train_linear_svm(tr, c_param=c, tolerance=tolerance)
            vals.append(metric.compute(decision_scores(model, va.features), va.label_codes))
        v = float(np.mean(vals))
        if v > best_v:
            best_c, best_v = c, v
    return float(best_c)


def _evaluate_item(
    folds: FoldSet,
    scenario: AttackScenario,
    classifier_config: ClassifierConfig,
    strengths: Sequence[float],
    seed: int,
    fi: int,
    rep: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scores and label codes of one (fold, repetition) at each strength.

    At each strength, builds the training and testing sets, trains and
    scores the testing set.  The scenario decides what happens to each
    phase (:mod:`.attacks`): a phase it leaves untouched uses the resampled
    set directly, so the strength-0 entry coincides with classical
    performance evaluation; otherwise its attacked pools and distribution
    spec give the set size, and this function only samples the set.  The
    model is retrained only when the training set changes: the untouched
    fold is the same set at every strength, while a sampled set is new, so
    an item of an exploratory scenario trains once.
    """
    d_tr, d_ts = folds.pairs[fi]
    tr_seed = derive_subseed(seed, "fold", fi, "rep", rep, "tr")
    ts_seed = derive_subseed(seed, "fold", fi, "rep", rep, "ts")
    pools_seed = derive_subseed(seed, "fold", fi, "rep", rep, "pools")
    train_seed = derive_subseed(seed, "fold", fi, "rep", rep, "train")

    def attacked_set(phase: str, s: float, src: Dataset, model, set_seed: int) -> Dataset:
        if scenario.untouched(phase, s, src):
            return src
        attacked = build_scenario_pools(scenario, phase, d_ts, model, s, pools_seed)
        spec, n = scenario_distribution_specs(scenario, phase, s, src, attacked)
        return sample_dataset(spec, n, set_seed)

    def train(tr: Dataset):
        return train_classifier(_resolve_classifier(classifier_config, tr, train_seed), tr, seed=train_seed)

    model, on_fold = None, False  # on_fold: the model was trained on the untouched fold
    out = []
    for s in strengths:
        try:
            tr = attacked_set("train", s, d_tr, None, tr_seed)
            if not (on_fold and tr is d_tr):  # a sampled training set is new at every strength
                model, on_fold = train(tr), tr is d_tr
            del tr  # not held while the testing set is built and scored: it would raise peak memory
            ts = attacked_set("test", s, d_ts, model, ts_seed)
            out.append((decision_scores(model, ts.features), ts.label_codes))
            del ts  # likewise not held while the next strength's testing set is built
        except Exception as exc:
            raise SweepError(f"fold {fi}, rep {rep}, strength {s:g}: {exc}") from exc
    return out


def security_sweep(
    folds: FoldSet,
    scenario: AttackScenario,
    classifier_config: ClassifierConfig,
    strengths: Sequence[float],
    metric: Metric,
    seed: int,
    repetitions: int = 1,
    jobs: int = 1,
) -> SecurityCurve:
    """Measure the metric at each attack strength, averaged over folds.

    Every (fold, repetition) work item is evaluated at each strength by
    :func:`_evaluate_item`.  The scores of item (fold 0, repetition 0) are
    kept on the returned curve, where :func:`scenario_roc` reads them.
    A sweep that :func:`.attacks.sweep_problems` rejects raises
    ``ValueError`` listing every problem before any item runs.

    Work items are independent; ``jobs`` bounds concurrency and never
    changes the result (values land in a preallocated array and are
    aggregated in item order, so a strength's mean and ddof=1 standard
    deviation do not depend on the other strengths swept).
    """
    strengths = [float(s) for s in strengths]
    problems = sweep_problems(scenario, strengths, classifier_config.family)
    if problems:
        raise ValueError("; ".join(problems))
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    items = [(fi, rep) for fi in range(folds.k) for rep in range(repetitions)]
    values = np.zeros((len(items), len(strengths)))
    first_item: list[tuple[np.ndarray, np.ndarray]] = []

    def run_item(item_index: int) -> None:
        fi, rep = items[item_index]
        scored = _evaluate_item(folds, scenario, classifier_config, strengths, seed, fi, rep)
        if item_index == 0:
            first_item.extend(scored)
        for si, (s, (scores, codes)) in enumerate(zip(strengths, scored)):
            try:
                values[item_index, si] = metric.compute(scores, codes)
            except Exception as exc:
                raise SweepError(f"fold {fi}, rep {rep}, strength {s:g}: {exc}") from exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run_item, range(len(items))))
    else:
        for idx in range(len(items)):
            run_item(idx)

    # summed row by row in item order: numpy sums a lone column pairwise, which
    # would make a strength's value depend on how many strengths are swept
    means = sum(values) / len(items)
    stds = np.sqrt(sum((values - means) ** 2) / (len(items) - 1)) if len(items) > 1 else np.zeros(len(strengths))
    return SecurityCurve(
        strength_name=scenario.strength.name,
        strengths=tuple(strengths),
        means=tuple(float(v) for v in means),
        stds=tuple(float(v) for v in stds),
        k=len(items),
        first_item=tuple(first_item),
    )


def scenario_roc(curve: SecurityCurve, strengths: Sequence[float]) -> list[RocCurve]:
    """ROC of fold 0 / repetition 0 at each strength (plot-ready report data).

    Built from the scores the sweep itself kept for that item, so each
    curve comes from the model and testing set that produced the sweep's
    value at that strength.  Every strength must be one the sweep ran.
    """
    return [roc(*curve.first_item[curve.strengths.index(float(s))]) for s in strengths]
