"""ROC metrics and security-evaluation sweeps.

A security evaluation measures a classifier's performance metric as a
function of attack strength, averaged over (fold, repetition) work items
of resampled (train, test) pairs.  Each piece of work runs once, at the
level it depends on.  A fold's repetitions share the model trained on
the untouched training fold, unless training reads the item's seed, with
its scores of the testing fold and of its label slices and its ROC where
neither phase is attacked; an exploratory sweep of an unseeded family so
trains once per fold.  An item's strengths share the sampler's streams.
A strength whose attack changes the training set trains on its own
draw.  Whether a scenario can be swept at all, and what an attack does
to a training or testing phase (left untouched, or its attacked pools,
distribution spec and set size), are decided in :mod:`.attacks`; this
module only draws the sets, trains and scores.

A sampled testing set is a draw over its pools (:class:`.data_model.Draw`)
and is never gathered: a sampled row's score is its pool row's score.
Each pool is scored with one ``decision_scores`` call per model, the
union of a set's pools is sorted once per model and set of pools, and the
ROC at each strength weights each pool row by how often the draw takes
it, which gives the ROC of the gathered set bit for bit.  The sweep keeps
the ROCs of work item (fold 0, repetition 0), which the reports read, so
each reported ROC comes from the model and testing set the sweep scored
at that strength; no item is run twice.

ROC curves are exact step/trapezoid constructions: samples tied on the
score move as one block, which makes every derived quantity invariant
under strictly increasing score transforms.

An evaluation's curve and ROCs are kept in an :class:`EvaluationReport`.
Its JSON document is declared, written and read in :mod:`.config`, next to
the config schema, so one reader reads every document clfsec reads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .attacks import (
    GENERATORS,
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
from .data_model import CrossValidation, Dataset, FoldSet, Label, encode_labels, resample, sample_dataset
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


def roc(scores, labels, weights=None) -> RocCurve:
    """Exact ROC from scores oriented larger = more malicious.

    Tied scores are grouped, so the curve walks one diagonal segment per
    tie block.  ``labels`` are ``Label`` members, their values or 0/1
    codes; anything else raises ``ValueError``.  ``weights``, when given,
    are nonnegative integer multiplicities: the curve is the one of the
    set that holds each row that many times, bit for bit (Fawcett 2006's
    tie-aware construction with counts), and a row of weight 0 is left
    out.  Scores already in non-increasing order, as the sweep passes a
    sorted union of pools, are taken as they are: a stable sort of them is
    the identity, so the sort and the gathers it would need are skipped.
    """
    scores = np.asarray(scores, dtype=np.float64)
    codes = encode_labels(labels)
    counts = None if weights is None else np.asarray(weights)
    if counts is not None:
        if counts.shape != scores.shape or counts.dtype.kind not in "iu" or np.any(counts < 0):
            raise ValueError("weights must be one nonnegative integer per score")
        drawn = np.flatnonzero(counts > 0)
        scores, codes, counts = scores[drawn], codes[drawn], counts[drawn]
    if not np.all(scores[1:] <= scores[:-1]):
        order = np.argsort(-scores, kind="stable")
        scores, codes = scores[order], codes[order]
        counts = None if counts is None else counts[order]
    # tie-block boundaries: last index of each run of equal scores (none without a score)
    block_end = np.flatnonzero(np.concatenate((scores[1:] != scores[:-1], [len(scores) > 0])))
    # the samples, and the malicious ones, up to the end of each tie block
    if counts is None:
        cum_n, cum_m = block_end + 1, np.cumsum(codes, dtype=np.int64)[block_end]
    else:
        cum_n, cum_m = np.cumsum(counts)[block_end], np.cumsum(counts * codes)[block_end]
    n_m, n = (int(cum_m[-1]), int(cum_n[-1])) if len(block_end) else (0, 0)
    n_l = n - n_m
    if n_m == 0 or n_l == 0:
        raise ValueError("ROC needs at least one sample of each class")
    cum_l = cum_n - cum_m
    fp = np.concatenate(([0.0], cum_l / n_l))
    tp = np.concatenate(([0.0], cum_m / n_m))
    thresholds = np.concatenate(([np.inf], scores[block_end]))
    return RocCurve(fp=fp, tp=tp, thresholds=thresholds)


def auc10(curve: RocCurve) -> float:
    """Area under the ROC polyline for false-positive rates in [0, 0.1].

    Trapezoidal within tie blocks; the step segment containing FP = 0.1 is
    cut by linear interpolation.  The value lives in [0, 0.1].  The
    segments below the limit are summed left to right (``np.cumsum``),
    then the cut one is added.
    """
    limit = 0.1
    f0, f1, t0, t1 = curve.fp[:-1], curve.fp[1:], curve.tp[:-1], curve.tp[1:]
    past = np.flatnonzero(~(f1 <= limit))
    k = past[0] if past.size else len(f1)  # the segments before the first one not ending within the limit
    area = np.cumsum(np.concatenate(([0.0], (f1[:k] - f0[:k]) * (t0[:k] + t1[:k]) / 2.0)))[-1]
    if k < len(f1) and f0[k] < limit:
        t_cut = t0[k] + (limit - f0[k]) / (f1[k] - f0[k]) * (t1[k] - t0[k])
        area += (limit - f0[k]) * (t0[k] + t_cut) / 2.0
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

    def compute(self, curve: RocCurve) -> float:
        return auc10(curve)


@dataclass(frozen=True)
class FarAtGar:
    gar: float
    worst = max

    @property
    def name(self) -> str:
        return f"far_at_gar_{self.gar:g}"

    def compute(self, curve: RocCurve) -> float:
        return far_at_gar(curve, self.gar).far


Metric = Union[Auc10, FarAtGar]


# ---------------------------------------------------------------------------
# curves and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecurityCurve:
    """Metric mean/std over folds, indexed by attack-strength values.

    ``first_item`` holds the ROC of work item (fold 0, repetition 0) at
    each strength; it is not part of the curve's value and is not
    serialized.
    """

    strength_name: str
    strengths: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    k: int
    first_item: tuple[RocCurve, ...] = field(default=(), compare=False, repr=False)

    def to_csv_text(self) -> str:
        lines = ["strength,mean,std,k"]
        for s, m, sd in zip(self.strengths, self.means, self.stds):
            lines.append(f"{s!r},{m!r},{sd!r},{self.k}")
        return "\n".join(lines) + "\n"


@dataclass
class EvaluationReport:
    """Self-describing record of one security evaluation, in memory; :mod:`.config` writes and reads its JSON."""

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
            vals.append(metric.compute(roc(decision_scores(model, va.features), va.label_codes)))
        v = float(np.mean(vals))
        if v > best_v:
            best_c, best_v = c, v
    return float(best_c)


class _Ranked(NamedTuple):
    """A testing set's pools under one model: each pool's scores, and their union sorted by decreasing score."""

    pools: tuple[Dataset, ...]
    pool_scores: tuple[np.ndarray, ...]
    order: np.ndarray  # sorts the pools' concatenated rows, stably
    scores: np.ndarray  # the concatenated scores, sorted
    labels: np.ndarray  # their label codes, in the same order


class _Fold:
    """One (training, testing) pair of the resampled design set, and what its work items share.

    The sweep makes one per fold and drops it when the fold's last
    repetition ends.  It holds the testing fold's label slices, built on
    first use, and the model trained on the untouched training fold when
    training reads no item seed (:attr:`.ClassifierConfig.reads_seed`).
    """

    def __init__(self, train: Dataset, test: Dataset):
        self.train, self.test = train, test
        self._slices: dict[Label, Dataset] | None = None
        self.model: _Model | None = None

    @property
    def slices(self) -> dict[Label, Dataset]:
        """The testing fold's label slices (:meth:`.Dataset.label_slices`)."""
        if self._slices is None:
            self._slices = self.test.label_slices()
        return self._slices

    def owns(self, pool: Dataset) -> bool:
        """Whether ``pool`` is the testing fold or one of its label slices."""
        return pool is self.test or (self._slices is not None and any(pool is s for s in self._slices.values()))


class _Model:
    """A trained classifier, with its scores of the testing fold's own pools and its ROC of the untouched fold.

    Each of the fold's own pools (:meth:`_Fold.owns`) is scored once, as
    a pool of its own: the scores of a slice taken from the fold's scores
    can differ from it in the last bit.  ``untouched`` is the ROC and
    metric value of the testing fold as it is, kept for the model trained
    on the untouched training fold: the same at every strength that leaves
    both phases untouched.
    """

    def __init__(self, trained):
        self.trained = trained
        self._kept: list[tuple[Dataset, np.ndarray]] = []
        self.untouched: tuple[RocCurve, float] | None = None

    def scores(self, pool: Dataset, keep: bool) -> np.ndarray:
        """The model's scores of ``pool``; kept for the next call when ``keep``."""
        for kept, scores in self._kept:
            if kept is pool:
                return scores
        scores = decision_scores(self.trained, pool.features)
        if keep:
            self._kept.append((pool, scores))
        return scores


def _rank(fold: _Fold, model: _Model, pools: tuple[Dataset, ...], last: _Ranked | None) -> _Ranked:
    """Score and sort ``pools`` under ``model``; reuses ``last`` (same model) for the pools it holds."""
    if last is not None and len(last.pools) == len(pools) and all(a is b for a, b in zip(last.pools, pools)):
        return last
    # ids are safe keys: ``last`` keeps its pools alive
    known = {} if last is None else {id(p): sc for p, sc in zip(last.pools, last.pool_scores)}
    pool_scores = tuple(known[id(p)] if id(p) in known else model.scores(p, fold.owns(p)) for p in pools)
    scores = np.concatenate(pool_scores)
    order = np.argsort(-scores, kind="stable")
    labels = np.concatenate([p.label_codes for p in pools])
    return _Ranked(pools, pool_scores, order, scores[order], labels[order])


def _evaluate_item(
    fold: _Fold,
    scenario: AttackScenario,
    classifier_config: ClassifierConfig,
    strengths: Sequence[float],
    metric: Metric,
    seed: int,
    fi: int,
    rep: int,
) -> Iterator[tuple[RocCurve, float]]:
    """The testing ROC of one (fold, repetition) at each strength, and its metric, in order.

    A generator: its caller reads each ROC before the next strength runs,
    so an item holds one ROC at a time.

    At each strength the scenario decides what happens to each phase
    (:mod:`.attacks`): a phase it leaves untouched uses the resampled set
    directly, so the strength-0 entry coincides with classical performance
    evaluation; otherwise the phase's set is drawn from its attacked pools
    and the label slices of its resampled set, with the size the
    scenario's spec gives, and this function only draws it.

    Each piece of work runs once, at the level it depends on:

    * per fold (:class:`_Fold`), shared by its repetitions: the testing
      fold's label slices and, when training reads no item seed, the
      model trained on the untouched training fold, its scores of the
      testing fold and of each slice, and its ROC and metric where both
      phases are untouched (:class:`_Model`);
    * per item, shared by its strengths: a seeded family's model on the
      untouched fold, kept across strengths that train on a draw; the
      testing fold's attacked pools when the generator is
      strength-invariant; and the sampler's streams and class and flag
      uniforms, as every strength draws with the item's seeds
      (:func:`.data_model.sample_dataset`);
    * per strength: a training draw and its model, and the testing draw.

    A training draw is gathered and trained on, and its pools are dropped
    before training, as holding them would raise peak memory.  A testing
    draw is not gathered: each pool is scored once per model, the union
    of a draw's pools is sorted once per model and set of pools, and the
    ROC weights each pool row by how often the draw takes it.  When the
    generator's pool depends on the strength, no reference to one
    strength's attacked pool is held while the next strength's is built,
    so an item holds one at a time.
    """
    d_tr, d_ts = fold.train, fold.test

    @cache
    def item_seed(use: str) -> int:
        """The item's seed for ``use``: ``"tr"``, ``"ts"``, ``"pools"`` or ``"train"`` (:mod:`.rng`)."""
        return derive_subseed(seed, "fold", fi, "rep", rep, use)

    invariant = GENERATORS[scenario.strategy.generator].strength_invariant
    test_attacked = {}  # the testing fold's attacked pools, kept across strengths when invariant

    def training_set(s: float) -> Dataset:
        if scenario.untouched("train", s, d_tr):
            return d_tr
        attacked = build_scenario_pools(scenario, "train", fold.slices, None, s, item_seed("pools"))
        spec, n = scenario_distribution_specs(scenario, "train", s, d_tr.label_slices(), attacked)
        return sample_dataset(spec, n, item_seed("tr")).gather()

    def testing_draw(s: float, model):
        """The testing draw at this strength, or None when the fold is tested as it is."""
        nonlocal test_attacked
        if scenario.untouched("test", s, d_ts):
            return None
        attacked = test_attacked or build_scenario_pools(scenario, "test", fold.slices, model, s, item_seed("pools"))
        if invariant:
            test_attacked = attacked  # an empty one is built again at the next strength
        spec, n = scenario_distribution_specs(scenario, "test", s, fold.slices, attacked)
        return sample_dataset(spec, n, item_seed("ts"))

    def train(tr: Dataset) -> _Model:
        train_seed = item_seed("train")
        return _Model(train_classifier(_resolve_classifier(classifier_config, tr, train_seed), tr, seed=train_seed))

    on_fold = fold.model  # the model trained on the untouched training fold
    model = None
    ranked = None  # the last testing set's pools, scored and sorted under ``model``
    for s in strengths:
        try:
            tr = training_set(s)
            if tr is not d_tr or on_fold is None:  # a drawn training set is new at every strength
                ranked = model = None  # not held while the next model trains: it would raise peak memory
                model = train(tr)
                if tr is d_tr:
                    on_fold = model
                    if not classifier_config.reads_seed:
                        fold.model = model
            elif model is not on_fold:
                ranked, model = None, on_fold
            del tr  # not held while the testing set is scored: it would raise peak memory
            if not invariant:
                ranked = None  # this strength builds its own attacked pool: the last one is not held meanwhile
            ts = testing_draw(s, model.trained)
            if ts is None and model.untouched is not None:
                curve, value = model.untouched
            else:
                pools, weights = ((d_ts,), None) if ts is None else ts.multiplicities()
                ranked = _rank(fold, model, pools, ranked)
                curve = roc(ranked.scores, ranked.labels, None if weights is None else weights[ranked.order])
                value = metric.compute(curve)
                if ts is None and model is on_fold:  # the one model tested at more than one strength
                    model.untouched = (curve, value)
                del pools, weights
            del ts  # with ``ranked``, the only holders of this strength's pools
        except Exception as exc:
            raise SweepError(f"fold {fi}, rep {rep}, strength {s:g}: {exc}") from exc
        yield curve, value


def security_sweep(
    folds: FoldSet,
    scenario: AttackScenario,
    classifier_config: ClassifierConfig,
    strengths: Sequence[float],
    metric: Metric,
    seed: int,
    repetitions: int = 1,
) -> SecurityCurve:
    """Measure the metric at each attack strength, averaged over folds.

    Every (fold, repetition) work item is evaluated at each strength by
    :func:`_evaluate_item`, one item after another in item order (fold by
    fold, repetitions within a fold), on the calling thread.  What a
    fold's repetitions share is kept until its last one ends.  The ROCs
    of item (fold 0, repetition 0) are kept on the returned curve, where
    :func:`scenario_roc` reads them.  A sweep that
    :func:`.attacks.sweep_problems` rejects raises ``ValueError`` listing
    every problem before any item runs.
    """
    strengths = [float(s) for s in strengths]
    problems = sweep_problems(scenario, strengths, classifier_config.family)
    if problems:
        raise ValueError("; ".join(problems))
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    rows, first_item = [], []  # rows: each item's metric values, by strength
    for fi in range(folds.k):
        fold = _Fold(*folds.pairs[fi])
        for rep in range(repetitions):
            row = []
            for curve, value in _evaluate_item(fold, scenario, classifier_config, strengths, metric, seed, fi, rep):
                if (fi, rep) == (0, 0):
                    first_item.append(curve)
                row.append(value)
            rows.append(row)
    values = np.array(rows)

    # summed row by row in item order: numpy sums a lone column pairwise, which
    # would make a strength's value depend on how many strengths are swept
    means = sum(values) / len(rows)
    stds = np.sqrt(sum((values - means) ** 2) / (len(rows) - 1)) if len(rows) > 1 else np.zeros(len(strengths))
    return SecurityCurve(
        strength_name=scenario.strength.name,
        strengths=tuple(strengths),
        means=tuple(float(v) for v in means),
        stds=tuple(float(v) for v in stds),
        k=len(rows),
        first_item=tuple(first_item),
    )


def scenario_roc(curve: SecurityCurve, strengths: Sequence[float]) -> list[RocCurve]:
    """ROC of fold 0 / repetition 0 at each strength (plot-ready report data).

    The ROCs the sweep itself kept for that item, so each curve comes from
    the model and testing set that produced the sweep's value at that
    strength.  Every strength must be one the sweep ran.
    """
    return [curve.first_item[curve.strengths.index(float(s))] for s in strengths]
