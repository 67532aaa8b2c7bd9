import dataclasses
import json
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from clfsec.attacks import GENERATORS
from clfsec.classifiers import CLASSIFIER_PARAMS, ClassifierConfig, decision_scores, train_classifier
from clfsec.cli import _ingest
from clfsec.config import (
    ConfigError,
    canned_config,
    classifier_from_config,
    load_report,
    parse_config,
    report_document,
    scenario_from_config,
)
from clfsec.data_model import Bootstrap, Chronological, CrossValidation, Dataset, FoldSet, Label, resample
from clfsec.evaluation import (
    Auc10,
    EvaluationReport,
    FarAtGar,
    RocCurve,
    SecurityCurve,
    SweepError,
    auc10,
    far_at_gar,
    roc,
    scenario_roc,
    security_sweep,
    select_svm_c,
)
from clfsec.synth import synthetic_ids_traffic, synthetic_spam_corpus

from canned import canned_scenario
from oracles import auc10_reference, far_at_gar_reference, security_sweep_reference

L, M = Label.LEGITIMATE, Label.MALICIOUS


class TestRoc:
    def test_perfect_ranking_passes_corner(self):
        curve = roc(np.array([3.0, 2.0, 1.0, 0.0]), [M, M, L, L])
        pts = set(zip(curve.fp.tolist(), curve.tp.tolist()))
        assert (0.0, 1.0) in pts and (1.0, 1.0) in pts

    def test_uninformative_scores_are_diagonal(self):
        curve = roc(np.array([0.5, 0.5, 0.5]), [M, L, L])
        np.testing.assert_array_equal(curve.fp, [0.0, 1.0])
        np.testing.assert_array_equal(curve.tp, [0.0, 1.0])

    def test_hand_enumerated_thresholds(self):
        # M scores {0.9, 0.7}, L scores {0.8, 0.1}: walking the 5 threshold
        # positions by hand gives TP(FP=0) = 0.5 and TP(FP=0.5) = 1.0
        curve = roc(np.array([0.9, 0.7, 0.8, 0.1]), [M, M, L, L])
        pts = list(zip(curve.fp.tolist(), curve.tp.tolist()))
        assert pts == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            roc(np.array([1.0, 2.0]), ["M", "X"])
        with pytest.raises(ValueError, match="0 .legitimate. or 1"):
            roc(np.array([1.0, 2.0]), np.array([1, 2]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="each class"):
            roc(np.array([1.0, 2.0]), [M, M])

    def test_endpoints_invariant(self, rng):
        scores = rng.normal(size=60)
        labels = [M if v else L for v in rng.random(60) < 0.4]
        if labels.count(M) in (0, 60):
            labels[0] = M if labels[0] is L else L
        curve = roc(scores, labels)
        assert curve.fp[0] == 0.0 and curve.tp[-1] == 1.0 and curve.fp[-1] == 1.0
        assert np.all(np.diff(curve.fp) >= 0)
        assert np.all((0 <= curve.fp) & (curve.fp <= 1))
        assert np.all((0 <= curve.tp) & (curve.tp <= 1))

    @given(seed=st.integers(0, 5000), kind=st.sampled_from(["affine", "exp", "cube"]))
    def test_invariance_under_increasing_transforms(self, seed, kind):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=40)
        labels = [M] * 15 + [L] * 25
        transform = {
            "affine": lambda s: 3.0 * s + 7.5,
            "exp": np.exp,
            "cube": lambda s: s**3,
        }[kind]
        a = roc(scores, labels)
        b = roc(transform(scores), labels)
        np.testing.assert_array_equal(a.fp, b.fp)
        np.testing.assert_array_equal(a.tp, b.tp)
        assert auc10(a) == auc10(b)
        assert far_at_gar(a, 0.7) == far_at_gar(b, 0.7)


class TestWeightedRoc:
    """``roc`` with multiplicities equals ``roc`` of the set that repeats each row that many times."""

    @staticmethod
    def _assert_same(got, want):
        for name in ("fp", "tp", "thresholds"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @given(
        seed=st.integers(0, 2**32 - 1),
        pool_size=st.integers(1, 40),
        n=st.integers(1, 60),
        levels=st.integers(1, 6),
        p_malicious=st.floats(0.0, 1.0),
    )
    def test_equals_materialized_set(self, seed, pool_size, n, levels, p_malicious):
        # few score levels give ties across labels; a pool larger than the draw leaves rows of count 0
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=pool_size).astype(float)
        codes = (rng.random(pool_size) < p_malicious).astype(np.uint8)
        rows = rng.integers(0, pool_size, size=n)  # the draw, in set order
        weights = np.bincount(rows, minlength=pool_size)
        order = np.argsort(-scores, kind="stable")  # a pool union sorted once, as the sweep passes it
        try:
            want = roc(scores[rows], codes[rows])
        except ValueError:
            for args in ((scores, codes, weights), (scores[order], codes[order], weights[order])):
                with pytest.raises(ValueError, match="each class"):
                    roc(*args)
            return
        self._assert_same(roc(scores, codes, weights), want)
        self._assert_same(roc(scores[order], codes[order], weights[order]), want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        levels=st.integers(1, 4),
        weighted=st.booleans(),
    )
    def test_sorted_scores_equal_shuffled(self, seed, n, levels, weighted):
        # non-increasing scores skip the sort; ties within and across labels, and +-inf
        rng = np.random.default_rng(seed)
        values = np.concatenate(([np.inf, -np.inf], np.arange(levels, dtype=float)))
        scores = np.sort(rng.choice(values, size=n))[::-1]
        codes = np.zeros(n, dtype=np.uint8)
        codes[rng.choice(n, size=rng.integers(1, n), replace=False)] = 1
        weights = rng.integers(1, 4, size=n) if weighted else None
        if weighted:
            weights[rng.random(n) < 0.3] = 0
            if not (0 < int(weights @ codes) < int(weights.sum())):
                return  # a class drawn 0 times: no ROC
        shuffle = rng.permutation(n)
        want = roc(scores[shuffle], codes[shuffle], None if weights is None else weights[shuffle])
        self._assert_same(roc(scores, codes, weights), want)

    def test_zero_weight_rows_leave_no_point(self):
        # the row scored 2.0 is never drawn: its tie block must not appear
        curve = roc(np.array([3.0, 2.0, 1.0]), [M, M, L], np.array([1, 0, 2]))
        self._assert_same(curve, roc(np.array([3.0, 1.0, 1.0]), [M, L, L]))
        assert curve.thresholds.tolist() == [np.inf, 3.0, 1.0]

    @pytest.mark.parametrize("weights", [np.array([1, -1]), np.array([1.0, 1.0]), np.array([1, 1, 1])])
    def test_weights_must_be_nonnegative_integers_per_row(self, weights):
        with pytest.raises(ValueError, match="one nonnegative integer per score"):
            roc(np.array([1.0, 2.0]), [M, L], weights)


class TestAuc10:
    @pytest.mark.parametrize(
        "fp, tp",
        [
            ([0.0, 0.05, 0.3, 1.0], [0.0, 0.4, 0.9, 1.0]),  # crosses FP = 0.1 inside a segment
            ([0.0, 0.0, 0.1, 0.5, 1.0], [0.0, 0.3, 0.6, 0.8, 1.0]),  # a point exactly at FP = 0.1
            ([0.0, 0.1, 0.1, 1.0], [0.0, 0.2, 0.7, 1.0]),  # a vertical step at FP = 0.1
            ([0.0, 0.02, 0.05], [0.0, 0.5, 0.6]),  # never reaches FP = 0.1
            ([0.0, 1.0], [0.0, 1.0]),  # one segment across the whole range
            ([0.0, 0.1], [0.0, 1.0]),  # ends exactly at FP = 0.1
        ],
    )
    def test_matches_segment_loop(self, fp, tp):
        curve = RocCurve(fp=np.array(fp), tp=np.array(tp), thresholds=np.zeros(len(fp)))
        assert auc10(curve) == auc10_reference(curve.fp, curve.tp)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 2000), levels=st.integers(1, 2000))
    def test_matches_segment_loop_on_random_curves(self, seed, n, levels):
        # up to hundreds of segments below FP = 0.1: a pairwise or blocked sum would round differently
        rng = np.random.default_rng(seed)
        labels = [M, L] + [M if v else L for v in rng.random(n - 2) < 0.3]
        curve = roc(rng.integers(0, levels, size=n).astype(float), labels)
        assert auc10(curve) == auc10_reference(curve.fp, curve.tp)

    def test_perfect_is_exactly_point_one(self):
        curve = roc(np.array([2.0, 1.5, 1.0, 0.5]), [M, M, L, L])
        assert auc10(curve) == 0.1

    def test_diagonal_is_half_percent(self):
        curve = roc(np.array([1.0, 1.0, 1.0, 1.0]), [M, M, L, L])
        assert auc10(curve) == pytest.approx(0.005, abs=1e-12)

    def test_worst_case_zero(self):
        curve = roc(np.array([0.0, 0.0, 1.0, 1.0]), [M, M, L, L])
        assert auc10(curve) == 0.0

    @given(seed=st.integers(0, 5000))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=30)
        labels = [M] * 10 + [L] * 20
        assert 0.0 <= auc10(roc(scores, labels)) <= 0.1


class TestFarAtGar:
    def test_perfect_curve(self):
        curve = roc(np.array([2.0, 1.5, 1.0, 0.5]), [M, M, L, L])
        assert far_at_gar(curve, 0.9).far == 0.0

    def test_diagonal_far_equals_gar(self):
        curve = roc(np.array([1.0] * 6), [M, M, M, L, L, L])
        assert far_at_gar(curve, 0.9).far == pytest.approx(0.9)

    def test_unreachable_flag(self):
        truncated = RocCurve(
            fp=np.array([0.0, 1.0]), tp=np.array([0.0, 0.5]), thresholds=np.array([np.inf, 0.0])
        )
        with pytest.warns(RuntimeWarning, match="unreachable"):
            result = far_at_gar(truncated, 0.9)
        assert result == (1.0, False)

    @given(
        seed=st.integers(0, 5000),
        n=st.integers(2, 60),
        levels=st.integers(1, 4),
        gar=st.sampled_from([0.5, 0.9, 0.99, 1.0]),
        keep=st.floats(0.0, 1.0),
    )
    def test_matches_point_by_point_reference(self, seed, n, levels, gar, keep):
        # few score levels give tied blocks; dropping a tail of points can
        # leave gar unreachable
        rng = np.random.default_rng(seed)
        labels = [M, L] + [M if v else L for v in rng.random(n - 2) < 0.5]
        full = roc(rng.integers(0, levels, size=n).astype(float), labels)
        cut = max(1, int(round(keep * len(full.fp))))
        curve = RocCurve(fp=full.fp[:cut], tp=full.tp[:cut], thresholds=full.thresholds[:cut])
        expected = far_at_gar_reference(curve.fp, curve.tp, gar)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert far_at_gar(curve, gar) == expected

    def test_gar_domain(self):
        curve = roc(np.array([1.0, 0.0]), [M, L])
        with pytest.raises(ValueError):
            far_at_gar(curve, 0.0)


class TestSecurityCurve:
    def test_csv_format(self):
        c = SecurityCurve("n_max", (0.0, 1.0), (0.1, 0.05), (0.0, 0.01), 3)
        text = c.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "strength,mean,std,k"
        assert lines[1] == "0.0,0.1,0.0,3"
        assert len(lines) == 3

    def test_report_round_trip(self, tmp_path):
        c = SecurityCurve("p_max", (0.0, 0.5), (0.1, 0.02), (0.0, 0.003), 5)
        rocs = {
            "strength_0": roc(np.array([0.9, 0.2, 0.2, -1.0]), [M, L, M, L]),
            "strength_0.5": roc(np.array([0.1, 0.3]), [L, M]),
        }
        rep = EvaluationReport(
            scenario="s", classifier="c", metric="auc10", folds=5, curve=c, seed=9,
            config={"version": 1, "evaluation": {"seed": 9}}, roc_curves=rocs,
            started_at="2026-01-02T03:04:05Z", elapsed_seconds=1.25,
        )
        assert all(r.thresholds[0] == np.inf for r in rocs.values())
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report_document(rep)), encoding="utf-8")
        rep2 = load_report(path)
        plain = [f.name for f in dataclasses.fields(EvaluationReport) if f.name != "roc_curves"]
        assert {name: getattr(rep2, name) for name in plain} == {name: getattr(rep, name) for name in plain}
        assert rep2.roc_curves.keys() == rocs.keys()
        for name, curve in rocs.items():
            for key in ("fp", "tp", "thresholds"):
                got = getattr(rep2.roc_curves[name], key)
                assert got.dtype == np.float64 and np.array_equal(got, getattr(curve, key)), (name, key)
        assert report_document(rep2) == report_document(rep)


class TestSecuritySweep:
    def _spam(self):
        corpus = synthetic_spam_corpus(seed=7, n=600, d=60)
        folds = resample(corpus, Chronological(300), seed=42)
        return corpus, folds

    def test_strength_zero_equals_plain_evaluation(self):
        corpus, folds = self._spam()
        scen = canned_scenario("spam_gwi_bwo", [0, 60])
        cfg = ClassifierConfig("linear_svm", {"c": 1.0})
        curve = security_sweep(folds, scen, cfg, [0, 2], Auc10(), seed=5)
        d_tr, d_ts = folds.pairs[0]
        from clfsec.rng import derive_subseed

        model = train_classifier(cfg, d_tr, seed=derive_subseed(5, "fold", 0, "rep", 0, "train"))
        plain = Auc10().compute(roc(decision_scores(model, d_ts.features), d_ts.label_codes))
        assert curve.means[0] == plain

    def test_strengths_must_include_zero(self):
        _, folds = self._spam()
        with pytest.raises(ValueError, match="include 0"):
            security_sweep(
                folds, canned_scenario("spam_gwi_bwo", [0, 60]), ClassifierConfig("linear_svm", {"c": 1.0}),
                [1, 2], Auc10(), seed=5,
            )

    def test_strengths_outside_declared_range_rejected(self):
        traffic = synthetic_ids_traffic(seed=5, n_train=60, n_test_legit=60, n_test_malicious=20)
        folds = resample(traffic, Chronological(60), seed=42)
        with pytest.raises(ValueError, match=r"outside the scenario's p_max range"):
            security_sweep(
                folds, canned_scenario("ids_poison"), ClassifierConfig("one_class_svm", {"nu": 0.1, "gamma": 0.5}),
                [0, 0.6], Auc10(), seed=5,
            )

    def test_deterministic_and_job_independent(self):
        traffic = synthetic_ids_traffic(seed=5, n_train=120, n_test_legit=120, n_test_malicious=40)
        folds = resample(traffic, Chronological(120), seed=42)
        cfg = ClassifierConfig("one_class_svm", {"nu": 0.1, "gamma": 0.5})
        kw = dict(strengths=[0, 0.1, 0.2], metric=Auc10(), seed=11, repetitions=2)
        a = security_sweep(folds, canned_scenario("ids_poison"), cfg, **kw)
        b = security_sweep(folds, canned_scenario("ids_poison"), cfg, **kw)
        assert a == b

    def test_single_item_std_is_zero(self):
        _, folds = self._spam()
        curve = security_sweep(
            folds, canned_scenario("spam_gwi_bwo", [0, 60]), ClassifierConfig("linear_svm", {"c": 1.0}),
            [0], Auc10(), seed=5,
        )
        assert curve.k == 1 and curve.stds == (0.0,)

    def test_gwi_curve_nonincreasing(self):
        _, folds = self._spam()
        curve = security_sweep(
            folds, canned_scenario("spam_gwi_bwo", [0, 60]), ClassifierConfig("linear_svm", {"c": 1.0}),
            [0, 1, 2, 4, 8, 16, 32, 60], Auc10(), seed=5,
        )
        assert all(a >= b - 1e-15 for a, b in zip(curve.means, curve.means[1:]))
        assert curve.means[-1] == 0.0  # full budget reaches the unconstrained minimum

    def test_spoof_far_increases(self):
        from clfsec.synth import synthetic_score_table

        table = synthetic_score_table(seed=11, n_genuine=200, n_impostor=800)
        folds = resample(table, CrossValidation(4), seed=42)
        curve = security_sweep(
            folds, canned_scenario("bio_spoof_fingerprint"), ClassifierConfig("gamma_fusion", {}),
            [0, 1], FarAtGar(0.9), seed=3,
        )
        assert curve.means[1] > curve.means[0]

    def test_error_annotated_with_fold_and_strength(self):
        _, folds = self._spam()
        untrainable = ClassifierConfig("linear_svm", {"c": -1.0})
        with pytest.raises(SweepError, match=r"fold 0, rep 0, strength 0: c_param and tolerance must be positive"):
            security_sweep(folds, canned_scenario("spam_gwi_bwo", [0, 60]), untrainable, [0], Auc10(), seed=5)
        broken = ClassifierConfig("one_class_svm", {"nu": 1e-9, "gamma": 0.5})
        traffic = synthetic_ids_traffic(seed=5, n_train=60, n_test_legit=60, n_test_malicious=20)
        ifolds = resample(traffic, Chronological(60), seed=42)
        with pytest.raises(SweepError, match=r"fold 0, rep 0, strength 0.2"):
            security_sweep(ifolds, canned_scenario("ids_poison"), broken, [0.2, 0], Auc10(), seed=5)

    def test_item_retrains_only_when_its_training_set_changes(self, monkeypatch):
        import clfsec.evaluation as evaluation

        traffic = synthetic_ids_traffic(seed=5, n_train=60, n_test_legit=60, n_test_malicious=20)
        folds = resample(traffic, Chronological(60), seed=42)
        fold = folds.pairs[0][0]
        on_fold = []
        train = evaluation.train_classifier

        def recorded(config, data, seed):
            on_fold.append(data is fold)
            return train(config, data, seed=seed)

        monkeypatch.setattr(evaluation, "train_classifier", recorded)
        # the poisoned fraction and the prior both follow the strength, so 0 leaves the fold untouched
        attack = canned_config("ids_poison")["attack"]
        attack["strategy"]["attacked_fraction"]["train"]["M"] = "strength"
        attack["strength"]["values"] = [0, 1]
        cfg = ClassifierConfig("one_class_svm", {"nu": 0.1, "gamma": 0.5})
        curve = security_sweep(folds, scenario_from_config(attack), cfg, [0, 1, 0, 0], Auc10(), seed=5)
        # the fold, then the poisoned set; both later 0s reuse the fold's model
        assert on_fold == [True, False]
        assert curve.means[0] == curve.means[2] == curve.means[3]

    @pytest.mark.parametrize("family, trainings", [("gamma_fusion", 5), ("logistic_regression", 15)])
    def test_fold_model_shared_unless_training_reads_the_seed(self, monkeypatch, family, trainings):
        import clfsec.evaluation as evaluation
        from clfsec.synth import synthetic_score_table

        if family == "gamma_fusion":
            data = synthetic_score_table(seed=11, n_genuine=60, n_impostor=140)
            scenario, strengths, metric = canned_scenario("bio_spoof_face"), [0, 0.5, 1], FarAtGar(0.9)
            config = ClassifierConfig(family, {})
        else:
            data = synthetic_spam_corpus(seed=7, n=200, d=40)
            scenario, strengths, metric = canned_scenario("spam_gwi_bwo", [0, 60]), [0, 2, 4], Auc10()
            config = ClassifierConfig(family, {"epochs": 3})
        folds = resample(data, CrossValidation(5), seed=3)
        trained = []
        train = evaluation.train_classifier

        def recorded(config, data, seed):
            trained.append(data)
            return train(config, data, seed=seed)

        monkeypatch.setattr(evaluation, "train_classifier", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underflowing fusion densities
            curve = security_sweep(folds, scenario, config, strengths, metric, seed=5, repetitions=3)
            means, stds, first_item = security_sweep_reference(folds, scenario, config, strengths, metric, 5, 3)
        # exploratory: each item trains on its untouched fold; an unseeded family once per fold
        assert len(trained) == trainings
        assert all(any(data is tr for tr, _ in folds.pairs) for data in trained)
        assert (curve.means, curve.stds) == (means, stds)
        for got, want in zip(curve.first_item, first_item):
            for name in ("fp", "tp", "thresholds"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_one_attacked_pool_at_a_time_and_each_row_scored_once(self, monkeypatch):
        import weakref

        import clfsec.evaluation as evaluation

        _, folds = self._spam()
        d_ts = folds.pairs[0][1]
        n_m = int(d_ts.label_codes.sum())
        built, scored = [], []
        build, score = evaluation.build_scenario_pools, evaluation.decision_scores

        def recorded_build(*args, **kwargs):
            # no pool of an earlier strength is alive when the next one is built
            assert [ref() for ref in built] == [None] * len(built)
            pools = build(*args, **kwargs)
            built.extend(weakref.ref(pool.features) for pool in pools.values())
            return pools

        def recorded_score(model, features):
            scored.append(len(features))
            return score(model, features)

        monkeypatch.setattr(evaluation, "build_scenario_pools", recorded_build)
        monkeypatch.setattr(evaluation, "decision_scores", recorded_score)
        scen = canned_scenario("spam_gwi_bwo", [0, 60])
        security_sweep(folds, scen, ClassifierConfig("linear_svm", {"c": 1.0}), [0, 2, 4, 6], Auc10(), seed=5)
        assert len(built) == 3
        # the fold at strength 0; then the legitimate slice once, and each strength's attacked pool
        assert scored == [len(d_ts), len(d_ts) - n_m, n_m, n_m, n_m]

    def test_gwi_bwo_attacks_one_malicious_slice_per_item(self, monkeypatch):
        import clfsec.attacks as attacks

        _, folds = self._spam()
        sources = []
        attack = attacks.gwi_bwo_pool

        def recorded_attack(source, model, n_max):
            sources.append(source)
            return attack(source, model, n_max)

        monkeypatch.setattr(attacks, "gwi_bwo_pool", recorded_attack)
        scen = canned_scenario("spam_gwi_bwo", [0, 60])
        security_sweep(folds, scen, ClassifierConfig("linear_svm", {"c": 1.0}), [0, 2, 4, 6], Auc10(), seed=5)
        # one restricted copy of the malicious testing rows, not one per strength
        assert len(sources) == 3
        assert all(source is sources[0] for source in sources)
        assert sources[0] == folds.pairs[0][1].restrict(M)

    @pytest.mark.parametrize(
        "name, strengths", [("ids_poison", [0, 0.5]), ("bio_spoof_fingerprint", [0, 1])]
    )
    def test_collected_roc_reproduces_sweep_value(self, name, strengths):
        run = parse_config(canned_config(name))
        data, _ = _ingest(run)
        folds = resample(data, run.resampling, seed=run.seed)
        folds = FoldSet(1, folds.pairs[:1])  # fold 0 alone, so the sweep value is item (0, 0)
        curve = security_sweep(folds, run.scenario, run.classifier, strengths, run.metric, seed=run.seed)
        rocs = scenario_roc(curve, strengths)
        if isinstance(run.metric, Auc10):
            from_roc = [auc10(c) for c in rocs]
        else:
            from_roc = [far_at_gar(c, run.metric.gar).far for c in rocs]
        assert from_roc == list(curve.means)

    def test_inconsistent_scenario_rejected(self):
        from clfsec.attacks import AttackScenario, Knowledge

        scen = canned_scenario("spam_gwi_bwo", [0, 60])
        blind = AttackScenario(
            name="blind", influence=scen.influence, violation=scen.violation,
            specificity=scen.specificity, knowledge=Knowledge(),
            capability=scen.capability, strategy=scen.strategy, strength=scen.strength,
        )
        _, folds = self._spam()
        with pytest.raises(ValueError, match="inconsistent scenario"):
            security_sweep(folds, blind, ClassifierConfig("linear_svm", {"c": 1.0}), [0], Auc10(), seed=5)


_CANNED_FOR_GENERATOR = {
    "gwi_bwo": "spam_gwi_bwo",
    "spoof_fingerprint": "bio_spoof_fingerprint",
    "spoof_face": "bio_spoof_face",
    "poison_injection": "ids_poison",
}
_TINY_PARAMS = {
    "linear_svm": {"c": 1.0},
    "logistic_regression": {"epochs": 3},
    "one_class_svm": {"nu": 0.2, "gamma": 1.0},
    "gamma_fusion": {},
}


def _tiny_design_set(binary: bool, seed: int, n_per_class: int = 20) -> Dataset:
    """Shuffled rows of both classes: 8 binary word features, or 2 positive matcher scores."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat([0, 1], n_per_class))
    if binary:
        p = np.where(y[:, None] == 1, np.linspace(0.7, 0.2, 8), np.linspace(0.2, 0.7, 8))
        X = (rng.random(p.shape) < p).astype(np.float64)
    else:
        X = np.where(y[:, None] == 1, rng.gamma(6.0, 0.05, (len(y), 2)), rng.gamma(18.0, 0.04, (len(y), 2)))
    return Dataset.from_arrays(X, y)


class TestSweepReferee:
    """``security_sweep`` equals the naive referee bit for bit: curve and first-item ROCs."""

    @pytest.mark.parametrize(
        "generator, family",
        [(g, f) for g in sorted(GENERATORS) for f in sorted(CLASSIFIER_PARAMS) if f in (GENERATORS[g].reads_model or (f,))],
    )
    @hypothesis.settings(max_examples=8)
    @given(
        fraction=st.sampled_from([0.5, 1.0, "strength"]),
        prior_override=st.sampled_from([None, 0.25, "strength"]),
        grid=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        zero_at=st.integers(0, 4),
        resampling=st.sampled_from([CrossValidation(2), CrossValidation(4), Bootstrap(3), Chronological(25)]),
        repetitions=st.integers(1, 2),
        far=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(
        fraction=1.0, prior_override="strength", grid=[2], zero_at=2,
        resampling=CrossValidation(2), repetitions=2, far=False, seed=0,
    )  # the grid (0, 0.5, 0), or (0, 2, 0) flips: repeated and unsorted
    @example(
        fraction="strength", prior_override=None, grid=[], zero_at=0,
        resampling=CrossValidation(4), repetitions=2, far=False, seed=3,
    )  # one strength, eight items
    def test_sweep_matches_reference(
        self, generator, family, fraction, prior_override, grid, zero_at, resampling, repetitions, far, seed
    ):
        attack = canned_config(_CANNED_FOR_GENERATOR[generator])["attack"]
        attack["strategy"]["attacked_fraction"] = {GENERATORS[generator].phase: {"M": fraction}}
        if generator != "poison_injection":
            prior_override = None  # only the causative scenario may override the prior
        elif prior_override == "strength" and family != "one_class_svm":
            prior_override = 0.25  # the prior 0 at strength 0 leaves one class to train on
        attack["strategy"]["prior_override"] = prior_override
        # grid steps are n_max counts for gwi_bwo, else steps of 0.25 within [0, 1]
        unit = 0.25 if "strength" in (fraction, prior_override) or generator != "gwi_bwo" else 1.0
        strengths = [v * unit for v in grid]
        strengths.insert(min(zero_at, len(strengths)), 0.0)
        attack["strength"]["values"] = strengths
        scenario = scenario_from_config(attack)
        folds = resample(_tiny_design_set(generator == "gwi_bwo", seed), resampling, seed=seed)
        config = ClassifierConfig(family, _TINY_PARAMS[family])
        metric = FarAtGar(0.9) if far else Auc10()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underflowing fusion densities, unreachable GAR
            try:
                curve = security_sweep(folds, scenario, config, strengths, metric, seed, repetitions)
            except SweepError as exc:  # a sampled training set that holds too few of a class
                with pytest.raises(type(exc.__cause__)):
                    security_sweep_reference(folds, scenario, config, strengths, metric, seed, repetitions)
                return
            means, stds, first_item = security_sweep_reference(
                folds, scenario, config, strengths, metric, seed, repetitions
            )
        assert (curve.means, curve.stds) == (means, stds)
        assert len(curve.first_item) == len(first_item) == len(strengths)
        for got, want in zip(curve.first_item, first_item):
            for name in ("fp", "tp", "thresholds"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestSweepVerdict:
    """``parse_config`` and ``security_sweep`` reject a sweep with the same problems, before any training."""

    @pytest.fixture
    def untrained_folds(self, monkeypatch):
        import clfsec.evaluation as evaluation

        def no_training(*args, **kwargs):
            raise AssertionError("a rejected sweep must not train")

        monkeypatch.setattr(evaluation, "train_classifier", no_training)
        return resample(synthetic_spam_corpus(seed=9, n=60, d=40), CrossValidation(2), seed=0)

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("spam_gwi_bwo", lambda c: c["attack"]["strength"].update(values=[1, 2]), "strength values must include 0"),
            ("ids_poison", lambda c: c["attack"]["strength"].update(hi=0.4), "strength values [0.5] outside the scenario's p_max range [0, 0.4]"),
            (
                "spam_gwi_bwo",
                lambda c: c["attack"]["knowledge"].update(parameters=False),
                "inconsistent scenario: generator gwi_bwo requires parameter knowledge (k.iv)",
            ),
            (
                "spam_gwi_bwo",
                lambda c: c.update(classifier={"family": "one_class_svm", "nu": 0.1, "gamma": 0.5}),
                "generator gwi_bwo reads the parameters of a linear_svm or logistic_regression model (k.iv), not of a one_class_svm",
            ),
        ],
        ids=["missing-zero", "out-of-range", "inconsistent", "family-mismatch"],
    )
    def test_parse_and_sweep_agree(self, name, edit, message, untrained_folds):
        cfg = canned_config(name)
        edit(cfg)
        with pytest.raises(ConfigError) as parsed:
            parse_config(cfg)
        with pytest.raises(ValueError) as swept:
            security_sweep(
                untrained_folds, scenario_from_config(cfg["attack"]), classifier_from_config(cfg["classifier"]),
                cfg["attack"]["strength"]["values"], Auc10(), seed=5,
            )
        assert message in parsed.value.problems
        assert message in str(swept.value).split("; ")
        assert set(str(swept.value).split("; ")) <= set(parsed.value.problems)


class TestSvmGridSelection:
    def test_returns_grid_member(self):
        corpus = synthetic_spam_corpus(seed=9, n=300, d=40)
        grid = [0.01, 0.1, 1.0]
        assert select_svm_c(corpus, grid, seed=1) in grid

    def test_tolerance_default_comes_from_the_table(self, monkeypatch):
        import clfsec.evaluation as evaluation
        from clfsec.classifiers import CLASSIFIER_PARAMS

        seen = []

        def fake_select(train, grid, seed, tolerance):
            seen.append(tolerance)
            return grid[-1]

        monkeypatch.setattr(evaluation, "select_svm_c", fake_select)
        monkeypatch.setitem(CLASSIFIER_PARAMS["linear_svm"], "tolerance", 1e-3)
        corpus = synthetic_spam_corpus(seed=9, n=60, d=40)
        grid_only = ClassifierConfig("linear_svm", {"c_grid": [0.1, 1.0]})
        assert evaluation._resolve_classifier(grid_only, corpus, 0).params == {"c": 1.0}
        assert seen == [1e-3]
        # a tolerance the config gives wins over the table's
        with_tolerance = ClassifierConfig("linear_svm", {"c_grid": [1.0], "tolerance": 1e-4})
        evaluation._resolve_classifier(with_tolerance, corpus, 0)
        assert seen == [1e-3, 1e-4]
