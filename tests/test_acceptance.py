"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -v -s`` to see them).

The two real-data checks are optional and skip unless the corpora are
supplied through environment variables (see their docstrings).
"""

import os
import time

import numpy as np
import pytest

from clfsec.attacks import Trait, build_spoof_pool, gwi_bwo_pool
from clfsec.classifiers import (
    ClassifierConfig,
    LinearModel,
    decision_scores,
    fit_gamma_product,
    logistic_loss_gradient,
    rbf_kernel,
    train_classifier,
    train_linear_svm,
    train_one_class_svm,
)
from clfsec.cli import main
from clfsec.data_model import (
    Chronological,
    CrossValidation,
    Dataset,
    DistributionSpec,
    Label,
    resample,
    sample_dataset,
)
from clfsec.evaluation import Auc10, FarAtGar, auc10, far_at_gar, roc, security_sweep
from clfsec.rng import derive_rng
from clfsec.synth import synthetic_ids_traffic, synthetic_score_table, synthetic_spam_corpus

from canned import canned_scenario
from oracles import (
    hamming_ball_minimum,
    one_class_dual_oracle,
    one_class_kkt_residual,
    svm_dual_oracle,
    svm_kkt_residual,
)

L, M = Label.LEGITIMATE, Label.MALICIOUS


class _Timer:
    def __init__(self, criterion: str, budget_seconds: float):
        self.criterion = criterion
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.criterion}: {status} ({elapsed:.2f}s, budget {self.budget:g}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.criterion} exceeded its {self.budget}s budget"
        return False


def test_criterion_01_greedy_attack_optimality():
    with _Timer("1 greedy attack exhaustive optimality", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            d = int(rng.integers(1, 13))
            n_max = int(rng.integers(0, d + 1))
            w = np.round(rng.normal(size=d), 6)
            bias = float(np.round(rng.normal(), 6))
            x = (rng.random(d) < 0.5).astype(float)
            model = LinearModel(w, bias)
            attacked = gwi_bwo_pool(Dataset.from_arrays(x[None, :], [M]), model, n_max).features[0]
            achieved = float(w @ attacked + bias)
            assert achieved == pytest.approx(
                hamming_ball_minimum(x, w, bias, n_max), abs=1e-12
            )


def test_criterion_02_sampler_fidelity():
    with _Timer("2 sampler cell frequencies vs factorized law", 5.0):
        from clfsec.data_model import AttackFlag

        rng = np.random.default_rng(0)
        src = Dataset.from_arrays(rng.normal(size=(80, 3)), [L] * 40 + [M] * 40)
        prior, p_l, p_m = 0.35, 0.15, 0.8
        spec = DistributionSpec(
            prior_malicious=prior,
            attack_prob={L: p_l, M: p_m},
            components={
                (lab, flag): src.restrict(label=lab)
                for lab in (L, M)
                for flag in (AttackFlag.CLEAN, AttackFlag.ATTACKED)
            },
        )
        n = 100_000
        out = sample_dataset(spec, n, seed=777)
        expect = {
            (0, 0): (1 - prior) * (1 - p_l),
            (0, 1): (1 - prior) * p_l,
            (1, 0): prior * (1 - p_m),
            (1, 1): prior * p_m,
        }
        for (lc, fc), p in expect.items():
            count = int(np.sum((out.label_codes == lc) & (out.flag_codes == fc)))
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(count - n * p) <= 4 * sigma, ((lc, fc), count, n * p)


def test_criterion_03_svm_duals_match_qp_oracle():
    with _Timer("3 SVM / one-class-SVM duals vs projected-gradient oracle", 60.0):
        rng = np.random.default_rng(9)
        for trial in range(10):  # soft-margin SVM instances
            n = int(rng.integers(10, 31))
            d = int(rng.integers(2, 6))
            c = float(rng.choice([0.5, 1.0, 5.0]))
            X = rng.normal(size=(n, d))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            if abs(y.sum()) == n:
                y[0] = -y[0]
            ds = Dataset.from_arrays(X, [M if v > 0 else L for v in y])
            model, alpha = train_linear_svm(ds, c_param=c, tolerance=1e-8, with_dual=True)
            w = model.weights
            dual_mine = alpha.sum() - 0.5 * float(w @ w)
            _, dual_oracle = svm_dual_oracle(X, y, c)
            assert abs(dual_mine - dual_oracle) <= 1e-4 * (1 + abs(dual_oracle))
            assert svm_kkt_residual(X, y, alpha, w, model.bias, c) <= 1e-6
        for trial in range(10):  # one-class instances
            n = int(rng.integers(10, 31))
            nu = float(rng.choice([0.2, 0.4]))
            gamma = float(rng.choice([0.3, 1.0]))
            X = rng.normal(size=(n, 3))
            ds = Dataset.from_arrays(X, [L] * n)
            m = train_one_class_svm(ds, nu=nu, gamma=gamma, tolerance=1e-8)
            alpha = np.zeros(n)
            for sv, a in zip(m.support_vectors, m.dual_coefficients):
                alpha[np.flatnonzero((X == sv).all(axis=1))[0]] = a
            K = rbf_kernel(X, X, gamma)
            obj_mine = 0.5 * float(alpha @ K @ alpha)
            _, obj_oracle = one_class_dual_oracle(K, nu)
            assert abs(obj_mine - obj_oracle) <= 1e-4 * (1 + abs(obj_oracle))
            assert one_class_kkt_residual(K, alpha, m.offset, 1 / (nu * n)) <= 1e-6


def test_criterion_04_lr_gradient_check():
    with _Timer("4 logistic-loss gradient vs central differences", 5.0):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 6))
        z = np.where(rng.random(25) < 0.5, 1.0, -1.0)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            w = rng.normal(size=6)
            b = float(rng.normal())
            _, gw, gb = logistic_loss_gradient(w, b, X, z)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                lp, _, _ = logistic_loss_gradient(w + e, b, X, z)
                lm, _, _ = logistic_loss_gradient(w - e, b, X, z)
                num = (lp - lm) / (2 * h)
                worst = max(worst, abs(gw[j] - num) / max(abs(num), 1e-8))
            lp, _, _ = logistic_loss_gradient(w, b + h, X, z)
            lm, _, _ = logistic_loss_gradient(w, b - h, X, z)
            num = (lp - lm) / (2 * h)
            worst = max(worst, abs(gb - num) / max(abs(num), 1e-8))
        assert worst <= 1e-4


def test_criterion_05_nu_property():
    with _Timer("5 nu bounds the training outlier fraction", 60.0):
        n = 200
        for nu in (0.05, 0.1):
            for seed in range(10):  # 20 seeded runs in total
                X = derive_rng(seed, "nu-property").normal(size=(n, 2))
                ds = Dataset.from_arrays(X, [L] * n)
                m = train_one_class_svm(ds, nu=nu, gamma=0.5)
                scores = decision_scores(m, X)
                outliers = int(np.sum(scores > 1e-6))  # strictly outside, beyond KKT noise
                assert outliers / n <= nu + 2 / n, (nu, seed, outliers)
                assert len(m.dual_coefficients) / n >= nu - 2 / n, (nu, seed)


def test_criterion_06_auc10_analytics():
    with _Timer("6 partial-AUC analytic values", 1.0):
        perfect = roc(np.array([4.0, 3.0, 2.0, 1.0]), [M, M, L, L])
        assert auc10(perfect) == 0.1
        diagonal = roc(np.array([1.0, 1.0, 1.0, 1.0]), [M, M, L, L])
        assert abs(auc10(diagonal) - 0.005) <= 1e-12
        worst = roc(np.array([0.0, 0.0, 1.0, 1.0]), [M, M, L, L])
        assert auc10(worst) == 0.0


def test_criterion_07_spoofing_roc_shift():
    with _Timer("7 spoofing raises FAR at unchanged GAR", 10.0):
        table = synthetic_score_table(seed=11)  # 2000 samples
        folds = resample(table, CrossValidation(5), seed=42)
        d_tr, d_ts = folds.pairs[0]
        model = fit_gamma_product(d_tr)
        genuine = d_ts.restrict(label=L)
        impostor = d_ts.restrict(label=M)
        s_gen = decision_scores(model, genuine.features)
        s_imp = decision_scores(model, impostor.features)

        def rates_at(thresholds, gen_scores, imp_scores):
            gar = [(gen_scores < t).mean() for t in thresholds]  # accepted: score < t
            far = [(imp_scores < t).mean() for t in thresholds]
            return np.array(gar), np.array(far)

        for trait in (Trait.FINGERPRINT, Trait.FACE):
            pool = build_spoof_pool(impostor, genuine, trait, derive_rng(7, "spoof", trait.value))
            s_att = decision_scores(model, pool.features)
            thresholds = np.unique(np.r_[s_gen, s_imp, s_att, np.inf])
            gar_clean, far_clean = rates_at(thresholds, s_gen, s_imp)
            gar_att, far_att = rates_at(thresholds, s_gen, s_att)
            # genuine attempts untouched: GAR identical at every threshold
            np.testing.assert_array_equal(gar_att, gar_clean)
            assert np.all(far_att >= far_clean - 1e-15)
        clean_curve = roc(np.r_[s_gen, s_imp], np.r_[genuine.label_codes, impostor.label_codes])
        fing_pool = build_spoof_pool(
            impostor, genuine, Trait.FINGERPRINT, derive_rng(7, "spoof", "fingerprint")
        )
        s_fing = decision_scores(model, fing_pool.features)
        fing_curve = roc(np.r_[s_gen, s_fing], np.r_[genuine.label_codes, fing_pool.label_codes])
        assert far_at_gar(fing_curve, 0.9).far > far_at_gar(clean_curve, 0.9).far


def test_criterion_08_spam_security_curve_reproduction():
    with _Timer("8 spam evasion curves (SVM and LR), nonincreasing to zero", 300.0):
        corpus = synthetic_spam_corpus(seed=7, n=2000, d=200)
        folds = resample(corpus, Chronological(1000), seed=42)
        scenario = canned_scenario("spam_gwi_bwo", [0, 200])
        strengths = list(range(0, 51)) + [200]
        for config in (
            ClassifierConfig("linear_svm", {"c": 1.0}),
            ClassifierConfig("logistic_regression", {"learning_rate": 0.5, "epochs": 20}),
        ):
            curve = security_sweep(folds, scenario, config, strengths, Auc10(), seed=42)
            means = curve.means
            assert all(a >= b - 1e-15 for a, b in zip(means, means[1:])), config.family
            assert means[strengths.index(200)] == 0.0, config.family
            assert means[0] > 0.05  # the clean classifier actually works


def test_criterion_09_poisoning_gamma_contrast():
    with _Timer("9 poisoning hurts the large-gamma model first", 300.0):
        traffic = synthetic_ids_traffic(seed=5)
        folds = resample(traffic, Chronological(300), seed=42)
        scenario = canned_scenario("ids_poison")
        strengths = [0, 0.05, 0.1, 0.2]
        curves = {}
        for gamma in (0.1, 50.0):
            curves[gamma] = security_sweep(
                folds,
                scenario,
                ClassifierConfig("one_class_svm", {"nu": 0.1, "gamma": gamma}),
                strengths,
                Auc10(),
                seed=42,
                repetitions=3,
            ).means
        # both start from their attack-free values
        d_tr, d_ts = folds.pairs[0]
        for gamma in (0.1, 50.0):
            from clfsec.rng import derive_subseed

            model = train_classifier(
                ClassifierConfig("one_class_svm", {"nu": 0.1, "gamma": gamma}),
                d_tr,
                seed=derive_subseed(42, "fold", 0, "rep", 0, "train"),
            )
            plain = Auc10().compute(roc(decision_scores(model, d_ts.features), d_ts.label_codes))
            # averaging identical per-repetition values costs at most an ulp
            assert curves[gamma][0] == pytest.approx(plain, abs=1e-12)
        # the sharp kernel falls below the smooth one somewhere at p_max <= 0.2
        assert any(
            curves[50.0][i] < curves[0.1][i]
            for i, s in enumerate(strengths)
            if 0 < s <= 0.2
        )


def test_criterion_10_deterministic_cli_output(tmp_path):
    with _Timer("10 byte-identical evaluate reruns", 60.0):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["evaluate", "--scenario", "ids_poison", "--out", str(out), "--seed", "11"]) == 0
        name = "curve_ids_poison_one_class_svm.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.skipif(
    "CLFSEC_TREC_INDEX" not in os.environ,
    reason="set CLFSEC_TREC_INDEX to the TREC 2007 index file to run",
)
def test_criterion_11a_trec_spam_evasion():
    """With the real corpus, evasion kills the filter within 60 word flips.

    ``CLFSEC_TREC_INDEX`` must point to a TREC-style index (``spam|ham
    <path>`` lines, paths relative to the index).  The first 20,000 emails
    in index order form the design set, split 10,000/10,000.
    """
    from clfsec.ingestion import information_gain_select, tokenize_emails, vectorize_corpus

    corpus, labels, _ = tokenize_emails(os.environ["CLFSEC_TREC_INDEX"])
    corpus, labels = corpus[:20_000], labels[:20_000]
    scenario = canned_scenario("spam_gwi_bwo", [0, 60])
    for vocab_size in (1_000, 2_000, 10_000, 20_000):
        vocab = information_gain_select(corpus[:10_000], labels[:10_000], vocab_size)
        data = vectorize_corpus(corpus, labels, vocab)
        folds = resample(data, Chronological(10_000), seed=42)
        curve = security_sweep(
            folds,
            scenario,
            ClassifierConfig("linear_svm", {"c": 1.0}),
            [0, 10, 20, 30, 40, 50, 60],
            Auc10(),
            seed=42,
        )
        assert min(curve.means) == 0.0, f"vocab {vocab_size}: no collapse by n_max=60"


@pytest.mark.skipif(
    "CLFSEC_BSSR1_SCORES" not in os.environ,
    reason="set CLFSEC_BSSR1_SCORES to a score CSV derived from NIST BSSR1 to run",
)
def test_criterion_11b_bssr1_spoofing():
    """With the real score set, spoofing one trait breaks the fusion rule.

    ``CLFSEC_BSSR1_SCORES`` must point to a
    ``user_id,claimed_id,fing_score,face_score,label`` CSV holding the 517
    genuine and 266,772 impostor pairs of BSSR1 (face matcher G, left
    index fingerprint).
    """
    from clfsec.ingestion import load_scores

    table = load_scores(os.environ["CLFSEC_BSSR1_SCORES"])
    counts = table.dataset.class_counts()
    assert counts[L] == 517 and counts[M] == 266_772
    folds = resample(table.dataset, CrossValidation(5), seed=42)
    for trait, floor in ((Trait.FINGERPRINT, 0.5), (Trait.FACE, 0.05)):
        curve = security_sweep(
            folds,
            canned_scenario(f"bio_spoof_{trait.value}"),
            ClassifierConfig("gamma_fusion", {}),
            [0, 1],
            FarAtGar(0.9),
            seed=42,
        )
        assert curve.means[1] >= floor, (trait, curve.means)
