import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clfsec import classifiers
from clfsec.classifiers import (
    ClassifierConfig,
    FusionModel,
    LinearModel,
    OneClassModel,
    decision_scores,
    fit_gamma_mle,
    fit_gamma_product,
    logistic_loss_gradient,
    rbf_kernel,
    train_classifier,
    train_linear_svm,
    train_logistic_regression,
    train_one_class_svm,
)
from clfsec.data_model import Dataset, Label
from clfsec.evaluation import roc
from clfsec.special import digamma

from oracles import (
    hinge_bias_reference,
    one_class_dual_oracle,
    one_class_kernel_matrix_reference,
    one_class_kkt_residual,
    svm_dual_oracle,
    svm_kkt_residual,
)

L, M = Label.LEGITIMATE, Label.MALICIOUS


def two_class(X, y):
    return Dataset.from_arrays(np.asarray(X, dtype=float), [M if v > 0 else L for v in y])


def random_instance(rng, n=20, d=5):
    X = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if abs(y.sum()) == n:
        y[0] = -y[0]
    return X, y


class TestLinearSvm:
    def test_symmetric_two_point_problem(self):
        ds = two_class([[0.0, 0.0], [2.0, 0.0]], [-1, 1])
        m = train_linear_svm(ds, c_param=1e4)
        # max-margin boundary at x1 = 1 (midpoint), weight along x1
        np.testing.assert_allclose(m.weights, [1.0, 0.0], atol=1e-8)
        assert m.bias == pytest.approx(-1.0, abs=1e-8)
        assert decision_scores(m, np.array([0.0, 0.0]))[0] < 0 < decision_scores(m, np.array([2.0, 0.0]))[0]

    def test_inseparable_xor_tolerated(self):
        ds = two_class([[0, 0], [1, 1], [0, 1], [1, 0]], [-1, -1, 1, 1])
        m = train_linear_svm(ds, c_param=1.0)
        scores = decision_scores(m, ds.features)
        errors = np.sum((scores > 0) != (ds.label_codes == 1))
        assert errors > 0  # XOR is not linearly separable

    def test_objective_matches_qp_oracle(self, rng):
        X, y = random_instance(rng)
        ds = two_class(X, y)
        model = train_linear_svm(ds, c_param=1.0, tolerance=1e-8)
        _, dual_oracle = svm_dual_oracle(X, y, 1.0)
        w = model.weights
        primal = 0.5 * w @ w + np.maximum(0, 1 - y * (X @ w + model.bias)).sum()
        assert abs(primal - dual_oracle) <= 1e-4 * (1 + abs(dual_oracle))

    def test_kkt_and_duality_gap(self, rng):
        for _ in range(5):
            X, y = random_instance(rng, n=25, d=4)
            ds = two_class(X, y)
            model, alpha = train_linear_svm(ds, c_param=2.0, tolerance=1e-8, with_dual=True)
            assert svm_kkt_residual(X, y, alpha, model.weights, model.bias, 2.0) <= 1e-6
            w = model.weights
            dual = alpha.sum() - 0.5 * w @ w
            primal = 0.5 * w @ w + 2.0 * np.maximum(0, 1 - y * (X @ w + model.bias)).sum()
            assert dual <= primal + 1e-10
            assert primal - dual <= 1e-8 * (1 + abs(primal))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.0, 1.0]),
                st.one_of(
                    st.integers(-4, 4).map(lambda k: (False, k / 2.0)),  # many equal breakpoints and sums
                    st.integers(-200, 200).map(lambda k: (True, k * 2.0**-56)),  # on the margin, to the last bits
                    st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: (False, v)),
                ),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_best_bias_matches_referee(self, cells):
        y = np.array([c[0] for c in cells])
        # a sample on the margin has y (x.w + b) = 1 for b = 0.3, up to the offset
        margins = np.array([yk - 0.3 + v if on_margin else v for yk, (on_margin, v) in cells])
        X = np.column_stack([margins * 0.5, margins * 0.5])
        w = np.ones(2)
        assert classifiers._best_bias(X, y, w, 1.0) == hinge_bias_reference(X, y, w)

    def test_best_bias_matches_referee_on_trained_models(self, rng):
        for n, d in ((40, 3), (300, 20)):
            X, y = random_instance(rng, n, d)
            model, alpha = train_linear_svm(two_class(X, y), 1.0, with_dual=True)
            w = X.T @ (alpha * y)
            assert classifiers._best_bias(X, y, w, 1.0) == hinge_bias_reference(X, y, w)
            assert model.bias == hinge_bias_reference(X, y, w)

    def test_single_class_rejected(self):
        ds = Dataset.from_arrays(np.eye(3), [L, L, L])
        with pytest.raises(ValueError, match="degenerate training set"):
            train_linear_svm(ds, c_param=1.0)


class TestLogisticRegression:
    def test_sign_forced_by_data(self):
        ds = two_class([[-1.0], [1.0]], [-1, 1])
        m = train_logistic_regression(ds, 0.5, epochs=30, seed=3)
        assert m.weights[0] > 0

    def test_zero_epochs_zero_model(self):
        ds = two_class([[-1.0], [1.0]], [-1, 1])
        m = train_logistic_regression(ds, 0.5, epochs=0, seed=3)
        assert np.all(m.weights == 0) and m.bias == 0
        assert decision_scores(m, np.array([123.0]))[0] == 0.0

    def test_gradient_matches_central_differences(self, rng):
        X = rng.normal(size=(15, 4))
        z = np.where(rng.random(15) < 0.5, 1.0, -1.0)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            w = rng.normal(size=4)
            b = float(rng.normal())
            _, gw, gb = logistic_loss_gradient(w, b, X, z)
            num = np.zeros(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                lp, _, _ = logistic_loss_gradient(w + e, b, X, z)
                lm, _, _ = logistic_loss_gradient(w - e, b, X, z)
                num[j] = (lp - lm) / (2 * h)
            lp, _, _ = logistic_loss_gradient(w, b + h, X, z)
            lm, _, _ = logistic_loss_gradient(w, b - h, X, z)
            num_b = (lp - lm) / (2 * h)
            scale = np.maximum(np.abs(num), 1e-8)
            worst = max(worst, float(np.max(np.abs(gw - num) / scale)))
            worst = max(worst, abs(gb - num_b) / max(abs(num_b), 1e-8))
        assert worst <= 1e-4

    def test_deterministic_given_seed(self):
        ds = two_class(np.random.default_rng(0).normal(size=(30, 3)), np.r_[np.ones(15), -np.ones(15)])
        a = train_logistic_regression(ds, 0.2, epochs=5, seed=11)
        b = train_logistic_regression(ds, 0.2, epochs=5, seed=11)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_divergence_names_epoch(self):
        ds = two_class([[1e200], [-1e200]], [1, -1])
        with pytest.raises(ValueError, match="divergence at epoch 0"):
            train_logistic_regression(ds, 1e200, epochs=1, seed=0)


class TestOneClassSvm:
    def test_single_point_model(self):
        v = np.array([1.5, -2.0])
        ds = Dataset.from_arrays(v[None, :], [L])
        m = train_one_class_svm(ds, nu=1.0, gamma=0.7)
        # decision function is maximal at the training point, which is an inlier
        assert decision_scores(m, v)[0] <= 0
        far = decision_scores(m, v + 5.0)[0]
        assert far > decision_scores(m, v)[0]

    def test_nu_property(self, rng):
        n, nu = 200, 0.05
        X = rng.normal(size=(n, 2))
        ds = Dataset.from_arrays(X, [L] * n)
        m = train_one_class_svm(ds, nu=nu, gamma=0.5)
        scores = decision_scores(m, X)
        outliers = int(np.sum(scores > 1e-6))  # strictly outside, beyond KKT noise
        assert outliers / n <= nu + 2 / n
        assert len(m.dual_coefficients) / n >= nu - 2 / n

    def test_dual_matches_qp_oracle(self, rng):
        n = 30
        X = rng.normal(size=(n, 3))
        K = rbf_kernel(X, X, 0.5)
        ds = Dataset.from_arrays(X, [L] * n)
        m = train_one_class_svm(ds, nu=0.1, gamma=0.5, tolerance=1e-8)
        alpha = np.zeros(n)
        for sv, a in zip(m.support_vectors, m.dual_coefficients):
            alpha[np.flatnonzero((X == sv).all(axis=1))[0]] = a
        _, obj_oracle = one_class_dual_oracle(K, 0.1)
        obj = 0.5 * alpha @ K @ alpha
        assert abs(obj - obj_oracle) <= 1e-4 * (1 + abs(obj_oracle))
        assert one_class_kkt_residual(K, alpha, m.offset, 1 / (0.1 * n)) <= 1e-6

    def test_alpha_normalization(self, rng):
        X = rng.normal(size=(50, 2))
        m = train_one_class_svm(Dataset.from_arrays(X, [L] * 50), nu=0.2, gamma=1.0)
        assert m.dual_coefficients.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(m.dual_coefficients >= 0)
        assert np.all(m.dual_coefficients <= 1 / (0.2 * 50) + 1e-12)

    def test_nu_too_small(self):
        ds = Dataset.from_arrays(np.zeros((5, 2)), [L] * 5)
        with pytest.raises(ValueError, match="nu too small"):
            train_one_class_svm(ds, nu=0.1, gamma=1.0)

    @given(st.integers(0, 10_000))
    def test_rbf_kernel_properties(self, seed):
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(3, 4))
        K = rbf_kernel(U, U, 0.8)
        assert np.allclose(np.diag(K), 1.0)
        assert np.allclose(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-10


def broadcast_rbf(u, v, gamma):
    """Reference: the whole (n, m, d) difference tensor at once."""
    u, v = np.atleast_2d(u), np.atleast_2d(v)
    return np.exp(-gamma * ((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))


class TestRbfKernel:
    @pytest.mark.parametrize(
        "n, m, d, rows",
        [
            (11, 250, 1000, 4),  # last block partial
            (3, 1100, 1000, 1),  # m * d above the block budget: v in blocks, the last partial
            (1, 50, 7, 1),  # single row
        ],
    )
    def test_bit_identical_to_broadcast(self, rng, monkeypatch, n, m, d, rows):
        # the shapes are sized for a budget of 2^20 elements
        monkeypatch.setattr(classifiers, "_KERNEL_BLOCK_ELEMENTS", 1 << 20)
        assert max(1, min(n, classifiers._KERNEL_BLOCK_ELEMENTS // (m * d))) == rows
        U = rng.normal(size=(n, d)) * 3.0
        V = rng.normal(size=(m, d))
        for gamma in (0.5, 1e-3):
            assert np.array_equal(rbf_kernel(U, V, gamma), broadcast_rbf(U, V, gamma))
        assert np.array_equal(rbf_kernel(U[0], V, 0.5), broadcast_rbf(U[0], V, 0.5))

    @pytest.mark.parametrize(
        "n, m, d",
        [
            (1, 800, 256),  # a one-class column: one row of u against v in blocks of 128
            (400, 124, 256),  # scoring: blocks of one row of u against all of v
            (37, 60, 9),  # blocks of several rows of u, the last partial
            (2, 3, 40_000),  # d above the budget: one pair per block
        ],
    )
    def test_bit_identical_to_broadcast_at_the_block_budget(self, rng, n, m, d):
        U = rng.normal(size=(n, d)) * 3.0
        V = rng.normal(size=(m, d))
        gamma = 1.0 / d
        assert np.array_equal(rbf_kernel(U, V, gamma), broadcast_rbf(U, V, gamma))
        assert np.array_equal(rbf_kernel(U[-1], V, gamma), broadcast_rbf(U[-1], V, gamma))

    def test_column_temporary_within_the_block_budget(self, rng):
        # a one-class column of 5,000 rows of 256 features: the difference
        # block stays at the budget, not the 10 MB of all m * d differences
        # (the slack is for numpy's own iteration buffers)
        X = rng.normal(size=(5000, 256))
        tracemalloc.start()
        try:
            col = rbf_kernel(X[7], X, 0.01)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert col[7] == 1.0
        assert peak < col.nbytes + 8 * classifiers._KERNEL_BLOCK_ELEMENTS + 128 * 1024

    def test_kernel_sum_bit_identical(self, rng):
        sv = rng.normal(size=(300, 1000))
        alpha = rng.random(300)
        model = OneClassModel(
            support_vectors=sv, dual_coefficients=alpha / alpha.sum(), offset=0.5, kernel_gamma=1e-3, nu=0.1
        )
        x = rng.normal(size=(9, 1000))
        assert np.array_equal(model.kernel_sum(x), broadcast_rbf(x, sv, 1e-3) @ model.dual_coefficients)

    def test_lazy_column_matches_gram_row(self, rng):
        X = rng.normal(size=(60, 5))
        gram = rbf_kernel(X, X, 0.5)
        for i in (0, 31, 59):
            col = rbf_kernel(X[i], X, 0.5)[0]
            assert np.array_equal(col, gram[i])
            assert np.array_equal(col, np.exp(-0.5 * ((X - X[i]) ** 2).sum(axis=1)))
        # the trainer's columns give the model that SMO on the whole kernel matrix gives
        for X, nu, gamma in ((X, 0.1, 0.5), (rng.dirichlet(np.ones(32), size=400), 0.05, 20.0)):
            m = train_one_class_svm(Dataset.from_arrays(X, [L] * len(X)), nu=nu, gamma=gamma)
            alpha, rho = one_class_kernel_matrix_reference(X, nu, gamma)
            sv = alpha > 1e-12 / (nu * len(X))
            assert np.array_equal(m.dual_coefficients, alpha[sv])
            assert np.array_equal(m.support_vectors, X[sv])
            assert m.offset == rho

    def test_training_memory_well_below_the_kernel_matrix(self, rng):
        n, d = 5000, 256
        X = rng.dirichlet(np.ones(d), size=n)
        ds = Dataset.from_arrays(X, [L] * n)
        tracemalloc.start()
        try:
            m = train_one_class_svm(ds, nu=0.02, gamma=50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.dual_coefficients.sum() == pytest.approx(1.0, abs=1e-9)
        assert peak < n * n * 8 / 4

    def test_peak_memory_bounded(self, rng):
        X = rng.normal(size=(600, 128))
        out_bytes = 600 * 600 * 8
        tracemalloc.start()
        try:
            K = rbf_kernel(X, X, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.nbytes == out_bytes
        assert peak < 3 * out_bytes + 8 * classifiers._KERNEL_BLOCK_ELEMENTS

    def test_column_cache_capacity_in_bytes(self):
        computed = []

        def compute(i):
            computed.append(i)
            return np.zeros(1)

        # one column fills the byte budget: the cache still keeps two
        cache = classifiers._ColumnCache(compute, classifiers._COLUMN_CACHE_BYTES // 8)
        for i in (0, 1, 0, 1, 2, 1, 0):
            cache[i]
        assert computed == [0, 1, 2, 0]
        # 3,000 training rows (the spam lane) fit whole
        cache = classifiers._ColumnCache(compute, 3000)
        computed.clear()
        for i in list(range(3000)) * 2:
            cache[i]
        assert len(computed) == 3000


class TestGammaFusion:
    def test_shape_recovery(self):
        draws = np.random.default_rng(42).gamma(2.0, 1.0, size=50_000)
        k, theta = fit_gamma_mle(draws)
        assert abs(k - 2.0) / 2.0 <= 0.05

    def test_exponential_first_moment_identity(self):
        draws = np.random.default_rng(7).gamma(1.0, 3.0, size=20_000)
        k, theta = fit_gamma_mle(draws)
        assert k * theta == pytest.approx(draws.mean(), abs=1e-6)

    def test_mle_stationarity(self):
        draws = np.random.default_rng(3).gamma(4.5, 0.2, size=5_000)
        k, theta = fit_gamma_mle(draws)
        s = np.log(draws.mean()) - np.log(draws).mean()
        assert abs(np.log(k) - digamma(k) - s) <= 1e-6  # d(loglik)/d(shape) per sample
        assert theta == pytest.approx(draws.mean() / k, rel=1e-12)

    def test_identical_classes_identical_fit(self):
        rows = np.random.default_rng(0).gamma(2.0, 0.5, size=(40, 2))
        ds = Dataset.from_arrays(np.vstack([rows, rows]), [L] * 40 + [M] * 40)
        model = fit_gamma_product(ds)
        np.testing.assert_allclose(model.shapes[0], model.shapes[1])
        np.testing.assert_allclose(model.scales[0], model.scales[1])

    def test_constant_feature_rejected(self):
        X = np.column_stack([np.ones(10), np.random.default_rng(1).gamma(2, 1, 10)])
        ds = Dataset.from_arrays(np.vstack([X, X]), [L] * 10 + [M] * 10)
        with pytest.raises(ValueError, match="degenerate score distribution"):
            fit_gamma_product(ds)

    def _model(self):
        rng = np.random.default_rng(5)
        gen = rng.gamma((8.0, 6.0), (0.08, 0.08), size=(200, 2))
        imp = rng.gamma((2.0, 2.0), (0.05, 0.05), size=(200, 2))
        ds = Dataset.from_arrays(np.vstack([gen, imp]), [L] * 200 + [M] * 200)
        return fit_gamma_product(ds)

    def test_llr_decision_rule_inclusive(self):
        model = self._model()  # threshold 1, so the score is -log(ratio)
        x = np.array([0.4, 0.4])
        ratio = float(np.exp(-decision_scores(model, x)[0]))
        # rescale the threshold so the effective ratio/threshold is known
        at = lambda r: FusionModel(model.shapes, model.scales, threshold=ratio / r)
        assert decision_scores(at(1.5), x)[0] < 0  # legitimate
        assert decision_scores(at(0.99), x)[0] > 0  # malicious
        # ">= t" is inclusive: ratio == threshold scores 0, which decides legitimate
        assert decision_scores(at(1.0), x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_equal_densities_decide_legitimate(self):
        shapes = np.full((2, 2), 3.0)
        scales = np.full((2, 2), 0.5)
        model = FusionModel(shapes, scales, threshold=1.0)
        for x in ([0.1, 0.9], [1.0, 1.0], [5.0, 0.2]):
            assert decision_scores(model, np.array(x))[0] == pytest.approx(0.0, abs=1e-12)

    def test_underflow_tie_breaks_malicious(self):
        model = self._model()
        with pytest.warns(RuntimeWarning, match="underflowed"):
            assert decision_scores(model, np.array([0.0, 0.0]))[0] == np.inf


class TestDecisionScore:
    def test_linear_dot_product(self):
        m = LinearModel(np.array([2.0, -1.0]), 0.0)
        assert decision_scores(m, np.array([1.0, 1.0]))[0] == 1.0

    def test_one_class_own_point_inlier(self):
        ds = Dataset.from_arrays(np.array([[0.5, 0.5]]), [L])
        m = train_one_class_svm(ds, nu=1.0, gamma=1.0)
        assert decision_scores(m, np.array([0.5, 0.5]))[0] <= 0

    def test_fusion_score_zero_at_threshold(self):
        model = TestGammaFusion()._model()
        x = np.array([0.3, 0.5])
        ratio = float(np.exp(-decision_scores(model, x)[0]))  # threshold 1
        aligned = FusionModel(model.shapes, model.scales, threshold=ratio)
        assert decision_scores(aligned, x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        m = LinearModel(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            decision_scores(m, np.array([1.0, 2.0, 3.0]))

    def test_score_orientation_staircase(self, rng):
        # for every family: ROC of (score, label) is a valid nonincreasing-TP
        # staircase as the threshold rises
        X, y = random_instance(rng, n=40, d=3)
        ds = two_class(X, y)
        models = [
            train_linear_svm(ds, 1.0),
            train_logistic_regression(ds, 0.3, epochs=10, seed=0),
            train_one_class_svm(ds, nu=0.2, gamma=0.5),
        ]
        cases = [(m, X, ds.label_codes) for m in models]
        scores2 = np.abs(rng.normal(size=(40, 2))) + 1e-3
        ds2 = Dataset.from_arrays(scores2, [M if v > 0 else L for v in y])
        cases.append((fit_gamma_product(ds2), scores2, ds2.label_codes))
        for m, feats, codes in cases:
            curve = roc(decision_scores(m, feats), codes)
            assert np.all(np.diff(curve.fp) >= 0)
            assert np.all(np.diff(curve.tp) >= 0)  # tp grows as fp grows (threshold falls)


class TestTrainDispatch:
    def test_families(self, rng):
        X, y = random_instance(rng, n=30, d=3)
        ds = two_class(X, y)
        assert isinstance(train_classifier(ClassifierConfig("linear_svm", {"c": 1.0}), ds), LinearModel)
        assert isinstance(
            train_classifier(ClassifierConfig("logistic_regression", {"epochs": 2}), ds), LinearModel
        )
        with pytest.raises(ValueError, match="unknown classifier family"):
            train_classifier(ClassifierConfig("forest", {}), ds)
