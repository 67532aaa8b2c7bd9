"""Trainers and deciders for the four classifier families.

* soft-margin linear SVM, trained by pairwise dual coordinate ascent
  (SMO with maximal-violating-pair selection) to a duality-gap criterion;
* logistic regression, trained by single-sample online gradient descent;
* one-class nu-SVM with an RBF kernel, same SMO core on the one-class dual;
* likelihood-ratio score fusion backed by per-class products of Gamma
  densities fitted by Newton maximum likelihood.

All model families are scored by one batch function,
:func:`decision_scores`, oriented so that *larger means more malicious*;
thresholding a score at 0 reproduces each family's native decision rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Union

import numpy as np

from .data_model import Dataset, Label, gamma_log_pdf
from .rng import derive_rng
from .special import digamma, trigamma

__all__ = [
    "LinearModel",
    "OneClassModel",
    "FusionModel",
    "TrainedModel",
    "CLASSIFIER_PARAMS",
    "ClassifierConfig",
    "train_linear_svm",
    "train_logistic_regression",
    "logistic_loss_gradient",
    "train_one_class_svm",
    "rbf_kernel",
    "fit_gamma_mle",
    "fit_gamma_product",
    "decision_scores",
    "train_classifier",
]


@dataclass(frozen=True)
class LinearModel:
    """Linear discriminant g(x) = w . x + bias; g >= 0 means malicious."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ValueError("linear model has non-finite entries")

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class OneClassModel:
    """nu-one-class SVM: inlier iff sum_i alpha_i k(x_i, x) >= offset."""

    support_vectors: np.ndarray
    dual_coefficients: np.ndarray
    offset: float
    kernel_gamma: float
    nu: float

    @property
    def dimension(self) -> int:
        return self.support_vectors.shape[1]

    def kernel_sum(self, x: np.ndarray) -> np.ndarray:
        """sum_i alpha_i k(x_i, x) for each row of ``x``."""
        # not rbf_kernel: bench/trace_child.py counts kernel work at both names
        K = _rbf_blocks(x, self.support_vectors, self.kernel_gamma)
        return K @ self.dual_coefficients


@dataclass(frozen=True)
class FusionModel:
    """Per-class product-of-Gammas score densities plus a decision threshold.

    ``shapes``/``scales`` are (2, 2) arrays indexed [class, feature] with
    class 0 = legitimate (genuine), class 1 = malicious (impostor), and
    features (fingerprint, face).
    """

    shapes: np.ndarray
    scales: np.ndarray
    threshold: float = 1.0

    dimension = 2

    def class_log_density(self, label: Label, x: np.ndarray) -> np.ndarray:
        c = 0 if label is Label.LEGITIMATE else 1
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.zeros(x.shape[0])
        for f in range(2):  # features in order: the sum's rounding is part of every fusion score
            out = out + gamma_log_pdf(x[:, f], self.shapes[c, f], self.scales[c, f])
        return out


TrainedModel = Union[LinearModel, OneClassModel, FusionModel]


# ---------------------------------------------------------------------------
# SMO core
# ---------------------------------------------------------------------------


# bytes of computed columns one _ColumnCache may hold
_COLUMN_CACHE_BYTES = 128 << 20


class _ColumnCache:
    """Memo of computed kernel columns of length ``n``, keyed by training index.

    Holds at most _COLUMN_CACHE_BYTES of columns (and at least 2) and evicts
    the oldest first.
    """

    def __init__(self, compute: Callable[[int], np.ndarray], n: int):
        self._compute = compute
        self._max = max(2, _COLUMN_CACHE_BYTES // (8 * n))
        self._cols: dict[int, np.ndarray] = {}

    def __getitem__(self, i: int) -> np.ndarray:
        col = self._cols.get(i)
        if col is None:
            col = self._compute(i)
            if len(self._cols) >= self._max:
                self._cols.pop(next(iter(self._cols)))
            self._cols[i] = col
        return col


def _smo_pair_loop(
    grad: np.ndarray,
    alpha: np.ndarray,
    upper: float,
    y: np.ndarray,
    columns: Union[np.ndarray, _ColumnCache],
    diag: np.ndarray,
    eps: float,
    max_iter: int,
) -> float:
    """Minimize 0.5 a'Qa + p'a s.t. sum(y*a) const, 0 <= a <= upper.

    Pairs are chosen by second-order working-set selection: ``i`` is the
    most violating coordinate, ``j`` maximizes the analytic decrease of the
    objective along the (i, j) direction, which avoids the slow zigzag of
    plain maximal-violating-pair selection on ill-conditioned kernels.

    ``columns[i]`` is column i of Q, which a :class:`_ColumnCache` computes
    when it is first read (a matrix that holds all of Q also works).
    ``grad`` holds the current gradient Qa + p and is updated in place, as
    is ``alpha``.  Returns the maximal-violating-pair gap at exit, which is
    <= eps unless the update budget ran out first.
    """
    gap = np.inf
    for _ in range(max_iter):
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < upper)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < upper)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            return 0.0
        i = int(np.flatnonzero(up)[np.argmax(neg_yg[up])])
        gap = float(neg_yg[i] - neg_yg[low].min())
        if gap <= eps:
            return gap
        col_i = columns[i]
        # objective decrease along (i, t) is b^2 / (2 eta); pick the best t
        b_it = neg_yg[i] - neg_yg
        eta_it = np.maximum(diag[i] + diag - 2.0 * col_i, 1e-12)
        decrease = np.where(low & (b_it > 0.0), b_it * b_it / eta_it, -np.inf)
        j = int(np.argmax(decrease))
        col_j = columns[j]
        # feasible direction d_i = y_i, d_j = -y_j keeps sum(y*a) constant
        lam = b_it[j] / eta_it[j]
        lam = min(lam, (upper - alpha[i]) if y[i] > 0 else alpha[i])
        lam = min(lam, (upper - alpha[j]) if y[j] < 0 else alpha[j])
        alpha[i] += y[i] * lam
        alpha[j] -= y[j] * lam
        grad += lam * y * (col_i - col_j)
    return gap


def train_linear_svm(
    train: Dataset, c_param: float, tolerance: float = 1e-6, with_dual: bool = False
):
    """Soft-margin linear SVM solved in the dual.

    Stops when the maximal-violating-pair gap is below ``tolerance`` and
    the duality gap is below ``tolerance * (1 + |primal objective|)``.
    ``with_dual=True`` additionally returns the dual coefficients, for
    optimality diagnostics.
    """
    if c_param <= 0 or tolerance <= 0:
        raise ValueError("c_param and tolerance must be positive")
    counts = train.class_counts()
    if min(counts.values()) == 0:
        raise ValueError("degenerate training set: both classes required")
    X = train.features
    y = train.signed_labels()
    n = len(train)

    columns = _ColumnCache(lambda i: X @ X[i], n)
    diag = np.einsum("ij,ij->i", X, X)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # Q alpha - 1 at alpha = 0
    pair_eps = min(tolerance, 1e-6)

    chunk = max(2000, 20 * n)
    for _ in range(200):
        gap = _smo_pair_loop(grad, alpha, c_param, y, columns, diag, pair_eps, chunk)
        w = X.T @ (alpha * y)
        b = _best_bias(X, y, w, c_param)
        dual_obj = alpha.sum() - 0.5 * float(w @ w)
        primal = 0.5 * float(w @ w) + c_param * np.maximum(0.0, 1.0 - y * (X @ w + b)).sum()
        if gap <= pair_eps:
            if primal - dual_obj <= tolerance * (1.0 + abs(primal)):
                model = LinearModel(w, b)
                return (model, alpha) if with_dual else model
            if pair_eps <= 1e-14:
                break
            pair_eps /= 10.0  # pairwise optimal but duality gap still too wide
    raise RuntimeError(
        "linear SVM failed to reach the requested duality gap; the dual is "
        "badly conditioned (large feature scale and/or C) -- consider "
        "rescaling features or loosening the tolerance"
    )


def _best_bias(X: np.ndarray, y: np.ndarray, w: np.ndarray, c_param: float) -> float:
    """Bias minimizing the primal hinge sum for fixed w (piecewise linear).

    The breakpoint b_k = y_k - margin_k whose computed hinge sum is least,
    the first in sample order among equal sums.  Only the breakpoints near
    the exact minimum have their sums computed: the sum's slope right of b
    is the integer #{k: b_k <= b} - #positives, so it is least from the
    #positives-th to the next sorted breakpoint, and rises at least 1 per
    unit of b away from there.  A computed sum errs by at most (n + 2)
    eps/2 * ``scale``, and rounding the breakpoints moves the exact sums by
    at most eps/2 * ``scale``, so a breakpoint farther out than ``reach``
    cannot have the least computed sum.
    """
    margins = X @ w
    breakpoints = y - margins
    n = len(y)
    n_pos = int(np.count_nonzero(y > 0))
    sorted_b = np.sort(breakpoints)
    lo, hi = sorted_b[max(n_pos - 1, 0)], sorted_b[min(n_pos, n - 1)]
    scale = n * (1.0 + float(np.abs(breakpoints).max())) + float(np.abs(margins).sum())
    reach = 2.0 * (n + 3) * np.finfo(np.float64).eps * scale  # twice what the bounds allow
    near = np.flatnonzero((breakpoints >= lo - reach) & (breakpoints <= hi + reach))
    losses = [
        float(np.maximum(0.0, 1.0 - y * (margins + b)).sum()) for b in breakpoints[near]
    ]
    return float(breakpoints[near[int(np.argmin(losses))]])


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


def logistic_loss_gradient(
    weights: np.ndarray, bias: float, X: np.ndarray, z: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Total logistic loss and its gradient wrt (weights, bias).

    ``z`` holds +/-1 targets (+1 malicious).  Numerically stable for large
    margins.
    """
    margins = z * (X @ weights + bias)
    loss = float(np.logaddexp(0.0, -margins).sum())
    p = np.exp(-np.logaddexp(0.0, margins))  # sigmoid(-margin)
    coeff = -z * p
    return loss, X.T @ coeff, float(coeff.sum())


def train_logistic_regression(
    train: Dataset,
    learning_rate_schedule: float = 0.1,
    epochs: int = 10,
    seed: int = 0,
) -> LinearModel:
    """Online (single-sample) gradient descent on the logistic loss.

    The schedule argument eta0 means eta_t = eta0 / (1 + t/T) with T the
    training-set size and t the global update counter.  Weights start at
    zero, sample order is reshuffled each epoch from ``seed``, and no
    regularization is applied.
    """
    counts = train.class_counts()
    if min(counts.values()) == 0:
        raise ValueError("degenerate training set: both classes required")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    X = train.features
    z = train.signed_labels()
    n, d = X.shape
    eta0 = float(learning_rate_schedule)

    rng = derive_rng(seed, "train")
    w = np.zeros(d)
    b = 0.0
    t = 0
    for epoch in range(epochs):
        for i in rng.permutation(n):
            margin = z[i] * (X[i] @ w + b)
            p = float(np.exp(-np.logaddexp(0.0, margin)))
            eta = eta0 / (1.0 + t / n)
            w += eta * z[i] * p * X[i]
            b += eta * z[i] * p
            t += 1
        loss, _, _ = logistic_loss_gradient(w, b, X, z)
        if not (np.isfinite(loss) and np.all(np.isfinite(w)) and np.isfinite(b)):
            raise ValueError(f"divergence at epoch {epoch}")
    return LinearModel(w, b)


# ---------------------------------------------------------------------------
# one-class nu-SVM
# ---------------------------------------------------------------------------


# element cap on the (rows, cols, d) difference temporary of one kernel block:
# 256 KB, which the allocator reuses from block to block and call to call,
# where a buffer of megabytes left heap holes that moved the peak RSS
_KERNEL_BLOCK_ELEMENTS = 1 << 15


def _rbf_blocks(u: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma ||u_i - v_j||^2) for all row pairs, built in blocks of u and v rows.

    Every entry is the plain broadcast formula: the squared differences are
    summed along the contiguous feature axis, which numpy reduces for each
    output entry on its own, so the result is bit-identical to building the
    whole (n, m, d) difference tensor at once.  The only allocations are the
    (n, m) result and one block buffer of at most _KERNEL_BLOCK_ELEMENTS
    (one row of u, and v in row blocks, when m * d alone exceeds it; one
    pair when d does), reused for every block.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    n, (m, d) = u.shape[0], v.shape
    out = np.empty((n, m))
    cols = max(1, min(m, _KERNEL_BLOCK_ELEMENTS // max(1, d)))
    rows = max(1, min(n, _KERNEL_BLOCK_ELEMENTS // max(1, cols * d)))
    buf = np.empty((rows, cols, d))
    for lo in range(0, n, rows):
        for at in range(0, m, cols):
            diff = buf[: min(rows, n - lo), : min(cols, m - at)]
            np.subtract(u[lo : lo + rows, None, :], v[at : at + cols], out=diff)
            np.square(diff, out=diff)
            diff.sum(axis=2, out=out[lo : lo + rows, at : at + cols])
    out *= -gamma
    return np.exp(out, out=out)


def rbf_kernel(u: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
    """k(u, v) = exp(-gamma ||u - v||^2), row-wise between two matrices.

    Exact (no ||u||^2 + ||v||^2 - 2 u.v expansion) and built in row blocks,
    so memory beyond the (n, m) result stays bounded for any n, m, d.
    """
    return _rbf_blocks(u, v, gamma)


def train_one_class_svm(
    train: Dataset, nu: float, gamma: float, tolerance: float = 1e-6
) -> OneClassModel:
    """Solve the one-class dual min 0.5 a'Ka, 0 <= a_i <= 1/(nu n), sum a = 1."""
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must be in (0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = len(train)
    if n == 0:
        raise ValueError("empty training set")
    if nu * n < 1.0:
        raise ValueError(f"nu too small for dataset: nu*n = {nu * n:g} < 1")
    X = train.features
    upper = 1.0 / (nu * n)

    # SMO reads a few hundred of the n kernel columns: each is computed when
    # first read, as row i of rbf_kernel(X, X), bit for bit
    columns = _ColumnCache(lambda i: rbf_kernel(X[i], X, gamma)[0], n)
    diag = np.ones(n)
    ones = np.ones(n)

    # standard feasible start: fill the box up to mass 1
    alpha = np.zeros(n)
    full = int(nu * n)
    alpha[:full] = upper
    if full < n:
        alpha[full] = 1.0 - full * upper
    grad = np.zeros(n)
    for i in np.flatnonzero(alpha > 0):
        grad += alpha[i] * columns[i]

    pair_eps = min(tolerance, 1e-6)
    gap = _smo_pair_loop(grad, alpha, upper, ones, columns, diag, pair_eps, max_iter=400 * max(n, 500))
    if gap > pair_eps:
        raise RuntimeError(f"one-class SMO did not converge (pair gap {gap:g})")

    free = (alpha > 1e-12 * upper) & (alpha < upper * (1 - 1e-12))
    if free.any():
        rho = float(grad[free].mean())
    else:
        # KKT brackets rho between the bound groups' kernel sums
        lo = grad[alpha >= upper * (1 - 1e-12)].max() if (alpha >= upper * (1 - 1e-12)).any() else -np.inf
        hi = grad[alpha <= 1e-12 * upper].min() if (alpha <= 1e-12 * upper).any() else np.inf
        if np.isfinite(lo) and np.isfinite(hi):
            rho = float((lo + hi) / 2.0)
        else:
            rho = float(lo) if np.isfinite(lo) else float(hi)

    sv = alpha > 1e-12 * upper
    return OneClassModel(
        support_vectors=X[sv].copy(),
        dual_coefficients=alpha[sv].copy(),
        offset=rho,
        kernel_gamma=gamma,
        nu=nu,
    )


# ---------------------------------------------------------------------------
# Gamma-product likelihood-ratio fusion
# ---------------------------------------------------------------------------

_ZERO_SHIFT = 1e-9


def fit_gamma_mle(values: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood Gamma (shape, scale) for positive observations.

    Newton iteration on the shape via digamma/trigamma, started from the
    log-moment approximation; the scale is closed-form given the shape.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2 or np.ptp(v) == 0.0:
        raise ValueError("degenerate score distribution: need >= 2 distinct values")
    if np.any(v < 0):
        raise ValueError("gamma fit requires nonnegative values")
    v = np.where(v == 0.0, _ZERO_SHIFT, v)
    mean = float(v.mean())
    s = float(np.log(mean) - np.log(v).mean())
    k = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(100):
        f = np.log(k) - digamma(k) - s
        if abs(f) < 1e-13:
            break
        step = f / (1.0 / k - trigamma(k))
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) < 1e-14 * k:
            k = k_new
            break
        k = k_new
    return float(k), mean / float(k)


def fit_gamma_product(scores: Dataset, threshold: float = 1.0) -> FusionModel:
    """Fit per-class, per-feature Gamma densities to 2-D score pairs."""
    if scores.dimension != 2:
        raise ValueError("fusion expects 2-D score pairs")
    counts = scores.class_counts()
    if min(counts.values()) < 2:
        raise ValueError("both classes need at least two score pairs")
    shapes = np.zeros((2, 2))
    scales = np.zeros((2, 2))
    for c, lab in enumerate((Label.LEGITIMATE, Label.MALICIOUS)):
        sub = scores.restrict(label=lab)
        for f in range(2):
            shapes[c, f], scales[c, f] = fit_gamma_mle(sub.features[:, f])
    return FusionModel(shapes=shapes, scales=scales, threshold=threshold)


def _llr_scores(model: FusionModel, X: np.ndarray) -> np.ndarray:
    log_l = model.class_log_density(Label.LEGITIMATE, X)
    log_m = model.class_log_density(Label.MALICIOUS, X)
    with np.errstate(invalid="ignore"):
        out = log_m - log_l
    both_zero = np.isneginf(log_l) & np.isneginf(log_m)
    if both_zero.any():
        warnings.warn(
            "both class densities underflowed for some inputs; deciding malicious",
            RuntimeWarning,
            stacklevel=3,
        )
        out = np.where(both_zero, np.inf, out)
    return out


# ---------------------------------------------------------------------------
# uniform scoring API
# ---------------------------------------------------------------------------


def decision_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Scores of the rows of ``X``; larger = more malicious, and 0 is the family's native decision boundary."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.dimension:
        raise ValueError(f"dimension mismatch: model expects {model.dimension}, got {X.shape[1]}")
    if isinstance(model, LinearModel):
        return X @ model.weights + model.bias
    if isinstance(model, OneClassModel):
        return model.offset - model.kernel_sum(X)
    if isinstance(model, FusionModel):
        return _llr_scores(model, X) + np.log(model.threshold)
    raise TypeError(f"unknown model family {type(model).__name__}")


# ---------------------------------------------------------------------------
# training dispatch
# ---------------------------------------------------------------------------


# every config key of each family, with its default; a None default marks a
# key the config must give, an int default a key that takes only integers,
# and an empty ``c_grid`` means C is not selected
CLASSIFIER_PARAMS: dict[str, dict[str, Any]] = {
    "linear_svm": {"c": 1.0, "tolerance": 1e-6, "c_grid": ()},
    "logistic_regression": {"learning_rate": 0.1, "epochs": 10},
    "one_class_svm": {"nu": 0.1, "gamma": None, "tolerance": 1e-6},
    "gamma_fusion": {"threshold": 1.0},
}


@dataclass(frozen=True)
class ClassifierConfig:
    """Family tag plus keyword parameters for the matching trainer."""

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    @property
    def reads_seed(self) -> bool:
        """Whether training reads its seed, so that the model it trains on a set depends on the seed.

        Logistic regression shuffles the samples each epoch, and a
        ``linear_svm`` with a ``c_grid`` chooses C on seeded folds; any
        other configuration trains the same model for every seed.
        """
        return self.family == "logistic_regression" or (self.family == "linear_svm" and "c_grid" in self.params)


def train_classifier(config: ClassifierConfig, train: Dataset, seed: int = 0) -> TrainedModel:
    if config.family not in CLASSIFIER_PARAMS:
        raise ValueError(f"unknown classifier family {config.family!r}")
    p = {**CLASSIFIER_PARAMS[config.family], **config.params}
    if config.family == "linear_svm":
        return train_linear_svm(train, c_param=p["c"], tolerance=p["tolerance"])
    if config.family == "logistic_regression":
        return train_logistic_regression(
            train, learning_rate_schedule=p["learning_rate"], epochs=p["epochs"], seed=seed
        )
    if config.family == "one_class_svm":
        return train_one_class_svm(train, nu=p["nu"], gamma=p["gamma"], tolerance=p["tolerance"])
    return fit_gamma_product(train, threshold=p["threshold"])
