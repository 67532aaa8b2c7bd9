"""Independent oracles the test suite checks the library against.

These deliberately share no code with the implementations they verify:
the QP oracle is an accelerated projected-gradient method on the raw dual,
the attack oracle enumerates the whole Hamming ball, KKT residuals are
computed straight from the optimality conditions, the greedy-attack
reference flips one feature vector's words one at a time, the
information-gain reference scores every term on its own with a per-term
loop, the FAR-at-GAR and partial-AUC references walk the ROC point by
point, and the sampler replay redraws a set sample by sample from the
sampler's two substreams.  Three referees are exceptions.  The sweep
referee calls the generators' pool functions, the sampler, the trainers,
the scorer and the ROC, each of which has its own tests, and restates in
plain code everything the sweep orchestrates.  The one-class kernel
matrix referee runs the library's SMO pair loop, which the QP oracle
checks, on the whole kernel matrix, so that the trainer's kernel columns
can be checked bit for bit.  The hinge-bias referee is the linear SVM's
bias search as it was first written, a loss at every breakpoint, and the
pair-loop referee is the SMO pair loop as it was first written, which
rebuilds -y * grad and both index sets at every pair.
"""

from __future__ import annotations

import math

import numpy as np

from clfsec.attacks import GENERATORS
from clfsec.classifiers import _smo_pair_loop, decision_scores, rbf_kernel, train_classifier
from clfsec.data_model import AttackFlag, Dataset, DistributionSpec, Label, sample_dataset
from clfsec.evaluation import Auc10, auc10, far_at_gar, roc
from clfsec.rng import derive_rng, derive_subseed


def project_box_hyperplane(
    v: np.ndarray, lo: float, hi: float, a: np.ndarray, b: float
) -> np.ndarray:
    """Euclidean projection onto {lo <= x <= hi, a.x = b} for a in {-1,+1}^n."""

    def g(lam: float) -> float:
        return float(a @ np.clip(v - lam * a, lo, hi)) - b

    span = float(np.abs(v).max() + abs(hi) + abs(lo) + abs(b) + 1.0)
    lo_l, hi_l = -span, span
    while g(lo_l) < 0:
        lo_l *= 2.0
    while g(hi_l) > 0:
        hi_l *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo_l + hi_l)
        if g(mid) > 0:
            lo_l = mid
        else:
            hi_l = mid
    return np.clip(v - 0.5 * (lo_l + hi_l) * a, lo, hi)


def qp_box_equality(
    Q: np.ndarray,
    p: np.ndarray,
    lo: float,
    hi: float,
    a: np.ndarray,
    b: float,
    x0: np.ndarray,
    max_iter: int = 300_000,
    tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Accelerated projected gradient for min 0.5 x'Qx + p'x over the slab.

    Returns (x, objective).  Runs to convergence of the projected-gradient
    mapping, with monotone restarts for robustness on rank-deficient Q.
    """
    eigs = np.linalg.eigvalsh(Q)
    step = 1.0 / max(float(eigs[-1]), 1e-12)

    def obj(x: np.ndarray) -> float:
        return float(0.5 * x @ Q @ x + p @ x)

    x = project_box_hyperplane(x0, lo, hi, a, b)
    y = x.copy()
    t = 1.0
    fx = obj(x)
    stall = 0
    for _ in range(max_iter):
        x_new = project_box_hyperplane(y - step * (Q @ y + p), lo, hi, a, b)
        f_new = obj(x_new)
        if f_new > fx:  # restart momentum
            y = x.copy()
            t = 1.0
            x_new = project_box_hyperplane(y - step * (Q @ y + p), lo, hi, a, b)
            f_new = obj(x_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t - 1.0) / t_new * (x_new - x)
        move = float(np.abs(x_new - x).max())
        if abs(fx - f_new) < tol * (1.0 + abs(fx)) and move < 1e-10:
            stall += 1
            if stall > 50:
                return x_new, f_new
        else:
            stall = 0
        x, fx, t = x_new, f_new, t_new
    return x, fx


def svm_dual_oracle(X: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """Max of the soft-margin SVM dual, via the projected-gradient QP oracle."""
    K = X @ X.T
    Q = (y[:, None] * y[None, :]) * K
    p = -np.ones(len(y))
    alpha, f = qp_box_equality(Q, p, 0.0, c, y.astype(np.float64), 0.0, np.zeros(len(y)))
    return alpha, -f  # dual objective = -(min value)


def one_class_dual_oracle(K: np.ndarray, nu: float) -> tuple[np.ndarray, float]:
    """Min of the one-class nu-SVM dual 0.5 a'Ka with sum(a)=1, 0<=a<=1/(nu n)."""
    n = K.shape[0]
    upper = 1.0 / (nu * n)
    x0 = np.full(n, 1.0 / n)
    alpha, f = qp_box_equality(K, np.zeros(n), 0.0, upper, np.ones(n), 1.0, x0)
    return alpha, f


def one_class_kernel_matrix_reference(X: np.ndarray, nu: float, gamma: float, tolerance: float = 1e-6):
    """``(alpha, rho)`` of ``train_one_class_svm``'s start, pair loop and offset rule on all of ``rbf_kernel(X, X)``."""
    n = len(X)
    K = rbf_kernel(X, X, gamma)
    upper = 1.0 / (nu * n)
    alpha = np.zeros(n)
    full = int(nu * n)
    alpha[:full] = upper
    if full < n:
        alpha[full] = 1.0 - full * upper
    grad = np.zeros(n)
    for i in np.flatnonzero(alpha > 0):
        grad += alpha[i] * K[i]
    eps = min(tolerance, 1e-6)
    gap = _smo_pair_loop(grad, alpha, upper, np.ones(n), K, np.ones(n), eps, max_iter=400 * max(n, 500))
    assert gap <= eps
    at_upper, at_zero = alpha >= upper * (1 - 1e-12), alpha <= 1e-12 * upper
    free = ~at_upper & ~at_zero
    if free.any():
        return alpha, float(grad[free].mean())
    lo = grad[at_upper].max() if at_upper.any() else -np.inf
    hi = grad[at_zero].min() if at_zero.any() else np.inf
    if np.isfinite(lo) and np.isfinite(hi):
        return alpha, float((lo + hi) / 2.0)
    return alpha, float(lo) if np.isfinite(lo) else float(hi)


def smo_pair_loop_reference(
    grad: np.ndarray,
    alpha: np.ndarray,
    upper: float,
    y: np.ndarray,
    columns: np.ndarray,
    diag: np.ndarray,
    eps: float,
    max_iter: int,
) -> float:
    """The library's SMO pair loop as it was first written: same arguments, same updates in place, same gap."""
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


def hinge_bias_reference(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """The breakpoint y_k - x_k.w with the least computed hinge sum, the first in sample order."""
    margins = X @ w
    breakpoints = y - margins
    losses = [float(np.maximum(0.0, 1.0 - y * (margins + b)).sum()) for b in breakpoints]
    return float(breakpoints[int(np.argmin(losses))])


def svm_kkt_residual(X: np.ndarray, y: np.ndarray, alpha: np.ndarray, w: np.ndarray, b: float, c: float) -> float:
    """Worst complementary-slackness violation of a soft-margin solution."""
    margins = y * (X @ w + b)
    res = np.where(
        alpha <= 1e-9 * c,
        np.maximum(0.0, 1.0 - margins),
        np.where(alpha >= c * (1 - 1e-9), np.maximum(0.0, margins - 1.0), np.abs(margins - 1.0)),
    )
    return float(res.max())


def one_class_kkt_residual(K: np.ndarray, alpha: np.ndarray, rho: float, upper: float) -> float:
    f = K @ alpha  # = rho + decision value
    res = np.where(
        alpha <= 1e-9 * upper,
        np.maximum(0.0, rho - f),
        np.where(alpha >= upper * (1 - 1e-9), np.maximum(0.0, f - rho), np.abs(f - rho)),
    )
    return float(res.max())


_MASK_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _all_masks(d: int) -> tuple[np.ndarray, np.ndarray]:
    if d not in _MASK_CACHE:
        codes = np.arange(1 << d, dtype=np.uint32)
        bits = ((codes[:, None] >> np.arange(d)) & 1).astype(np.float64)
        _MASK_CACHE[d] = (bits, bits.sum(axis=1))
    return _MASK_CACHE[d]


def hamming_ball_minimum(x: np.ndarray, w: np.ndarray, w0: float, n_max: int) -> float:
    """Exhaustive minimum of w.x' + w0 over Hamming(x, x') <= n_max (d <= 16)."""
    bits, popcount = _all_masks(len(x))
    flips = bits[popcount <= n_max]
    candidates = np.abs(x[None, :] - flips)  # flip x where the mask is set
    return float((candidates @ w).min() + w0)


def gwi_bwo_reference(x: np.ndarray, w: np.ndarray, n_max: int) -> np.ndarray:
    """Greedy word flips of one binary vector, walking features by decreasing |w| (ties by index).

    Sets a feature with negative weight that is 0, clears one with positive
    weight that is 1, and stops after ``n_max`` flips; zero weights are skipped.
    """
    out = np.array(x, dtype=np.float64)
    flips = 0
    for i in sorted(range(len(w)), key=lambda j: (-abs(w[j]), j)):
        if flips == n_max:
            break
        if (w[i] < 0.0 and out[i] == 0.0) or (w[i] > 0.0 and out[i] == 1.0):
            out[i] = 1.0 - out[i]
            flips += 1
    return out


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def information_gain_reference(
    token_sets, malicious: list[bool], vocab_size: int
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Top ``vocab_size`` terms by IG, ties lexicographic, one gain per term.

    Counts each term's presence in a dict loop and evaluates the entropy
    expression per term, with the same float operations in the same order
    as the library, so gains agree to the last bit.
    """
    n = len(malicious)
    n_m = sum(1 for y in malicious if y)
    n_l = n - n_m
    h_y = _entropy_bits(np.array([n_l, n_m], dtype=np.float64))
    present_m: dict[str, int] = {}
    present_any: dict[str, int] = {}
    for toks, y in zip(token_sets, malicious):
        for t in toks:
            present_any[t] = present_any.get(t, 0) + 1
            if y:
                present_m[t] = present_m.get(t, 0) + 1
    gains = []
    for term, n_p in present_any.items():
        m_p = present_m.get(term, 0)
        cond = np.array([[n_p - m_p, m_p], [n_l - (n_p - m_p), n_m - m_p]], dtype=np.float64)
        h_cond = sum(row.sum() / n * _entropy_bits(row) for row in cond)
        gains.append((h_y - h_cond, term))
    gains.sort(key=lambda g: (-g[0], g[1]))
    top = gains[:vocab_size]
    return tuple(t for _, t in top), tuple(g for g, _ in top)


def far_at_gar_reference(fp: np.ndarray, tp: np.ndarray, gar: float) -> tuple[float, bool]:
    """(FAR, reachable) at the first ROC point whose GAR reaches ``gar``, by a point-by-point walk.

    Interpolates linearly along the segment that crosses ``gar`` unless the
    segment is vertical or horizontal; an unreachable level gives (1.0, False).
    """
    if tp[0] >= gar:
        return float(fp[0]), True
    for i in range(1, len(fp)):
        if tp[i] >= gar:
            if fp[i] == fp[i - 1] or tp[i] == tp[i - 1]:
                return float(fp[i]), True
            frac = (gar - tp[i - 1]) / (tp[i] - tp[i - 1])
            return float(fp[i - 1] + frac * (fp[i] - fp[i - 1])), True
    return 1.0, False


def auc10_reference(fp: np.ndarray, tp: np.ndarray) -> float:
    """Area under the ROC polyline for FP in [0, 0.1], one segment at a time.

    Adds each trapezoid that ends within the limit, then the part of the
    first one that does not, cut at FP = 0.1 by linear interpolation.
    """
    limit = 0.1
    area = 0.0
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


def sample_replay(spec: DistributionSpec, n: int, seed: int) -> Dataset:
    """The set ``sample_dataset(spec, n, seed)`` draws, replayed sample by sample.

    ``derive_rng(seed, "labels")`` gives n uniforms that pick each class,
    then n that pick each flag; ``derive_rng(seed, "features")`` gives one
    batch of pool rows per cell, in the order (L, F), (L, T), (M, F),
    (M, T), skipping a cell with no sample, one row per sample of the
    cell in set order.
    """
    label_rng = derive_rng(seed, "labels")
    feature_rng = derive_rng(seed, "features")
    u_y = label_rng.random(n)
    u_a = label_rng.random(n)
    cells = []
    for i in range(n):
        lab = Label.MALICIOUS if u_y[i] < spec.prior_malicious else Label.LEGITIMATE
        flag = AttackFlag.ATTACKED if u_a[i] < spec.attack_prob.get(lab, 0.0) else AttackFlag.CLEAN
        cells.append((lab, flag))
    rows = [None] * n
    for cell in (
        (Label.LEGITIMATE, AttackFlag.CLEAN),
        (Label.LEGITIMATE, AttackFlag.ATTACKED),
        (Label.MALICIOUS, AttackFlag.CLEAN),
        (Label.MALICIOUS, AttackFlag.ATTACKED),
    ):
        members = [i for i in range(n) if cells[i] == cell]
        if members:
            pool = spec.components[cell]
            for i, j in zip(members, feature_rng.integers(0, len(pool), size=len(members))):
                rows[i] = pool.features[j]
    return Dataset(
        np.array(rows).reshape(n, -1),
        [int(lab is Label.MALICIOUS) for lab, _ in cells],
        [int(flag is AttackFlag.ATTACKED) for _, flag in cells],
    )


def security_sweep_reference(folds, scenario, classifier_config, strengths, metric, seed, repetitions=1):
    """``(means, stds, first_item)`` of a security sweep, by the naive schedule.

    For every (fold, repetition) item and every strength it builds both
    phases' sets, always retrains on the training set's features and
    computes the metric from ``roc``.  A phase's set is a fresh copy of the
    fold when the attack leaves the phase untouched, else a draw of the
    spec and set size assembled here, with its attacked pools rebuilt.  A
    testing row's score is its pool row's: each pool (the fold copy, or
    each drawn cell's pool) is scored with one ``decision_scores`` call
    (row-at-a-time products differ from a batched one in the last bit),
    and a drawn row takes the score of the pool row it is.  Mean and
    ddof=1 standard deviation are plain loops over the items, in item
    order.  ``first_item`` holds item (fold 0, repetition 0)'s ROC at each
    strength.  The scenario must be sweepable.
    """
    generator = GENERATORS[scenario.strategy.generator]

    def build(phase, s, src, d_ts, model, set_seed, pools_seed):
        cap = scenario.capability
        fractions = {lab: scenario.attacked_fraction(phase, lab, s) for lab in Label}
        prior = scenario.prior_override(s) if phase == "train" else None
        empirical = float(np.mean(src.label_codes == 1))
        unchanged = all(f == 0.0 for f in fractions.values()) or (generator.noop_at_zero and s == 0.0)
        touched = cap.affects_training if phase == "train" else cap.affects_testing
        if not touched or (unchanged and (prior is None or prior == empirical)):
            return Dataset(src.features.copy(), src.label_codes.copy(), src.flag_codes.copy())
        attacked = {}
        if phase == generator.phase and fractions[Label.MALICIOUS] > 0.0:
            attacked[Label.MALICIOUS] = generator.pool(d_ts.label_slices(), model, s, derive_rng(pools_seed, "pools", phase))
        n = len(src)
        if prior is None:
            prior = empirical
        elif prior < 1.0:
            n = int(round(len(src) / (1.0 - prior)))  # the legitimate part keeps the fold's expected size
        components = {}
        for lab, code in ((Label.LEGITIMATE, 0), (Label.MALICIOUS, 1)):
            clean = src.subset(np.flatnonzero(src.label_codes == code))
            for flag, pool in ((AttackFlag.CLEAN, clean), (AttackFlag.ATTACKED, attacked.get(lab))):
                if pool is not None and len(pool) > 0:
                    components[(lab, flag)] = pool
        return sample_dataset(DistributionSpec(prior, fractions, components), n, set_seed)

    def testing_scores(model, ts):
        if isinstance(ts, Dataset):
            return decision_scores(model, ts.features)
        scores = np.zeros(len(ts))
        for pool, positions, rows in ts.cells.values():
            pool_scores = decision_scores(model, pool.features)
            for i, j in zip(positions, rows):
                scores[i] = pool_scores[j]
        return scores

    values = []  # one row of metric values per item
    first_item = []
    for fi in range(folds.k):
        d_tr, d_ts = folds.pairs[fi]
        for rep in range(repetitions):
            tags = ("fold", fi, "rep", rep)
            pools_seed = derive_subseed(seed, *tags, "pools")
            train_seed = derive_subseed(seed, *tags, "train")
            row = []
            for s in strengths:
                s = float(s)
                tr = build("train", s, d_tr, d_ts, None, derive_subseed(seed, *tags, "tr"), pools_seed)
                if not isinstance(tr, Dataset):
                    tr = tr.gather()
                model = train_classifier(classifier_config, tr, seed=train_seed)
                ts = build("test", s, d_ts, d_ts, model, derive_subseed(seed, *tags, "ts"), pools_seed)
                curve = roc(testing_scores(model, ts), ts.label_codes)
                row.append(auc10(curve) if isinstance(metric, Auc10) else far_at_gar(curve, metric.gar).far)
                if fi == 0 and rep == 0:
                    first_item.append(curve)
            values.append(row)
    means, stds = [], []
    for si in range(len(strengths)):
        column = [row[si] for row in values]
        total = 0.0
        for v in column:
            total += v
        mean = total / len(column)
        squares = 0.0
        for v in column:
            squares += (v - mean) * (v - mean)
        means.append(mean)
        stds.append(math.sqrt(squares / (len(column) - 1)) if len(column) > 1 else 0.0)
    return tuple(means), tuple(stds), tuple(first_item)
