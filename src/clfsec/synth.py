"""Bundled synthetic tasks for the three application lanes.

These stand in for the large external corpora (spam email, biometric
matcher scores, web-server traffic) so that every pipeline can run out of
the box at desk scale.  Each generator is a pure function of its seed.
"""

from __future__ import annotations

import numpy as np

from .data_model import Dataset, DiagonalGaussian, GammaProduct
from .rng import derive_rng

__all__ = [
    "synthetic_spam_corpus",
    "synthetic_score_table",
    "synthetic_ids_traffic",
    "SOURCES",
]

# score densities: genuine matchers score high, impostors low, the
# fingerprint matcher separating more sharply than the face matcher
GENUINE_SCORE_DENSITY = GammaProduct(shapes=(18.0, 6.0), scales=(0.038, 0.065))
IMPOSTOR_SCORE_DENSITY = GammaProduct(shapes=(6.0, 3.0), scales=(0.05, 0.07))

IDS_LEGIT_DENSITY = DiagonalGaussian(mean=(0.0, 0.0), std=(0.3, 0.3))
IDS_MALICIOUS_DENSITY = DiagonalGaussian(mean=(3.0, 3.0), std=(0.3, 0.3))


def synthetic_spam_corpus(seed: int, n: int = 2000, d: int = 200) -> Dataset:
    """Binary bag-of-words corpus with spammy, hammy, and neutral words.

    Word presence probabilities: a handful of words are strongly indicative
    of one class (the first few extremely so, which concentrates weight on
    them), the rest are weakly informative or noise.  Labels are balanced.
    """
    if d < 40:
        raise ValueError("need at least 40 word features")
    rng = derive_rng(seed, "synthetic-spam")
    n_strong = 4
    n_weak = 16

    p_spam = np.full(d, 0.08)
    p_ham = np.full(d, 0.08)
    spam_block = slice(0, n_strong + n_weak)
    ham_block = slice(n_strong + n_weak, 2 * (n_strong + n_weak))
    p_spam[spam_block] = np.r_[np.full(n_strong, 0.95), np.full(n_weak, 0.5)]
    p_ham[spam_block] = np.r_[np.full(n_strong, 0.005), np.full(n_weak, 0.05)]
    p_spam[ham_block] = np.r_[np.full(n_strong, 0.005), np.full(n_weak, 0.05)]
    p_ham[ham_block] = np.r_[np.full(n_strong, 0.95), np.full(n_weak, 0.5)]

    labels = rng.random(n) < 0.5
    u = rng.random((n, d))
    X = np.where(labels[:, None], u < p_spam, u < p_ham).astype(np.float64)
    codes = labels.astype(np.uint8)
    return Dataset(X, codes, np.zeros(n, dtype=np.uint8))


def synthetic_score_table(
    seed: int, n_genuine: int = 400, n_impostor: int = 1600
) -> Dataset:
    """2-D (fingerprint, face) matcher-score pairs; genuine = legitimate."""
    rng = derive_rng(seed, "synthetic-scores")
    gen = np.clip(GENUINE_SCORE_DENSITY.sample(rng, n_genuine), 0.0, 1.0)
    imp = np.clip(IMPOSTOR_SCORE_DENSITY.sample(rng, n_impostor), 0.0, 1.0)
    X = np.vstack([gen, imp])
    codes = np.r_[np.zeros(n_genuine, dtype=np.uint8), np.ones(n_impostor, dtype=np.uint8)]
    order = rng.permutation(len(X))
    return Dataset(X[order], codes[order], np.zeros(len(X), dtype=np.uint8))


def synthetic_ids_traffic(
    seed: int, n_train: int = 300, n_test_legit: int = 300, n_test_malicious: int = 100
) -> Dataset:
    """2-D traffic-like task, ordered for a chronological split.

    The first ``n_train`` samples are legitimate (the anomaly detector's
    training window); the remainder mixes later legitimate traffic with all
    malicious samples.  Split chronologically at ``n_train``.
    """
    rng = derive_rng(seed, "synthetic-ids")
    legit = IDS_LEGIT_DENSITY.sample(rng, n_train + n_test_legit)
    mal = IDS_MALICIOUS_DENSITY.sample(rng, n_test_malicious)
    test_order = rng.permutation(n_test_legit + n_test_malicious)
    test_X = np.vstack([legit[n_train:], mal])[test_order]
    test_codes = np.r_[
        np.zeros(n_test_legit, dtype=np.uint8), np.ones(n_test_malicious, dtype=np.uint8)
    ][test_order]
    X = np.vstack([legit[:n_train], test_X])
    codes = np.r_[np.zeros(n_train, dtype=np.uint8), test_codes]
    return Dataset(X, codes, np.zeros(len(X), dtype=np.uint8))


# data.source name -> generator; a config's data.synth holds its keyword arguments
SOURCES = {
    "synthetic-spam": synthetic_spam_corpus,
    "synthetic-scores": synthetic_score_table,
    "synthetic-ids": synthetic_ids_traffic,
}
