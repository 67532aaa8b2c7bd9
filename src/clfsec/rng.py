"""Deterministic, platform-independent random streams.

Every stochastic operation in the library draws from a PCG64 generator
derived from a master seed plus a tuple of stream tags (strings or
integers).  The derivation is a pure function of ``(seed, *tags)``, so
independent work items (folds, repetitions, sweep points) can run in any
order, or concurrently, without changing results.

Stream tag conventions used across the library:

======================================  ==================================================
``("fold", i, "rep", j, "tr")``         training-set sampling seed of sweep item (i, j)
``("fold", i, "rep", j, "ts")``         testing-set sampling seed of sweep item (i, j)
``("fold", i, "rep", j, "pools")``      attack-pool seed of sweep item (i, j)
``("fold", i, "rep", j, "train")``      classifier seed of sweep item (i, j)
``("pools", phase)``                    one phase's attacked pools, under the pool seed
``("labels",)``                         class/flag draws of the sampler; once per item
``("features",)``                       feature draws of the sampler; once per item
``("resample",)``                       shuffles and bootstrap draws
``("train",)``                          classifier-internal randomness (e.g. LR shuffles)
``("cgrid-folds",)``                    folds of the SVM C-grid selection
``("synthetic-spam",)`` etc.            the bundled synthetic sources
======================================  ==================================================

Each strength of a sweep item samples its testing set (and a drawn
training set) with the item's ``"ts"`` (``"tr"``) seed, and a set of the
same size wherever the spec keeps it, so its strengths share the
sampler's streams: common random numbers.  The sampler derives the
``("labels",)`` uniforms and the ``("features",)`` start state once per
(seed, size), keeps those of the last two, and hands each call the
streams exactly as a fresh derivation gives them.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_rng", "derive_seed_words", "derive_subseed"]


def _tag_words(tag: str | int) -> tuple[int, ...]:
    """Map a tag to a stable tuple of uint32 words."""
    if isinstance(tag, (int, np.integer)):
        v = int(tag)
        if v < 0:
            raise ValueError(f"stream tags must be nonnegative, got {v}")
        return (v & 0xFFFFFFFF, v >> 32)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 8, 4))


def derive_seed_words(seed: int, *tags: str | int) -> list[int]:
    """The uint32 entropy words feeding the generator for (seed, *tags)."""
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for tag in tags:
        words.extend(_tag_words(tag))
    return words


def derive_rng(seed: int, *tags: str | int) -> np.random.Generator:
    """Return the PCG64 generator for stream ``(seed, *tags)``.

    Identical arguments always yield an identical stream, on every
    platform supported by numpy.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(derive_seed_words(seed, *tags))))


def derive_subseed(seed: int, *tags: str | int) -> int:
    """A 63-bit integer seed for a nested operation, derived from (seed, *tags)."""
    return int(derive_rng(seed, *tags).integers(0, 2**63))
