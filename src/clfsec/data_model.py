"""Generative model of training/testing data under attack.

The joint distribution of a sample is factorized as

    p(X, Y, A) = p(Y) * p(A | Y) * p(X | Y, A)

where ``Y`` is the class (legitimate / malicious) and ``A`` is a Boolean
flag marking whether the sample was manipulated by the adversary.  A
:class:`DistributionSpec` holds the three factors; each class-conditional
component ``p(X | Y=y, A=a)`` is an empirical pool, a :class:`Dataset`
whose rows are drawn with replacement (clean design samples, or samples
the adversary modified or injected).

:func:`sample_dataset` draws a set from a spec i.i.d.: the class and flag
of every sample first, then the pool rows of each (label, flag) cell in a
fixed cell order.  The result is a :class:`Draw`, the set described by
which pool row each sample is, with no feature copied; its features are
gathered (:meth:`Draw.gather`) only for a set that is trained on, and a
set that is only scored is scored through its pools, a sampled row
taking its pool row's score.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .rng import derive_rng
from .special import gammaln

__all__ = [
    "Label",
    "AttackFlag",
    "Dataset",
    "Draw",
    "encode_labels",
    "DiagonalGaussian",
    "GammaProduct",
    "gamma_log_pdf",
    "DistributionSpec",
    "CrossValidation",
    "Bootstrap",
    "Chronological",
    "FoldSet",
    "validate_spec",
    "resample",
    "sample_dataset",
]


class Label(enum.Enum):
    """Binary class variable Y."""

    LEGITIMATE = "L"
    MALICIOUS = "M"

    # members are singletons: hashing by identity runs in C, not in Enum.__hash__
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, token: "Label | str") -> "Label":
        """The label ``token`` names (``L``/``M``, member names, ``ham``/``spam``, ``genuine``/``impostor``; any case)."""
        lab = token if isinstance(token, cls) else _LABEL_NAMES.get(str(token).strip().lower())
        if lab is None:
            raise ValueError(f"unknown label {token!r}")
        return lab


class AttackFlag(enum.Enum):
    """Boolean manipulation flag A: was the sample produced by the adversary?"""

    CLEAN = "F"
    ATTACKED = "T"

    __hash__ = object.__hash__


_LABEL_NAMES = {
    **dict.fromkeys(("l", "legitimate", "ham", "genuine"), Label.LEGITIMATE),
    **dict.fromkeys(("m", "malicious", "spam", "impostor"), Label.MALICIOUS),
}
_LABEL_CODE = {Label.LEGITIMATE: 0, Label.MALICIOUS: 1}
_FLAG_CODE = {AttackFlag.CLEAN: 0, AttackFlag.ATTACKED: 1}


def encode_labels(labels: Sequence[Label | str] | np.ndarray) -> np.ndarray:
    """0/1 class codes (1 = malicious) of labels given as ``Label`` members, names :meth:`Label.parse` reads, or codes.

    Raises ``ValueError`` on anything else, such as ``"X"`` or a code of 2.
    """
    arr = np.asarray(labels)
    if arr.dtype == object or arr.dtype.kind == "U":
        return np.array([_LABEL_CODE[Label.parse(l)] for l in labels], dtype=np.uint8)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("label codes must be 0 (legitimate) or 1 (malicious)")
    return arr.astype(np.uint8)


# the (label, flag) cells, in the fixed order the sampler's feature stream draws them
_CELL_ORDER = tuple((lab, flag) for lab in Label for flag in AttackFlag)


class Dataset:
    """Immutable ordered collection of samples with a fixed dimension.

    Stored columnar: ``features`` is an ``(n, d)`` float array, labels and
    flags are small integer arrays; row ``i`` is ``features[i]``,
    ``label_codes[i]`` and ``flag_codes[i]``.  Order is stable, so
    resampling and sampling are reproducible.

    Construction marks the arrays read-only without copying when they are
    already contiguous float64; a caller that keeps a reference to its
    input array will find it frozen too (mutating it would break the
    sharing contract anyway).
    """

    __slots__ = ("features", "label_codes", "flag_codes", "_code_span")

    def __init__(self, features: np.ndarray, label_codes: np.ndarray, flag_codes: np.ndarray):
        features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        label_codes = np.asarray(label_codes, dtype=np.uint8)
        flag_codes = np.asarray(flag_codes, dtype=np.uint8)
        n = features.shape[0]
        if label_codes.shape != (n,) or flag_codes.shape != (n,):
            raise ValueError("labels/flags must have one entry per sample")
        for arr in (features, label_codes, flag_codes):
            arr.setflags(write=False)
        self.features = features
        self.label_codes = label_codes
        self.flag_codes = flag_codes
        self._code_span = None  # (least, greatest) label code, or () when empty; found on first use

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(cls, features: np.ndarray, labels: Sequence[Label] | np.ndarray) -> "Dataset":
        """Clean samples: ``features`` with the labels :func:`encode_labels` reads."""
        features = np.asarray(features, dtype=np.float64)
        return cls(features, encode_labels(labels), np.zeros(len(features), dtype=np.uint8))

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.label_codes, other.label_codes)
            and np.array_equal(self.flag_codes, other.flag_codes)
        )

    def __repr__(self) -> str:
        n_mal = int(self.label_codes.sum())
        n_att = int(self.flag_codes.sum())
        return f"Dataset(n={len(self)}, d={self.dimension}, malicious={n_mal}, attacked={n_att})"

    # -- views -------------------------------------------------------------

    def signed_labels(self) -> np.ndarray:
        """+1 for malicious, -1 for legitimate."""
        return np.where(self.label_codes == 1, 1.0, -1.0)

    def subset(self, indices: np.ndarray | slice) -> "Dataset":
        """The rows at ``indices``; a slice gives a view that shares memory with this dataset."""
        return Dataset(self.features[indices], self.label_codes[indices], self.flag_codes[indices])

    def restrict(self, label: Label) -> "Dataset":
        return self.subset(np.flatnonzero(self.label_codes == _LABEL_CODE[label]))

    def label_slices(self) -> dict[Label, "Dataset"]:
        """The rows of each label, in row order: the clean pools of an attacked distribution."""
        return {lab: self.restrict(lab) for lab in Label}

    def _holds_only(self, label: Label) -> bool:
        """Whether every row has ``label`` (an empty dataset does).

        Answered from the least and greatest label code, found once: the
        rows never change, so a pool drawn from many times is checked once.
        """
        if self._code_span is None:
            codes = self.label_codes
            self._code_span = (int(codes.min()), int(codes.max())) if len(codes) else ()
        code = _LABEL_CODE[label]
        return self._code_span in ((), (code, code))

    def class_counts(self) -> dict[Label, int]:
        return {lab: int(np.sum(self.label_codes == code)) for lab, code in _LABEL_CODE.items()}

    def empirical_prior_malicious(self) -> float:
        if len(self) == 0:
            raise ValueError("empty dataset has no empirical prior")
        return float(np.mean(self.label_codes == 1))


# ---------------------------------------------------------------------------
# densities the synthetic sources sample from
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalGaussian:
    """Gaussian with independent coordinates."""

    mean: tuple[float, ...]
    std: tuple[float, ...]

    def __post_init__(self):
        if len(self.mean) != len(self.std) or any(s <= 0 for s in self.std):
            raise ValueError("mean/std length mismatch or nonpositive std")

    @property
    def dimension(self) -> int:
        return len(self.mean)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(loc=self.mean, scale=self.std, size=(n, self.dimension))


@dataclass(frozen=True)
class GammaProduct:
    """Product of independent Gamma densities (shape/scale per coordinate)."""

    shapes: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self):
        if len(self.shapes) != len(self.scales):
            raise ValueError("shapes/scales length mismatch")
        if any(v <= 0 for v in self.shapes + self.scales):
            raise ValueError("shapes and scales must be positive")

    @property
    def dimension(self) -> int:
        return len(self.shapes)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(shape=self.shapes, scale=self.scales, size=(n, self.dimension))


def gamma_log_pdf(x: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Log-density of Gamma(shape, scale) at each ``x``; -inf where ``x <= 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = (shape - 1) * np.log(x) - x / scale - gammaln(shape) - shape * np.log(scale)
    return np.where(x > 0, logp, -np.inf)


# ---------------------------------------------------------------------------
# the attacked distribution of one phase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """One phase (training or testing) of the attacked data distribution.

    ``components`` maps each (label, flag) cell to its pool: p(X | Y, A)
    is the empirical distribution of that dataset's rows.
    """

    prior_malicious: float
    attack_prob: Mapping[Label, float]
    components: Mapping[tuple[Label, AttackFlag], Dataset]

    def cell_probability(self, label: Label, flag: AttackFlag) -> float:
        p_y = self.prior_malicious if label is Label.MALICIOUS else 1.0 - self.prior_malicious
        p_a = self.attack_prob.get(label, 0.0)
        if flag is AttackFlag.CLEAN:
            p_a = 1.0 - p_a
        return p_y * p_a


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_spec(spec: DistributionSpec) -> list[str]:
    """Check a spec for violations; an empty report means it is usable."""
    violations: list[str] = []
    if not 0.0 <= spec.prior_malicious <= 1.0:
        violations.append(f"prior out of range: p(Y=M)={spec.prior_malicious}")
    for lab in Label:
        p = spec.attack_prob.get(lab, 0.0)
        if not 0.0 <= p <= 1.0:
            violations.append(f"attack probability out of range for {lab.value}: {p}")

    dims = {pool.dimension for pool in spec.components.values()}
    if len(dims) > 1:
        violations.append(f"components disagree on dimension: {sorted(dims)}")

    for lab, flag in _CELL_ORDER:
        p_cell = spec.cell_probability(lab, flag)
        pool = spec.components.get((lab, flag))
        if p_cell > 0.0 and pool is None:
            violations.append(f"missing component for ({lab.value}, {flag.value}) with mass {p_cell:g}")
        elif p_cell > 0.0 and len(pool) == 0:
            violations.append(f"empty pool for ({lab.value}, {flag.value}) with mass {p_cell:g}")
        # the cell sets the flag of what it draws, but the pool must hold the cell's label
        if pool is not None and not pool._holds_only(lab):
            violations.append(f"pool for ({lab.value}, {flag.value}) holds rows of the other label")
    return violations


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidation:
    k: int


@dataclass(frozen=True)
class Bootstrap:
    k: int


@dataclass(frozen=True)
class Chronological:
    """No shuffling: first ``split_index`` samples train, remainder test."""

    split_index: int


ResampleMethod = Union[CrossValidation, Bootstrap, Chronological]


@dataclass(frozen=True)
class FoldSet:
    """k pairs of (training, testing) datasets drawn from the design set."""

    k: int
    pairs: tuple[tuple[Dataset, Dataset], ...]


def resample(data: Dataset, method: ResampleMethod, seed: int) -> FoldSet:
    """Split a design set into k (train, test) pairs, deterministically."""
    if len(data) == 0:
        raise ValueError("cannot resample an empty dataset")
    rng = derive_rng(seed, "resample")
    n = len(data)
    if isinstance(method, CrossValidation):
        if method.k < 1:
            raise ValueError("k must be >= 1")
        if method.k > n:
            raise ValueError(f"too many folds: k={method.k} > n={n}")
        perm = rng.permutation(n)
        bounds = np.linspace(0, n, method.k + 1).astype(int)
        pairs = []
        for i in range(method.k):
            test_idx = np.sort(perm[bounds[i] : bounds[i + 1]])
            train_idx = np.sort(np.setdiff1d(perm, test_idx))
            pairs.append((data.subset(train_idx), data.subset(test_idx)))
        return FoldSet(method.k, tuple(pairs))
    if isinstance(method, Bootstrap):
        if method.k < 1:
            raise ValueError("k must be >= 1")
        pairs = []
        for _ in range(method.k):
            draw = rng.integers(0, n, size=n)
            oob = np.setdiff1d(np.arange(n), draw)
            pairs.append((data.subset(draw), data.subset(oob)))
        return FoldSet(method.k, tuple(pairs))
    if isinstance(method, Chronological):
        s = method.split_index
        if not 0 < s < n:
            raise ValueError(f"split_index must be in (0, {n}), got {s}")
        return FoldSet(1, ((data.subset(slice(None, s)), data.subset(slice(s, None))),))
    raise TypeError(f"unknown resampling method {method!r}")


# ---------------------------------------------------------------------------
# dataset sampling (training/testing set construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Draw:
    """A set drawn by :func:`sample_dataset`, described by the pool row each sample is.

    ``cells`` maps each (label, flag) cell the spec has a pool for, in the
    fixed cell order, to ``(pool, positions, rows)``: the samples at
    ``positions`` of the set are the rows ``rows`` of ``pool`` (both empty
    when the cell drew nothing).  A draw with replacement is fully
    described by how often it takes each pool row (:meth:`multiplicities`),
    the resampling vector of Efron & Tibshirani (1993).
    """

    label_codes: np.ndarray
    flag_codes: np.ndarray
    cells: Mapping[tuple[Label, AttackFlag], tuple[Dataset, np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(self.label_codes)

    def gather(self) -> Dataset:
        """The drawn set with its features: each sample's copied from its pool row."""
        features = np.zeros((len(self), next(iter(self.cells.values()))[0].dimension))
        step = max(1, _GATHER_VALUES // max(1, features.shape[1]))  # rows per block
        for pool, positions, rows in self.cells.values():
            for at in range(0, positions.size, step):
                features[positions[at:at + step]] = pool.features[rows[at:at + step]]
        return Dataset(features, self.label_codes, self.flag_codes)

    def multiplicities(self) -> tuple[tuple[Dataset, ...], np.ndarray]:
        """The cells' pools, in cell order, and how many times the set holds each of their rows.

        The counts are ``np.bincount`` of each cell's rows, concatenated in
        cell order; a row never drawn counts 0.
        """
        pools = tuple(pool for pool, _, _ in self.cells.values())
        return pools, np.concatenate([np.bincount(rows, minlength=len(pool)) for pool, _, rows in self.cells.values()])


# Draw.gather copies a cell's rows in blocks of at most this many values (or
# one row): gathering a whole cell at once makes a temporary as large as the cell
_GATHER_VALUES = 1 << 18


# The sampler's streams of the last two (seed, n) it drew with: the class and
# flag uniforms, and the feature generator with its start state.  A sweep
# item draws its testing set, and a drawn training set, at every strength
# with one seed and size each, so its strengths share them (common random
# numbers) and derive them once.  They are kept here, not passed in, so that
# sample_dataset stays the one sampler the sweep and its referee call; every
# call gets the streams a fresh derivation gives, whatever was drawn before.
_STREAMS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.random.Generator, dict]] = {}
_STREAMS_KEPT = 2


def _streams(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """The first ``2 n`` uniforms of ``derive_rng(seed, "labels")``, halved, and ``derive_rng(seed, "features")``.

    The feature generator is set back to its stream's start: it is the
    same object for every call with this ``(seed, n)``, valid until the next.
    """
    key = (seed, n)
    kept = _STREAMS.pop(key, None)
    if kept is None:
        while len(_STREAMS) >= _STREAMS_KEPT:
            del _STREAMS[next(iter(_STREAMS))]  # the least recently used, before the new ones are drawn
        label_rng = derive_rng(seed, "labels")
        u_y, u_a = label_rng.random(n), label_rng.random(n)
        u_y.setflags(write=False)
        u_a.setflags(write=False)
        feature_rng = derive_rng(seed, "features")
        kept = (u_y, u_a, feature_rng, feature_rng.bit_generator.state)
    else:
        kept[2].bit_generator.state = kept[3]
    _STREAMS[key] = kept
    return kept[:3]


def sample_dataset(spec: DistributionSpec, n: int, seed: int) -> Draw:
    """Draw ``n`` samples from a distribution spec, i.i.d.

    Two independent substreams are derived from ``seed``: one for the
    class/flag draws and one for the feature draws.  Each sample's row is
    drawn with replacement from its cell's pool, one batch per cell in a
    fixed cell order, so two specs that differ only in a cell's pool
    contents draw the same labels and flags, and pairwise-coupled rows
    for the unchanged cells.  Calls with the same ``seed`` and ``n`` use
    the same uniforms for the classes and flags, derived once while the
    pair is one of the last two drawn with.  No feature is copied: :meth:`Draw.gather`
    gives the set as a :class:`Dataset`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    violations = validate_spec(spec)
    if violations:
        raise ValueError("invalid spec: " + "; ".join(violations))

    u_y, u_a, feature_rng = _streams(seed, n)
    label_codes = (u_y < spec.prior_malicious).astype(np.uint8)
    p_att = np.where(
        label_codes == 1,
        spec.attack_prob.get(Label.MALICIOUS, 0.0),
        spec.attack_prob.get(Label.LEGITIMATE, 0.0),
    )
    flag_codes = (u_a < p_att).astype(np.uint8)

    cells = {}
    # validate_spec leaves no cell that can be drawn without a non-empty pool
    for lab, flag in _CELL_ORDER:
        pool = spec.components.get((lab, flag))
        if pool is not None:
            positions = np.flatnonzero((label_codes == _LABEL_CODE[lab]) & (flag_codes == _FLAG_CODE[flag]))
            # a cell that drew nothing takes nothing from the feature stream
            rows = feature_rng.integers(0, len(pool), size=positions.size) if positions.size else positions
            cells[(lab, flag)] = (pool, positions, rows)
    return Draw(label_codes, flag_codes, cells)
