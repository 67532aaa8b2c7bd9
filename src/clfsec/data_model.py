"""Generative model of training/testing data under attack.

The joint distribution of a sample is factorized as

    p(X, Y, A) = p(Y) * p(A | Y) * p(X | Y, A)

where ``Y`` is the class (legitimate / malicious) and ``A`` is a Boolean
flag marking whether the sample was manipulated by the adversary.  A
:class:`DistributionSpec` holds the three factors; the class-conditional
components ``p(X | Y=y, A=a)`` are either analytic densities, empirical
pools sampled with replacement, or online attack generators.

:func:`sample_dataset` draws labelled datasets from a spec, either
i.i.d. or in the incremental mode where attack samples are generated one
at a time with the partially built dataset visible to the generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence, Union

import numpy as np

from .rng import derive_rng
from .special import gammaln

__all__ = [
    "Label",
    "AttackFlag",
    "Dataset",
    "encode_labels",
    "DiagonalGaussian",
    "GammaProduct",
    "gamma_log_pdf",
    "Analytic",
    "EmpiricalPool",
    "GeneratorComponent",
    "GenerationMode",
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


_LABELS = (Label.LEGITIMATE, Label.MALICIOUS)
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


# fixed cell order used by the sampler's feature stream
_CELL_ORDER = (
    (Label.LEGITIMATE, AttackFlag.CLEAN),
    (Label.LEGITIMATE, AttackFlag.ATTACKED),
    (Label.MALICIOUS, AttackFlag.CLEAN),
    (Label.MALICIOUS, AttackFlag.ATTACKED),
)


class Dataset:
    """Immutable ordered collection of samples with a fixed dimension.

    Stored columnar: ``features`` is an ``(n, d)`` float array, labels and
    flags are small integer arrays; row ``i`` is ``features[i]``,
    ``label_codes[i]`` and ``flag_codes[i]``.  Order is stable, so sampling
    and incremental attacks are reproducible.

    Construction marks the arrays read-only without copying when they are
    already contiguous float64; a caller that keeps a reference to its
    input array will find it frozen too (mutating it would break the
    sharing contract anyway).
    """

    __slots__ = ("features", "label_codes", "flag_codes")

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        features: np.ndarray,
        labels: Sequence[Label] | np.ndarray,
        flags: Sequence[AttackFlag] | np.ndarray | None = None,
    ) -> "Dataset":
        features = np.asarray(features, dtype=np.float64)
        labs = encode_labels(labels)
        if flags is None:
            flg = np.zeros(len(features), dtype=np.uint8)
        elif isinstance(flags, np.ndarray) and flags.dtype != object:
            flg = flags.astype(np.uint8)
        else:
            flg = np.array([_FLAG_CODE[f] for f in flags], dtype=np.uint8)
        return cls(features, labs, flg)

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

    def is_binary(self) -> bool:
        return bool(np.all((self.features == 0.0) | (self.features == 1.0)))

    def class_counts(self) -> dict[Label, int]:
        return {lab: int(np.sum(self.label_codes == code)) for lab, code in _LABEL_CODE.items()}

    def empirical_prior_malicious(self) -> float:
        if len(self) == 0:
            raise ValueError("empty dataset has no empirical prior")
        return float(np.mean(self.label_codes == 1))


# ---------------------------------------------------------------------------
# analytic densities
# ---------------------------------------------------------------------------


class Density(Protocol):
    dimension: int

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray: ...

    def marginal_pdfs(self) -> list[tuple[Callable[[np.ndarray], np.ndarray], float, float]]:
        """Per-coordinate pdf plus an integration window covering its mass."""
        ...


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

    def marginal_pdfs(self):
        out = []
        for m, s in zip(self.mean, self.std):
            def pdf(x, m=m, s=s):
                return np.exp(-0.5 * ((x - m) / s) ** 2) / (s * np.sqrt(2 * np.pi))

            out.append((pdf, m - 12 * s, m + 12 * s))
        return out


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

    def marginal_pdfs(self):
        out = []
        for k, th in zip(self.shapes, self.scales):
            def pdf(x, k=k, th=th):
                return np.exp(gamma_log_pdf(x, k, th))

            hi = k * th + 30 * np.sqrt(k) * th
            out.append((pdf, 0.0, hi))
        return out


def gamma_log_pdf(x: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Log-density of Gamma(shape, scale) at each ``x``; -inf where ``x <= 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = (shape - 1) * np.log(x) - x / scale - gammaln(shape) - shape * np.log(scale)
    return np.where(x > 0, logp, -np.inf)


# ---------------------------------------------------------------------------
# class-conditional components
# ---------------------------------------------------------------------------


class OnlineGenerator(Protocol):
    """Attack generator invoked at the feature-draw step of the sampler."""

    dimension: int

    def generate(self, partial: Dataset | None, rng: np.random.Generator) -> np.ndarray:
        """Produce one attack feature vector.

        ``partial`` is the dataset built so far (incremental mode only;
        ``None`` when draws are i.i.d.).
        """
        ...


@dataclass(frozen=True)
class Analytic:
    """Analytically defined p(X | Y=y, A=a)."""

    density: Density


@dataclass(frozen=True)
class EmpiricalPool:
    """Empirical distribution of a finite pool, sampled with replacement."""

    pool: Dataset


@dataclass(frozen=True)
class GeneratorComponent:
    """Attack samples produced online by a generator."""

    generator: OnlineGenerator


Component = Union[Analytic, EmpiricalPool, GeneratorComponent]


class GenerationMode(enum.Enum):
    IID = "iid"
    INCREMENTAL_ATTACK_LAST = "incremental_attack_last"


@dataclass(frozen=True)
class DistributionSpec:
    """One phase (training or testing) of the attacked data distribution."""

    prior_malicious: float
    attack_prob: Mapping[Label, float]
    components: Mapping[tuple[Label, AttackFlag], Component]
    generation_mode: GenerationMode = GenerationMode.IID

    def cell_probability(self, label: Label, flag: AttackFlag) -> float:
        p_y = self.prior_malicious if label is Label.MALICIOUS else 1.0 - self.prior_malicious
        p_a = self.attack_prob.get(label, 0.0)
        if flag is AttackFlag.CLEAN:
            p_a = 1.0 - p_a
        return p_y * p_a

    def dimension(self) -> int:
        for comp in self.components.values():
            return _component_dimension(comp)
        raise ValueError("spec has no components")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_INTEGRATION_GRID = 20001


def _component_dimension(comp: Component) -> int:
    if isinstance(comp, Analytic):
        return comp.density.dimension
    if isinstance(comp, EmpiricalPool):
        return comp.pool.dimension
    return comp.generator.dimension


def validate_spec(spec: DistributionSpec) -> list[str]:
    """Check a spec for violations; an empty report means it is usable."""
    violations: list[str] = []
    if not 0.0 <= spec.prior_malicious <= 1.0:
        violations.append(f"prior out of range: p(Y=M)={spec.prior_malicious}")
    for lab in _LABELS:
        p = spec.attack_prob.get(lab, 0.0)
        if not 0.0 <= p <= 1.0:
            violations.append(f"attack probability out of range for {lab.value}: {p}")

    dims = {_component_dimension(c) for c in spec.components.values()}
    if len(dims) > 1:
        violations.append(f"components disagree on dimension: {sorted(dims)}")

    for lab in _LABELS:
        for flag in (AttackFlag.CLEAN, AttackFlag.ATTACKED):
            p_cell = spec.cell_probability(lab, flag)
            comp = spec.components.get((lab, flag))
            if p_cell > 0.0 and comp is None:
                violations.append(f"missing component for ({lab.value}, {flag.value}) with mass {p_cell:g}")
            if p_cell > 0.0 and isinstance(comp, EmpiricalPool) and len(comp.pool) == 0:
                violations.append(f"empty pool for ({lab.value}, {flag.value}) with mass {p_cell:g}")
            if isinstance(comp, Analytic):
                err = _integration_error(comp.density)
                if err > 1e-3:
                    violations.append(
                        f"analytic density for ({lab.value}, {flag.value}) integrates to 1{err:+.2e}"
                    )
    return violations


def _integration_error(density: Density) -> float:
    """Worst relative deviation of the marginal integrals from 1."""
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    worst = 0.0
    for pdf, lo, hi in density.marginal_pdfs():
        grid = np.linspace(lo, hi, _INTEGRATION_GRID)
        total = trapezoid(pdf(grid), grid)
        worst = max(worst, abs(total - 1.0))
    return worst


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


def sample_dataset(spec: DistributionSpec, n: int, seed: int) -> Dataset:
    """Draw ``n`` samples from a distribution spec.

    Two independent substreams are derived from ``seed``: one for the
    class/flag draws and one for the feature draws.  Feature draws happen
    grouped by (label, flag) cell in a fixed cell order, so two specs that
    differ only in a cell's pool contents produce pairwise-coupled draws
    for the unchanged cells.

    In incremental mode all (y, a) pairs are drawn first, then all clean
    feature vectors, then attack vectors one at a time in sample order,
    each generator call seeing the dataset built so far.
    """
    if n < 1:
        raise ValueError("n must be positive")
    violations = validate_spec(spec)
    if violations:
        raise ValueError("invalid spec: " + "; ".join(violations))

    label_rng = derive_rng(seed, "labels")
    feature_rng = derive_rng(seed, "features")

    u_y = label_rng.random(n)
    label_codes = (u_y < spec.prior_malicious).astype(np.uint8)
    u_a = label_rng.random(n)
    p_att = np.where(
        label_codes == 1,
        spec.attack_prob.get(Label.MALICIOUS, 0.0),
        spec.attack_prob.get(Label.LEGITIMATE, 0.0),
    )
    flag_codes = (u_a < p_att).astype(np.uint8)

    d = spec.dimension()
    features = np.zeros((n, d))

    def draw(comp: Component, m: int, partial: Dataset | None = None) -> np.ndarray:
        if isinstance(comp, Analytic):
            return comp.density.sample(feature_rng, m)
        if isinstance(comp, EmpiricalPool):
            return comp.pool.features[feature_rng.integers(0, len(comp.pool), size=m)]
        return np.stack([comp.generator.generate(partial, feature_rng) for _ in range(m)])

    # validate_spec leaves no cell that can be drawn without a component (or with an empty pool);
    # incremental mode draws the attacked cells last, one sample at a time
    incremental = spec.generation_mode is GenerationMode.INCREMENTAL_ATTACK_LAST
    for lab, flag in _CELL_ORDER:
        idx = np.flatnonzero((label_codes == _LABEL_CODE[lab]) & (flag_codes == _FLAG_CODE[flag]))
        if idx.size and not (incremental and flag is AttackFlag.ATTACKED):
            features[idx] = draw(spec.components[(lab, flag)], idx.size)
    if not incremental:
        return Dataset(features, label_codes, flag_codes)

    generated = flag_codes == 0
    for i in np.flatnonzero(flag_codes == 1):
        comp = spec.components[(_LABELS[label_codes[i]], AttackFlag.ATTACKED)]
        partial = None
        if isinstance(comp, GeneratorComponent):
            partial = Dataset(features[generated], label_codes[generated], flag_codes[generated])
        features[i] = draw(comp, 1, partial)[0]
        generated[i] = True
    return Dataset(features, label_codes, flag_codes)
