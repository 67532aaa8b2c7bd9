"""Adversary model and attack-sample generators.

An :class:`AttackScenario` packages the taxonomy of an attack (influence,
security violation, specificity), the adversary's knowledge of the five
classifier components (k.i-k.v), her capability over training/testing data
(c.i-c.iv), and the resulting strategy: which priors change, what fraction
of each class is manipulated, and which generator produces the manipulated
feature vectors.  Scenarios are plain data; the canned ones live only in
the package's ``configs/*.yaml`` files.  At each attack-strength value
this module also decides what a scenario does to each phase: whether the
resampled set is left as it is (:meth:`AttackScenario.untouched`), the
attacked pools (:func:`build_scenario_pools`), and the phase's distribution
spec and set size (:func:`scenario_distribution_specs`), which the sweep
only samples from.  Whether a scenario can be swept at all over given
strength values against a classifier family is decided here too
(:func:`sweep_problems`), for the config parser and the sweep alike.

:data:`GENERATORS` names every attack generator and says which phase's
malicious samples it replaces.  Three families are implemented, one per
application lane:

* greedy word insertion/obfuscation against a linear discriminant
  (``gwi_bwo``; :func:`gwi_bwo_pool`),
* biometric spoofing by substituting an impostor's matching score with a
  targeted genuine score (``spoof_fingerprint``, ``spoof_face``;
  :func:`build_spoof_pool`),
* anomaly-detector poisoning that injects the malicious testing pool into
  the training distribution (``poison_injection``; the injected fraction
  becomes the training prior through ``prior_override``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

from .data_model import AttackFlag, Dataset, DistributionSpec, Label
from .classifiers import LinearModel
from .rng import derive_rng

__all__ = [
    "Influence",
    "Violation",
    "Trait",
    "STRENGTH",
    "Knowledge",
    "Capability",
    "Strategy",
    "StrengthParam",
    "AttackScenario",
    "gwi_bwo_pool",
    "build_spoof_pool",
    "AttackGenerator",
    "GENERATORS",
    "check_scenario_consistency",
    "sweep_problems",
    "build_scenario_pools",
    "scenario_distribution_specs",
]


class Influence(enum.Enum):
    CAUSATIVE = "causative"
    EXPLORATORY = "exploratory"


class Violation(enum.Enum):
    INTEGRITY = "integrity"
    AVAILABILITY = "availability"
    PRIVACY = "privacy"


class Trait(enum.Enum):
    FINGERPRINT = "fingerprint"
    FACE = "face"


class _Strength:
    """Sentinel: this strategy field takes the swept strength value."""

    def __repr__(self) -> str:
        return "STRENGTH"


STRENGTH = _Strength()

FractionLike = Union[float, _Strength]


def _resolve(value: FractionLike | None, strength: float) -> float | None:
    return float(strength) if isinstance(value, _Strength) else value


def _can_be_positive(value: FractionLike) -> bool:
    """Whether a fraction is above 0 at some strength: it is the strength, or a number above 0."""
    return isinstance(value, _Strength) or value > 0


@dataclass(frozen=True)
class Knowledge:
    """What the adversary knows about the classifier (k.i-k.v)."""

    training_data: bool = False
    feature_set: bool = False
    algorithm: bool = False
    parameters: bool = False
    feedback: bool = False


@dataclass(frozen=True)
class Capability:
    """What the adversary can touch (c.i-c.iv)."""

    affects_training: bool
    affects_testing: bool
    prior_change_allowed: bool
    controllable: Mapping[tuple[str, Label], float] = field(default_factory=dict)
    feature_constraints: str | None = None

    def controllable_fraction(self, phase: str, label: Label) -> float:
        return float(self.controllable.get((phase, label), 0.0))


@dataclass(frozen=True)
class Strategy:
    """How the attack modifies the data (a.i-a.iii)."""

    generator: str  # a key of GENERATORS
    attacked_fraction: Mapping[tuple[str, Label], FractionLike] = field(default_factory=dict)
    prior_override: FractionLike | None = None  # training-phase p(Y=M)


@dataclass(frozen=True)
class StrengthParam:
    """The swept attack-strength parameter: its name, range and the values a run sweeps."""

    name: str
    lo: float
    hi: float
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class AttackScenario:
    name: str
    influence: Influence
    violation: Violation
    specificity: float
    knowledge: Knowledge
    capability: Capability
    strategy: Strategy
    strength: StrengthParam

    def attacked_fraction(self, phase: str, label: Label, strength: float) -> float:
        raw = self.strategy.attacked_fraction.get((phase, label), 0.0)
        return float(_resolve(raw, strength))

    def prior_override(self, strength: float) -> float | None:
        return _resolve(self.strategy.prior_override, strength)

    def untouched(self, phase: str, strength: float, source: Dataset) -> bool:
        """True when the attack leaves this phase's resampled set as it is at this strength.

        A constant positive attacked fraction keeps a phase attacked at every
        strength where the generator changes samples: ``ids_poison`` at
        p_max = 0 trains on a resample of the clean slices, not on the fold.
        In a consistent scenario a phase out of the adversary's reach has no
        attacked fraction and no prior override.
        """
        fractions = [self.attacked_fraction(phase, lab, strength) for lab in Label]
        noop = GENERATORS[self.strategy.generator].noop_at_zero and strength == 0
        if not (all(f == 0.0 for f in fractions) or noop):
            return False
        override = self.prior_override(strength) if phase == "train" else None
        return override is None or override == source.empirical_prior_malicious()


# ---------------------------------------------------------------------------
# greedy evasion of a linear discriminant
# ---------------------------------------------------------------------------


# gwi_bwo_pool works through a block of at most this many values (or one row)
# at a time, so its temporaries stay small however large the pool
_ATTACK_BLOCK_VALUES = 1 << 18


def gwi_bwo_pool(source: Dataset, model: LinearModel, n_max: int) -> Dataset:
    """Greedy good-word-insertion / bad-word-obfuscation flips of every source sample (one output per input).

    Each sample's features are scanned by decreasing |weight| (ties by
    ascending index): a feature is set to 1 when its weight is negative and
    it is 0, cleared to 0 when its weight is positive and it is 1, and the
    scan stops after ``n_max`` flips.  This minimizes the discriminant over
    the Hamming ball of radius ``n_max``; zero-weight features are never
    flipped.  Rows are independent, so they are attacked in row blocks.
    """
    X = source.features
    w = model.weights
    if X.shape[1] != w.shape[0]:
        raise ValueError("dimension mismatch between pool and model")
    if not 0 <= n_max <= X.shape[1]:
        raise ValueError(f"n_max must be nonnegative and at most the dimension {X.shape[1]}, got {n_max}")
    order = np.argsort(-np.abs(w), kind="stable")
    back = np.argsort(order)
    attacked = X.copy()
    step = max(1, _ATTACK_BLOCK_VALUES // max(1, X.shape[1]))  # rows per block
    for at in range(0, len(attacked), step):
        block = attacked[at:at + step]
        zero, one = block == 0.0, block == 1.0
        if not np.all(zero | one):
            raise ValueError("gwi/bwo attack requires binary feature vectors")
        cand_o = (((w < 0.0) & zero) | ((w > 0.0) & one))[:, order]  # scan order: decreasing |w|, ties by index
        rank = cand_o.astype(np.int32)
        np.cumsum(rank, axis=1, out=rank)  # candidates among the columns scanned so far
        flip = (cand_o & (rank <= n_max))[:, back]  # back to column order
        np.subtract(1.0, block, out=block, where=flip)
    return Dataset(
        attacked,
        source.label_codes.copy(),
        np.ones(len(source), dtype=np.uint8),
    )


# ---------------------------------------------------------------------------
# biometric score spoofing
# ---------------------------------------------------------------------------

_TRAIT_INDEX = {Trait.FINGERPRINT: 0, Trait.FACE: 1}


def build_spoof_pool(
    impostor_pool: Dataset,
    genuine_pool: Dataset,
    trait: Trait,
    rng: np.random.Generator,
) -> Dataset:
    """One spoofed sample per impostor, each targeting a uniformly drawn genuine user.

    The targeted trait's matching score is replaced with the target's, as a
    perfect replica of that trait would; the other score is kept bit-identical.
    """
    if len(genuine_pool) == 0:
        raise ValueError("empty genuine pool: no spoof targets available")
    if len(impostor_pool) == 0:
        raise ValueError("empty impostor pool")
    targets = rng.integers(0, len(genuine_pool), size=len(impostor_pool))
    idx = _TRAIT_INDEX[trait]
    feats = impostor_pool.features.copy()
    feats[:, idx] = genuine_pool.features[targets, idx]
    return Dataset(
        feats,
        impostor_pool.label_codes.copy(),
        np.ones(len(impostor_pool), dtype=np.uint8),
    )


# ---------------------------------------------------------------------------
# the generator registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackGenerator:
    """Replaces the malicious samples of one phase with attacked ones.

    ``pool(test, model, strength, rng)`` returns one attacked sample per
    malicious sample of the testing fold, whose label slices
    (:meth:`.Dataset.label_slices`) are ``test``.  ``reads_model`` names
    the classifier families whose parameters it reads (k.iv); it is empty
    when the generator reads none.  A ``strength_invariant`` generator
    builds the same pool at every strength and reads no model, so a sweep
    builds such a testing pool once per (fold, repetition).
    """

    phase: str
    pool: Callable[[Mapping[Label, Dataset], Any, float, np.random.Generator], Dataset]
    reads_model: tuple[str, ...] = ()
    noop_at_zero: bool = False  # leaves samples unchanged at strength 0
    strength_invariant: bool = False


# The pool functions look gwi_bwo_pool and build_spoof_pool up when they run,
# so a wrapper installed on this module's attribute sees every call.
def _gwi_bwo(test: Mapping[Label, Dataset], model, strength: float, rng) -> Dataset:
    return gwi_bwo_pool(test[Label.MALICIOUS], model, int(round(strength)))


def _spoof(trait: Trait, test: Mapping[Label, Dataset], model, strength: float, rng: np.random.Generator) -> Dataset:
    return build_spoof_pool(test[Label.MALICIOUS], test[Label.LEGITIMATE], trait, rng)


def _poison(test: Mapping[Label, Dataset], model, strength: float, rng) -> Dataset:
    pool = test[Label.MALICIOUS]
    return Dataset(pool.features, pool.label_codes, np.ones(len(pool), dtype=np.uint8))


GENERATORS: Mapping[str, AttackGenerator] = {
    "gwi_bwo": AttackGenerator("test", _gwi_bwo, reads_model=("linear_svm", "logistic_regression"), noop_at_zero=True),
    "spoof_fingerprint": AttackGenerator("test", partial(_spoof, Trait.FINGERPRINT), strength_invariant=True),
    "spoof_face": AttackGenerator("test", partial(_spoof, Trait.FACE), strength_invariant=True),
    "poison_injection": AttackGenerator("train", _poison, strength_invariant=True),
}


# ---------------------------------------------------------------------------
# consistency checking, attacked pools and spec assembly
# ---------------------------------------------------------------------------


def check_scenario_consistency(scenario: AttackScenario) -> list[str]:
    """Verify strategy fits capability and generator, and the taxonomy is coherent."""
    violations: list[str] = []
    cap, strat = scenario.capability, scenario.strategy
    generator = GENERATORS.get(strat.generator)
    if generator is None:
        return [f"unknown generator {strat.generator!r}; available: {', '.join(GENERATORS)}"]
    if scenario.influence is Influence.EXPLORATORY:
        touches_training = cap.affects_training or any(
            ph == "train" and _can_be_positive(v) for (ph, _l), v in strat.attacked_fraction.items()
        )
        if touches_training or strat.prior_override is not None:
            violations.append("exploratory attacks affect only testing data")
    if not 0.0 <= scenario.specificity <= 1.0:
        violations.append(f"specificity out of range: {scenario.specificity}")
    if strat.prior_override is not None and not cap.prior_change_allowed:
        violations.append("strategy overrides class priors but capability forbids it")
    if strat.prior_override is not None and not cap.affects_training:
        violations.append("strategy overrides the training prior without the capability to modify training data")
    lo, hi = scenario.strength.lo, scenario.strength.hi
    fractions = [
        (f"attacked fraction of {lab.value} {ph} samples", v) for (ph, lab), v in strat.attacked_fraction.items()
    ]
    for what, value in [("prior override", strat.prior_override), *fractions]:
        if isinstance(value, _Strength):
            if not (0.0 <= lo and hi <= 1.0):
                violations.append(f"{what} is the strength, whose range [{lo:g}, {hi:g}] leaves [0, 1]")
        elif value is not None and not 0.0 <= value <= 1.0:
            violations.append(f"{what} out of range: {value:g}")
    for (phase, label), frac in strat.attacked_fraction.items():
        # a fraction set from the strength parameter reaches the top of its range
        bound = float(hi if isinstance(frac, _Strength) else frac)
        cap_frac = cap.controllable_fraction(phase, label)
        if bound > cap_frac + 1e-12:
            violations.append(
                f"strategy attacks up to {bound:g} of {label.value} {phase} samples "
                f"but capability controls {cap_frac:g}"
            )
        if phase == "train" and not cap.affects_training and _can_be_positive(frac):
            violations.append("strategy modifies training data without the capability")
        if phase == "test" and not cap.affects_testing and _can_be_positive(frac):
            violations.append("strategy modifies testing data without the capability")
        if (phase, label) != (generator.phase, Label.MALICIOUS) and _can_be_positive(frac):
            violations.append(
                f"strategy attacks {label.value} {phase} samples but generator {strat.generator} "
                f"replaces only {Label.MALICIOUS.value} {generator.phase} samples"
            )
    if generator.reads_model and not scenario.knowledge.parameters:
        violations.append(f"generator {strat.generator} requires parameter knowledge (k.iv)")
    return violations


def sweep_problems(scenario: AttackScenario, strengths: Sequence[float], family: str | None) -> list[str]:
    """Why the scenario cannot be swept over these strengths against a ``family`` classifier; empty when it can.

    A ``family`` of ``None`` (not known) skips the check that the generator can read the model.
    """
    problems = []
    if 0.0 not in strengths:
        problems.append("strength values must include 0")
    lo, hi = scenario.strength.lo, scenario.strength.hi
    outside = [s for s in strengths if not lo <= s <= hi]
    if outside:
        problems.append(
            f"strength values {outside} outside the scenario's {scenario.strength.name} range [{lo:g}, {hi:g}]"
        )
    problems.extend(f"inconsistent scenario: {v}" for v in check_scenario_consistency(scenario))
    generator = scenario.strategy.generator
    reads = GENERATORS[generator].reads_model if generator in GENERATORS else ()
    if reads and family is not None and family not in reads:
        problems.append(
            f"generator {generator} reads the parameters of a {' or '.join(reads)} model (k.iv), not of a {family}"
        )
    return problems


def build_scenario_pools(
    scenario: AttackScenario,
    phase: str,
    test: Mapping[Label, Dataset],
    model,
    strength: float,
    seed: int,
) -> dict[Label, Dataset]:
    """The attacked pools of one phase at this strength, by label.

    The generator's own phase has one while its malicious fraction is
    positive: the malicious pool the generator builds from ``test``, the
    testing fold's label slices (:meth:`.Dataset.label_slices`), with the
    phase's substream ``derive_rng(seed, "pools", phase)``.  Raises
    ``ValueError("capability violation: ...")`` when the strategy
    manipulates samples the capability does not control.
    """
    generator = GENERATORS[scenario.strategy.generator]
    fraction = scenario.attacked_fraction(phase, Label.MALICIOUS, strength)
    if phase != generator.phase or fraction <= 0.0:
        return {}
    allowed = scenario.capability.controllable_fraction(phase, Label.MALICIOUS)
    if fraction > allowed + 1e-12:
        raise ValueError(
            f"capability violation: strategy attacks {fraction:g} of "
            f"{Label.MALICIOUS.value} {phase} samples but capability allows {allowed:g}"
        )
    return {Label.MALICIOUS: generator.pool(test, model, strength, derive_rng(seed, "pools", phase))}


def scenario_distribution_specs(
    scenario: AttackScenario,
    phase: str,
    strength: float,
    clean: Mapping[Label, Dataset],
    attacked: Mapping[Label, Dataset],
) -> tuple[DistributionSpec, int]:
    """The attacked distribution of one phase at one strength, and the set size to draw.

    Clean components are ``clean``, the label slices of the phase's
    resampled set (:meth:`.Dataset.label_slices`; stationarity:
    unmanipulated samples keep the design distribution); attacked
    components are the pools of :func:`build_scenario_pools`.  A cell of
    zero mass gets no component.  A training set drawn under a prior
    override p holds ``n / (1 - p)`` samples, where ``n`` is the size of
    the resampled set, so that its legitimate part keeps the set's
    expected size; any other set holds ``n``, with the set's own prior.
    """
    n = sum(len(pool) for pool in clean.values())
    if n == 0:
        raise ValueError("empty dataset has no empirical prior")
    prior = scenario.prior_override(strength) if phase == "train" else None
    if prior is None:
        prior = len(clean[Label.MALICIOUS]) / n
    elif prior < 1.0:
        n = int(round(n / (1.0 - prior)))
    components: dict[tuple[Label, AttackFlag], Dataset] = {}
    spec = DistributionSpec(
        prior_malicious=float(prior),
        attack_prob={lab: scenario.attacked_fraction(phase, lab, strength) for lab in Label},
        components=components,
    )
    for lab in Label:
        for flag in AttackFlag:
            if spec.cell_probability(lab, flag) > 0.0:
                pool = clean[lab] if flag is AttackFlag.CLEAN else attacked.get(lab)
                if pool is not None and len(pool) > 0:
                    components[(lab, flag)] = pool
    return spec, n
