"""Drawing attacked datasets from the factorized generative model.

The data model is p(Y) p(A|Y) p(X|Y,A): a class label, a Boolean "was this
sample manipulated?" flag, and per-(class, flag) feature distributions.  As
in the paper's applications, each p(X|Y,A) is an empirical pool: a dataset
whose rows are drawn with replacement.  This script builds a spec by hand
from a legitimate pool, a malicious pool and an attacked pool, samples from
it, checks the mixture frequencies, and shows that a stronger attack moves
only the attacked rows of a sampled set.  A sample is a draw: which pool
row each sample is, with no feature copied until the set is gathered.
"""

import numpy as np

from clfsec import (
    AttackFlag,
    Dataset,
    DiagonalGaussian,
    DistributionSpec,
    Label,
    sample_dataset,
    validate_spec,
)

L, M = Label.LEGITIMATE, Label.MALICIOUS
F, T = AttackFlag.CLEAN, AttackFlag.ATTACKED

# -- three pools: Gaussian-drawn legitimate traffic, known malicious samples,
#    and those malicious samples moved toward legitimate traffic -----------

rng = np.random.default_rng(0)
legitimate = Dataset.from_arrays(DiagonalGaussian(mean=(0.0, 0.0), std=(1.0, 1.0)).sample(rng, 200), [L] * 200)
malicious = Dataset.from_arrays(rng.normal(loc=2.5, size=(25, 2)), [M] * 25)
legitimate_mean = legitimate.features.mean(axis=0)


def attacked_pool(strength):
    """The malicious pool moved ``strength`` of the way to the legitimate mean, flagged as attacked."""
    moved = malicious.features + strength * (legitimate_mean - malicious.features)
    return Dataset(moved, malicious.label_codes, np.ones(len(malicious), dtype=np.uint8))


def spec_at(strength):
    """40% malicious samples, 30% of which the adversary manipulated."""
    return DistributionSpec(
        prior_malicious=0.4,
        attack_prob={L: 0.0, M: 0.3},
        components={(L, F): legitimate, (M, F): malicious, (M, T): attacked_pool(strength)},
    )


spec = spec_at(0.5)
print("spec violations:", validate_spec(spec) or "none")

draw = sample_dataset(spec, 20_000, seed=7)
data = draw.gather()  # the features of each drawn pool row
print(f"\nsampled {len(draw)} points, dimension {data.dimension}")
for lab in (L, M):
    for flag in (F, T):
        frac = np.mean((data.label_codes == (lab is M)) & (data.flag_codes == (flag is T)))
        print(f"  cell ({lab.value}, {flag.value}): {frac:.4f}")
print("expected: (L,F)=0.6000, (M,F)=0.2800, (M,T)=0.1200")

# determinism: the same seed reproduces the dataset bit for bit
assert sample_dataset(spec, 20_000, seed=7).gather() == data
print("\nresampling with the same seed is bit-identical")

# -- a stronger attack, same seed: only the attacked rows move ------------

stronger_draw = sample_dataset(spec_at(0.9), 20_000, seed=7)
# the same pool rows are drawn; only the attacked pool's contents differ
assert np.array_equal(stronger_draw.cells[(M, T)][2], draw.cells[(M, T)][2])
stronger = stronger_draw.gather()
attacked = data.flag_codes == 1
assert np.array_equal(stronger.label_codes, data.label_codes)
assert np.array_equal(stronger.flag_codes, data.flag_codes)
assert np.array_equal(stronger.features[~attacked], data.features[~attacked])


def distance(rows):
    return np.linalg.norm(rows - legitimate_mean, axis=1).mean()


print(f"\nstrength 0.5 -> 0.9: labels, flags and the {int((~attacked).sum())} clean rows are bit-identical;")
print(
    f"the {int(attacked.sum())} attacked rows moved from {distance(data.features[attacked]):.3f} "
    f"to {distance(stronger.features[attacked]):.3f} (mean distance to the legitimate mean)"
)
