import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clfsec import attacks
from clfsec.attacks import (
    GENERATORS,
    AttackScenario,
    Capability,
    Influence,
    Knowledge,
    Strategy,
    StrengthParam,
    Trait,
    Violation,
    build_scenario_pools,
    build_spoof_pool,
    check_scenario_consistency,
    gwi_bwo_pool,
    scenario_distribution_specs,
)
from clfsec.classifiers import LinearModel
from clfsec.data_model import (
    AttackFlag,
    Dataset,
    DistributionSpec,
    Label,
    sample_dataset,
)
from clfsec.rng import derive_rng

from canned import canned_scenario
from oracles import gwi_bwo_reference, hamming_ball_minimum

L, M = Label.LEGITIMATE, Label.MALICIOUS


def model(w, b=0.0):
    return LinearModel(np.asarray(w, dtype=float), b)


def attack_one(x, m, n_max):
    """``gwi_bwo_pool`` on a one-row dataset holding ``x``; the attacked row."""
    return gwi_bwo_pool(Dataset.from_arrays(np.atleast_2d(x), [M]), m, n_max).features[0]


class TestGwiBwo:
    def test_single_flip_example(self):
        m = model([2.0, -1.0, 3.0])
        out = attack_one(np.array([1.0, 1.0, 0.0]), m, 1)
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])
        assert float(m.weights @ out) == -1.0  # g fell from 1 to -1

    def test_zero_budget_identity(self):
        m = model([2.0, -1.0, 3.0])
        x = np.array([1.0, 0.0, 1.0])
        np.testing.assert_array_equal(attack_one(x, m, 0), x)

    def test_full_budget_reaches_global_minimum(self, rng):
        w = rng.normal(size=8)
        m = model(w)
        x = (rng.random(8) < 0.5).astype(float)
        out = attack_one(x, m, 8)
        expected = (w < 0).astype(float)  # negative weights set, positive cleared
        zero = w == 0
        np.testing.assert_array_equal(out[~zero], expected[~zero])
        np.testing.assert_array_equal(out[zero], x[zero])  # zero weights untouched
        assert float(w @ out) == pytest.approx(w[w < 0].sum())

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            attack_one(np.array([0.5, 0.0]), model([1.0, 1.0]), 1)

    def test_budget_exceeding_dimension_rejected(self):
        with pytest.raises(ValueError, match="at most the dimension 2, got 3"):
            attack_one(np.array([0.0, 1.0]), model([1.0, 1.0]), 3)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="nonnegative .* got -1"):
            attack_one(np.array([0.0, 1.0]), model([1.0, 1.0]), -1)

    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 12),
        n_max=st.integers(0, 12),
        bias=st.floats(-2, 2),
    )
    def test_greedy_matches_exhaustive_minimum(self, seed, d, n_max, bias):
        rng = np.random.default_rng(seed)
        n_max = min(n_max, d)
        w = np.round(rng.normal(size=d), 3)
        x = (rng.random(d) < 0.5).astype(float)
        m = model(w, bias)
        out = attack_one(x, m, n_max)
        achieved = float(w @ out + bias)
        assert achieved == pytest.approx(hamming_ball_minimum(x, w, bias, n_max), abs=1e-12)

    @given(seed=st.integers(0, 10_000), d=st.integers(1, 16))
    def test_budget_monotonicity_and_feasibility(self, seed, d):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=d)
        x = (rng.random(d) < 0.5).astype(float)
        m = model(w)
        prev = np.inf
        for n_max in range(d + 1):
            out = attack_one(x, m, n_max)
            assert np.sum(out != x) <= n_max
            g = float(w @ out)
            assert g <= prev + 1e-12
            assert g <= float(w @ x) + 1e-12
            prev = g

    def test_pool_matches_per_sample_attack(self, rng):
        d = 10
        generic = rng.normal(size=d)
        # exact zeros and equal |w| exercise the stable tie order
        ties = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 0.0, 1.0, -1.0, -2.0, 1.0])
        X = (rng.random((20, d)) < 0.5).astype(float)
        src = Dataset.from_arrays(X, [M] * 20)
        before = (src.features.copy(), src.label_codes.copy(), src.flag_codes.copy())
        for w in (generic, ties):
            m = model(w)
            for n_max in range(d + 1):
                pool = gwi_bwo_pool(src, m, n_max=n_max)
                assert np.all(pool.flag_codes == 1)
                np.testing.assert_array_equal(pool.label_codes, src.label_codes)
                for i in range(20):
                    np.testing.assert_array_equal(pool.features[i], gwi_bwo_reference(X[i], w, n_max))
        for got, want in zip((src.features, src.label_codes, src.flag_codes), before):
            np.testing.assert_array_equal(got, want)  # the source is not mutated


class TestGwiBwoRowBlocks:
    D = 256

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_matches_per_sample_reference_around_a_block(self, extra):
        rows = attacks._ATTACK_BLOCK_VALUES // self.D + extra
        rng = np.random.default_rng(rows)
        w = rng.normal(size=self.D)
        w[rng.random(self.D) < 0.1] = 0.0  # never flipped
        X = (rng.random((rows, self.D)) < 0.5).astype(float)
        n_max = self.D // 8
        pool = gwi_bwo_pool(Dataset.from_arrays(X, [M] * rows), model(w), n_max)
        want = np.array([gwi_bwo_reference(x, w, n_max) for x in X])
        np.testing.assert_array_equal(pool.features, want)

    def test_non_binary_row_of_a_later_block_rejected(self):
        rows = attacks._ATTACK_BLOCK_VALUES // self.D + 1
        X = np.zeros((rows, self.D))
        X[-1, 3] = 0.5
        with pytest.raises(ValueError, match="binary"):
            gwi_bwo_pool(Dataset.from_arrays(X, [M] * rows), model(np.ones(self.D)), 1)


def spoof_one(impostor, genuine, trait):
    """``build_spoof_pool`` with one impostor row and one genuine row; the spoofed row."""
    imp = Dataset.from_arrays(np.atleast_2d(impostor), [M])
    gen = Dataset.from_arrays(np.atleast_2d(genuine), [L])
    return build_spoof_pool(imp, gen, trait, np.random.default_rng(0)).features[0]


class TestSpoofing:
    def test_fingerprint_substitution(self):
        out = spoof_one([0.2, 0.3], [0.9, 0.8], Trait.FINGERPRINT)
        np.testing.assert_array_equal(out, [0.9, 0.3])

    def test_face_substitution(self):
        out = spoof_one([0.2, 0.3], [0.9, 0.8], Trait.FACE)
        np.testing.assert_array_equal(out, [0.2, 0.8])

    def test_fixed_point(self):
        x = np.array([0.4, 0.6])
        np.testing.assert_array_equal(spoof_one(x, x, Trait.FACE), x)

    @given(
        imp=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        tgt=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        trait=st.sampled_from([Trait.FINGERPRINT, Trait.FACE]),
    )
    def test_conservation(self, imp, tgt, trait):
        imp = np.array(imp)
        out = spoof_one(imp, tgt, trait)
        assert np.sum(out != imp) <= 1  # exactly one coordinate moves, or none

    def test_pool_single_choice(self):
        imp = Dataset.from_arrays(np.array([[0.1, 0.2]]), [M])
        gen = Dataset.from_arrays(np.array([[0.8, 0.9]]), [L])
        pool = build_spoof_pool(imp, gen, Trait.FINGERPRINT, np.random.default_rng(0))
        assert len(pool) == 1
        np.testing.assert_array_equal(pool.features[0], [0.8, 0.2])  # the target's fingerprint score

    def test_pool_cardinality_and_determinism(self, rng):
        imp = Dataset.from_arrays(rng.random((37, 2)), [M] * 37)
        gen = Dataset.from_arrays(rng.random((12, 2)), [L] * 12)
        a = build_spoof_pool(imp, gen, Trait.FACE, np.random.default_rng(9))
        b = build_spoof_pool(imp, gen, Trait.FACE, np.random.default_rng(9))
        assert len(a) == 37 and a == b
        assert np.all(a.flag_codes == 1)
        # the untouched coordinate is bit-identical to the impostor's
        np.testing.assert_array_equal(a.features[:, 0], imp.features[:, 0])

    def test_empty_genuine_pool(self):
        imp = Dataset.from_arrays(np.array([[0.1, 0.2]]), [M])
        with pytest.raises(ValueError, match="empty genuine pool"):
            build_spoof_pool(imp, Dataset.from_arrays(np.empty((0, 2)), []), Trait.FACE, np.random.default_rng(0))


class TestPoisoning:
    """The causative path: poison_injection pools turned into the training spec."""

    def _sets(self, rng, mal_vectors, n=50):
        d_tr = Dataset.from_arrays(rng.normal(size=(n, 2)), [L] * n)
        d_ts = Dataset.from_arrays(
            np.vstack([rng.normal(size=(10, 2)), mal_vectors]), [L] * 10 + [M] * len(mal_vectors)
        )
        return d_tr, d_ts

    def _train_spec(self, d_tr, d_ts, p):
        scen = canned_scenario("ids_poison")
        pools = build_scenario_pools(scen, "train", d_ts.label_slices(), None, p, 0)
        spec, _ = scenario_distribution_specs(scen, "train", p, d_tr.label_slices(), pools)
        return spec

    def test_zero_poison_yields_pure_legitimate(self, rng):
        d_tr, d_ts = self._sets(rng, np.empty((0, 2)))
        out = sample_dataset(self._train_spec(d_tr, d_ts, 0.0), 200, seed=1)
        assert np.all(out.label_codes == 0)

    def test_half_poison_expected_count(self, rng):
        d_tr, d_ts = self._sets(rng, rng.normal(loc=3.0, size=(30, 2)), n=100)
        n = 40_000
        out = sample_dataset(self._train_spec(d_tr, d_ts, 0.5), n, seed=2)
        count = int(out.label_codes.sum())
        sigma = np.sqrt(n * 0.25)
        assert abs(count - 20_000) <= 4 * sigma

    def test_attack_samples_come_from_pool(self, rng):
        vectors = rng.normal(size=(3, 2))
        d_tr, d_ts = self._sets(rng, vectors)
        out = sample_dataset(self._train_spec(d_tr, d_ts, 0.1), 1000, seed=3).gather()
        pool_rows = {tuple(r) for r in vectors}
        attacked = out.features[out.flag_codes == 1]
        assert len(attacked) > 0
        for row in attacked:
            assert tuple(row) in pool_rows
        assert np.all(out.label_codes[out.flag_codes == 1] == 1)

    def test_empty_pool_with_positive_p(self, rng):
        d_tr, d_ts = self._sets(rng, np.empty((0, 2)))
        with pytest.raises(ValueError, match=r"missing component for \(M, T\) with mass 0.2"):
            sample_dataset(self._train_spec(d_tr, d_ts, 0.2), 100, seed=4)

    def test_zero_poison_identical_to_clean_spec(self, rng):
        d_tr, d_ts = self._sets(rng, rng.normal(size=(5, 2)))
        clean_spec = DistributionSpec(
            prior_malicious=0.0,
            attack_prob={L: 0.0, M: 0.0},
            components={(L, AttackFlag.CLEAN): d_tr.restrict(label=L)},
        )
        poisoned0 = self._train_spec(d_tr, d_ts, 0.0)
        assert sample_dataset(poisoned0, 300, seed=42).gather() == sample_dataset(clean_spec, 300, seed=42).gather()


class TestScenarioConsistency:
    def test_canned_scenarios_consistent(self):
        for scen in (canned_scenario("spam_gwi_bwo", [0, 50]), canned_scenario("bio_spoof_fingerprint"), canned_scenario("ids_poison")):
            assert check_scenario_consistency(scen) == []

    def test_exploratory_touching_training_flagged(self):
        scen = canned_scenario("spam_gwi_bwo", [0, 10])
        bad = AttackScenario(
            name="bad",
            influence=Influence.EXPLORATORY,
            violation=Violation.INTEGRITY,
            specificity=0.0,
            knowledge=scen.knowledge,
            capability=Capability(
                affects_training=False,
                affects_testing=True,
                prior_change_allowed=False,
                controllable={("test", M): 1.0, ("train", M): 1.0},
            ),
            strategy=Strategy(
                generator=scen.strategy.generator,
                attacked_fraction={("test", M): 1.0, ("train", M): 0.5},
            ),
            strength=scen.strength,
        )
        issues = check_scenario_consistency(bad)
        assert any("exploratory" in v for v in issues)

    def test_strategy_exceeding_capability_flagged(self):
        scen = canned_scenario("spam_gwi_bwo", [0, 10])
        bad = AttackScenario(
            name="bad",
            influence=scen.influence,
            violation=scen.violation,
            specificity=scen.specificity,
            knowledge=scen.knowledge,
            capability=Capability(
                affects_training=False,
                affects_testing=True,
                prior_change_allowed=False,
                controllable={("test", M): 1.0},  # malicious only
            ),
            strategy=Strategy(
                generator=scen.strategy.generator,
                attacked_fraction={("test", M): 1.0, ("test", L): 0.5},
            ),
            strength=scen.strength,
        )
        issues = check_scenario_consistency(bad)
        assert any("capability controls" in v for v in issues)

    def test_training_prior_override_needs_training_capability(self):
        scen = canned_scenario("bio_spoof_face")
        causative = dataclasses.replace(
            scen,
            influence=Influence.CAUSATIVE,
            capability=dataclasses.replace(scen.capability, prior_change_allowed=True),
            strategy=dataclasses.replace(scen.strategy, prior_override=0.5),
        )
        assert not causative.capability.affects_training
        assert check_scenario_consistency(causative) == [
            "strategy overrides the training prior without the capability to modify training data"
        ]
        granted = dataclasses.replace(causative, capability=dataclasses.replace(causative.capability, affects_training=True))
        assert check_scenario_consistency(granted) == []

    def test_model_knowledge_requirement(self):
        scen = canned_scenario("spam_gwi_bwo", [0, 10])
        blind = AttackScenario(
            name="blind",
            influence=scen.influence,
            violation=scen.violation,
            specificity=scen.specificity,
            knowledge=Knowledge(),  # no k.iv
            capability=scen.capability,
            strategy=scen.strategy,
            strength=scen.strength,
        )
        issues = check_scenario_consistency(blind)
        assert any("k.iv" in v for v in issues)


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_replaces_the_malicious_samples_of_its_own_phase(self, name, rng):
        generator = GENERATORS[name]
        cell = (generator.phase, M)
        scen = AttackScenario(
            name=name,
            influence=Influence.CAUSATIVE,
            violation=Violation.INTEGRITY,
            specificity=0.0,
            knowledge=Knowledge(parameters=True),
            capability=Capability(
                affects_training=True, affects_testing=True, prior_change_allowed=False, controllable={cell: 1.0}
            ),
            strategy=Strategy(generator=name, attacked_fraction={cell: 1.0}),
            strength=StrengthParam("s", 0.0, 2.0),
        )
        assert check_scenario_consistency(scen) == []
        d_ts = Dataset.from_arrays((rng.random((20, 6)) < 0.5).astype(float), [L] * 12 + [M] * 8)
        m = LinearModel(rng.normal(size=6), 0.0) if generator.reads_model else None
        pools = build_scenario_pools(scen, generator.phase, d_ts.label_slices(), m, 2, 0)
        assert list(pools) == [M]
        assert len(pools[M]) == 8
        assert np.all(pools[M].label_codes == 1) and np.all(pools[M].flag_codes == 1)
        other = "train" if generator.phase == "test" else "test"
        assert build_scenario_pools(scen, other, d_ts.label_slices(), m, 2, 0) == {}


    @pytest.mark.parametrize("name", [name for name in sorted(GENERATORS) if GENERATORS[name].strength_invariant])
    def test_strength_invariant_pool_is_the_same_at_every_strength(self, name, rng):
        generator = GENERATORS[name]
        assert generator.reads_model == ()  # so the pool does not change when the model is retrained
        d_ts = Dataset.from_arrays(rng.random((20, 2)), [L] * 12 + [M] * 8)
        first = generator.pool(d_ts.label_slices(), None, 0.25, derive_rng(3, "pools", generator.phase))
        for strength in (0.5, 1.0):
            assert generator.pool(d_ts.label_slices(), None, strength, derive_rng(3, "pools", generator.phase)) == first


class TestScenarioPools:
    def _sets(self, rng):
        d_tr = Dataset.from_arrays(
            (rng.random((30, 6)) < 0.5).astype(float), [L] * 15 + [M] * 15
        )
        d_ts = Dataset.from_arrays(
            (rng.random((20, 6)) < 0.5).astype(float), [L] * 10 + [M] * 10
        )
        return d_tr, d_ts

    def test_exploratory_training_pools_clean_only(self, rng):
        d_tr, d_ts = self._sets(rng)
        scen = canned_scenario("spam_gwi_bwo", [0, 6])
        m = LinearModel(rng.normal(size=6), 0.0)
        assert scen.untouched("train", 2, d_tr)
        train_pools = build_scenario_pools(scen, "train", d_ts.label_slices(), m, 2, 0)
        assert train_pools == {}
        # a training spec built anyway holds only the clean slices of the fold
        spec, n = scenario_distribution_specs(scen, "train", 2, d_tr.label_slices(), train_pools)
        assert set(spec.components) == {(L, AttackFlag.CLEAN), (M, AttackFlag.CLEAN)}
        assert spec.components[(L, AttackFlag.CLEAN)] == d_tr.restrict(label=L)
        assert spec.components[(M, AttackFlag.CLEAN)] == d_tr.restrict(label=M)
        assert spec.attack_prob == {L: 0.0, M: 0.0} and n == len(d_tr)
        test_pools = build_scenario_pools(scen, "test", d_ts.label_slices(), m, 2, 0)
        assert list(test_pools) == [M] and len(test_pools[M]) == 10

    def test_causative_pool_equals_malicious_test_pool(self, rng):
        d_tr = Dataset.from_arrays(rng.normal(size=(20, 2)), [L] * 20)
        mal = rng.normal(loc=3.0, size=(3, 2))
        d_ts = Dataset.from_arrays(
            np.vstack([rng.normal(size=(10, 2)), mal]), [L] * 10 + [M] * 3
        )
        pools = build_scenario_pools(canned_scenario("ids_poison"), "train", d_ts.label_slices(), None, 0.3, 0)
        got = pools[M]
        assert len(got) == 3
        np.testing.assert_array_equal(got.features, mal)

    def test_no_attack_means_empty_attacked_pools(self, rng):
        d_tr, d_ts = self._sets(rng)
        scen = canned_scenario("bio_spoof_face")
        pools = build_scenario_pools(scen, "test", d_ts.label_slices(), None, 0.0, 0)
        # fraction resolves to 0 at strength 0: generator output is not kept
        assert pools == {}
        assert scen.untouched("test", 0.0, d_ts)

    def test_capability_violation(self, rng):
        d_tr, d_ts = self._sets(rng)
        scen = canned_scenario("spam_gwi_bwo", [0, 6])
        over = AttackScenario(
            name="over",
            influence=scen.influence,
            violation=scen.violation,
            specificity=scen.specificity,
            knowledge=scen.knowledge,
            capability=Capability(
                affects_training=False,
                affects_testing=True,
                prior_change_allowed=False,
                controllable={("test", M): 0.5},
            ),
            strategy=scen.strategy,  # attacks all malicious test samples
            strength=scen.strength,
        )
        m = LinearModel(rng.normal(size=6), 0.0)
        with pytest.raises(ValueError, match="capability violation"):
            build_scenario_pools(over, "test", d_ts.label_slices(), m, 1, 0)
