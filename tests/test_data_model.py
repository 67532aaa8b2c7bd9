import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clfsec.data_model import (
    AttackFlag,
    Bootstrap,
    Chronological,
    CrossValidation,
    Dataset,
    DiagonalGaussian,
    DistributionSpec,
    GammaProduct,
    Label,
    encode_labels,
    gamma_log_pdf,
    resample,
    sample_dataset,
    validate_spec,
)
from clfsec.rng import derive_rng

from oracles import sample_replay

L, M = Label.LEGITIMATE, Label.MALICIOUS
F, T = AttackFlag.CLEAN, AttackFlag.ATTACKED


def labeled_dataset(n_l=5, n_m=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_l + n_m, d))
    return Dataset.from_arrays(X, [L] * n_l + [M] * n_m)


def four_cell_spec(pool_source: Dataset, prior=0.5, p_att_l=0.0, p_att_m=0.0):
    pools = {(lab, flag): pool_source.restrict(label=lab) for lab in (L, M) for flag in (F, T)}
    return DistributionSpec(prior_malicious=prior, attack_prob={L: p_att_l, M: p_att_m}, components=pools)


class TestDatasetBasics:
    def test_samples_round_trip(self):
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), encode_labels([M, L]), np.array([1, 0]))
        assert len(ds) == 2 and ds.dimension == 2
        assert ds.label_codes.tolist() == [1, 0] and ds.flag_codes.tolist() == [1, 0]

    def test_immutable(self):
        ds = labeled_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_restrict_and_counts(self):
        ds = labeled_dataset(3, 7)
        assert len(ds.restrict(label=M)) == 7
        assert ds.class_counts() == {L: 3, M: 7}
        assert ds.empirical_prior_malicious() == 0.7


class TestLabelNames:
    def test_every_name_of_each_label(self):
        for lab, names in ((L, ("L", "legitimate", "ham", "genuine")), (M, ("M", "malicious", "spam", "impostor"))):
            for name in names:
                assert Label.parse(name) is lab
                assert Label.parse(f" {name.upper()}\n") is lab
                assert Label.parse(name.lower()) is lab
            assert Label.parse(lab) is lab

    def test_unknown_name_rejected(self):
        for token in ("X", "", "legit", "T"):
            with pytest.raises(ValueError, match="unknown label"):
                Label.parse(token)

    def test_encode_labels_takes_the_same_names(self):
        assert encode_labels(["spam", "ham", L, "M", np.str_("genuine")]).tolist() == [1, 0, 0, 1, 0]
        with pytest.raises(ValueError, match="unknown label 'X'"):
            encode_labels(["M", "X"])


class TestGammaLogPdf:
    def test_matches_scipy(self):
        import scipy.stats as st_

        x = np.concatenate([np.geomspace(1e-6, 50.0, 400), np.linspace(0.01, 3.0, 100)])
        for shape, scale in ((0.3, 2.0), (1.0, 1.0), (2.5, 0.4), (8.0, 0.08), (40.0, 0.05)):
            want = st_.gamma.logpdf(x, shape, scale=scale)
            # relative to the summed terms' size: where they cancel to near 0, no formula keeps 1e-12 of the result
            size = np.abs((shape - 1) * np.log(x)) + x / scale + abs(math.lgamma(shape)) + abs(shape * np.log(scale))
            assert np.all(np.abs(gamma_log_pdf(x, shape, scale) - want) <= 1e-12 * np.maximum(np.abs(want), size))

    def test_minus_inf_at_zero_and_below(self):
        x = np.array([0.0, -0.0, -1e-300, -3.0, -np.inf])
        for shape in (0.5, 1.0, 3.0):
            assert np.all(gamma_log_pdf(x, shape, 1.5) == -np.inf)


class TestDensities:
    def test_sampling_dimension_support_and_mean(self):
        rng = np.random.default_rng(17)
        n = 2_000
        gamma = GammaProduct((2.0, 3.0), (1.0, 0.5))
        x = gamma.sample(rng, n)
        assert gamma.dimension == 2 and x.shape == (n, 2)
        assert np.all(x > 0)
        # first moment shape * scale, within 5 standard errors sqrt(shape) * scale / sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - (2.0, 1.5)) < 5 * np.sqrt((2.0, 3.0)) * (1.0, 0.5) / np.sqrt(n))

        gauss = DiagonalGaussian((0.0, 5.0, -1.0), (1.0, 2.0, 0.5))
        x = gauss.sample(rng, n)
        assert gauss.dimension == 3 and x.shape == (n, 3)
        assert np.all(np.isfinite(x))
        assert np.all(np.abs(x.mean(axis=0) - (0.0, 5.0, -1.0)) < 5 * np.array((1.0, 2.0, 0.5)) / np.sqrt(n))


class TestValidateSpec:
    def test_fully_specified_spec_is_clean(self):
        spec = four_cell_spec(labeled_dataset())
        assert validate_spec(spec) == []

    def test_missing_component_named(self):
        src = labeled_dataset()
        spec = DistributionSpec(
            prior_malicious=0.5,
            attack_prob={L: 0.0, M: 1.0},
            components={
                (L, F): src.restrict(label=L),
                (M, F): src.restrict(label=M),
            },
        )
        report = validate_spec(spec)
        assert len(report) == 1
        assert "(M, T)" in report[0]

    def test_prior_out_of_range(self):
        spec = four_cell_spec(labeled_dataset(), prior=1.2)
        assert any("prior out of range" in v for v in validate_spec(spec))

    def test_empty_pool_with_mass(self):
        src = labeled_dataset(n_l=5, n_m=0)
        spec = DistributionSpec(
            prior_malicious=0.5,
            attack_prob={L: 0.0, M: 0.0},
            components={
                (L, F): src.restrict(label=L),
                (M, F): src.restrict(label=M),
            },
        )
        assert any("empty pool" in v for v in validate_spec(spec))

    def test_pool_of_the_other_label_rejected(self):
        # the cell sets the flag of what it draws, but not the label
        src = labeled_dataset(n_l=1, n_m=3)
        mixed = src.subset(np.array([0, 3]))
        spec = DistributionSpec(
            prior_malicious=0.5,
            attack_prob={L: 0.0, M: 1.0},
            components={(L, F): src.restrict(label=M), (M, T): mixed},
        )
        assert validate_spec(spec) == [
            "pool for (L, F) holds rows of the other label",
            "pool for (M, T) holds rows of the other label",
        ]
        with pytest.raises(ValueError, match=r"invalid spec: pool for \(L, F\) holds rows of the other label"):
            sample_dataset(spec, 4, seed=0)


class TestResample:
    def test_cross_validation_partitions(self):
        ds = labeled_dataset(5, 5)
        folds = resample(ds, CrossValidation(5), seed=3)
        assert folds.k == 5
        all_test = []
        for tr, ts in folds.pairs:
            assert len(ts) == 2 and len(tr) == 8
            all_test.extend(map(tuple, ts.features))
        # disjoint test parts whose union is the design set
        assert len(set(all_test)) == 10
        assert set(all_test) == set(map(tuple, ds.features))

    def test_chronological_definition(self):
        ds = labeled_dataset(2, 2)
        folds = resample(ds, Chronological(2), seed=9)
        assert folds.k == 1
        tr, ts = folds.pairs[0]
        assert np.array_equal(tr.features, ds.features[:2])
        assert np.array_equal(ts.features, ds.features[2:])

    def test_chronological_folds_are_views(self):
        ds = labeled_dataset(6, 6)
        tr, ts = resample(ds, Chronological(5), seed=0).pairs[0]
        for part in (tr, ts):
            for name in ("features", "label_codes", "flag_codes"):
                assert np.shares_memory(getattr(part, name), getattr(ds, name))
        assert tr == ds.subset(np.arange(5)) and ts == ds.subset(np.arange(5, 12))

    def test_bootstrap_deterministic(self):
        ds = labeled_dataset(5, 5)
        a = resample(ds, Bootstrap(3), seed=7)
        b = resample(ds, Bootstrap(3), seed=7)
        for (tr1, ts1), (tr2, ts2) in zip(a.pairs, b.pairs):
            assert tr1 == tr2 and ts1 == ts2

    def test_too_many_folds(self):
        with pytest.raises(ValueError, match="too many folds"):
            resample(labeled_dataset(2, 2), CrossValidation(9), seed=0)


class TestSampleDataset:
    def test_degenerate_point_mass(self):
        v = np.array([3.0, 1.0, 4.0])
        pool = Dataset.from_arrays(v[None, :], [M])
        spec = DistributionSpec(
            prior_malicious=1.0,
            attack_prob={L: 0.0, M: 1.0},
            components={(M, T): pool},
        )
        out = sample_dataset(spec, 5, seed=0).gather()
        assert len(out) == 5
        assert np.all(out.label_codes == 1) and np.all(out.flag_codes == 1)
        assert np.all(out.features == v)

    def test_balanced_prior_concentration(self):
        import scipy.stats as st_

        spec = four_cell_spec(labeled_dataset(50, 50, seed=1))
        out = sample_dataset(spec, 10_000, seed=123)
        n_m = int(out.label_codes.sum())
        # binomial oracle: a 1e-6 two-sided quantile band around n/2
        lo = st_.binom.ppf(1e-6, 10_000, 0.5)
        hi = st_.binom.isf(1e-6, 10_000, 0.5)
        assert lo <= n_m <= hi
        assert abs(n_m / 10_000 - 0.5) <= 0.02

    def test_full_attack_on_malicious_only(self):
        # testing-phase row of the first application scenario: every
        # malicious sample manipulated, no legitimate one
        spec = four_cell_spec(labeled_dataset(20, 20, seed=2), p_att_l=0.0, p_att_m=1.0)
        out = sample_dataset(spec, 500, seed=5)
        mal = out.flag_codes[out.label_codes == 1]
        leg = out.flag_codes[out.label_codes == 0]
        assert np.all(mal == 1) and np.all(leg == 0)

    def test_empty_pool_error_identifies_cell(self):
        pool = Dataset.from_arrays(np.empty((0, 2)), [])
        spec = DistributionSpec(
            prior_malicious=1.0,
            attack_prob={L: 0.0, M: 1.0},
            components={(M, T): pool},
        )
        with pytest.raises(ValueError, match=r"\(M, T\)"):
            sample_dataset(spec, 3, seed=0)

    def test_deterministic(self):
        spec = four_cell_spec(labeled_dataset(30, 30, seed=4), p_att_m=0.3)
        a = sample_dataset(spec, 500, seed=99).gather()
        b = sample_dataset(spec, 500, seed=99).gather()
        assert a == b

    def test_mixture_law_cell_frequencies(self):
        prior, p_l, p_m = 0.3, 0.2, 0.7
        spec = four_cell_spec(labeled_dataset(40, 40, seed=6), prior, p_l, p_m)
        n = 100_000
        out = sample_dataset(spec, n, seed=7)
        probs = {
            (0, 0): (1 - prior) * (1 - p_l),
            (0, 1): (1 - prior) * p_l,
            (1, 0): prior * (1 - p_m),
            (1, 1): prior * p_m,
        }
        for (lc, fc), p in probs.items():
            count = int(np.sum((out.label_codes == lc) & (out.flag_codes == fc)))
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(count - n * p) <= 4 * sigma, (lc, fc, count, n * p)

    def test_stationarity_clean_samples_from_pool(self):
        src = labeled_dataset(25, 25, seed=8)
        spec = four_cell_spec(src, p_att_m=0.5)
        out = sample_dataset(spec, 400, seed=11).gather()
        pool_rows = {lab: {tuple(r) for r in src.restrict(label=lab).features} for lab in (L, M)}
        for row, code, flag in zip(out.features, out.label_codes, out.flag_codes):
            if flag == 0:
                assert tuple(row) in pool_rows[M if code else L]

    def test_pool_draws_in_cell_order(self):
        # one feature-substream batch per non-empty cell, in the order (L,F), (L,T), (M,F), (M,T)
        src = labeled_dataset(10, 10, seed=15)
        components = {}
        for lab in (L, M):
            pool = src.restrict(label=lab)
            components[(lab, F)] = pool
            components[(lab, T)] = Dataset(pool.features + 100.0, pool.label_codes, np.ones(10, dtype=np.uint8))
        other = four_cell_spec(labeled_dataset(4, 7, seed=16))
        for attack_prob in ({L: 0.3, M: 0.6}, {L: 0.0, M: 1.0}):
            spec = DistributionSpec(0.5, attack_prob, components)
            out = sample_dataset(spec, 300, seed=5).gather()
            rng = derive_rng(5, "features")
            want = np.zeros((300, 3))
            for lab, flag in ((L, F), (L, T), (M, F), (M, T)):
                idx = np.flatnonzero((out.label_codes == (lab is M)) & (out.flag_codes == (flag is T)))
                if idx.size:
                    pool = components[(lab, flag)]
                    want[idx] = pool.features[rng.integers(0, len(pool), size=idx.size)]
            assert 0 < int(out.flag_codes.sum()) < 300
            assert np.array_equal(out.features, want)

            # pools of other rows and sizes draw the same label and flag codes
            moved = sample_dataset(DistributionSpec(0.5, attack_prob, other.components), 300, seed=5).gather()
            assert np.array_equal(moved.label_codes, out.label_codes)
            assert np.array_equal(moved.flag_codes, out.flag_codes)
            assert not np.array_equal(moved.features, out.features)

    @given(
        prior=st.floats(0.0, 1.0),
        p_l=st.floats(0.0, 1.0),
        p_m=st.floats(0.0, 1.0),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_validate_soundness(self, prior, p_l, p_m, n, seed):
        # if validation passes and positive-mass pools are non-empty,
        # sampling never raises
        spec = four_cell_spec(labeled_dataset(4, 4, seed=14), prior, p_l, p_m)
        assert validate_spec(spec) == []
        out = sample_dataset(spec, n, seed=seed)
        assert len(out) == n

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 30), min_size=4, max_size=4),
        prior=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        p_l=st.sampled_from([0.0, 0.4, 1.0]),
        p_m=st.sampled_from([0.0, 0.7, 1.0]),
        n=st.integers(1, 50),
        sample_seed=st.integers(0, 2**16),
    )
    def test_gather_equals_replay_of_the_substreams(self, seed, sizes, prior, p_l, p_m, n, sample_seed):
        # pools of repeated rows (ties) and of more rows than the draw takes (rows drawn 0 times)
        rng = np.random.default_rng(seed)
        cells = ((L, F), (L, T), (M, F), (M, T))
        components = {}
        for (lab, flag), size in zip(cells, sizes):
            if size:
                values = rng.integers(0, 3, size=(size, 2)).astype(float) + (10.0 if flag is T else 0.0)
                components[(lab, flag)] = Dataset(values, np.full(size, int(lab is M)), np.full(size, int(flag is T)))
        spec = DistributionSpec(prior, {L: p_l, M: p_m}, components)
        if validate_spec(spec) or not components:
            return
        draw = sample_dataset(spec, n, seed=sample_seed)
        assert draw.gather() == sample_replay(spec, n, sample_seed)
        pools, counts = draw.multiplicities()
        assert int(counts.sum()) == n and len(counts) == sum(len(p) for p in pools)

    @given(calls=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1, 7, 40]), st.integers(0, 20)), max_size=12))
    def test_reused_streams_equal_fresh_ones(self, calls):
        # a (seed, n) called again gets its kept streams back, the feature stream restarted,
        # while new pairs evict the least recently used
        from clfsec.data_model import _streams

        for seed, n, take in calls:
            u_y, u_a, features = _streams(seed, n)
            labels = derive_rng(seed, "labels")
            assert np.array_equal(u_y, labels.random(n))
            assert np.array_equal(u_a, labels.random(n))
            fresh = derive_rng(seed, "features")
            assert np.array_equal(features.integers(0, 9, size=take), fresh.integers(0, 9, size=take))

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 50),
        specs=st.lists(
            st.tuples(st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 9)),
            min_size=2,
            max_size=4,
        ),
        interleaved=st.booleans(),
    )
    def test_successive_draws_equal_fresh_ones(self, seed, n, specs, interleaved):
        # a sweep item's strengths: one (seed, n), specs that differ in prior, attack probability and pools,
        # with or without another seed's draw (a training set) in between
        for prior, p_m, pool_seed in specs:
            spec = four_cell_spec(labeled_dataset(3, 4, seed=pool_seed), prior, 0.0, p_m)
            assert sample_dataset(spec, n, seed).gather() == sample_replay(spec, n, seed)
            if interleaved:
                sample_dataset(spec, n + 1, seed + 1)

    def test_degenerate_priors_legal(self):
        spec = four_cell_spec(labeled_dataset(), prior=0.0)
        out = sample_dataset(spec, 50, seed=0)
        assert np.all(out.label_codes == 0)
