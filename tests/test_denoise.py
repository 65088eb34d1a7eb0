"""Relabeling-baseline tests."""

import hashlib

import numpy as np
import pytest

from fairnoise.bench import anchor_synthetic_config, synth_generate
from fairnoise.core import Dataset
from fairnoise.denoise import denoise_ccn
from fairnoise.errors import EmptySlice
from fairnoise.noise import CCNNoise, inject_ccn


def well_separated(n=10_000, seed=2):
    # group feature four sigma apart: posterior margin comfortably >= 0.4
    return synth_generate(anchor_synthetic_config(n=n, seed=seed))


class TestDenoiseCcn:
    def test_zero_rates_identity(self):
        data = well_separated(n=2000)
        out, report = denoise_ccn(data, CCNNoise(0.0, 0.0))
        assert np.array_equal(out.sensitive, data.sensitive)
        assert report.n_to_0 == 0 and report.n_to_1 == 0
        assert report.fraction_relabeled == 0.0
        assert not report.entire_group_relabeled

    def test_reverts_most_injected_flips(self):
        data = well_separated()
        corrupted = inject_ccn(data, CCNNoise(0.2, 0.2), 31)
        flipped = corrupted.sensitive != data.sensitive
        cleaned, report = denoise_ccn(corrupted, CCNNoise(0.2, 0.2))
        reverted = flipped & (cleaned.sensitive == data.sensitive)
        assert reverted.sum() / flipped.sum() >= 0.8
        assert report.fraction_relabeled > 0

    def test_exact_ceil_counts_and_sensitive_only_changes(self):
        data = well_separated(n=3000, seed=5)
        corrupted = inject_ccn(data, CCNNoise(0.1, 0.3), 7)
        cleaned, report = denoise_ccn(corrupted, CCNNoise(0.1, 0.3))
        n1 = int((corrupted.sensitive == 1).sum())
        n0 = len(corrupted) - n1
        assert report.n_to_0 == int(np.ceil(0.1 * n1))
        assert report.n_to_1 == int(np.ceil(0.3 * n0))
        changed_to_0 = ((corrupted.sensitive == 1) & (cleaned.sensitive == 0)).sum()
        changed_to_1 = ((corrupted.sensitive == 0) & (cleaned.sensitive == 1)).sum()
        assert (changed_to_0, changed_to_1) == (report.n_to_0, report.n_to_1)
        assert np.array_equal(cleaned.features, corrupted.features)
        assert np.array_equal(cleaned.target, corrupted.target)

    def test_whole_group_relabel_is_flagged(self):
        rng = np.random.default_rng(9)
        a = np.array([1, 1, 1] + [0] * 17)
        data = Dataset(rng.normal(0, 1, (20, 2)), a, rng.integers(0, 2, 20))
        cleaned, report = denoise_ccn(data, CCNNoise(0.99, 0.0))
        assert report.n_to_0 == 3
        assert report.entire_group_relabeled
        assert (cleaned.sensitive == 0).all()

    def test_ties_break_by_original_index(self):
        # constant features give one flat posterior score, so the lowest
        # indices inside each apparent group are relabeled first
        a = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        data = Dataset(np.ones((8, 1)), a, np.zeros(8, dtype=int))
        cleaned, report = denoise_ccn(data, CCNNoise(0.5 - 1e-9, 0.3))
        # ceil(0.5 * 4) = 2 of the apparent-1 group (indices 0, 2) -> 0
        assert report.n_to_0 == 2
        assert cleaned.sensitive[0] == 0 and cleaned.sensitive[2] == 0
        assert cleaned.sensitive[4] == 1 and cleaned.sensitive[6] == 1
        # ceil(0.3 * 4) = 2 of the apparent-0 group (indices 1, 3) -> 1
        assert report.n_to_1 == 2
        assert cleaned.sensitive[1] == 1 and cleaned.sensitive[3] == 1
        assert cleaned.sensitive[5] == 0 and cleaned.sensitive[7] == 0

    def test_deterministic(self):
        data = well_separated(n=2000, seed=6)
        corrupted = inject_ccn(data, CCNNoise(0.15, 0.15), 8)
        a, _ = denoise_ccn(corrupted, CCNNoise(0.15, 0.15))
        b, _ = denoise_ccn(corrupted, CCNNoise(0.15, 0.15))
        assert np.array_equal(a.sensitive, b.sensitive)

    def test_missing_group_raises(self):
        data = Dataset(np.zeros((4, 1)), [0, 0, 0, 0], [0, 1, 0, 1])
        with pytest.raises(EmptySlice):
            denoise_ccn(data, CCNNoise(0.1, 0.1))

    def test_relabeled_bits_pinned(self):
        # the same corrupted anchor sample as the estimator's pinned rates;
        # the relabeled indices are pinned by digest, so any change to the
        # posterior's ranking scores shows here
        data = well_separated(n=20000, seed=3)
        corrupted = inject_ccn(data, CCNNoise(0.2, 0.1), 100)
        cleaned, report = denoise_ccn(corrupted, CCNNoise(0.2, 0.1))
        moved = np.flatnonzero(cleaned.sensitive != corrupted.sensitive)
        assert (report.n_to_0, report.n_to_1, len(moved)) == (1800, 1100, 2900)
        digest = hashlib.sha256(",".join(map(str, moved)).encode()).hexdigest()
        assert digest == ("d227a3ba9f76fa6b1b0337146b466d06"
                          "b213e4e2c2aed9356ce16217c3ebc445")
