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


def relabel_counts(before, after):
    """(n_to_0, n_to_1): sensitive bits moved 1 -> 0 and 0 -> 1."""
    a, b = before.sensitive, after.sensitive
    return int(((a == 1) & (b == 0)).sum()), int(((a == 0) & (b == 1)).sum())


class TestDenoiseCcn:
    def test_zero_rates_identity(self):
        data = well_separated(n=2000)
        out = denoise_ccn(data, CCNNoise(0.0, 0.0))
        assert np.array_equal(out.sensitive, data.sensitive)

    def test_reverts_most_injected_flips(self):
        data = well_separated()
        corrupted = inject_ccn(data, CCNNoise(0.2, 0.2), 31)
        flipped = corrupted.sensitive != data.sensitive
        cleaned = denoise_ccn(corrupted, CCNNoise(0.2, 0.2))
        reverted = flipped & (cleaned.sensitive == data.sensitive)
        assert reverted.sum() / flipped.sum() >= 0.8

    def test_exact_ceil_counts_and_sensitive_only_changes(self):
        data = well_separated(n=3000, seed=5)
        corrupted = inject_ccn(data, CCNNoise(0.1, 0.3), 7)
        cleaned = denoise_ccn(corrupted, CCNNoise(0.1, 0.3))
        n1 = int((corrupted.sensitive == 1).sum())
        n0 = len(corrupted) - n1
        assert relabel_counts(corrupted, cleaned) == (int(np.ceil(0.1 * n1)),
                                                      int(np.ceil(0.3 * n0)))
        assert np.array_equal(cleaned.features, corrupted.features)
        assert np.array_equal(cleaned.target, corrupted.target)

    def test_whole_group_relabel(self):
        rng = np.random.default_rng(9)
        a = np.array([1, 1, 1] + [0] * 17)
        data = Dataset(rng.normal(0, 1, (20, 2)), a, rng.integers(0, 2, 20))
        cleaned = denoise_ccn(data, CCNNoise(0.99, 0.0))
        assert relabel_counts(data, cleaned) == (3, 0)
        assert (cleaned.sensitive == 0).all()

    def test_ties_break_by_original_index(self):
        # constant features give one flat posterior score, so the lowest
        # indices inside each apparent group are relabeled first
        a = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        data = Dataset(np.ones((8, 1)), a, np.zeros(8, dtype=int))
        cleaned = denoise_ccn(data, CCNNoise(0.5 - 1e-9, 0.3))
        assert relabel_counts(data, cleaned) == (2, 2)
        # ceil(0.5 * 4) = 2 of the apparent-1 group (indices 0, 2) -> 0
        assert cleaned.sensitive[0] == 0 and cleaned.sensitive[2] == 0
        assert cleaned.sensitive[4] == 1 and cleaned.sensitive[6] == 1
        # ceil(0.3 * 4) = 2 of the apparent-0 group (indices 1, 3) -> 1
        assert cleaned.sensitive[1] == 1 and cleaned.sensitive[3] == 1
        assert cleaned.sensitive[5] == 0 and cleaned.sensitive[7] == 0

    def test_deterministic(self):
        data = well_separated(n=2000, seed=6)
        corrupted = inject_ccn(data, CCNNoise(0.15, 0.15), 8)
        a = denoise_ccn(corrupted, CCNNoise(0.15, 0.15))
        b = denoise_ccn(corrupted, CCNNoise(0.15, 0.15))
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
        cleaned = denoise_ccn(corrupted, CCNNoise(0.2, 0.1))
        moved = np.flatnonzero(cleaned.sensitive != corrupted.sensitive)
        assert relabel_counts(corrupted, cleaned) == (1800, 1100)
        assert len(moved) == 2900
        digest = hashlib.sha256(",".join(map(str, moved)).encode()).hexdigest()
        assert digest == ("d227a3ba9f76fa6b1b0337146b466d06"
                          "b213e4e2c2aed9356ce16217c3ebc445")
