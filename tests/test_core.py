"""Metrics and data-model tests."""

import pickle

import numpy as np
import pytest

from fairnoise.core import (ConstantScorer, Criterion, Dataset,
                            DiscretePopulation, FairnessLoss, FairnessSpec,
                            LabeledExample, LinearScorer, accuracy_risk,
                            condition_population, ddp, deo,
                            mean_fairness_loss, predictions)
from fairnoise.errors import (EmptyDataset, EmptySlice, PairingWarning,
                              ValidationError)

from _random_cases import random_dataset, random_population, random_scorer

PNP = FairnessLoss.PREDICT_NONPOSITIVE
ZO = FairnessLoss.ZERO_ONE


def dataset_from_rows(rows):
    """rows of (features, a, y)."""
    return Dataset(np.array([r[0] for r in rows], dtype=float),
                   [r[1] for r in rows], [r[2] for r in rows])


class TestMeanFairnessLoss:
    def test_constant_positive_scorer_gives_zero_pnp_loss(self):
        data = dataset_from_rows([((0.0,), 0, 0), ((1.0,), 1, 1), ((2.0,), 0, 1)])
        assert mean_fairness_loss(data, ConstantScorer(1.0), PNP) == 0.0
        assert mean_fairness_loss(data, ConstantScorer(1.0), PNP, sensitive=0) == 0.0

    def test_quarter_loss_from_direct_count(self):
        # predictions 1,0,1,1 -> one non-positive out of four
        data = dataset_from_rows([((1.0,), 0, 0), ((-1.0,), 0, 0),
                                  ((2.0,), 0, 1), ((3.0,), 0, 1)])
        scorer = LinearScorer([1.0])
        assert mean_fairness_loss(data, scorer, PNP) == 0.25

    def test_perfect_scorer_gives_zero_zero_one_loss(self):
        data = dataset_from_rows([((1.0,), 0, 1), ((0.0,), 1, 0), ((1.0,), 1, 1)])
        scorer = LinearScorer([1.0], -0.5)  # predicts the target feature
        assert mean_fairness_loss(data, scorer, ZO) == 0.0

    def test_empty_slice_raises(self):
        data = dataset_from_rows([((0.0,), 0, 0)])
        with pytest.raises(EmptySlice):
            mean_fairness_loss(data, ConstantScorer(1.0), PNP, sensitive=1)

    def test_score_zero_predicts_class_zero(self):
        data = dataset_from_rows([((5.0,), 0, 1)])
        assert mean_fairness_loss(data, ConstantScorer(0.0), PNP) == 1.0


class TestDdp:
    def test_constant_scorer_is_fair(self):
        data = dataset_from_rows([((0.0,), 0, 0), ((0.0,), 1, 1)])
        assert ddp(data, ConstantScorer(3.0)) == 0.0
        assert ddp(data, ConstantScorer(-3.0)) == 0.0

    def test_rate_gap_half(self):
        # A=0 predicts positive at rate 1/2, A=1 at rate 1
        data = dataset_from_rows([((1.0,), 0, 0), ((-1.0,), 0, 0),
                                  ((1.0,), 1, 0), ((2.0,), 1, 0)])
        assert ddp(data, LinearScorer([1.0]), PNP) == 0.5

    def test_paired_design_is_fair(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (40, 2))
        data = Dataset(np.vstack([X, X]), [0] * 40 + [1] * 40,
                       [0] * 40 + [0] * 40)
        assert ddp(data, random_scorer(rng, 2)) == 0.0

    def test_missing_group_raises(self):
        data = dataset_from_rows([((0.0,), 0, 0), ((1.0,), 0, 1)])
        with pytest.raises(EmptySlice):
            ddp(data, ConstantScorer(1.0))


class TestDeo:
    def test_perfect_scorer(self):
        data = dataset_from_rows([((1.0,), 0, 1), ((0.0,), 0, 0),
                                  ((1.0,), 1, 1), ((0.0,), 1, 0)])
        assert deo(data, LinearScorer([1.0], -0.5)) == 0.0

    def test_tpr_gap(self):
        # group 0: 9 of 10 positives predicted positive; group 1: 7 of 10
        rows = []
        for i in range(10):
            rows.append(((1.0 if i < 9 else -1.0,), 0, 1))
        for i in range(10):
            rows.append(((1.0 if i < 7 else -1.0,), 1, 1))
        data = dataset_from_rows(rows)
        assert deo(data, LinearScorer([1.0])) == pytest.approx(0.2, abs=1e-12)

    def test_constant_positive_scorer(self):
        data = dataset_from_rows([((0.0,), 0, 1), ((0.0,), 1, 1)])
        assert deo(data, ConstantScorer(1.0)) == 0.0

    def test_missing_positive_group_raises(self):
        data = dataset_from_rows([((0.0,), 0, 1), ((0.0,), 1, 0)])
        with pytest.raises(EmptySlice):
            deo(data, ConstantScorer(1.0))


class TestAccuracyRisk:
    def test_perfect_and_inverted(self):
        data = dataset_from_rows([((1.0,), 0, 1), ((0.0,), 1, 0),
                                  ((1.0,), 1, 1)])
        hit = LinearScorer([1.0], -0.5)
        miss = LinearScorer([-1.0], 0.5)
        assert accuracy_risk(data, hit) == 0.0
        assert accuracy_risk(data, miss) == 1.0

    def test_three_of_ten_wrong(self):
        rows = [((1.0,), 0, 1)] * 7 + [((1.0,), 0, 0)] * 3
        data = dataset_from_rows(rows)
        assert accuracy_risk(data, LinearScorer([1.0])) == pytest.approx(0.3, abs=1e-12)

    def test_empty_dataset(self):
        data = Dataset(np.zeros((0, 2)), [], [])
        with pytest.raises(EmptyDataset):
            accuracy_risk(data, ConstantScorer(1.0))

    def test_large_sample_mean_is_exact(self):
        # 0/1 losses sum exactly, so the mean is the error count over n
        n = 100_001
        rng = np.random.default_rng(5)
        y = (rng.uniform(size=n) < 0.3).astype(int)
        data = Dataset(rng.normal(size=(n, 1)), rng.integers(0, 2, n), y)
        scorer = LinearScorer([1.0])
        wrong = int((predictions(scorer, data.features) != y).sum())
        assert accuracy_risk(data, scorer) == wrong / n
        ones = int((predictions(scorer, data.features) == 1).sum())
        assert mean_fairness_loss(data, scorer, PNP) == (n - ones) / n


class TestInvariants:
    def test_group_relabel_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            data = random_dataset(rng)
            scorer = random_scorer(rng, data.dimension)
            flipped = data.with_sensitive(1 - data.sensitive)
            assert ddp(data, scorer) == pytest.approx(ddp(flipped, scorer), abs=1e-15)
            if ((data.sensitive == 0) & (data.target == 1)).any() and \
               ((data.sensitive == 1) & (data.target == 1)).any():
                assert deo(data, scorer) == pytest.approx(deo(flipped, scorer),
                                                          abs=1e-15)

    def test_metrics_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            data = random_dataset(rng)
            scorer = random_scorer(rng, data.dimension)
            for loss in (PNP, ZO):
                assert 0.0 <= ddp(data, scorer, loss) <= 1.0
            assert 0.0 <= accuracy_risk(data, scorer) <= 1.0

    def test_ddp_equals_positive_rate_gap(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            data = random_dataset(rng)
            scorer = random_scorer(rng, data.dimension)
            preds = predictions(scorer, data.features)
            r0 = preds[data.sensitive == 0].mean()
            r1 = preds[data.sensitive == 1].mean()
            assert ddp(data, scorer, PNP) == pytest.approx(abs(r1 - r0), abs=1e-12)

    def test_population_metrics_match_materialized_dataset(self):
        from fairnoise.bench import materialize
        rng = np.random.default_rng(14)
        for _ in range(10):
            pop = random_population(rng, require_all_cells=True)
            counts = rng.integers(1, 60, pop.n_cells)
            mass = counts / counts.sum()
            pop = DiscretePopulation(pop.features, pop.sensitive, pop.target,
                                     mass / mass.sum())
            data = materialize(pop, int(counts.sum()))
            scorer = random_scorer(rng, pop.dimension)
            assert ddp(pop, scorer) == pytest.approx(ddp(data, scorer), abs=1e-12)
            assert deo(pop, scorer) == pytest.approx(deo(data, scorer), abs=1e-12)
            assert accuracy_risk(pop, scorer) == pytest.approx(
                accuracy_risk(data, scorer), abs=1e-12)


class TestDataModel:
    def test_labeled_example_validation(self):
        with pytest.raises(ValidationError):
            LabeledExample((0.0,), 2, 0)
        with pytest.raises(ValidationError):
            LabeledExample((0.0,), 0, -1)

    def test_dataset_validation(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 2)), [0, 2], [0, 1])
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 2)), [0], [0, 1])
        with pytest.raises(ValidationError):
            Dataset(np.array([[np.nan, 0.0]]), [0], [0])

    def test_dataset_immutable(self):
        data = Dataset(np.zeros((2, 2)), [0, 1], [0, 1])
        with pytest.raises(AttributeError):
            data.sensitive = np.array([1, 1])
        with pytest.raises(ValueError):
            data.features[0, 0] = 5.0

    def test_dataset_pickle_round_trip(self):
        data = Dataset(np.array([[0.5, -1.0], [2.0, 3.25], [1e-300, 7.0]]),
                       [0, 1, 1], [1, 0, 1])
        back = pickle.loads(pickle.dumps(data))
        for name in ("features", "sensitive", "target"):
            want, got = getattr(data, name), getattr(back, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        with pytest.raises(AttributeError):
            back.sensitive = np.array([1, 1, 1])
        with pytest.raises(ValueError):
            back.features[0, 0] = 5.0

    def test_from_examples_roundtrip(self):
        examples = [LabeledExample((1.0, 2.0), 0, 1),
                    LabeledExample((3.0, 4.0), 1, 0)]
        data = Dataset.from_examples(examples)
        assert list(data) == examples
        assert data.dimension == 2
        with pytest.raises(ValidationError):
            Dataset.from_examples([LabeledExample((1.0,), 0, 0),
                                   LabeledExample((1.0, 2.0), 0, 0)])

    def test_population_mass_validation(self):
        with pytest.raises(ValidationError):
            DiscretePopulation(np.zeros((2, 1)), [0, 1], [0, 1], [0.5, 0.6])
        with pytest.raises(ValidationError):
            DiscretePopulation(np.zeros((2, 1)), [0, 1], [0, 1], [-0.2, 1.2])

    def test_condition_population(self):
        pop = DiscretePopulation(np.array([[0.0], [1.0], [2.0]]),
                                 [0, 1, 1], [1, 1, 0], [0.2, 0.3, 0.5])
        sub = condition_population(pop, sensitive=1)
        assert sub.mass.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(sub.mass, [0.375, 0.625])
        with pytest.raises(EmptySlice):
            condition_population(pop, sensitive=0, target=0)

    def test_base_rates(self):
        data = dataset_from_rows([((0.0,), 0, 1), ((0.0,), 1, 1),
                                  ((0.0,), 1, 0), ((0.0,), 1, 1)])
        assert data.base_rate() == 0.75
        assert data.target_rate_given_sensitive(1) == pytest.approx(2 / 3)


class TestFairnessSpec:
    def test_default_pairing(self):
        spec = FairnessSpec(Criterion.DEMOGRAPHIC_PARITY, tolerance=0.1)
        assert spec.fairness_loss == PNP
        spec = FairnessSpec(Criterion.EQUAL_OPPORTUNITY, tolerance=0.1)
        assert spec.fairness_loss == ZO

    def test_non_default_pairing_flagged(self):
        with pytest.warns(PairingWarning):
            FairnessSpec(Criterion.DEMOGRAPHIC_PARITY, ZO, 0.1)

    def test_negative_tolerance_rejected(self):
        for tolerance in (-0.1, float("nan")):
            with pytest.raises(ValidationError):
                FairnessSpec(Criterion.DEMOGRAPHIC_PARITY, tolerance=tolerance)
        # +inf means unconstrained
        FairnessSpec(Criterion.DEMOGRAPHIC_PARITY, tolerance=float("inf"))
