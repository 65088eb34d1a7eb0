"""Noise-tolerant fair classification.

Measure and enforce mean-difference fairness (DDP / DEO) when the
sensitive attribute is corrupted under the mutually-contaminated noise
model, by scaling the fairness tolerance; with noise-rate estimation,
randomized-response privacy calibration, a relabeling baseline and a
benchmark harness.
"""

from .core import (Criterion, Dataset, FairnessLoss, FairnessSpec,
                   LinearScorer, accuracy_risk, ddp, deo, disparity,
                   mean_fairness_loss, predictions)
from .denoise import denoise_ccn
from .estimation import (PosteriorModel, estimate_ccn_rates, estimate_eo_rates,
                         fit_posterior)
from .fairtrain import (FairClassifier, TrainConfig, TrainingTrace, load_model,
                        save_model, train_fair, train_fair_noisy)
from .noise import (CCNNoise, EOConditionalNoise, MCNoise, ccn_to_mc,
                    ccn_to_mc_from_corrupted, dp_epsilon_for_rho,
                    dp_rho_for_epsilon, inject_ccn, mc_to_eo, scale_tolerance)

__version__ = "0.1.0"

__all__ = [
    "CCNNoise", "Criterion", "Dataset", "EOConditionalNoise", "FairClassifier",
    "FairnessLoss", "FairnessSpec", "LinearScorer", "MCNoise",
    "PosteriorModel", "TrainConfig", "TrainingTrace", "accuracy_risk",
    "ccn_to_mc", "ccn_to_mc_from_corrupted", "ddp", "denoise_ccn", "deo",
    "disparity", "dp_epsilon_for_rho", "dp_rho_for_epsilon",
    "estimate_ccn_rates", "estimate_eo_rates", "fit_posterior", "inject_ccn",
    "load_model", "mc_to_eo", "mean_fairness_loss", "predictions",
    "save_model", "scale_tolerance", "train_fair", "train_fair_noisy"]
