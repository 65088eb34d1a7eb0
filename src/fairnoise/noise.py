"""Sensitive-attribute noise: the mutually-contaminated (MC) model and
its class-conditional (CCN) special case; censoring is CCNNoise(0, rho-).

Provides sample-level injection, parameter conversions between the CCN,
MC and EO-conditional parameterisations, tolerance scaling, and
randomized-response differential-privacy calibration.

Injection reproducibility: each injection call owns one
``numpy.random.default_rng(seed)`` (PCG64) generator and consumes one
uniform draw per example, in example order, so equal seeds give
bit-identical corruption within a build.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateBaseRate, DegenerateConditional,
                     NonPositiveEpsilon, OutOfRangeRho, ValidationError)


def _check_rates(a, b, names):
    if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0):
        raise ValidationError(f"{names[0]} and {names[1]} must lie in [0, 1)")
    if a + b >= 1.0:
        raise ValidationError(
            f"{names[0]} + {names[1]} must be < 1 (got {a + b}); with a sum "
            "above 1, flip the two sensitive labels and model the flipped data")


@dataclass(frozen=True)
class MCNoise:
    """Mixture weights of the MC model: the observed A=1 conditional is
    (1-alpha) * clean A=1 + alpha * clean A=0, and the observed A=0
    conditional is beta * clean A=1 + (1-beta) * clean A=0."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_rates(self.alpha, self.beta, ("alpha", "beta"))

    @property
    def rate_sum(self):
        return self.alpha + self.beta


@dataclass(frozen=True)
class CCNNoise:
    """Independent flip rates: 1 -> 0 with rho_plus, 0 -> 1 with rho_minus.

    The censoring (PU) setting is the special case with one rate zero.
    """

    rho_plus: float
    rho_minus: float

    def __post_init__(self):
        _check_rates(self.rho_plus, self.rho_minus, ("rho_plus", "rho_minus"))


@dataclass(frozen=True)
class EOConditionalNoise:
    """MC mixture weights of the Y=1 slice (the EO-relevant corruption)."""

    alpha_prime: float
    beta_prime: float

    def __post_init__(self):
        _check_rates(self.alpha_prime, self.beta_prime, ("alpha_prime", "beta_prime"))

    @property
    def rate_sum(self):
        return self.alpha_prime + self.beta_prime


def inject_ccn(data, noise, seed):
    """Flip each example's sensitive bit independently at the CCN rates.

    Features and targets are untouched; deterministic given the seed.
    Row i flips when ``default_rng(seed).random(len(data))[i]`` is below
    its rate. ``bench.synth_generate`` picks row i's (A, Y) cell from the
    same uniform of the same seed, so injecting into an unshuffled sample
    with the seed it was drawn with ties the flips to the cells and they
    are not independent: on ``anchor_synthetic_config(n=20000, seed=3)``
    at 0.15/0.15 and seed 3 no A=1 row flips, and ``estimate_ccn_rates``
    reads (0.0, 0.016). Use another seed.
    """
    if not isinstance(noise, CCNNoise):
        raise ValidationError("noise must be a CCNNoise")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    u = rng.random(len(data))
    a = data.sensitive
    flip = np.where(a == 1, u < noise.rho_plus, u < noise.rho_minus)
    return data.with_sensitive(np.where(flip, 1 - a, a))


def ccn_to_mc(noise, pi_a):
    """MC parameters induced by CCN flips at clean base rate P[A=1] = pi_a.

    Returns (MCNoise, corrupted base rate). The corrupted base rate is
    (1-rho+) pi_a + rho- (1-pi_a); alpha = rho- (1-pi_a) / pi_corr and
    beta = rho+ pi_a / (1-pi_corr).
    """
    if not 0.0 < pi_a < 1.0:
        raise DegenerateBaseRate("pi_a must lie in (0, 1)")
    rp, rm = noise.rho_plus, noise.rho_minus
    pi_corr = (1.0 - rp) * pi_a + rm * (1.0 - pi_a)
    if not 0.0 < pi_corr < 1.0:
        raise DegenerateBaseRate(f"corrupted base rate {pi_corr} is degenerate")
    alpha = rm * (1.0 - pi_a) / pi_corr
    beta = rp * pi_a / (1.0 - pi_corr)
    return MCNoise(alpha, beta), pi_corr


def ccn_to_mc_from_corrupted(noise, pi_corr):
    """As ``ccn_to_mc`` but starting from the observed corrupted base rate.

    Inverts pi_a = (pi_corr - rho-) / (1 - rho+ - rho-), which is what a
    consumer of corrupted data can actually compute. Returns
    (MCNoise, clean base rate).
    """
    if not 0.0 < pi_corr < 1.0:
        raise DegenerateBaseRate("pi_corr must lie in (0, 1)")
    pi_a = (pi_corr - noise.rho_minus) / (1.0 - noise.rho_plus - noise.rho_minus)
    if not 0.0 < pi_a < 1.0:
        raise DegenerateBaseRate(
            f"implied clean base rate {pi_a} is outside (0, 1); the supplied "
            "rates are inconsistent with the observed corrupted base rate")
    mc, _ = ccn_to_mc(noise, pi_a)
    return mc, pi_a


def mc_to_eo(noise, p_y1_given_a1, p_y1_given_a0):
    """EO-conditional mixture weights implied by MC noise on A.

    alpha' = alpha q0 / ((1-alpha) q1 + alpha q0) and
    beta'  = beta  q1 / (beta q1 + (1-beta) q0), with q_a = P[Y=1 | A=a].
    The result always satisfies alpha' + beta' < 1.
    """
    q1, q0 = p_y1_given_a1, p_y1_given_a0
    if not (0.0 < q1 < 1.0 and 0.0 < q0 < 1.0):
        raise DegenerateConditional("conditional base rates must lie in (0, 1)")
    den_a = (1.0 - noise.alpha) * q1 + noise.alpha * q0
    den_b = noise.beta * q1 + (1.0 - noise.beta) * q0
    if den_a <= 0.0 or den_b <= 0.0:
        raise DegenerateConditional("mixture denominator vanished")
    return EOConditionalNoise(noise.alpha * q0 / den_a, noise.beta * q1 / den_b)


def scale_tolerance(tau, noise):
    """The scaled tolerance tau * (1 - alpha - beta) that makes the fairness
    constraint on corrupted data equivalent to the clean constraint."""
    if not tau >= 0:
        raise ValidationError("tau must be >= 0")
    if isinstance(noise, (MCNoise, EOConditionalNoise)):
        return tau * (1.0 - noise.rate_sum)
    raise ValidationError("noise must be MCNoise or EOConditionalNoise")


def dp_rho_for_epsilon(eps):
    """Minimal symmetric flip rate giving (eps, 0) differential privacy:
    rho = 1 / (exp(eps) + 1), which is 0 once exp(eps) overflows."""
    if eps <= 0:
        raise NonPositiveEpsilon("epsilon must be > 0")
    try:
        return 1.0 / (math.exp(eps) + 1.0)
    except OverflowError:
        return 0.0


def dp_epsilon_for_rho(rho):
    """Tightest epsilon guaranteed by symmetric randomized response:
    eps = ln((1-rho)/rho).

    rho >= 0.5 is rejected: at rho = 0.5 all information about the
    sensitive attribute is gone (alpha + beta = 1), which is equivalent
    to not measuring it at all.
    """
    if not 0.0 < rho < 0.5:
        raise OutOfRangeRho("rho must lie in (0, 0.5)")
    return math.log((1.0 - rho) / rho)
