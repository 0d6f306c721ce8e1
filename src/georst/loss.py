"""Portfolio tail-loss quantile: analytic single-factor approximation plus
a seeded Monte Carlo oracle over the latent-factor default model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidInputError
from .special_functions import normal_pdf
from .transmission import Portfolio

_PD_FLOOR = 1e-300
_PD_CAP = 1.0 - 1e-16


@dataclass(frozen=True)
class LossQuantileSpec:
    """Confidence level of the loss quantile."""

    q: float = 0.999

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise InvalidInputError(f"confidence level q={self.q} must be in (0, 1)")


def clip_pd(pd) -> np.ndarray:
    """PD clipped into the open interval where Phi^-1 is finite."""
    return np.clip(np.asarray(pd, dtype=float), _PD_FLOOR, _PD_CAP)


def conditional_default_prob(pd, rho, q: float):
    """Phi((Phi^-1(pd) + sqrt(rho) Phi^-1(q)) / sqrt(1 - rho))."""
    rho = np.asarray(rho, dtype=float)
    return ndtr((ndtri(clip_pd(pd)) + np.sqrt(rho) * ndtri(q))
                / np.sqrt(1.0 - rho))


def tail_pd_derivative(zp, arg, sqrt_1mrho):
    """d/dpd of the conditional default probability Phi(arg), given
    zp = Phi^-1(pd): phi(arg) / (sqrt(1 - rho) phi(zp))."""
    return normal_pdf(arg) / (sqrt_1mrho * np.maximum(normal_pdf(zp), _PD_FLOOR))


def loss_quantile(portfolio: Portfolio, s, spec: LossQuantileSpec) -> float:
    """Analytic q-quantile of the portfolio loss under scenario s.

    Asymptotic single-factor approximation applied exposure by exposure:
    sum_i EAD_i * LGD_i(s) * Phi((Phi^-1(PD_i(s)) + sqrt(rho_i) Phi^-1(q))
    / sqrt(1 - rho_i)).
    """
    pd = portfolio.stressed_pd(s)
    lgd = portfolio.stressed_lgd(s)
    tail = conditional_default_prob(pd, portfolio.rho, spec.q)
    return float(np.sum(portfolio.ead * lgd * tail))


@dataclass(frozen=True)
class McLossResult:
    quantile: float
    std_error: float
    n_sims: int


def _empirical_quantile_index(q: float, n: int) -> int:
    """Order statistic index (0-based) at ceil(q * n)."""
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def mc_loss_quantile(portfolio: Portfolio, s, spec: LossQuantileSpec,
                     n_sims: int, seed: int, n_blocks: int = 20) -> McLossResult:
    """Monte Carlo q-quantile of the latent-factor portfolio loss.

    Simulates the systematic factor Z per scenario draw; conditional on Z,
    default counts within groups of identical (EAD, PD, LGD, rho) exposures
    are binomial, which is exact in distribution for the sum of the
    exposure-level Bernoulli defaults. Deterministic for a fixed seed and
    block layout; blocks use independent spawned streams so parallel and
    serial execution agree.
    """
    if n_sims < 10_000:
        raise InvalidInputError(f"n_sims={n_sims} below the minimum of 10000")
    pd = clip_pd(portfolio.stressed_pd(s))
    lgd = portfolio.stressed_lgd(s)

    params = np.column_stack([portfolio.ead, pd, lgd, portfolio.rho])
    uniq, counts = np.unique(params, axis=0, return_counts=True)
    g_ead, g_pd, g_lgd, g_rho = uniq.T
    g_thr = ndtri(g_pd)
    g_sq_rho = np.sqrt(g_rho)
    g_sq_1mrho = np.sqrt(1.0 - g_rho)
    g_loss_unit = g_ead * g_lgd

    block_sizes = np.full(n_blocks, n_sims // n_blocks)
    block_sizes[: n_sims % n_blocks] += 1
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    losses = []
    for size, ss in zip(block_sizes, streams):
        if size == 0:
            continue
        rng = np.random.default_rng(ss)
        z = rng.standard_normal(size)
        # conditional PD per group and draw, shape (size, n_groups)
        cond = ndtr((g_thr[None, :] - g_sq_rho[None, :] * z[:, None])
                          / g_sq_1mrho[None, :])
        defaults = rng.binomial(counts[None, :], cond)
        losses.append(defaults @ g_loss_unit)
    loss = np.sort(np.concatenate(losses))

    n = loss.size
    k = _empirical_quantile_index(spec.q, n)
    quantile = float(loss[k])
    # distribution-free SE from the spread of order statistics one
    # binomial standard deviation around the quantile index
    h = math.sqrt(n * spec.q * (1.0 - spec.q))
    k_lo = max(0, int(math.floor(k - h)))
    k_hi = min(n - 1, int(math.ceil(k + h)))
    std_error = float((loss[k_hi] - loss[k_lo]) / 2.0) if k_hi > k_lo else 0.0
    return McLossResult(quantile=quantile, std_error=std_error, n_sims=n)
