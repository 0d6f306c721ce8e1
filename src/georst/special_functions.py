"""Special functions backing the plausibility calibration.

Thin, domain-checked wrappers over ``scipy.special``: the regularized
incomplete gamma/beta functions behind the chi-squared and Fisher CDFs, and
the standard normal CDF, density and quantile.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, gammainc, ndtr, ndtri

from .errors import InvalidInputError

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def regularized_incomplete_gamma(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x)."""
    if not (a > 0.0):
        raise InvalidInputError(f"gamma parameter a must be > 0, got {a}")
    if x < 0.0:
        raise InvalidInputError(f"gamma argument x must be >= 0, got {x}")
    return float(gammainc(a, x))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (a > 0.0 and b > 0.0):
        raise InvalidInputError(f"beta parameters must be > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise InvalidInputError(f"beta argument x must be in [0, 1], got {x}")
    return float(betainc(a, b, x))


def chi2_cdf(x: float, dof: int) -> float:
    """CDF of the chi-squared distribution with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise InvalidInputError(f"chi-squared dof must be positive, got {dof}")
    if x <= 0.0:
        return 0.0
    return regularized_incomplete_gamma(0.5 * dof, 0.5 * x)


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF of the Fisher F distribution with (d1, d2) degrees of freedom."""
    if d1 <= 0 or d2 <= 0:
        raise InvalidInputError(f"F dof must be positive, got ({d1}, {d2})")
    if x <= 0.0:
        return 0.0
    z = d1 * x / (d1 * x + d2)
    return regularized_incomplete_beta(0.5 * d1, 0.5 * d2, z)


def normal_cdf(x):
    """Standard normal CDF. Accepts scalars or arrays."""
    out = ndtr(np.asarray(x, dtype=float))
    if np.ndim(x) == 0:
        return float(out)
    return out


def normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    if out.ndim == 0:
        return float(out)
    return out


def normal_quantile(p):
    """Inverse standard normal CDF on the open interval (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise InvalidInputError("normal_quantile argument must lie strictly in (0, 1)")
    out = ndtri(arr)
    if arr.ndim == 0:
        return float(out)
    return out
