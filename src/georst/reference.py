"""Scenario space, reference distribution, and Mahalanobis plausibility.

The scenario vector is s = (g, x): the geopolitical shock first, then the
macro-financial shocks. The reference model is a zero-mean Gaussian or
Student-t with covariance (scatter) matrix sigma; plausibility of a
scenario is the tail probability of its squared Mahalanobis distance
(chi-squared under the Gaussian, scaled Fisher under the Student-t).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc, gammaincc

from .errors import InvalidInputError

DEFAULT_RIDGE_SCALE = 1e-8


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T = "student_t"


def as_scenarios(S, d: int, ndim=(1, 2)) -> np.ndarray:
    """Coerce an array-like to a validated, C-contiguous scenario (d,) or
    block of scenarios (N, d), one per row; ``ndim`` holds the ranks
    accepted."""
    arr = np.asarray(S, dtype=float)
    if arr.ndim not in ndim or arr.shape[-1] != d:
        shapes = " or ".join(f"({d},)" if k == 1 else f"(N, {d})" for k in ndim)
        raise InvalidInputError(
            f"scenario must have shape {shapes}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("scenario coordinates must be finite")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class PlausibilityScore:
    """Mahalanobis severity and its probabilistic calibration."""

    mahalanobis_sq: float
    tail_probability: float
    rarity: float  # -log10 of the tail probability


def default_factor_names(d: int) -> tuple[str, ...]:
    return ("g",) + tuple(f"x{j}" for j in range(1, d))


@dataclass(frozen=True)
class ReferenceModel:
    """Covariance, Cholesky factor, and distribution family for shocks."""

    sigma: np.ndarray
    chol: np.ndarray
    family: Family = Family.GAUSSIAN
    nu: float | None = None
    factor_names: tuple[str, ...] = field(default=())

    @classmethod
    def from_covariance(cls, sigma, family: Family = Family.GAUSSIAN,
                        nu: float | None = None,
                        factor_names=None) -> "ReferenceModel":
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise InvalidInputError(f"sigma must be square, got shape {sigma.shape}")
        d = sigma.shape[0]
        if d < 2:
            raise InvalidInputError("scenario dimension must be at least 2")
        scale = np.max(np.abs(sigma))
        if scale == 0.0 or not np.all(np.isfinite(sigma)):
            raise InvalidInputError("sigma must be finite and nonzero")
        if np.max(np.abs(sigma - sigma.T)) > 1e-12 * scale:
            raise InvalidInputError("sigma is not symmetric within tolerance")
        sigma = 0.5 * (sigma + sigma.T)
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("sigma is not positive definite") from exc
        if np.any(np.diag(chol) <= 0.0):
            raise InvalidInputError("sigma has non-positive Cholesky pivots")
        family = Family(family)
        if family is Family.STUDENT_T:
            if nu is None or not nu > 0:
                raise InvalidInputError("Student-t reference requires nu > 0")
            nu = float(nu)
        else:
            nu = None
        if factor_names is None:
            factor_names = default_factor_names(d)
        factor_names = tuple(str(n) for n in factor_names)
        if len(factor_names) != d:
            raise InvalidInputError("factor_names length must equal dimension")
        return cls(sigma=sigma, chol=chol, family=family, nu=nu,
                   factor_names=factor_names)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    @cached_property
    def _chol_inv(self) -> np.ndarray:
        return solve_triangular(self.chol, np.eye(self.d), lower=True)

    def whiten(self, S) -> np.ndarray:
        """y = L^{-1} s of a scenario (d,) or of each row of a block (N, d),
        by the inverse factor through ``einsum``, as :meth:`mahalanobis_sq`
        does: ``einsum`` sums over k in order for each output element, so
        row i of a block equals ``whiten(S[i])`` bit for bit, and no BLAS
        call makes the bits depend on the thread count."""
        return np.einsum("...k,jk->...j", as_scenarios(S, self.d),
                         self._chol_inv)

    def unwhiten(self, Y) -> np.ndarray:
        """s = L y of a whitened vector (d,) or of each row of a block (N, d),
        the inverse of :meth:`whiten`. ``einsum`` sums over k in order for
        each output element, so row i of a block equals ``unwhiten(Y[i])``
        bit for bit."""
        return np.einsum("...k,jk->...j", as_scenarios(Y, self.d), self.chol)

    def mahalanobis_sq(self, S):
        """s' sigma^{-1} s of a scenario (d,), as a float, or of each row of a
        block (N, d). ``einsum`` and a sum along the row make row i of a block
        equal the value for S[i] bit for bit."""
        Y = np.einsum("...k,jk->...j", as_scenarios(S, self.d), self._chol_inv)
        m2 = np.add.reduce(Y * Y, axis=-1)
        return float(m2) if m2.ndim == 0 else m2

    # the block forms are the same methods; the names stay because the
    # benchmark's tracer wraps each of them through the class __dict__
    whiten_many = whiten
    mahalanobis_sq_many = mahalanobis_sq

    def neg_log_density(self, s) -> float:
        """Negative log-density with constants dropped.

        Gaussian: half the squared Mahalanobis distance. Student-t:
        ((nu + d) / 2) * log(1 + m2 / nu). Both increase strictly in m2.
        """
        m2 = self.mahalanobis_sq(s)
        return self.neg_log_density_from_m2(m2)

    def neg_log_density_from_m2(self, m2):
        """The neg-log-density at squared distance m2; elementwise on arrays."""
        if self.family is Family.GAUSSIAN:
            return 0.5 * m2
        return 0.5 * (self.nu + self.d) * np.log1p(np.divide(m2, self.nu))

    def tail_probability(self, m2: float) -> float:
        """P(d_Sigma^2(S) >= m2) under the reference distribution: the
        chi-squared or scaled Fisher survival function, not 1 - cdf, which
        cancels to 0 for rare scenarios."""
        if not m2 >= 0.0:
            raise InvalidInputError(f"squared distance must be >= 0, got {m2}")
        if self.family is Family.GAUSSIAN:
            return float(gammaincc(0.5 * self.d, 0.5 * m2))
        return float(betainc(0.5 * self.nu, 0.5 * self.d,
                             self.nu / (self.nu + m2)))

    def plausibility(self, s) -> PlausibilityScore:
        m2 = self.mahalanobis_sq(s)
        tail = self.tail_probability(m2)
        rarity = -math.log10(tail) if tail > 0.0 else math.inf
        return PlausibilityScore(mahalanobis_sq=m2, tail_probability=tail,
                                 rarity=rarity)

    def marginal_std(self, j: int) -> float:
        return math.sqrt(self.sigma[j, j])


def estimate_covariance(history, family: Family = Family.GAUSSIAN,
                        nu: float | None = None, factor_names=None,
                        ridge: float | None = None) -> ReferenceModel:
    """Centered sample covariance of T x d shock history, with a ridge fallback.

    The default ridge 1e-8 * trace / d guarantees positive definiteness for
    degenerate histories (e.g. constant or duplicated columns).
    """
    X = np.asarray(history, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError("history must be a T x d matrix")
    T, d = X.shape
    if T < d + 1:
        raise InvalidInputError(f"need at least d+1={d + 1} observations, got {T}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("history contains non-finite entries")
    Xc = X - X.mean(axis=0)
    S = (Xc.T @ Xc) / (T - 1)
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.trace(S) / d
    if ridge < 0:
        raise InvalidInputError("ridge must be non-negative")
    sigma = S + ridge * np.eye(d)
    return ReferenceModel.from_covariance(sigma, family=family, nu=nu,
                                          factor_names=factor_names)
