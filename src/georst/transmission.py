"""Scenario-to-credit-parameter transmission.

Each sector carries log-odds loadings (beta, delta) for the default
probability and affine loadings (gamma, eta) for the loss given default.
The PD map is logistic and needs no clipping; the LGD map is affine with
a smooth saturation keeping it inside (0, 1) without kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logsumexp

from .errors import InvalidInputError
from .reference import as_scenario_array


@dataclass(frozen=True)
class SoftClip:
    """Smooth monotone map from R onto (lo, hi).

    Identity on [lo + width, hi - width]; each edge blends into a scaled
    logistic tail with matching value and unit slope, so the map is C^1,
    strictly increasing, and never leaves (lo, hi).
    """

    lo: float = 1e-6
    hi: float = 1.0 - 1e-6
    width: float = 0.02

    def __post_init__(self):
        if not (self.lo < self.hi and self.width > 0):
            raise InvalidInputError("softclip requires lo < hi and width > 0")
        if self.hi - self.lo <= 2 * self.width:
            raise InvalidInputError("softclip blend regions overlap")

    def value_and_slope(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The map and its derivative at t, as arrays.

        The logistic tails are evaluated only for entries outside
        [lo + width, hi - width]; inside, the value is t and the slope 1.
        """
        t = np.asarray(t, dtype=float)
        w = self.width
        hi_edge, lo_edge = self.hi - w, self.lo + w
        value = t.copy()
        slope = np.ones(t.shape)
        tails = (t > hi_edge) | (t < lo_edge)
        if tails.any():
            tt = t[tails]
            edge = np.where(tt > hi_edge, hi_edge, lo_edge)
            sig = expit(2.0 * (tt - edge) / w)
            value[tails] = edge + w * (2.0 * sig - 1.0)
            slope[tails] = 4.0 * sig * (1.0 - sig)
        return value, slope

    def __call__(self, t):
        out = self.value_and_slope(t)[0]
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        out = self.value_and_slope(t)[1]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SectorSensitivities:
    """Per-sector shock loadings for the PD and LGD mappings."""

    sector_id: str
    delta: float            # PD log-odds loading on g
    eta: float              # LGD loading on g
    beta: np.ndarray        # PD log-odds loadings on x, length d-1
    gamma: np.ndarray       # LGD loadings on x, length d-1

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        if self.beta.ndim != 1 or self.gamma.shape != self.beta.shape:
            raise InvalidInputError("beta and gamma must be vectors of equal length")
        if not np.all(np.isfinite(self.beta)) or not np.all(np.isfinite(self.gamma)):
            raise InvalidInputError("sensitivities must be finite")


@dataclass(frozen=True)
class ExposureRecord:
    """A single credit exposure."""

    exposure_id: str
    sector_id: str
    ead: float
    pd0: float
    lgd0: float
    rho: float
    maturity: float = 2.5

    def __post_init__(self):
        if not self.ead > 0:
            raise InvalidInputError(f"{self.exposure_id}: EAD must be positive")
        for name, v in (("pd0", self.pd0), ("lgd0", self.lgd0), ("rho", self.rho)):
            if not (0.0 < v < 1.0):
                raise InvalidInputError(
                    f"{self.exposure_id}: {name}={v} must lie strictly in (0, 1)")
        if not self.maturity > 0:
            raise InvalidInputError(f"{self.exposure_id}: maturity must be positive")


@dataclass
class Portfolio:
    """Exposures plus the sector sensitivity map, with vectorized evaluation."""

    exposures: list[ExposureRecord]
    sectors: dict[str, SectorSensitivities]
    sign_constraints: bool = True
    softclip: SoftClip = field(default_factory=SoftClip)

    def __post_init__(self):
        if not self.exposures:
            raise InvalidInputError("portfolio has no exposures")
        for e in self.exposures:
            if e.sector_id not in self.sectors:
                raise InvalidInputError(
                    f"exposure {e.exposure_id} references unknown sector {e.sector_id}")
        if self.sign_constraints:
            for sens in self.sectors.values():
                if sens.delta < 0 or sens.eta < 0:
                    raise InvalidInputError(
                        f"sector {sens.sector_id}: delta and eta must be >= 0 "
                        "under sign constraints")
        n_x = {s.beta.size for s in self.sectors.values()}
        if len(n_x) != 1:
            raise InvalidInputError("sector loading vectors have inconsistent lengths")
        self._build_arrays()

    def _build_arrays(self):
        n = len(self.exposures)
        self.ead = np.array([e.ead for e in self.exposures])
        self.pd0 = np.array([e.pd0 for e in self.exposures])
        self.lgd0 = np.array([e.lgd0 for e in self.exposures])
        self.rho = np.array([e.rho for e in self.exposures])
        self.maturity = np.array([e.maturity for e in self.exposures])
        sens = [self.sectors[e.sector_id] for e in self.exposures]
        self.delta = np.array([s.delta for s in sens])
        self.eta = np.array([s.eta for s in sens])
        self.beta = np.vstack([s.beta for s in sens]).reshape(n, -1)
        self.gamma = np.vstack([s.gamma for s in sens]).reshape(n, -1)
        self.logit_pd0 = np.log(self.pd0 / (1.0 - self.pd0))
        # d PD_i / d s = pd_i (1 - pd_i) pd_loadings[i], with s = (g, x)
        self.pd_loadings = np.column_stack([self.delta, self.beta])
        self.lgd_loadings = np.column_stack([self.eta, self.gamma])
        rows = {sector_id: [] for sector_id in self.sectors}
        for i, e in enumerate(self.exposures):
            rows[e.sector_id].append(i)
        self.sector_rows = {sector_id: np.array(r, dtype=np.intp)
                            for sector_id, r in rows.items()}

    @property
    def n(self) -> int:
        return len(self.exposures)

    @property
    def d(self) -> int:
        return 1 + self.beta.shape[1]

    @property
    def total_ead(self) -> float:
        return float(self.ead.sum())

    def stressed_pd(self, s) -> np.ndarray:
        """Per-exposure stressed PD under scenario s, strictly in (0, 1)."""
        arr = as_scenario_array(s, self.d)
        z = self.beta @ arr[1:] + self.delta * arr[0]
        return expit(self.logit_pd0 + z)

    def stressed_lgd(self, s) -> np.ndarray:
        """Per-exposure stressed LGD under scenario s, softly saturated to (0, 1)."""
        return self.stressed_lgd_and_slope(s)[0]

    def stressed_lgd_and_slope(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Stressed LGD and the soft-clip slope at its affine pre-image
        lgd0 + gamma x + eta g, so d LGD_i / d s = slope_i lgd_loadings[i]."""
        arr = as_scenario_array(s, self.d)
        return self.softclip.value_and_slope(
            self.lgd0 + self.gamma @ arr[1:] + self.eta * arr[0])


def monotonicity_violation(portfolio: Portfolio, s) -> float:
    """Worst improvement in credit quality under s; 0 iff none improves."""
    pd = portfolio.stressed_pd(s)
    lgd = portfolio.stressed_lgd(s)
    worst = max(np.max(portfolio.pd0 - pd), np.max(portfolio.lgd0 - lgd))
    return float(max(worst, 0.0))


def smooth_monotonicity_violation(portfolio: Portfolio, s,
                                  temperature: float = 1e-3) -> float:
    """Log-sum-exp smoothing of :func:`monotonicity_violation`.

    Upper-bounds the hard max within temperature * log(2n + 1); centered so
    the value is ~0 when no exposure improves. Suitable as a single smooth
    inequality constraint.
    """
    pd = portfolio.stressed_pd(s)
    lgd = portfolio.stressed_lgd(s)
    terms = np.concatenate([portfolio.pd0 - pd, portfolio.lgd0 - lgd, [0.0]])
    lse = temperature * logsumexp(terms / temperature)
    return float(lse - temperature * math.log(terms.size))
