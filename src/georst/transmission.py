"""Scenario-to-credit-parameter transmission.

Each sector carries log-odds loadings (beta, delta) for the default
probability and affine loadings (gamma, eta) for the loss given default.
The PD map is logistic and needs no clipping; the LGD map is affine with
a smooth saturation keeping it inside (0, 1) without kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.special import expit, logsumexp

from .errors import InvalidInputError
from .reference import as_scenarios


# the LGD soft clip: identity on [lo + width, hi - width], onto (lo, hi)
SOFTCLIP_LO = 1e-6
SOFTCLIP_HI = 1.0 - 1e-6
SOFTCLIP_WIDTH = 0.02


def softclip(t) -> tuple[np.ndarray, np.ndarray]:
    """Smooth monotone map of t onto (SOFTCLIP_LO, SOFTCLIP_HI), and its
    derivative, as arrays.

    Identity on [lo + width, hi - width]; each edge blends into a scaled
    logistic tail with matching value and unit slope, so the map is C^1,
    strictly increasing, and never leaves (lo, hi). The logistic tails are
    evaluated only for entries outside the identity core; when t's
    extremes show no entry in a tail, no mask is built.
    """
    t = np.asarray(t, dtype=float)
    w = SOFTCLIP_WIDTH
    hi_edge, lo_edge = SOFTCLIP_HI - w, SOFTCLIP_LO + w
    value = t.copy()
    slope = np.ones(t.shape)
    if t.size == 0 or (t.max() <= hi_edge and t.min() >= lo_edge):
        return value, slope
    tails = (t > hi_edge) | (t < lo_edge)
    if tails.any():
        tt = t[tails]
        edge = np.where(tt > hi_edge, hi_edge, lo_edge)
        sig = expit(2.0 * (tt - edge) / w)
        value[tails] = edge + w * (2.0 * sig - 1.0)
        slope[tails] = 4.0 * sig * (1.0 - sig)
    return value, slope


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


# the per-exposure numeric columns of a Portfolio, in input-file order
CREDIT_COLUMNS = ("ead", "pd0", "lgd0", "rho", "maturity")
MONOTONICITY_TEMPERATURE = 1e-3  # log-sum-exp smoothing scale


@dataclass
class Portfolio:
    """Exposure columns plus the sector sensitivity map, with vectorized
    evaluation. Row i of every column is one exposure, and every sector of
    ``sectors`` must hold at least one."""

    exposure_id: list[str]
    sector_id: list[str]
    ead: np.ndarray
    pd0: np.ndarray
    lgd0: np.ndarray
    rho: np.ndarray
    maturity: np.ndarray
    sectors: dict[str, SectorSensitivities]
    sign_constraints: bool = True

    def __post_init__(self):
        n = len(self.exposure_id)
        if n == 0:
            raise InvalidInputError("portfolio has no exposures")
        columns = [self.sector_id] + [getattr(self, c) for c in CREDIT_COLUMNS]
        if any(len(column) != n for column in columns):
            raise InvalidInputError("portfolio columns differ in length")
        names = list(self.sectors)
        position = {sector_id: k for k, sector_id in enumerate(names)}
        # an unknown sector is -1; map calls get with no Python frame per row
        index = np.fromiter(map(position.get, self.sector_id, repeat(-1)),
                            dtype=np.intp, count=n)
        # the first row that fails a check is named, with that check's message
        checks = {
            "{id}: EAD must be positive": (self.ead > 0) & np.isfinite(self.ead),
            "{id}: pd0={pd0} must lie strictly in (0, 1)":
                (self.pd0 > 0) & (self.pd0 < 1),
            "{id}: lgd0={lgd0} must lie strictly in (0, 1)":
                (self.lgd0 > 0) & (self.lgd0 < 1),
            "{id}: rho={rho} must lie strictly in (0, 1)":
                (self.rho > 0) & (self.rho < 1),
            "{id}: maturity must be positive":
                (self.maturity > 0) & np.isfinite(self.maturity),
            "exposure {id} references unknown sector {sector}": index >= 0,
        }
        ok = np.logical_and.reduce(list(checks.values()))
        if not ok.all():
            i = int(np.argmin(ok))
            message = next(m for m, passed in checks.items() if not passed[i])
            raise InvalidInputError(message.format(
                id=self.exposure_id[i], sector=self.sector_id[i],
                **{c: float(getattr(self, c)[i]) for c in CREDIT_COLUMNS}))
        if self.sign_constraints:
            for sens in self.sectors.values():
                if sens.delta < 0 or sens.eta < 0:
                    raise InvalidInputError(
                        f"sector {sens.sector_id}: delta and eta must be >= 0 "
                        "under sign constraints")
        if len({s.beta.size for s in self.sectors.values()}) != 1:
            raise InvalidInputError("sector loading vectors have inconsistent lengths")
        counts = np.bincount(index, minlength=len(names))
        if not counts.all():
            raise InvalidInputError(
                f"sector {names[int(np.argmin(counts))]} has no exposures")
        # one column per exposure, gathered from its sector's [delta | beta]
        # and [eta | gamma]: d PD_i / d s = pd_i (1 - pd_i) pd_loadings[:, i]
        # and d LGD_i / d s = slope_i lgd_loadings[:, i], with s = (g, x)
        table = self.sectors.values()
        pd_table = np.column_stack([[s.delta for s in table],
                                    [s.beta for s in table]])
        lgd_table = np.column_stack([[s.eta for s in table],
                                     [s.gamma for s in table]])
        # every sector has a row, so these are all the loadings in use
        if not (np.isfinite(pd_table).all() and np.isfinite(lgd_table).all()):
            raise InvalidInputError("sensitivities must be finite")
        self.pd_loadings = np.ascontiguousarray(pd_table[index].T)
        self.lgd_loadings = np.ascontiguousarray(lgd_table[index].T)
        self.logit_pd0 = np.log(self.pd0 / (1.0 - self.pd0))
        # a stable sort keeps each sector's rows ascending
        rows = np.split(np.argsort(index, kind="stable"), np.cumsum(counts)[:-1])
        self.sector_rows = dict(zip(names, rows))

    @property
    def n(self) -> int:
        return self.ead.size

    @property
    def d(self) -> int:
        return self.pd_loadings.shape[0]

    @property
    def total_ead(self) -> float:
        return float(self.ead.sum())

    def stressed_pd(self, s) -> np.ndarray:
        """Per-exposure stressed PD, strictly in (0, 1), under scenario s
        (d,), or under each row of a block s (N, d) as an (N, n) array."""
        return expit(self._affine(s, self.logit_pd0, self.pd_loadings))

    def stressed_lgd(self, s) -> np.ndarray:
        """Per-exposure stressed LGD under scenario s, softly saturated to (0, 1)."""
        return self.stressed_lgd_and_slope(s)[0]

    def stressed_lgd_and_slope(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Stressed LGD and the soft-clip slope at its affine pre-image
        lgd0 + gamma x + eta g, so d LGD_i / d s = slope_i lgd_loadings[:, i].
        Like :meth:`stressed_pd`, over s (d,) or each row of s (N, d)."""
        return softclip(self._affine(s, self.lgd0, self.lgd_loadings))

    def _affine(self, s, base, loadings):
        """base + sum_k s[..., k] loadings[k] for a scenario (d,) or a block
        (N, d), validated. ``einsum`` sums over k in order for each output
        element, so row i of a block equals the result for s[i] bit for
        bit; a BLAS product ``s @ loadings`` may sum in an order that
        depends on the number of rows."""
        return base + np.einsum("...k,kj->...j", as_scenarios(s, self.d),
                                loadings)


def monotonicity_rows(portfolio: Portfolio) -> np.ndarray:
    """M (k, d), the sectors' distinct nonzero rows [delta | beta] and
    [eta | gamma]. PD and LGD are strictly increasing maps of affine maps
    of s, so M s >= 0 holds exactly when no exposure's stressed PD or LGD
    falls below its value at s = 0: pd0, and lgd0 unless lgd0 lies within
    SOFTCLIP_WIDTH of 0 or 1, where it is softclip(lgd0), not lgd0 itself.
    """
    table = portfolio.sectors.values()
    rows = np.unique([[s.delta, *s.beta] for s in table]
                     + [[s.eta, *s.gamma] for s in table], axis=0)
    return rows[np.any(rows != 0.0, axis=1)]


def smooth_monotonicity_violation(portfolio: Portfolio, s) -> float:
    """Log-sum-exp smoothing of the worst improvement in credit quality
    under s, max(0, max_i(pd0 - pd_i), max_i(lgd0 - lgd_i)).

    Upper-bounds the hard max within MONOTONICITY_TEMPERATURE * log(2n + 1);
    centered so the value is ~0 when no exposure improves, which lets an
    improvement of up to about that bound through. The solver no longer
    uses it (it imposes :func:`monotonicity_rows`); it is kept because the
    benchmark's tracer wraps it by name.
    """
    pd = portfolio.stressed_pd(s)
    lgd = portfolio.stressed_lgd(s)
    terms = np.concatenate([portfolio.pd0 - pd, portfolio.lgd0 - lgd, [0.0]])
    tau = MONOTONICITY_TEMPERATURE
    return float(tau * logsumexp(terms / tau) - tau * math.log(terms.size))
