"""Sector-level aggregation and the sector-granularity model variant.

A sector portfolio is structurally a portfolio with one pseudo-exposure per
sector, so the loss, capital, and solver machinery applies unchanged and
exposure/sector consistency holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .transmission import ExposureRecord, Portfolio, SectorSensitivities


@dataclass(frozen=True)
class SectorAggregate:
    """EAD-weighted sector view of stressed credit parameters."""

    sector_id: str
    weight_total: float
    pd_star: float
    lgd_star: float
    exposure_weights: np.ndarray


def aggregate_sectors(portfolio: Portfolio, s) -> list[SectorAggregate]:
    """EAD-weighted PD and LGD per sector under scenario s."""
    pd = portfolio.stressed_pd(s)
    lgd = portfolio.stressed_lgd(s)
    out = []
    for sector_id, idx in portfolio.sector_rows.items():
        if idx.size == 0:
            raise InvalidInputError(f"sector {sector_id} has no exposures")
        ead = portfolio.ead[idx]
        w = ead / ead.sum()
        out.append(SectorAggregate(
            sector_id=sector_id,
            weight_total=float(ead.sum()),
            pd_star=float(w @ pd[idx]),
            lgd_star=float(w @ lgd[idx]),
            exposure_weights=w,
        ))
    return out


@dataclass(frozen=True)
class SectorRecord:
    """Per-sector aggregate exposure and baseline credit parameters."""

    sector_id: str
    ead: float
    pd0: float
    lgd0: float
    rho: float
    maturity: float = 2.5


@dataclass
class SectorPortfolio:
    """Sector-granularity model: aggregates plus sector loadings."""

    records: list[SectorRecord]
    sensitivities: dict[str, SectorSensitivities]
    sign_constraints: bool = True

    def to_portfolio(self) -> Portfolio:
        """One pseudo-exposure per sector; reuses the exposure-level engine
        bit-for-bit."""
        exposures = [
            ExposureRecord(exposure_id=r.sector_id, sector_id=r.sector_id,
                           ead=r.ead, pd0=r.pd0, lgd0=r.lgd0, rho=r.rho,
                           maturity=r.maturity)
            for r in self.records
        ]
        return Portfolio(exposures=exposures, sectors=dict(self.sensitivities),
                         sign_constraints=self.sign_constraints)
