"""Sector-level aggregation and the sector-granularity model variant.

A sector portfolio is structurally a portfolio with one pseudo-exposure per
sector, so the loss, capital, and solver machinery applies unchanged and
exposure/sector consistency holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transmission import CREDIT_COLUMNS, Portfolio, SectorSensitivities


@dataclass(frozen=True)
class SectorAggregate:
    """EAD-weighted sector view of stressed credit parameters."""

    sector_id: str
    weight_total: float
    pd_star: float
    lgd_star: float


def aggregate_sectors(portfolio: Portfolio, s) -> list[SectorAggregate]:
    """EAD-weighted PD and LGD per sector under scenario s."""
    pd = portfolio.stressed_pd(s)
    lgd = portfolio.stressed_lgd(s)
    out = []
    for sector_id, idx in portfolio.sector_rows.items():
        ead = portfolio.ead[idx]
        w = ead / ead.sum()
        out.append(SectorAggregate(
            sector_id=sector_id,
            weight_total=float(ead.sum()),
            pd_star=float(w @ pd[idx]),
            lgd_star=float(w @ lgd[idx]),
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
        ids = [r.sector_id for r in self.records]
        return Portfolio(
            ids, ids,
            *(np.array([getattr(r, c) for r in self.records])
              for c in CREDIT_COLUMNS),
            sectors=dict(self.sensitivities),
            sign_constraints=self.sign_constraints)
