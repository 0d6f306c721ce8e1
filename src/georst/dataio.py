"""Delimited-text ingestion: covariance/history, portfolios, sensitivities."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .sectors import SectorPortfolio, SectorRecord
from .transmission import ExposureRecord, Portfolio, SectorSensitivities


def _read_rows(path, expected_columns=None) -> tuple[list[str], list[dict]]:
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InvalidInputError(f"{path}: missing header row")
        header = [h.strip() for h in reader.fieldnames]
        if expected_columns is not None:
            missing = [c for c in expected_columns if c not in header]
            if missing:
                raise InvalidInputError(f"{path}: missing columns {missing}")
        rows = [{k.strip(): v for k, v in row.items()} for row in reader]
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    return header, rows


def _to_float(path, row_label: str, name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"{path}: {row_label}: column {name!r} is not numeric: {value!r}"
        ) from exc


def load_covariance(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Covariance file: header of factor names (geopolitical factor first),
    then d rows of d entries."""
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file") from None
        data = [[_to_float(path, f"row {i + 1}", names[j] if j < len(names) else j, v)
                 for j, v in enumerate(row)] for i, row in enumerate(reader) if row]
    sigma = np.array(data, dtype=float)
    d = len(names)
    if sigma.shape != (d, d):
        raise InvalidInputError(
            f"{path}: expected a {d}x{d} matrix, got shape {sigma.shape}")
    return sigma, names


def load_history(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """History file: header of factor names, then T observation rows."""
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file") from None
        data = [[_to_float(path, f"row {i + 1}", j, v) for j, v in enumerate(row)]
                for i, row in enumerate(reader) if row]
    X = np.array(data, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise InvalidInputError(f"{path}: ragged or mismatched history rows")
    return X, names


def load_sensitivities(path, factor_names) -> dict[str, SectorSensitivities]:
    """Sensitivities file: sector_id, delta, eta, then beta_<f> and gamma_<f>
    columns for each macro-financial factor, in covariance order."""
    x_names = list(factor_names)[1:]
    beta_cols = [f"beta_{n}" for n in x_names]
    gamma_cols = [f"gamma_{n}" for n in x_names]
    _, rows = _read_rows(path, ["sector_id", "delta", "eta"] + beta_cols + gamma_cols)
    sectors = {}
    for row in rows:
        sid = row["sector_id"].strip()
        sectors[sid] = SectorSensitivities(
            sector_id=sid,
            delta=_to_float(path, sid, "delta", row["delta"]),
            eta=_to_float(path, sid, "eta", row["eta"]),
            beta=np.array([_to_float(path, sid, c, row[c]) for c in beta_cols]),
            gamma=np.array([_to_float(path, sid, c, row[c]) for c in gamma_cols]),
        )
    return sectors


def load_portfolio(path, sensitivities: dict[str, SectorSensitivities],
                   sign_constraints: bool = True) -> Portfolio:
    """Exposure file: exposure_id, sector_id, ead, pd0, lgd0, rho, maturity."""
    cols = ["exposure_id", "sector_id", "ead", "pd0", "lgd0", "rho", "maturity"]
    _, rows = _read_rows(path, cols)
    exposures = []
    for row in rows:
        eid = row["exposure_id"].strip()
        exposures.append(ExposureRecord(
            exposure_id=eid,
            sector_id=row["sector_id"].strip(),
            ead=_to_float(path, eid, "ead", row["ead"]),
            pd0=_to_float(path, eid, "pd0", row["pd0"]),
            lgd0=_to_float(path, eid, "lgd0", row["lgd0"]),
            rho=_to_float(path, eid, "rho", row["rho"]),
            maturity=_to_float(path, eid, "maturity", row["maturity"]),
        ))
    return Portfolio(exposures=exposures, sectors=sensitivities,
                     sign_constraints=sign_constraints)


def load_sector_portfolio(path, sensitivities: dict[str, SectorSensitivities],
                          sign_constraints: bool = True) -> SectorPortfolio:
    """Sector file: sector_id, ead, pd0, lgd0, rho, maturity."""
    cols = ["sector_id", "ead", "pd0", "lgd0", "rho", "maturity"]
    _, rows = _read_rows(path, cols)
    records = []
    for row in rows:
        sid = row["sector_id"].strip()
        records.append(SectorRecord(
            sector_id=sid,
            ead=_to_float(path, sid, "ead", row["ead"]),
            pd0=_to_float(path, sid, "pd0", row["pd0"]),
            lgd0=_to_float(path, sid, "lgd0", row["lgd0"]),
            rho=_to_float(path, sid, "rho", row["rho"]),
            maturity=_to_float(path, sid, "maturity", row["maturity"]),
        ))
    return SectorPortfolio(records=records, sensitivities=sensitivities,
                           sign_constraints=sign_constraints)


def load_alpha(path, portfolio: Portfolio) -> np.ndarray:
    """Alpha file for the linear RWA mode: exposure_id, alpha."""
    _, rows = _read_rows(path, ["exposure_id", "alpha"])
    by_id = {row["exposure_id"].strip():
             _to_float(path, row["exposure_id"], "alpha", row["alpha"])
             for row in rows}
    out = np.empty(portfolio.n)
    for i, e in enumerate(portfolio.exposures):
        if e.exposure_id not in by_id:
            raise InvalidInputError(f"{path}: missing alpha for {e.exposure_id}")
        out[i] = by_id[e.exposure_id]
    return out
