"""Delimited-text ingestion: covariance/history, portfolios, sensitivities."""

from __future__ import annotations

import csv
from itertools import pairwise
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .sectors import SectorPortfolio, SectorRecord
from .transmission import CREDIT_COLUMNS, Portfolio, SectorSensitivities


def _read_rows(path, expected=()) -> tuple[list[str], list[list[str]]]:
    """The stripped header row of a CSV file and its data rows.

    The header must hold every name in ``expected``. Blank lines are
    skipped. A row whose cell count differs from the header's is an error
    naming the file and its line.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidInputError(f"{path}: missing header row")
        header = [h.strip() for h in header]
        missing = [c for c in expected if c not in header]
        if missing:
            raise InvalidInputError(f"{path}: missing columns {missing}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise InvalidInputError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, "
                    f"the header has {len(header)}")
            rows.append(row)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    return header, rows


def _read_columns(path, expected) -> dict[str, tuple[str, ...]]:
    """The expected columns of a CSV file with a header row, as cell tuples."""
    header, rows = _read_rows(path, expected)
    columns = list(zip(*rows))
    return {c: columns[header.index(c)] for c in expected}


def _read_matrix(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """A header of factor names over rows of numbers, as a matrix."""
    header, rows = _read_rows(path)
    names = tuple(header)
    data = [[_to_float(path, f"row {i + 1}", name, v)
             for name, v in zip(names, row)] for i, row in enumerate(rows)]
    return np.array(data, dtype=float), names


def _ids(columns, name: str) -> list[str]:
    return [v.strip() for v in columns[name]]


def _float_columns(path, ids, columns, names) -> list[np.ndarray]:
    """The named columns converted to float, one pass each. When one fails,
    the first bad cell in row order is named, with its row's id."""
    try:
        return [np.fromiter(map(float, columns[c]), float, len(ids))
                for c in names]
    except ValueError:
        for k, row_label in enumerate(ids):
            for c in names:
                _to_float(path, row_label, c, columns[c][k])
        raise


def _reject_repeats(path, column: str, ids) -> None:
    """Raise InvalidInputError naming the file and a repeated id, if any."""
    # equal neighbours after a sort, not a set: a set's hash table over
    # 6,000 ids is five times the size of their sorted list, and building
    # it raised the process's peak RSS
    for a, b in pairwise(sorted(ids)):
        if a == b:
            raise InvalidInputError(f"{path}: duplicate {column} {a!r}")


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
    sigma, names = _read_matrix(path)
    d = len(names)
    if sigma.shape != (d, d):
        raise InvalidInputError(
            f"{path}: expected a {d}x{d} matrix, got shape {sigma.shape}")
    return sigma, names


def load_history(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """History file: header of factor names, then T observation rows."""
    return _read_matrix(path)


def load_sensitivities(path, factor_names) -> dict[str, SectorSensitivities]:
    """Sensitivities file: sector_id, delta, eta, then beta_<f> and gamma_<f>
    columns for each macro-financial factor, in covariance order."""
    x_names = list(factor_names)[1:]
    names = (["delta", "eta"] + [f"beta_{n}" for n in x_names]
             + [f"gamma_{n}" for n in x_names])
    columns = _read_columns(path, ["sector_id"] + names)
    ids = _ids(columns, "sector_id")
    _reject_repeats(path, "sector_id", ids)
    values = np.column_stack(_float_columns(path, ids, columns, names))
    m = len(x_names)
    return {sid: SectorSensitivities(sector_id=sid, delta=float(v[0]),
                                     eta=float(v[1]), beta=v[2:2 + m],
                                     gamma=v[2 + m:])
            for sid, v in zip(ids, values)}


def load_portfolio(path, sensitivities: dict[str, SectorSensitivities],
                   sign_constraints: bool = True) -> Portfolio:
    """Exposure file: exposure_id, sector_id, ead, pd0, lgd0, rho, maturity."""
    columns = _read_columns(path, ["exposure_id", "sector_id", *CREDIT_COLUMNS])
    ids = _ids(columns, "exposure_id")
    values = _float_columns(path, ids, columns, CREDIT_COLUMNS)
    _reject_repeats(path, "exposure_id", ids)
    return Portfolio(ids, _ids(columns, "sector_id"), *values,
                     sectors=sensitivities, sign_constraints=sign_constraints)


def load_sector_portfolio(path, sensitivities: dict[str, SectorSensitivities],
                          sign_constraints: bool = True) -> SectorPortfolio:
    """Sector file: sector_id, ead, pd0, lgd0, rho, maturity."""
    columns = _read_columns(path, ["sector_id", *CREDIT_COLUMNS])
    ids = _ids(columns, "sector_id")
    values = _float_columns(path, ids, columns, CREDIT_COLUMNS)
    _reject_repeats(path, "sector_id", ids)
    records = [SectorRecord(*row)
               for row in zip(ids, *(v.tolist() for v in values))]
    return SectorPortfolio(records=records, sensitivities=sensitivities,
                           sign_constraints=sign_constraints)


def load_alpha(path, portfolio: Portfolio) -> np.ndarray:
    """Alpha file for the linear RWA mode: exposure_id, alpha."""
    columns = _read_columns(path, ["exposure_id", "alpha"])
    ids = _ids(columns, "exposure_id")
    _reject_repeats(path, "exposure_id", ids)
    alpha, = _float_columns(path, ids, columns, ["alpha"])
    row_of = dict(zip(ids, range(len(ids))))
    missing = [e for e in portfolio.exposure_id if e not in row_of]
    if missing:
        raise InvalidInputError(f"{path}: missing alpha for {missing[0]}")
    return alpha[[row_of[e] for e in portfolio.exposure_id]]
