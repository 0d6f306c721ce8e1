"""Delimited-text ingestion: covariance/history, portfolios, sensitivities."""

from __future__ import annotations

import csv
import warnings
from itertools import pairwise
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .sectors import SectorPortfolio
from .transmission import CREDIT_COLUMNS, Portfolio, SectorSensitivities


def _read_table(path, ids=(),
                numbers=None) -> tuple[tuple[str, ...], np.ndarray]:
    """The stripped header of a CSV file and its data rows, as a structured
    array whose field ``f{i}`` holds header column i.

    The header must hold every name in ``ids`` and ``numbers``. Columns
    named in ``numbers`` are floats, the others text; ``numbers=None``
    makes every column a float. NumPy's C reader parses the rows in one
    pass with the syntax of the csv module: ``,`` between cells, ``"``
    quotes with ``""`` inside them, blank lines skipped, no comment lines.
    Its floats equal ``float()``'s bit for bit, but it rejects ``_`` in a
    number. When it fails, :func:`_raise_fault` reads the file again to
    name the fault.
    """
    path = Path(path)
    try:
        fh = path.open(newline="")
    except FileNotFoundError as exc:
        raise InvalidInputError(f"input file not found: {path}") from exc
    try:
        with fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InvalidInputError(f"{path}: missing header row")
            header = tuple(h.strip() for h in header)
            missing = [c for c in (*ids, *(numbers or ())) if c not in header]
            if missing:
                raise InvalidInputError(f"{path}: missing columns {missing}")
            # (position, name) of each float column, in the order checked
            floats = (list(enumerate(header)) if numbers is None
                      else [(header.index(c), c) for c in numbers])
            kinds = [object] * len(header)
            for i, _ in floats:
                kinds[i] = float
            try:
                # loadtxt warns on an empty input; "no data rows" says it
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(
                        fh, dtype=[(f"f{i}", k) for i, k in enumerate(kinds)],
                        delimiter=",", quotechar='"', comments=None, ndmin=1)
            except ValueError as exc:
                _raise_fault(path, len(header),
                             header.index(ids[0]) if ids else None, floats)
                raise InvalidInputError(f"{path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    if not table.size:
        raise InvalidInputError(f"{path}: no data rows")
    return header, table


def _raise_fault(path, width: int, label_at, floats) -> None:
    """Read a CSV file with the csv module and raise InvalidInputError on its
    first fault: a row of other than ``width`` cells, named by its line, or
    else the first non-numeric cell of the ``floats`` columns in row order,
    named by the row's cell at ``label_at`` (or its row number) and the
    column."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for row in filter(None, reader):
            if len(row) != width:
                raise InvalidInputError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, "
                    f"the header has {width}")
            rows.append(row)
    for k, row in enumerate(rows):
        for i, name in floats:
            try:
                float(row[i])
            except ValueError:
                row_label = (f"row {k + 1}" if label_at is None
                             else row[label_at].strip())
                raise InvalidInputError(
                    f"{path}: {row_label}: column {name!r} is not numeric: "
                    f"{row[i]!r}") from None


def _read_columns(path, ids,
                  numbers) -> tuple[list[list[str]], list[np.ndarray]]:
    """The ``ids`` columns of a CSV file as stripped strings and its
    ``numbers`` columns as contiguous float arrays."""
    header, table = _read_table(path, ids, numbers)

    def column(c):
        return table[f"f{header.index(c)}"]

    return ([list(map(str.strip, column(c))) for c in ids],
            [np.ascontiguousarray(column(c)) for c in numbers])


def _read_matrix(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """A header of factor names over rows of numbers, as a matrix."""
    header, table = _read_table(path)
    return table.view(float).reshape(table.size, len(header)), header


def _reject_repeats(path, column: str, ids) -> None:
    """Raise InvalidInputError naming the file and a repeated id, if any."""
    # equal neighbours after a sort, not a set: a set's hash table over
    # 6,000 ids is five times the size of their sorted list, and building
    # it raised the process's peak RSS
    for a, b in pairwise(sorted(ids)):
        if a == b:
            raise InvalidInputError(f"{path}: duplicate {column} {a!r}")


def _reject_nonfinite(path, ids, names, values: np.ndarray) -> None:
    """Raise InvalidInputError naming the file, the row's id and the column
    of the first nan or infinite number, in row order, of ``values``, whose
    columns are ``names`` and whose rows are ``ids``."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise InvalidInputError(
            f"{path}: {ids[row]}: column {names[col]!r} is not finite: "
            f"{float(values[row, col])!r}")


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


def load_sensitivities(path, factor_names) -> SectorSensitivities:
    """Sensitivities file: sector_id, delta, eta, then beta_<f> and gamma_<f>
    columns for each macro-financial factor, in covariance order, as one
    table with a row per sector."""
    x_names = list(factor_names)[1:]
    names = (["delta", "eta"] + [f"beta_{n}" for n in x_names]
             + [f"gamma_{n}" for n in x_names])
    (ids,), values = _read_columns(path, ["sector_id"], names)
    _reject_repeats(path, "sector_id", ids)
    values = np.column_stack(values)
    _reject_nonfinite(path, ids, names, values)
    m = len(x_names)
    return SectorSensitivities(ids, pd=values[:, np.r_[0, 2:2 + m]],
                               lgd=values[:, np.r_[1, 2 + m:2 + 2 * m]])


def load_portfolio(path, sensitivities: SectorSensitivities,
                   sign_constraints: bool = True) -> Portfolio:
    """Exposure file: exposure_id, sector_id, ead, pd0, lgd0, rho, maturity."""
    (ids, sector_ids), values = _read_columns(
        path, ["exposure_id", "sector_id"], CREDIT_COLUMNS)
    _reject_repeats(path, "exposure_id", ids)
    return Portfolio(ids, sector_ids, *values,
                     sectors=sensitivities, sign_constraints=sign_constraints)


def load_sector_portfolio(path, sensitivities: SectorSensitivities,
                          sign_constraints: bool = True) -> SectorPortfolio:
    """Sector file: sector_id, ead, pd0, lgd0, rho, maturity, as one record
    array."""
    (ids,), values = _read_columns(path, ["sector_id"], CREDIT_COLUMNS)
    _reject_repeats(path, "sector_id", ids)
    records = np.rec.fromarrays([ids, *values],
                                names=["sector_id", *CREDIT_COLUMNS])
    return SectorPortfolio(records=records, sensitivities=sensitivities,
                           sign_constraints=sign_constraints)


def load_alpha(path, portfolio: Portfolio) -> np.ndarray:
    """Alpha file for the linear RWA mode: exposure_id, alpha."""
    (ids,), (alpha,) = _read_columns(path, ["exposure_id"], ["alpha"])
    _reject_repeats(path, "exposure_id", ids)
    _reject_nonfinite(path, ids, ["alpha"], alpha[:, None])
    row_of = dict(zip(ids, range(len(ids))))
    missing = [e for e in portfolio.exposure_id if e not in row_of]
    if missing:
        raise InvalidInputError(f"{path}: missing alpha for {missing[0]}")
    return alpha[[row_of[e] for e in portfolio.exposure_id]]
