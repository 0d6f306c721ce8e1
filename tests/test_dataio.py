"""The CSV table reader: NumPy's C reader against a per-cell csv oracle, and
the faults it names."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georst.dataio import (_read_columns, load_alpha, load_covariance,
                           load_history, load_portfolio, load_sector_portfolio,
                           load_sensitivities)
from georst.errors import InvalidInputError

SENSITIVITIES = ("sector_id,delta,eta,beta_x1,gamma_x1\n"
                 "corp,0.9,0.12,0.8,0.08\n")
PORTFOLIO_HEADER = "exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n"


def oracle(path, ids, numbers):
    """csv.DictReader with stripped keys, and float() per cell."""
    with open(path, newline="") as fh:
        rows = [{k.strip(): v for k, v in row.items()}
                for row in csv.DictReader(fh)]
    return ([[row[c].strip() for row in rows] for c in ids],
            [np.array([float(row[c]) for row in rows]) for c in numbers])


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


spaces = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def number_cells(draw):
    x = draw(st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308])))
    form = draw(st.sampled_from(["{!r}", "{:.17e}", "{:.17E}", "{:+.17g}",
                                 "{:e}", "{:.3g}"]))
    return draw(spaces) + form.format(x) + draw(spaces)


@st.composite
def id_cells(draw):
    text = draw(st.text(alphabet='ab #,"', max_size=6))
    if "," in text or '"' in text or draw(st.booleans()):
        return quoted(text)
    return draw(spaces) + text + draw(spaces)


@st.composite
def tables(draw):
    n_numbers = draw(st.integers(1, 4))
    numbers = [f"v{j}" for j in range(n_numbers)]
    # an unused text column sits between the numbers
    header = ["id", *numbers[:1], "note", *numbers[1:]]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cells = {"id": draw(id_cells()), "note": draw(id_cells())}
        cells.update((c, draw(number_cells())) for c in numbers)
        rows.append(",".join(cells[c] for c in header))
    lines = [" , ".join(header)]
    for row in rows:
        lines += [""] * draw(st.integers(0, 2)) + [row]
    lines += [""] * draw(st.integers(0, 2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + newline for line in lines), numbers


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_reader_equals_a_per_cell_parse(tmp_path_factory, table):
    text, numbers = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (ids,), values = _read_columns(path, ["id"], numbers)
    assert caught == []
    (want_ids,), want = oracle(path, ["id"], numbers)
    assert ids == want_ids
    for got, expected in zip(values, want):
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(1, 8), data=st.data())
def test_matrix_reader_equals_a_per_cell_parse(tmp_path_factory, d, n, data):
    # names are stripped, and a repeated name is one more column of numbers
    names = data.draw(st.lists(st.sampled_from(["g", "x1", " x1 "]),
                               min_size=d, max_size=d))
    cells = [[data.draw(number_cells()) for _ in names] for _ in range(n)]
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    path.write_text(",".join(names) + "\n"
                    + "".join(",".join(row) + "\n\n" for row in cells))
    X, header = load_history(path)
    assert header == tuple(name.strip() for name in names)
    assert X.shape == (n, d) and X.flags.c_contiguous
    assert X.tobytes() == np.array(
        [[float(c) for c in row] for row in cells]).reshape(n, d).tobytes()


@pytest.fixture
def sens(tmp_path):
    path = tmp_path / "sens.csv"
    path.write_text(SENSITIVITIES)
    return load_sensitivities(path, ("g", "x1"))


def test_an_underscore_number_is_rejected_naming_the_file(tmp_path, sens):
    # float() accepts 1_0 and NumPy's reader does not; the csv re-read finds
    # no fault, so NumPy's message is raised, with the file's name
    path = tmp_path / "pf.csv"
    path.write_text(PORTFOLIO_HEADER + "e0,corp,1_0,0.02,0.4,0.2,2.5\n")
    with pytest.raises(InvalidInputError, match=r"pf\.csv: .*'1_0'"):
        load_portfolio(path, sens)


@pytest.mark.parametrize("blank", ["", "\n", "\n\r\n\n"])
def test_a_header_only_file_has_no_data_rows(tmp_path, sens, blank):
    path = tmp_path / "pf.csv"
    for text, load in ((PORTFOLIO_HEADER, lambda p: load_portfolio(p, sens)),
                       ("g,x1\n", load_covariance),
                       ("g,x1\n", load_history)):
        path.write_text(text + blank)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError,
                               match=r"pf\.csv: no data rows"):
                load(path)
        assert caught == []


def test_an_empty_or_missing_file_is_named(tmp_path):
    path = tmp_path / "cov.csv"
    with pytest.raises(InvalidInputError,
                       match=r"input file not found: .*cov\.csv"):
        load_covariance(path)
    path.write_text("")
    with pytest.raises(InvalidInputError, match=r"cov\.csv: missing header"):
        load_covariance(path)


def test_blank_lines_load_with_no_warning(tmp_path, sens):
    path = tmp_path / "pf.csv"
    path.write_bytes((PORTFOLIO_HEADER
                      + "\n\ne0,corp,1.0,0.02,0.4,0.2,2.5\r\n\r\n"
                      + "e1,corp,2.0,0.02,0.4,0.2,2.5\n\n\n").encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pf = load_portfolio(path, sens)
    assert caught == []
    assert pf.exposure_id == ["e0", "e1"]
    assert pf.ead.tolist() == [1.0, 2.0]


def test_an_id_holding_a_hash_is_data(tmp_path, sens):
    # there are no comment lines: a # starts no comment, in a cell or a line
    path = tmp_path / "pf.csv"
    path.write_text(PORTFOLIO_HEADER
                    + "#e0,corp,1.0,0.02,0.4,0.2,2.5\n"
                    + ' "e#1 ",corp,2.0,0.02,0.4,0.2,2.5\n'
                    + '"e,""2""",corp,3.0,0.02,0.4,0.2,2.5\n')
    pf = load_portfolio(path, sens)
    assert pf.exposure_id == ["#e0", '"e#1 "', 'e,"2"']
    assert pf.ead.tolist() == [1.0, 2.0, 3.0]


def test_a_sector_file_loads_through_the_same_reader(tmp_path, sens):
    path = tmp_path / "sectors.csv"
    path.write_text("sector_id , ead,pd0,lgd0,rho,maturity,notes\n"
                    " corp ,8.0,0.015,0.4,0.2,2.5,anything\n")
    record, = load_sector_portfolio(path, sens).records
    assert (record.sector_id, record.ead, record.maturity) == ("corp", 8.0, 2.5)


def test_an_undecodable_file_names_the_file(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_bytes(b"g,x1\n1.0,0.3\n\xff\xfe,1.0\n")
    with pytest.raises(InvalidInputError, match=r"cov\.csv"):
        load_covariance(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["delta", "eta", "gamma_x1"])
def test_a_non_finite_sensitivity_is_rejected_naming_its_row(tmp_path, column,
                                                             value):
    # the reader parses nan and inf; a nan delta used to pass validate and
    # end design-point in "no capital-breaching scenario"
    header = SENSITIVITIES.splitlines()[0].split(",")
    cells = dict(zip(header, ["east", "0.5", "0.1", "0.3", "0.05"]),
                 **{column: value})
    path = tmp_path / "sens.csv"
    path.write_text(SENSITIVITIES + ",".join(cells[c] for c in header) + "\n")
    # the reader parses the cell; the loader rejects it
    _, (parsed,) = _read_columns(path, ["sector_id"], [column])
    assert not np.isfinite(parsed[1])
    with pytest.raises(InvalidInputError,
                       match=rf"sens\.csv: east: column '{column}' is not "
                             rf"finite: {value}"):
        load_sensitivities(path, ("g", "x1"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_alpha_is_rejected_naming_its_row(tmp_path, sens, value):
    # a nan alpha used to give baseline_ratio = nan and exit 0
    pf_path = tmp_path / "pf.csv"
    pf_path.write_text(PORTFOLIO_HEADER + "e0,corp,1.0,0.02,0.4,0.2,2.5\n"
                       + "e1,corp,2.0,0.02,0.4,0.2,2.5\n")
    pf = load_portfolio(pf_path, sens)
    path = tmp_path / "alpha.csv"
    path.write_text(f"exposure_id,alpha\ne0,1.5\ne1,{value}\n")
    with pytest.raises(InvalidInputError,
                       match=rf"alpha\.csv: e1: column 'alpha' is not "
                             rf"finite: {value}"):
        load_alpha(path, pf)
