"""Every csv table writes and reads itself under model's one CSV rule: a
written file reads back to the same columns (NaN and -0.0 included) and
writes again to the same bytes; a malformed file raises MalformedRow naming
file:line."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from shifttalk import reports
from shifttalk.aggregate import FEATURE_COLUMNS, BlockTable
from shifttalk.arousal import RatedTable
from shifttalk.errors import MalformedRow
from shifttalk.model import RssiTable, read_columns, write_csv
from shifttalk.sessions import SessionTable
from shifttalk.stats import ComparisonTable

NAN = math.nan
DAYS = np.array(["2022-03-01", "2022-12-31", "2022-03-01"], dtype="datetime64[D]")
IDS = ["p1", "p,2", 'p"3']  # csv quotes a comma and a double quote

TABLES = {
    "sessions": SessionTable(IDS, DAYS, [0, 719, 5], [1, 1, 3], [1, 0, 1], [0, 1, 0], [0, 0, 2], [0, 0, 0]),
    "rated": RatedTable(IDS, DAYS, [0, 719, -3], [-1.0, 0.0, 1.0], [1 / 3, -0.0, 0.1 + 0.2],
                        [1e-05, 1e22, -0.5], [0.30000000000000004, -0.25, 5e-324]),
    "blocks": BlockTable(IDS, DAYS, [0, 11, 4], [0, 4, 0], [NAN, 0.25, NAN], [NAN, 0.75, NAN]),
    "comparisons": ComparisonTable(["all", "day", "night"], ["f1", "f,2", "f3"], [0.5, NAN, -0.0],
                                   [1 / 3, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0],
                                   [0.0, 12.5, 3.0], [0.05, 1.0, 0.0001], ["exact", "normal_approx", "exact"],
                                   [False, True, True]),
    "rssi": RssiTable(IDS, DAYS, [0, -1, 9223372036854775807], ["h1", "h,2", "h3"], [136, 193, 160]),
    "empty": SessionTable(),
}


def assert_same_columns(a, b) -> None:
    assert type(a) is type(b)
    for name in a.columns():
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)  # NaN matches NaN
        if x.dtype.kind == "f":
            assert np.signbit(x).tolist() == np.signbit(y).tolist(), name


@pytest.mark.parametrize("name", list(TABLES))
def test_write_read_round_trip(tmp_path, name):
    table = TABLES[name]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    table.write_csv(first)
    back = type(table).read_csv(first)
    assert_same_columns(back, table)
    back.write_csv(second)
    assert second.read_bytes() == first.read_bytes()


def test_nan_is_an_empty_field(tmp_path):
    path = tmp_path / "blocks.csv"
    reports.write_blocks_csv(path, TABLES["blocks"])
    assert path.read_text().splitlines()[1] == "p1,2022-03-01,0,0,,"
    reports.write_comparisons_csv(path, TABLES["comparisons"])
    assert path.read_text().splitlines()[2:] == ['day,"f,2",,2.0,5.0,8.0,12.5,1.0,normal_approx,1',
                                                 "night,f3,-0.0,3.0,6.0,9.0,3.0,0.0001,exact,1"]


def test_features_pair_round_trip(tmp_path):
    matrix = np.arange(2.0 * len(FEATURE_COLUMNS)).reshape(2, -1) / 3
    matrix[1, 4] = NAN
    labels = {"pos_affect": [30, 31], "neg_affect": [20.0, 21.5], "life_satisfaction": [4.2, -0.0]}
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    reports.write_features_csv(first, ["p1", "p,2"], labels, matrix)
    ids, back_labels, back, names = reports.read_features_csv(first)
    assert ids == ["p1", "p,2"] and names == FEATURE_COLUMNS
    np.testing.assert_array_equal(back, matrix)
    assert {k: v.tolist() for k, v in back_labels.items()} == {k: [float(x) for x in v] for k, v in labels.items()}
    reports.write_features_csv(second, ids, back_labels, back)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["participant_id,shift_date,start"] + lines[1:], "sessions.csv:1: bad header"),
    (lambda lines: lines[:2] + [lines[2] + ",7"] + lines[3:], "sessions.csv:3: expected 8 fields, got 9"),
    (lambda lines: lines[:3] + [lines[3].replace(",5,3,", ",5,x,")], "sessions.csv:4: bad duration_min 'x'"),
    (lambda lines: lines[:2] + [lines[2].replace("2022-12-31", "2022-3-1")] + lines[3:],
     "sessions.csv:3: bad shift_date '2022-3-1'"),
    (lambda lines: lines[:1] + [lines[1].replace(",0,1,", ",1.0,1,", 1)] + lines[2:],
     "sessions.csv:2: bad start '1.0'"),
    # the first bad line in file order raises, whether it holds a bad cell or a wrong field count
    (lambda lines: [lines[0], lines[1].replace(",0,1,", ",x,1,", 1), lines[2], lines[3] + ",7"],
     "sessions.csv:2: bad start 'x'"),
    (lambda lines: [lines[0], lines[1] + ",7", lines[2], lines[3].replace(",5,3,", ",5,x,")],
     "sessions.csv:2: expected 8 fields, got 9"),
])
def test_read_csv_names_file_and_line(tmp_path, edit, message):
    path = tmp_path / "sessions.csv"
    TABLES["sessions"].write_csv(path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(MalformedRow) as err:
        SessionTable.read_csv(path)
    assert str(err.value).startswith(message), str(err.value)


@pytest.mark.parametrize("table, line, message", [
    ("blocks", "p1,2022-03-01,0,0,nan,", "blocks.csv:2: bad pos_ratio 'nan'"),
    ("blocks", "p1,2022-03-01,0,0,inf,", "blocks.csv:2: bad pos_ratio 'inf'"),
    ("comparisons", "all,f,1.0,1.0,1.0,1.0,1.0,1.0,exact,2", "comparisons.csv:2: bad significant '2'"),
    ("rssi", "p1,2022-03-01,9223372036854775808,h1,160", "rssi.csv:2: bad minute_index '9223372036854775808'"),
    ("rssi", "p1,20220301,0,h1,160", "rssi.csv:2: bad shift_date '20220301'"),
])
def test_read_csv_refuses_what_write_csv_never_writes(tmp_path, table, line, message):
    cls = type(TABLES[table])
    path = tmp_path / f"{table}.csv"
    path.write_text(",".join(cls.columns()) + "\n" + line + "\n")
    with pytest.raises(MalformedRow) as err:
        cls.read_csv(path)
    assert str(err.value) == message


@pytest.mark.parametrize("table, line, message", [
    ("sessions", "p1,2022-03-01, 1_0 ,+2,0,0,0,0", "sessions.csv:2: bad start ' 1_0 '"),
    ("sessions", "p1,2022-03-01,10,+2,0,0,0,0", "sessions.csv:2: bad duration_min '+2'"),
    ("sessions", "p1,2022-03-01,1_0,2,0,0,0,0", "sessions.csv:2: bad start '1_0'"),
    ("sessions", "p1,2022-03-01,\u0663,2,0,0,0,0", "sessions.csv:2: bad start '\u0663'"),
    ("blocks", "p1,2022-03-01,0,0, 0.5,", "blocks.csv:2: bad pos_ratio ' 0.5'"),
    ("blocks", "p1,2022-03-01,0,0,+0.5,", "blocks.csv:2: bad pos_ratio '+0.5'"),
    ("blocks", "p1,2022-03-01,0,0,0.2_5,", "blocks.csv:2: bad pos_ratio '0.2_5'"),
    ("blocks", "p1,2022-03-01,0,0,0.\u0665,", "blocks.csv:2: bad pos_ratio '0.\u0665'"),
    ("blocks", "p1,2022-03-01,0,0,0.5,1e+400", "blocks.csv:2: bad neg_ratio '1e+400'"),
])
def test_read_csv_refuses_number_text_that_int_and_float_take(tmp_path, table, line, message):
    cls = type(TABLES[table])
    path = tmp_path / f"{table}.csv"
    path.write_text(",".join(cls.columns()) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        cls.read_csv(path)
    assert str(err.value) == message


def test_read_csv_takes_every_number_form_repr_writes(tmp_path):
    values = [0.0, -0.0, 1e-05, 2.5e+16, -1.5e-300, 1e22, 123.0, NAN]
    table = BlockTable(["p"] * len(values), np.full(len(values), DAYS[0]), range(len(values)),
                       [-1, 0, 2**63 - 1, -(2**63), 7, 8, 9, 10], values, values[::-1])
    path = tmp_path / "blocks.csv"
    table.write_csv(path)
    assert "e+16" in path.read_text()
    assert_same_columns(BlockTable.read_csv(path), table)


def csv_module_rows(columns):
    """The rows the csv module writes for parallel columns under the cell
    rule: dates as YYYY-MM-DD, booleans as 0/1, NaN as None (an empty
    field), every other value as itself."""
    def cells(column):
        if column.dtype.kind == "M":
            return np.datetime_as_string(column).tolist()
        if column.dtype.kind == "b":
            return column.astype(np.int64).tolist()
        if column.dtype.kind == "f":
            return [None if math.isnan(v) else v for v in column.tolist()]
        return column.tolist()

    return zip(*(cells(column) for column in columns))


def test_write_csv_writes_the_csv_modules_bytes_and_reads_back(tmp_path):
    """write_csv against csv.writer (excel dialect) byte for byte, then
    read_columns back to the same values, for every column dtype a table
    holds: text that csv must quote or that it passes through (NUL,
    non-ASCII), floats at the edges of the range, NaN and -0.0, int64
    extremes, booleans and dates."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    text = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", "\0", " ", "a", "\u00e9", "\u6f22", "\U0001f600"]),
                             st.characters()), max_size=6)
    floats = st.one_of(st.sampled_from([math.nan, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 0.1 + 0.2]),
                       st.floats(allow_nan=False, allow_infinity=False))
    int64 = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0, -1]), st.integers(-(2**63), 2**63 - 1))
    kinds = {
        object: text,
        np.float64: floats,
        np.int64: int64,
        bool: st.booleans(),
        "datetime64[D]": st.dates(),
    }

    @st.composite
    def tables(draw):
        dtypes = draw(st.lists(st.sampled_from(list(kinds)), min_size=1, max_size=4))
        n = draw(st.integers(0, 8))
        header = draw(st.lists(text, min_size=len(dtypes), max_size=len(dtypes)))
        columns = [np.array(draw(st.lists(kinds[dtype], min_size=n, max_size=n)), dtype=dtype) for dtype in dtypes]
        return header, dtypes, columns

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(tables())
    def check(table) -> None:
        header, dtypes, columns = table
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        write_csv(ours, header, columns)
        with theirs.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(csv_module_rows(columns))
        assert ours.read_bytes() == theirs.read_bytes()

        for column, back in zip(columns, read_columns(ours, header, dtypes)):
            back = np.asarray(back, dtype=column.dtype)
            if column.dtype.kind == "f":  # NaN and -0.0 by their bits
                back, column = back.view(np.uint64), column.view(np.uint64)
            assert back.tolist() == column.tolist()

    check()


def sessions_file(path, n: int) -> list[bytes]:
    """A sessions.csv of n rows as write_csv writes it; its lines, CRLF ends kept."""
    SessionTable(["p1"] * n, np.full(n, "2022-03-01", "datetime64[D]"), np.arange(n) % 720, [1] * n, [0] * n,
                 [1] * n, [0] * n, [0] * n).write_csv(path)
    return path.read_bytes().splitlines(keepends=True)


@pytest.mark.parametrize("n, bad_at, earlier, message", [
    (3, 3, None, "sessions.csv:3: not UTF-8 text"),  # decoded with the header, before any row is read
    (3, 1, None, "sessions.csv:1: not UTF-8 text"),  # the header itself
    (3, 3, "cell", "sessions.csv:2: bad start 'x"),  # an earlier bad row still raises first
    (3, 3, "fields", "sessions.csv:2: expected 8 fields, got 9"),
    (2000, 1500, None, "sessions.csv:1500: not UTF-8 text"),  # many 8 KB reads past the first
    (2000, 1500, "cell", "sessions.csv:1499: bad start 'x"),
])
def test_read_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, n, bad_at, earlier, message):
    path = tmp_path / "sessions.csv"
    lines = sessions_file(path, n)
    lines[bad_at - 1] = lines[bad_at - 1].replace(b",", b"\xff,", 1)
    if earlier == "cell":
        lines[bad_at - 2] = lines[bad_at - 2].replace(b"p1,2022-03-01,", b"p1,2022-03-01,x", 1)
    elif earlier == "fields":
        lines[bad_at - 2] = lines[bad_at - 2].replace(b"\r\n", b",7\r\n")
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedRow) as err:
        SessionTable.read_csv(path)
    assert str(err.value).startswith(message), str(err.value)
