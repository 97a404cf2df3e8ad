"""Every csv table writes and reads itself under model's one CSV rule: a
written file reads back to the same columns (NaN and -0.0 included) and
writes again to the same bytes; a malformed file raises MalformedRow naming
file:line."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shifttalk import reports
from shifttalk.aggregate import FEATURE_COLUMNS, BlockTable
from shifttalk.arousal import RatedTable
from shifttalk.errors import MalformedRow
from shifttalk.model import RssiTable
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
