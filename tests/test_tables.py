"""The one CSV path: checked reads and quoting writes."""

import pytest

from agbmap.tables import number, optional_number, read_table, write_table


def test_number_is_finite():
    assert number(" 2.5") == 2.5
    for text in ("nan", "inf", "-Infinity", "", "x"):
        with pytest.raises(ValueError):
            number(text)


def test_optional_number_reads_a_blank_cell_as_none():
    assert optional_number(" ") is None
    assert optional_number("0.5") == 0.5
    with pytest.raises(ValueError):
        optional_number("nan")


def test_read_table_parses_its_columns_and_ignores_the_others(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("extra,b,a\nx,2,one\n")
    assert list(read_table(p, "test", {"a": str, "b": int})) == [{"a": "one", "b": 2}]


def test_read_table_skips_a_byte_order_mark(tmp_path):
    # as a spreadsheet exports UTF-8 CSV
    p = tmp_path / "t.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b\none,2\n")
    assert list(read_table(p, "test", {"a": str, "b": int})) == [{"a": "one", "b": 2}]


def test_read_table_names_missing_columns_in_column_order(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("b\n1\n")
    with pytest.raises(ValueError, match=r"test table .*t.csv is missing columns: \['c', 'a'\]"):
        list(read_table(p, "test", {"c": str, "b": int, "a": str}))


@pytest.mark.parametrize("body, reported", [
    ('a,b\n"x\ny",1\nz,nan\n', "t.csv:4: b: 'nan' is not a finite number"),
    ("a,b\nx,1\n\nz\n", "t.csv:4: b: the row ends before this column"),
], ids=["line of a record after a quoted line feed", "short row after a blank line"])
def test_read_table_names_the_line_of_a_malformed_row(tmp_path, body, reported):
    p = tmp_path / "t.csv"
    p.write_text(body)
    with pytest.raises(ValueError, match=f"malformed test row at .*{reported}"):
        list(read_table(p, "test", {"a": str, "b": number}))


def test_write_table_formats_and_quotes_cells(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, ("id", "x", "n", "h"), [
        {"id": 'P,"0', "x": 0.1, "n": 3, "h": None},
        {"id": "a\nb", "x": 1e-20, "n": 0, "h": 1.0, "ignored": "z"},
        {"id": "c\rd", "x": 2.5, "n": 1, "h": None},
    ])
    assert p.read_bytes() == b'id,x,n,h\n"P,""0",0.1,3,\n"a\nb",1e-20,0,1.0\n"c\rd",2.5,1,\n'
    columns = {"id": str, "x": number, "n": int, "h": optional_number}
    assert list(read_table(p, "test", columns)) == [
        {"id": 'P,"0', "x": 0.1, "n": 3, "h": None},
        {"id": "a\nb", "x": 1e-20, "n": 0, "h": 1.0},
        {"id": "c\rd", "x": 2.5, "n": 1, "h": None},
    ]
