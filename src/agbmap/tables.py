"""The one path for CSV tables: every table agbmap reads or writes.

A table is read against a column table, a mapping from each column it must
hold to the parser of that column's cells; other columns are ignored. A
missing column, a short row or a cell its parser rejects fails naming the
file and line. A written cell is quoted only when it holds a comma, a quote, a
line feed or a carriage return.
"""

from __future__ import annotations

import csv
import math
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping

Columns = Mapping[str, Callable[[str], object]]


def number(text: str) -> float:
    """A finite float; nan and infinities raise."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def optional_number(text: str) -> float | None:
    """A finite float, or None for a blank cell."""
    return number(text) if text.strip() else None


def read_table(path, what: str, columns: Columns) -> Iterator[dict]:
    """Yield each row of the table at `path` as {column: parsed cell}, in the
    order of `columns`; `what` names the table in error messages. A leading
    UTF-8 byte-order mark, as spreadsheets write, is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{what} table {path} is missing columns: {missing}")
        for row in reader:
            parsed = {}
            for name, parse in columns.items():
                try:
                    if row[name] is None:
                        raise ValueError("the row ends before this column")
                    parsed[name] = parse(row[name])
                except (TypeError, ValueError) as e:
                    raise ValueError(f"malformed {what} row at {path}:{reader.line_num}: "
                                     f"{name}: {e}") from e
            yield parsed


def write_table(path, columns: Iterable[str], rows: Iterable[Mapping]) -> None:
    """Write `rows`, mappings from column to value, under a header of `columns`.
    A float is written as its repr and None as an empty cell."""
    columns = list(columns)
    with open(path, "w", newline="", encoding="utf-8") as f:
        # the writer quotes a cell holding a character of its row terminator:
        # it ends rows in "\r\n", and each row is written ending in "\n" alone
        writer = csv.writer(SimpleNamespace(write=lambda line: f.write(line[:-2] + "\n")),
                            lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows([row[name] for name in columns] for row in rows)
