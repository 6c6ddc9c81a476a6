"""Text sources, sinks and cells shared by every reader and writer.

`open_text` lets each reader and writer take either an open stream or a
path; `read_key_values` is the one parser for the flat `key = value` files
(design specs and generator configs); `parse_number` and `format_float` read
and write numeric CSV cells.

This is the one module that speaks CSV. `read_csv` reads every CSV input
under one set of rules: header names are stripped, a leading byte-order mark
is dropped, and a column named twice is rejected; columns are looked up by
name, in any order; a row whose cells are all blank is skipped but still
counted. A header problem (no header, a repeated or a missing column) raises
`ValueError`; a bad data row raises `IngestError` naming its row and column.
`write_csv` writes every CSV output, UTF-8 with `\n` line ends.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import IO, Collection, Iterable, Iterator, Sequence

BATCH_ROWS = 4096  # rows handed out together by `CsvTable.batches`


class IngestError(ValueError):
    """A delimited input failed validation."""


def parse_number(
    text: str, row: int, column: str, *, kind: type = float, positive: bool = False
) -> float:
    """Parse one numeric cell as `kind`; errors name the row and column."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise IngestError(
            f"row {row}: column {column!r}: could not parse {text!r} as {noun}"
        ) from None
    if not math.isfinite(value):
        raise IngestError(f"row {row}: column {column!r}: non-finite value {text!r}")
    if positive and value <= 0:
        raise IngestError(f"row {row}: column {column!r} must be positive, got {value!r}")
    return value


def format_float(value: float) -> str:
    # repr round-trips doubles exactly, so serialize/ingest is lossless.
    return repr(float(value))


@contextmanager
def open_text(source: IO[str] | str | Path, mode: str = "r") -> Iterator[IO[str]]:
    """Yield `source` if it is a stream; otherwise open the file it names.

    Files are UTF-8 with newline translation off, as the csv module expects,
    and are closed on exit. A stream passed in is left open.
    """
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield source


def read_key_values(source: IO[str] | str | Path, keys: Collection[str]) -> dict[str, str]:
    """Parse `key = value` lines; blank lines and '#' comments are skipped.

    Every key must be one of `keys` and may appear once. Values are returned
    stripped and unparsed; errors name the offending line.
    """
    raw: dict[str, str] = {}
    with open_text(source) as stream:
        for line_number, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"line {line_number}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in keys:
                raise ValueError(
                    f"line {line_number}: unknown key {key!r}; "
                    f"valid keys: {', '.join(keys)}"
                )
            if key in raw:
                raise ValueError(f"line {line_number}: duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def is_blank(row: Sequence[str]) -> bool:
    """Whether every cell of `row` is empty or whitespace; such rows are skipped."""
    return not "".join(row).strip()


class CsvTable:
    """The cleaned header of a CSV stream and its rows from row 2 on.

    `rows` streams the rows one by one and `batches` in lists; both number
    them in file order.
    """

    def __init__(self, stream: IO[str], what: str) -> None:
        self._what = what
        self._reader = csv.reader(stream)
        header = next(self._reader, None)
        if header is None:
            raise ValueError(f"{what} is empty: expected a header row")
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        self.header = [name.strip() for name in header]
        self._position = {name: i for i, name in enumerate(self.header)}
        if len(self._position) != len(self.header):
            repeated = sorted({n for n in self.header if self.header.count(n) > 1})
            raise ValueError(f"{what} repeats column(s) {repeated}")

    def columns(self, names: Iterable[str]) -> dict[str, int]:
        """The position of each of `names`; `ValueError` lists every missing one."""
        names = list(names)
        missing = [n for n in names if n not in self._position]
        if missing:
            raise ValueError(f"{self._what} lacks column(s) {missing}")
        return {n: self._position[n] for n in names}

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """Each row that is not blank, with its row number in the file."""
        for row_number, row in enumerate(self._reader, start=2):
            if "".join(row).strip():  # `not is_blank(row)`, inlined in this hot loop
                yield row_number, row

    def batches(self) -> Iterator[tuple[int, list[list[str]]]]:
        """Lists of `BATCH_ROWS` rows, blank ones kept, with their first row number."""
        first_row = 2
        while rows := list(islice(self._reader, BATCH_ROWS)):
            yield first_row, rows
            first_row += len(rows)


@contextmanager
def read_csv(source: IO[str] | str | Path, what: str) -> Iterator[CsvTable]:
    """Open `source` and yield its `CsvTable`; `what` names it in errors."""
    with open_text(source) as stream:
        yield CsvTable(stream, what)


def write_csv(
    sink: IO[str] | str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write `header` and then `rows` to `sink`."""
    with open_text(sink, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
