"""Text sources, sinks and cells shared by every reader and writer.

`open_text` lets each reader and writer take either an open stream or a
path. A flat `key = value` file (design specs and generator configs) is
described by one table of `key -> (parse, write)` pairs in its record's
field order: `read_key_values` reads it and `dump_key_values` writes it.
`to_number` reads every number of those files and, through `parse_number`,
every numeric CSV cell, which `format_float` writes. A number is ASCII and
holds no `_`, so digit grouping and non-ASCII digits, which Python's `int`
and `float` accept, are rejected, and it must be finite.

This is the one module that speaks CSV. `read_csv` reads every CSV input
under one set of rules: header names are stripped, a leading byte-order mark
is dropped, and a column named twice is rejected; columns are looked up by
name, in any order; a row whose cells are all blank is skipped but still
counted, and every other row must have as many fields as the header. A
header problem (no header, a repeated or a missing column, a header the csv
module cannot read) raises `ValueError`; a bad data row raises `IngestError`
naming its row and column, or only its row if the csv module cannot read it
(a field over its size limit; before Python 3.11, a NUL). `write_csv` writes
every CSV output, UTF-8 with `\n` line ends. A record CSV's header and cells
are its dataclass's `field_names` and `field_values`, and `write_records`
writes every cell by the one cell rule, `format_cell`, as the readers key
every categorical cell through `Codes`.

Every reader is a list of cell rules, a `Codes` or a `Number` per wanted
column, read by `read_columns` in batches of `BATCH_ROWS`. A batch's
`columns` splits it with numpy's C reader (`np.loadtxt`) only when it can
certify that the csv module would split it the same way: its text is ASCII
with no `"`, carriage return, NUL or `\x1c`-`\x1f` (characters that
`float` and numpy strip differently), every line has the header's width,
and every numeric cell parses. Any other batch, one whose cells a rule
rejects, and all input from the first `"` on (a quoted field may span
lines), is read row by row by the csv module, the path that names every
error. A reader's rules across rows run once, vectorised, after its cells,
so the first bad row in file order is named. `write_csv` likewise joins a
chunk of rows itself only when no cell needs quoting. Values, errors and
bytes do not depend on which path a batch takes.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import math
from contextlib import contextmanager
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

BATCH_ROWS = 4096  # rows read, or written, together
# Characters that keep a batch off numpy's reader, besides the '"' that
# ends it: the csv module reads '\r' and (before Python 3.11) NUL its own
# way, and numpy strips \x1c-\x1f around a number where `float` does not.
_ROW_PATH_ONLY = ("\r", "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


class IngestError(ValueError):
    """A delimited input failed validation."""


def _parse(text: str, kind: type) -> float:
    """`kind(text)` if `text` is ASCII with no `_`; `ValueError` otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not parse {text!r}: a number is ASCII with no '_'")
    return kind(text)


def to_number(text: str, kind: type = float) -> float:
    """Parse `text` as `kind` if it is ASCII with no `_` and finite; `ValueError` otherwise."""
    value = _parse(text, kind)
    if kind is not int and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def to_numbers(text: str, kind: type = float) -> tuple:
    """Parse a comma-separated list of numbers as `kind`; blank items are skipped."""
    return tuple(to_number(tok.strip(), kind) for tok in text.split(",") if tok.strip())


def parse_number(
    text: str, row: int, column: str, *, kind: type = float, positive: bool = False
) -> float:
    """Parse one numeric cell as `kind`; errors name the row and column."""
    try:
        value = _parse(text, kind)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise IngestError(
            f"row {row}: column {column!r}: could not parse {text!r} as {noun}"
        ) from None
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        raise IngestError(f"row {row}: column {column!r}: integer out of range {text!r}") from None
    if not finite:
        raise IngestError(f"row {row}: column {column!r}: non-finite value {text!r}")
    if positive and value <= 0:
        raise IngestError(f"row {row}: column {column!r} must be positive, got {value!r}")
    return value


def format_float(value: float) -> str:
    # repr round-trips doubles exactly, so serialize/ingest is lossless.
    return repr(float(value))


def format_cell(value: Any) -> str:
    """A written CSV cell: None blank, a flag 1 or 0, a float `format_float`, an enum its value."""
    return _cell_writer(type(value))(value)


@lru_cache(maxsize=None)
def _cell_writer(kind: type) -> Callable[[Any], str]:
    if kind is type(None):
        return lambda value: ""
    if issubclass(kind, enum.Enum):
        return lambda value: str(value.value)
    if issubclass(kind, (bool, np.bool_)):
        return lambda value: "1" if value else "0"
    return format_float if issubclass(kind, (float, np.floating)) else str


@lru_cache(maxsize=None)
def field_names(record_type: type) -> tuple[str, ...]:
    """The field names of a dataclass, in field order."""
    return tuple(field.name for field in dataclasses.fields(record_type))


def field_values(record: Any) -> tuple:
    """The values of a dataclass instance's fields, in field order."""
    return tuple(map(record.__getattribute__, field_names(type(record))))


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


def read_key_values(source: IO[str] | str | Path, fields: Mapping[str, tuple]) -> dict[str, Any]:
    """Parse `key = value` lines into each key's parsed value.

    `fields` maps each key to its (parse, write) pair. '#' starts a comment
    anywhere on a line, and blank lines are skipped. Every key must be one of
    `fields` and may appear once; its stripped value is passed to its parser.
    Errors name the offending line, and a value that its parser rejects with
    `ValueError` also names the key.
    """
    values: dict[str, Any] = {}
    with open_text(source) as stream:
        for line_number, line in enumerate(stream, start=1):
            text = line.partition("#")[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"line {line_number}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(
                    f"line {line_number}: unknown key {key!r}; "
                    f"valid keys: {', '.join(fields)}"
                )
            if key in values:
                raise ValueError(f"line {line_number}: duplicate key {key!r}")
            try:
                values[key] = fields[key][0](value.strip())
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {key}: {exc}") from None
    return values


def dump_key_values(record: Any, fields: Mapping[str, tuple]) -> str:
    """`record` as `key = value` lines in `fields` order; a writer's None leaves its key out."""
    lines = ((key, write(getattr(record, key))) for key, (_, write) in fields.items())
    return "".join(f"{key} = {text}\n" for key, text in lines if text is not None)


def _csv_rows(lines: Iterable[str], first_row: int) -> Iterator[list[str]]:
    """csv rows of `lines` from row `first_row`; a row csv cannot read raises `IngestError`."""
    row_number = first_row - 1
    try:
        for row_number, row in enumerate(csv.reader(lines), start=first_row):
            yield row
    except csv.Error as exc:
        raise IngestError(f"row {row_number + 1}: {exc}") from None


class CsvTable:
    """The cleaned header of a CSV stream and its rows from row 2 on.

    `batches` gives the raw rows in `CsvBatch`es and `checked` checks a
    batch's rows; both number them in file order.
    """

    def __init__(self, stream: IO[str], what: str) -> None:
        self._what = what
        self._lines = iter(stream)
        try:  # csv.reader reads no further than the record it returns
            header = next(csv.reader(self._lines), None)
        except csv.Error as exc:
            raise ValueError(f"{what} header: {exc}") from None
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

    def checked(
        self, rows: Iterable[list[str]], first_row: int
    ) -> Iterator[tuple[int, list[str]]]:
        """Each of `rows` that is not blank, numbered from `first_row`.

        Raises `IngestError` at the first such row whose field count is not
        the header's.
        """
        width = len(self.header)
        for row_number, row in enumerate(rows, start=first_row):
            if "".join(row).strip():  # a row of blank cells is skipped
                if len(row) != width:
                    raise IngestError(
                        f"row {row_number}: expected {width} fields, got {len(row)}"
                    )
                yield row_number, row

    def batches(self) -> Iterator[CsvBatch]:
        """The rows in batches of `BATCH_ROWS`, blank ones kept, in file order.

        A batch holds raw lines until the first `"`; from the batch that
        holds it on, the csv module reads the rest, as a quoted field may
        span lines, and a batch's rows are read as they are used, so a csv
        error comes at its row. Use up each batch's rows, or its columns,
        before asking for the next batch.
        """
        first_row, width = 2, len(self.header)
        while lines := list(islice(self._lines, BATCH_ROWS)):
            text = "".join(lines)
            if '"' in text:
                rows = _csv_rows(chain(lines, self._lines), first_row)
                while (row := next(rows, None)) is not None:
                    yield CsvBatch(first_row, width,
                                   rows=chain([row], islice(rows, BATCH_ROWS - 1)))
                    first_row += BATCH_ROWS
                return
            yield CsvBatch(first_row, width, lines=lines, text=text)
            first_row += len(lines)


class CsvBatch:
    """Consecutive rows of a `CsvTable`, the first of them numbered `first_row`.

    Held as raw lines, or, once the input has held a `"`, as the csv
    module's rows. Their cells are not checked: `columns` certifies a batch
    for numpy's reader, and `CsvTable.checked` checks its `rows`.
    """

    def __init__(self, first_row: int, width: int, *, lines: list[str] | None = None,
                 text: str = "", rows: Iterable[list[str]] | None = None) -> None:
        self.first_row, self._width = first_row, width
        self._lines, self._text, self._rows = lines, text, rows

    def rows(self) -> Iterable[list[str]]:
        """The batch's rows as the csv module reads them, blank ones kept."""
        return _csv_rows(self._lines, self.first_row) if self._rows is None else self._rows

    def columns(self, numeric: Collection[int]) -> list[np.ndarray] | None:
        """One array per column, or None if the batch is not certified (see the module).

        Columns at `numeric` positions are float64 and the others hold the
        cells as `str` objects, unstripped.
        """
        lines, text, width = self._lines, self._text, self._width
        if (lines is None or width < 2 or not text.isascii()
                or any(c in text for c in _ROW_PATH_ONLY)
                or text.count(",") != len(lines) * (width - 1)
                or (len(text) > csv.field_size_limit()  # a line may be too long for csv
                    and max(map(len, lines)) > csv.field_size_limit())):
            return None
        # The comma count keeps out a row of the wrong width, and with it
        # every empty line, which numpy would skip (or warn about).
        dtype = [(str(i), float if i in numeric else object) for i in range(width)]
        try:
            table = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar=None,
                               ndmin=1)
        except ValueError:  # a row of the wrong width, or a cell that is not a number
            return None
        # Copies, so no column keeps the batch's other cells alive.
        return [table[name].copy() for name in table.dtype.names]


class Codes:
    """Codes for raw cells, or tuples of cells, in order of first appearance.

    `key(raw, row)` gives a raw cell's key, e.g. the stripped id, and raises
    `IngestError` naming `row` if the cell is bad. Each distinct raw cell is
    keyed once, and cells with equal keys share one code; `keys` maps each
    key to its code, in code order.
    """

    def __init__(self, key: Callable[[Any, int], Any]) -> None:
        self._key = key
        self._code: dict[Any, int] = {}  # raw cell -> code
        self.keys: dict[Any, int] = {}

    def code(self, raw: Any, row: int) -> int:
        """The code of the cell `raw` on row `row`; `IngestError` if it is bad."""
        code = self._code.get(raw)
        if code is None:
            code = self._code[raw] = self.keys.setdefault(self._key(raw, row), len(self.keys))
        return code

    def codes(self, cells: Sequence, first_row: int) -> np.ndarray | None:
        """The code of each of a batch's `cells`; None, coding none, if a new one is bad."""
        try:  # most batches hold no new cell
            return np.fromiter(map(self._code.__getitem__, cells), np.intp, len(cells))
        except KeyError:
            pass
        new = [raw for raw in dict.fromkeys(cells) if raw not in self._code]
        try:
            keys = [self._key(raw, first_row) for raw in new]
        except IngestError:
            return None
        for raw, key in zip(new, keys):
            self._code[raw] = self.keys.setdefault(key, len(self.keys))
        return np.fromiter(map(self._code.__getitem__, cells), np.intp, len(cells))


def stripped(error: str) -> Callable[[str, int], str]:
    """A `Codes` key: the stripped cell; `IngestError` "row N: `error`" if it is blank."""
    def key(raw: str, row: int) -> str:
        cell = raw.strip()
        if not cell:
            raise IngestError(f"row {row}: {error}")
        return cell
    return key


@dataclasses.dataclass(frozen=True)
class Number:
    """A cell rule: a number read by `parse_number`, finite, and positive if `positive`."""

    positive: bool = False


def read_columns(table: CsvTable, rules: Iterable[tuple[str | tuple[str, ...], Codes | Number]],
                 *checks: Callable) -> list[np.ndarray]:
    """`table`'s rows read by `rules`: one array per rule, of codes or numbers, in file order.

    A rule pairs a column, or for a `Codes` a tuple of columns keyed together,
    with its cell rule. A certified batch is taken as arrays if every rule
    accepts them; other rows go through `CsvTable.checked`, each row's cells
    in rule order, and the first bad cell raises `IngestError`. Each of
    `checks`, a rule across rows, maps the arrays and row numbers of the rows
    read (all of them, or those before a bad cell, to raise first) to the row
    number and message of its first fault, or None; the earliest raises.
    """
    rules = [((spec,) if isinstance(spec, str) else tuple(spec), rule) for spec, rule in rules]
    at = table.columns(name for names, _ in rules for name in names)
    readers = [_cell_reader(itemgetter(*map(at.get, names)), names[0], rule)
               for names, rule in rules]
    rules = [([at[name] for name in names], rule) for names, rule in rules]
    numeric = {columns[0] for columns, rule in rules if isinstance(rule, Number)}
    text = {i for columns, rule in rules if isinstance(rule, Codes) for i in columns}
    kinds = [np.intp, *(float if isinstance(rule, Number) else np.intp for _, rule in rules)]
    parts = [[np.empty(0, kind) for kind in kinds]]  # per batch: row numbers, each rule's array
    for batch in table.batches():
        cells = None if numeric & text else batch.columns(numeric)
        arrays = None if cells is None else _batch_arrays(cells, rules, batch.first_row)
        if arrays is not None:
            parts.append([np.arange(batch.first_row, batch.first_row + len(arrays[0])), *arrays])
            continue
        rows = []  # each row's number and value per rule
        try:
            for n, row in table.checked(batch.rows(), batch.first_row):
                rows.append([n] + [reader(row, n) for reader in readers])
        except IngestError:  # a fault across the rows before this one comes first
            _checked([*parts, _columns(rows, kinds)], checks)
            raise
        parts.append(_columns(rows, kinds))
    return _checked(parts, checks)


def _cell_reader(get: Callable, column: str, rule: Codes | Number) -> Callable:
    """The row path's reader of one rule's cells, `get` from a row, on row `n`."""
    if isinstance(rule, Number):
        return lambda row, n: parse_number(get(row), n, column, positive=rule.positive)
    return lambda row, n: rule.code(get(row), n)


def _batch_arrays(cells: list[np.ndarray], rules: list, first_row: int) -> list | None:
    """A certified batch's array per rule, or None if a rule rejects its cells."""
    arrays = []
    for columns, rule in rules:
        values = [cells[i] for i in columns]
        if isinstance(rule, Number):
            ok = np.isfinite(values[0]) & (values[0] > 0 if rule.positive else True)
            arrays.append(values[0] if ok.all() else None)
        else:
            keys = values[0].tolist() if len(values) == 1 else list(zip(*values))
            arrays.append(rule.codes(keys, first_row))
        if arrays[-1] is None:
            return None
    return arrays


def _columns(rows: list[list], kinds: list) -> list[np.ndarray]:
    """The columns of `rows` as arrays of `kinds`."""
    columns = list(zip(*rows)) or [()] * len(kinds)
    return [np.array(column, kind) for column, kind in zip(columns, kinds)]


def _checked(parts: list[list[np.ndarray]], checks: Sequence[Callable]) -> list[np.ndarray]:
    """The rule arrays of `parts` joined; `IngestError` at the earliest fault `checks` find."""
    rows, *values = map(np.concatenate, zip(*parts))
    faults = [fault for check in checks if (fault := check(values, rows)) is not None]
    if faults:
        raise IngestError(min(faults, key=itemgetter(0))[1]) from None
    return values


def first_repeat(keys: np.ndarray) -> tuple[int, int] | None:
    """The positions of the first key equal to an earlier one, and of that one; or None."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse]  # each key's first position
    repeats = np.flatnonzero(earlier != np.arange(len(keys)))
    return (int(repeats[0]), int(earlier[repeats[0]])) if repeats.size else None


def cell_values(rule: Codes | Number, array: np.ndarray) -> list:
    """A `read_columns` array as cell values: numbers, or the keys of codes."""
    if isinstance(rule, Number):
        return array.tolist()
    return list(map(list(rule.keys).__getitem__, array.tolist()))


@contextmanager
def read_csv(source: IO[str] | str | Path, what: str) -> Iterator[CsvTable]:
    """Open `source` and yield its `CsvTable`; `what` names it in errors."""
    with open_text(source) as stream:
        yield CsvTable(stream, what)


def write_csv(
    sink: IO[str] | str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write `header` and then `rows` to `sink`, as `csv.writer` would.

    Rows go out in chunks of `BATCH_ROWS`: joined by `_joined` when no cell
    of the chunk needs quoting, and by `csv.writer` otherwise.
    """
    with open_text(sink, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        rows = iter(rows)
        while chunk := list(islice(rows, BATCH_ROWS)):
            text = _joined(chunk, len(header))
            if text is None:
                writer.writerows(chunk)
            else:
                stream.write(text)


def write_records(sink: IO[str] | str | Path, header: Sequence[str], rows: Iterable) -> None:
    """`write_csv` of rows of values, each cell written by `format_cell`."""
    write_csv(sink, header, ([format_cell(value) for value in row] for row in rows))


def _joined(rows: list[Sequence[str]], width: int) -> str | None:
    """`rows` as `csv.writer` writes them, or None where a cell may need quoting.

    Certified when there are at least two columns, every row has `width`
    `str` cells, and the joined text holds a comma and a newline only
    between cells and rows, and no `"`, carriage return or NUL.
    """
    try:
        if width < 2 or set(map(len, rows)) != {width}:
            return None
        text = "\n".join(map(",".join, rows))
    except TypeError:  # a row that is not a sequence of str
        return None
    if (text.count(",") != len(rows) * (width - 1) or text.count("\n") != len(rows) - 1
            or any(c in text for c in '"\r\x00')):
        return None
    return text + "\n"
