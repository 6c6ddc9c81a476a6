"""Text sources, sinks and cells shared by every reader and writer.

`open_text` lets each reader and writer take either an open stream or a
path; `read_key_values` is the one parser for the flat `key = value` files
(design specs and generator configs); `parse_number` and `format_float` read
and write numeric CSV cells.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Collection, Iterator


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
