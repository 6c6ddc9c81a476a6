"""Calendar quarters used to index panel periods."""

from __future__ import annotations

import re
from dataclasses import dataclass

_PERIOD_RE = re.compile(r"^(\d{4})Q([1-4])$", re.ASCII)


@dataclass(frozen=True, order=True)
class Period:
    """A calendar quarter, totally ordered by (year, quarter)."""

    year: int
    quarter: int

    def __post_init__(self) -> None:
        if self.quarter not in (1, 2, 3, 4):
            raise ValueError(f"quarter must be in 1..4, got {self.quarter!r}")
        if self.year < 0:
            raise ValueError(f"year must be non-negative, got {self.year!r}")

    @property
    def index(self) -> int:
        """Absolute quarter count; consecutive quarters differ by one."""
        return self.year * 4 + (self.quarter - 1)

    @classmethod
    def from_index(cls, index: int) -> Period:
        return cls(index // 4, index % 4 + 1)

    def next(self) -> Period:
        return Period.from_index(self.index + 1)

    def prev(self) -> Period:
        return Period.from_index(self.index - 1)

    def shift(self, quarters: int) -> Period:
        return Period.from_index(self.index + quarters)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"

    @classmethod
    def parse(cls, text: str) -> Period:
        """Parse a 'YYYYQn' label such as '2014Q3'."""
        m = _PERIOD_RE.match(text.strip())
        if m is None:
            raise ValueError(f"expected a period like '2014Q3', got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))


def period_range(start: Period, end: Period) -> list[Period]:
    """All quarters from start through end, inclusive."""
    if end < start:
        raise ValueError(f"empty period range: {start} > {end}")
    return [Period.from_index(i) for i in range(start.index, end.index + 1)]
