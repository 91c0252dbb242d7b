"""Axis-aligned boxes with optional -inf lower bounds, and query answers.

All comparisons are closed.  Double coverage is legal because only
idempotent semigroups are supported; generators guarantee pairwise
distinct coordinates per dimension (``points.hammersley_wd`` by
construction, as its docstring shows; ``points.uniform_random`` by
resampling), so closed/open never changes answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .errors import DimensionMismatch

__all__ = ["NEG_INF", "Box", "QueryAnswer", "box_contains_point", "box_volume"]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Box:
    """Per-dimension bounds; lo[i] may be NEG_INF, hi[i] is finite."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch("lo and hi lengths differ")
        for l, h in zip(self.lo, self.hi):
            if l != NEG_INF and l > h:
                raise ValueError(f"lo {l} > hi {h}")

    @property
    def dims(self) -> int:
        return len(self.lo)


def box_contains_point(box: Box, point: Sequence[float]) -> bool:
    """Closed containment; -inf lower bounds always pass below."""
    if len(point) != box.dims:
        raise DimensionMismatch(f"point has {len(point)} dims, box has {box.dims}")
    return all(l <= c <= h for l, c, h in zip(box.lo, point, box.hi))


def box_volume(box: Box, clip_lo: float = 0.0) -> float:
    """Product of side lengths, with -inf sides clipped at ``clip_lo``."""
    vol = 1.0
    for l, h in zip(box.lo, box.hi):
        if clip_lo > h:
            raise ValueError(f"clip_lo {clip_lo} exceeds hi {h}")
        vol *= h - max(l, clip_lo)
    return vol


@dataclass(frozen=True)
class QueryAnswer:
    """Semigroup value (None iff the range is empty) plus the cost split."""

    value: Any
    sums_used: int
    singletons_used: int

    @property
    def total_cost(self) -> int:
        return self.sums_used + self.singletons_used
