"""Phase-space grid specifications and sweep result containers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QUADRATURES", "GridSpec", "SweepResult", "RECORD_COLUMNS", "axis_groups",
           "stacked_and_looped"]

QUADRATURES = ("q1", "p1", "q2", "p2")
RECORD_COLUMNS = ("q1", "p1", "q2", "p2", "W", "W2", "I", "budget")


@dataclass(frozen=True)
class GridSpec:
    """One- or two-axis sweep over quadratures, remaining quadratures pinned.

    axes: tuple of (name, lo, hi, count); points are linspace(lo, hi, count)
    and records run row-major over the axes in the order given.  count = 1 is
    allowed only for a degenerate axis with lo == hi (single-point grids).
    """

    axes: tuple[tuple[str, float, float, int], ...]
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (1 <= len(self.axes) <= 2):
            raise ValueError("grid must sweep one or two axes")
        seen = set()
        for name, lo, hi, count in self.axes:
            if name not in QUADRATURES:
                raise ValueError(f"unknown quadrature {name!r}")
            if name in seen:
                raise ValueError(f"axis {name!r} listed twice")
            seen.add(name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis {name!r} needs finite bounds, got [{lo}, {hi}]")
            if count < 1 or (count == 1 and lo != hi):
                raise ValueError("axis count must be >= 2 (or 1 with lo == hi)")
            if count >= 2 and not lo < hi:
                raise ValueError(f"axis {name!r} needs lo < hi, got [{lo}, {hi}]")
        for name, value in self.fixed.items():
            if name not in QUADRATURES:
                raise ValueError(f"unknown fixed quadrature {name!r}")
            if name in seen:
                raise ValueError(f"{name!r} is both swept and fixed")
            if not math.isfinite(value):
                raise ValueError(f"fixed quadrature {name!r} must be finite, got {value}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax[3] for ax in self.axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def coordinates(self) -> np.ndarray:
        """(n_points, 4) array of (q1, p1, q2, p2), row-major over the axes."""
        values = [np.linspace(lo, hi, count) for _, lo, hi, count in self.axes]
        mesh = np.meshgrid(*values, indexing="ij")
        coords = np.zeros((self.n_points, 4))
        for i, name in enumerate(QUADRATURES):
            coords[:, i] = self.fixed.get(name, 0.0)
        for (name, *_), grid in zip(self.axes, mesh):
            coords[:, QUADRATURES.index(name)] = grid.ravel()
        return coords

    def amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """Mode amplitudes (alpha, beta) of every point, in coordinates() order;
        alpha = (q1 + i p1) / sqrt(2), beta = (q2 + i p2) / sqrt(2)."""
        c = self.coordinates()
        return (c[:, 0] + 1j * c[:, 1]) / np.sqrt(2), (c[:, 2] + 1j * c[:, 3]) / np.sqrt(2)


def axis_groups(values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct entries of ``values`` and, for each, the indices where it
    occurs (ascending).  Grid engines build per-value factors once and
    evaluate every point of a group against them."""
    distinct, inverse = np.unique(np.ravel(values), return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(distinct) + 1))
    return distinct, [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def stacked_and_looped(mode1: tuple, mode2: tuple) -> tuple[tuple, tuple]:
    """The two modes of a two-mode grid engine, ordered (stacked, looped).

    Each mode is a tuple (values, ...) of its point values and whatever the
    engine needs with them.  The engine stacks the per-value factors of one
    mode and loops over the distinct values of the other, building one
    factor at a time, so the stack holds the mode with fewer distinct values
    (mode 2 on a tie).
    """
    return min((mode2, mode1), (mode1, mode2),
               key=lambda pair: len(set(np.ravel(pair[0][0]).tolist())))


@dataclass(frozen=True)
class SweepResult:
    """Grid sweep output: a meta echo of the full configuration plus one
    record (q1, p1, q2, p2, W, W^2, I, budget) per grid point."""

    meta: dict
    records: np.ndarray  # shape (n_points, 8), columns RECORD_COLUMNS

    def __post_init__(self):
        if self.records.ndim != 2 or self.records.shape[1] != len(RECORD_COLUMNS):
            raise ValueError(f"records must have {len(RECORD_COLUMNS)} columns")

    def column(self, name: str) -> np.ndarray:
        return self.records[:, RECORD_COLUMNS.index(name)]
