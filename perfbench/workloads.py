"""The four workloads: {pure, noisy} x {2-D surface, 1-D slice}.

Each operation is one `spincat preset` call.  Its state, channel and grid are
written out here again, from the figure definitions, so that the checks do
not read them back from the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HALF_CAT = (math.pi, 0.0, 0.0, 2 * math.pi)           # theta1, theta2, phi1, phi2
GENERAL_CAT = (math.pi / 3, math.pi / 2, 0.0, 2 * math.pi)
QUADRATURES = ("q1", "p1", "q2", "p2")


@dataclass(frozen=True)
class Op:
    preset: str
    twoj: int
    angles: tuple[float, float, float, float]
    s: float | None                     # mode-1 noise strength, None = pure
    axes: tuple[tuple[str, float, float, int], ...]
    fmt: str = "csv"
    j_arg: str | None = None            # value passed as --j

    @property
    def name(self) -> str:
        return self.preset if self.j_arg is None else f"{self.preset}-j{self.j_arg}"

    def argv(self, out: str) -> list[str]:
        argv = ["preset", self.preset, "--out", out, "--format", self.fmt]
        if self.j_arg is not None:
            argv += ["--j", self.j_arg]
        return argv

    @property
    def points(self) -> int:
        return math.prod(ax[3] for ax in self.axes)


def _surface(preset, ax1, ax2, fmt, s=None):
    return Op(preset, 1, HALF_CAT, s, ((ax1, -2.0, 2.0, 101), (ax2, -2.0, 2.0, 101)), fmt)


def _slice(preset, ax, j, s=None):
    return Op(preset, 2 * j, GENERAL_CAT, s, ((ax, -10.0, 10.0, 201),), "csv", str(j))


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # per-point dispatch and serialization; no displacement, skew or channel work
    "pure-surface": (
        _surface("fig1a", "q1", "q2", "csv"),
        _surface("fig1b", "p1", "p2", "csv"),
        _surface("fig1c", "q1", "p2", "json"),
        _surface("fig1d", "p1", "q2", "json"),
    ),
    # 10,201 SkewEvaluator.values calls over 202 distinct kernel columns
    "noisy-surface": (_surface("fig3a", "q1", "q2", "csv", s=1.0),),
    # shell kernel at j = 10; fig2-q2 at j = 15 fails its own audit every time
    "pure-slices": (
        _slice("fig2-q1", "q1", 10),
        _slice("fig2-q2", "q2", 10),
        _slice("fig2-p1", "p1", 10),
        _slice("fig2-p2", "p2", 10),
        _slice("fig2-q2", "q2", 15),
    ),
    # a new axis value at every point: displacement matrices with no reuse
    "noisy-slices": (
        _slice("fig5a", "q1", 1, s=1.0),
        _slice("fig5g", "q2", 1, s=2.0),
    ),
}
