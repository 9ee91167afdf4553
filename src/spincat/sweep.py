"""Grid sweeps, figure-regime presets, and deterministic CSV/JSON output.

A sweep evaluates one configured cat state (optionally behind the noise
channel) over a GridSpec and emits one record per point:

    q1, p1, q2, p2, W, W2, I, budget

W is the Wigner value in the requested WignerConvention: KERNEL_MEAN writes
Tr[rho Delta] (bounded by 1), as every wigner and channel function returns
it; DENSITY multiplies it by 1/pi^2, normalizing the integral of W over
dq1 dp1 dq2 dp2 to Tr[rho] = 1.  I is the skew information of the underlying
state, budget = I + W^2.  For pure states evaluated in
kernel-mean convention the budget column is identically 1; after the channel
it stays below 1.  With the "gaussian" evaluator, W comes from the
Gaussian-branch surrogate (one _gaussian_form call, at noise s behind the
channel) while I still belongs to the true state, so the budget column is
diagnostic only.  For "closed" and "gaussian" at 2j > 1, a theta on the
boundary of ]0, pi[ is a ValueError before any state is built.

Without the channel, W is skewinfo._shell_kernel_mean's, from the shell
amplitudes and square kernel blocks, clipped to [-1, 1]; "closed" and
"kernel" write it, and every evaluator writes I = 1 - W^2 >= 0 from it.
pure_point_values, the commutator oracle, audits W and I at up to 7
records (_audit_records); for "closed" the shell closed form
(_closed_kernel_mean) audits W at every point.  Behind the channel, "closed"
and "kernel" write the W that SkewEvaluator.grid returns with I, so
I + W^2 <= Tr rho' holds from one rho'; for "closed",
channel_wigner_convolution audits it at the same records.  An audit gap
above skewinfo.AUDIT_TOL, or a NaN, raises ArithmeticError (skewinfo._audit).

Apart from the oracles on their few records, the grid is evaluated in
batches: the square-block route, the closed form, the Gaussian-branch
surrogate and the skew engine (skewinfo.SkewEvaluator.grid) build their
single-mode factors once per distinct alpha and per distinct beta.  Kernel
blocks on the state's support come from real displacement recurrences, one
per distinct modulus, in chunks whose real blocks fit skewinfo.CHUNK_BYTES;
the channel's closed-form Kraus maps need none.

CSV output is a single '# meta: {json}' comment line with sorted keys, a
fixed header, and numbers rendered with 17 significant digits.  It is
bit-deterministic on one machine at one BLAS thread count; a second OpenBLAS
thread leaves fig5a at j = 1 and fig3a byte-identical, but moves the last bit
of I in 11 of fig5e's 201 rows (see README).

Both writers work in chunks of CHUNK_ROWS records, with one write call per
chunk, so their working set does not grow with the grid.  Each distinct value
of a chunk is rendered once (np.unique): by one '%.17g' template for CSV, by
one call of the C JSON encoder on the list of distinct values for JSON.  The
texts are gathered back by np.unique's inverse index into one row template
per chunk.  The bytes equal those of per-value writers (f"{v:.17g}", and
json.dump of the whole payload with sorted keys), NaN and +-inf included, and
both formats write a -0.0 record as 0; the tests keep those writers as the
reference.
"""

from __future__ import annotations

import enum
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from .channel import ChannelParams, apply_channel_density, channel_wigner_convolution
from .fockspace import warn_if_truncated
from .grids import RECORD_COLUMNS, GridSpec, SweepResult
from .skewinfo import SkewEvaluator, _audit, _shell_kernel_mean, pure_point_values
from .states import CatParams, cat_state, density_from_vector
from .wigner import (
    PhasePoint,
    _as_real,
    _closed_kernel_mean,
    _gaussian_form,
    _require_interior_theta,
)

__all__ = [
    "EVALUATORS",
    "WignerConvention",
    "evaluate_grid",
    "run_preset",
    "preset_names",
    "serialize_csv",
    "serialize_json",
    "read_csv",
]

EVALUATORS = ("closed", "kernel", "gaussian")


class WignerConvention(enum.Enum):
    """Normalization of the written W column."""

    KERNEL_MEAN = "kernel-mean"
    DENSITY = "density"

    @property
    def factor(self) -> float:
        return 1.0 if self is WignerConvention.KERNEL_MEAN else 1.0 / np.pi**2


def evaluate_grid(params: CatParams, grid: GridSpec, evaluator: str = "closed",
                  conv: WignerConvention = WignerConvention.KERNEL_MEAN,
                  channel: ChannelParams | None = None,
                  meta_extra: dict | None = None) -> SweepResult:
    """Evaluate W and skew information over a grid; see module docstring."""
    if evaluator not in EVALUATORS:
        raise ValueError(f"unknown evaluator {evaluator!r}; expected one of {EVALUATORS}")
    if evaluator != "kernel" and params.twoj > 1:
        _require_interior_theta(params)
    coords = grid.coordinates()
    alphas, betas = grid.amplitudes()

    psi = cat_state(params)
    cutoff_used = psi.cutoff
    at = _audit_records(alphas, betas)
    if channel is None:
        w_ref, skew_ref = pure_point_values(psi, PhasePoint(alphas[at], betas[at]))
        # |W| <= 1 exactly, so I = 1 - W^2 >= 0 and the budget is 1
        w = np.clip(_as_real(_shell_kernel_mean(params, alphas, betas), "kernel mean"), -1.0, 1.0)
        skew = 1.0 - w**2
        _audit("pure-state", coords[at], "W", ("kernel", w[at]), ("commutator", w_ref))
        _audit("pure-state", coords[at], "I", ("fast", skew[at]), ("commutator", skew_ref))
        if evaluator == "closed":
            w_closed = _as_real(_closed_kernel_mean(params, alphas, betas),
                                "closed-form Wigner value")
            _audit("pure-state", coords, "W", ("kernel", w), ("closed-form", w_closed))
    else:
        rho = apply_channel_density(density_from_vector(psi), channel)
        w, _, skew = SkewEvaluator(rho).grid(alphas, betas)
        if evaluator == "kernel":
            warn_if_truncated(rho)
        elif evaluator == "closed":
            w_conv = channel_wigner_convolution(params, channel, PhasePoint(alphas[at], betas[at]))
            _audit("noisy", coords[at], "W", ("engine", w[at]), ("convolution", w_conv))
        cutoff_used = rho.cutoff
    if evaluator == "gaussian":
        noise = 0.0 if channel is None else channel.s
        w = _as_real(_gaussian_form(params, alphas, betas, noise), "Gaussian-form Wigner value")
    w = conv.factor * w

    records = np.column_stack([coords, w, w**2, skew, skew + w**2])
    meta = {
        "spincat_version": __version__,
        "evaluator": evaluator,
        "convention": conv.value,
        "params": {
            "j": params.j,
            "theta1": params.theta1,
            "theta2": params.theta2,
            "phi1": params.phi1,
            "phi2": params.phi2,
        },
        "channel": None if channel is None else {"s": channel.s},
        "grid": {
            "axes": [list(ax) for ax in grid.axes],
            "fixed": dict(sorted(grid.fixed.items())),
        },
        "cutoff": {"n1_max": cutoff_used.n1_max, "n2_max": cutoff_used.n2_max},
    }
    if meta_extra:
        meta.update(meta_extra)
    return SweepResult(meta=meta, records=records)


def _audit_records(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """The records that a sweep's per-point audits check, ascending: 5 evenly
    spaced ones and those of largest |alpha| and |beta|, where the
    truncation error peaks."""
    n = len(alphas)
    return np.array(sorted({*np.linspace(0, n - 1, min(n, 5)).astype(int).tolist(),
                            int(np.abs(alphas).argmax()), int(np.abs(betas).argmax())}))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_HALF_CAT = dict(theta1=np.pi, theta2=0.0, phi1=0.0, phi2=2 * np.pi)
_GENERAL_CAT = dict(theta1=np.pi / 3, theta2=np.pi / 2, phi1=0.0, phi2=2 * np.pi)

_SLICES = {
    "a": ("q1", "q2"),
    "b": ("p1", "p2"),
    "c": ("q1", "p2"),
    "d": ("p1", "q2"),
}


@dataclass(frozen=True)
class _Preset:
    description: str
    build: Callable[[float | None, float | None], tuple[CatParams, ChannelParams | None, GridSpec]]
    default_j: float | None = None
    default_s: float | None = None


def _grid2(ax1: str, ax2: str, lo: float, hi: float, count: int) -> GridSpec:
    return GridSpec(axes=((ax1, lo, hi, count), (ax2, lo, hi, count)))


def _grid1(ax: str, lo: float, hi: float, count: int) -> GridSpec:
    return GridSpec(axes=((ax, lo, hi, count),))


def _build_presets() -> dict[str, _Preset]:
    presets: dict[str, _Preset] = {}

    def half_params(_j):
        return CatParams(j=0.5, **_HALF_CAT)

    def general_params(j):
        return CatParams(j=j, **_GENERAL_CAT)

    # fig1: spin-1/2 cat surfaces over the four quadrature-pair slices;
    # panels e-h plot the skew column of the same grids as a-d.
    for panel, twin in zip("abcd", "efgh"):
        ax1, ax2 = _SLICES[panel]
        def build(j=None, s=None, ax1=ax1, ax2=ax2):
            return half_params(j), None, _grid2(ax1, ax2, -2.0, 2.0, 101)
        p = _Preset(f"spin-1/2 cat, {ax1}-{ax2} plane in [-2,2]^2, others 0", build)
        presets[f"fig1{panel}"] = p
        presets[f"fig1{twin}"] = replace(p, description=p.description + " (skew panel)")

    # fig2: general-spin cat, 201-point slices over [-10, 10]; j selectable.
    for ax in ("q1", "p1", "q2", "p2"):
        def build(j=None, s=None, ax=ax):
            jv = 0.5 if j is None else j
            return general_params(jv), None, _grid1(ax, -10.0, 10.0, 201)
        presets[f"fig2-{ax}"] = _Preset(
            f"spin-j cat (theta = pi/3, pi/2), {ax} slice over [-10,10]",
            build, default_j=0.5,
        )

    # fig3: fig1 slices behind the noise channel, s selectable (default 1).
    for panel, twin in zip("abcd", "efgh"):
        ax1, ax2 = _SLICES[panel]
        def build(j=None, s=None, ax1=ax1, ax2=ax2):
            sv = 1.0 if s is None else s
            return half_params(j), ChannelParams(sv), _grid2(ax1, ax2, -2.0, 2.0, 101)
        p = _Preset(
            f"spin-1/2 cat after noise (s default 1), {ax1}-{ax2} plane", build,
            default_s=1.0,
        )
        presets[f"fig3{panel}"] = p
        presets[f"fig3{twin}"] = replace(p, description=p.description + " (skew panel)")

    # fig4: noise-strength study on 1-D slices, s selectable.
    for ax in ("q1", "p1", "q2", "p2"):
        def build(j=None, s=None, ax=ax):
            sv = 1.0 if s is None else s
            return half_params(j), ChannelParams(sv), _grid1(ax, -4.0, 4.0, 201)
        presets[f"fig4-{ax}"] = _Preset(
            f"spin-1/2 cat after noise, {ax} slice over [-4,4], s selectable",
            build, default_s=1.0,
        )

    # fig5: general-spin cat behind the channel; a-d at s=1, e-h at s=2.
    for panels, s_val in (("abcd", 1.0), ("efgh", 2.0)):
        for panel, ax in zip(panels, ("q1", "p1", "q2", "p2")):
            def build(j=None, s=None, ax=ax, s_val=s_val):
                jv = 1.0 if j is None else j
                sv = s_val if s is None else s
                return general_params(jv), ChannelParams(sv), _grid1(ax, -10.0, 10.0, 201)
            presets[f"fig5{panel}"] = _Preset(
                f"spin-j cat after noise (s = {s_val}), {ax} slice over [-10,10]",
                build, default_j=1.0, default_s=s_val,
            )

    def origin(j=None, s=None):
        return half_params(j), None, GridSpec(axes=(("q1", 0.0, 0.0, 1),))

    presets["origin-check"] = _Preset("single point at the phase-space origin", origin)
    return presets


PRESETS = _build_presets()


def preset_names() -> list[str]:
    return sorted(PRESETS)


def run_preset(name: str, j: float | None = None, s: float | None = None,
               evaluator: str = "closed",
               conv: WignerConvention = WignerConvention.KERNEL_MEAN) -> SweepResult:
    """Run a named preset; fig2/fig5 accept a spin override, fig3/fig4/fig5 a
    noise override, and any other override raises ValueError.  Output is
    deterministic for a fixed configuration."""
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    for label, value, default in (("spin j", j, preset.default_j),
                                  ("noise strength s", s, preset.default_s)):
        if value is not None and default is None:
            raise ValueError(f"preset {name!r} takes no {label} override, got {value}")
    params, channel, grid = preset.build(j, s)
    return evaluate_grid(
        params, grid, evaluator=evaluator, conv=conv, channel=channel,
        meta_extra={"preset": name, "description": preset.description},
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CHUNK_ROWS = 1024
# JSON records carry their fields in sorted-key order, as json.dump(...,
# sort_keys=True) writes them
_JSON_COLUMNS = sorted(range(len(RECORD_COLUMNS)), key=RECORD_COLUMNS.__getitem__)
_CSV_ROW = ",".join(["%s"] * len(RECORD_COLUMNS)) + "\n"
_JSON_ROW = "{" + ", ".join(f'"{RECORD_COLUMNS[i]}": %s' for i in _JSON_COLUMNS) + "}"


@contextmanager
def _text_stream(target, mode: str):
    """``target`` itself when it is a text file object; a path is opened in
    ``mode`` as UTF-8 with no newline translation and closed on exit."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8", newline="") as f:
            yield f
    else:
        yield target


def _write_records(f, records: np.ndarray, columns, render: Callable[[list], list],
                   row: str, sep: str) -> None:
    """Write ``records`` CHUNK_ROWS at a time, one write per chunk: each chunk's
    ``columns`` filled into ``row`` and the rows joined by ``sep``.

    Each distinct value of a chunk is rendered once: ``render`` takes the
    sorted distinct values as floats and returns their texts, which are
    gathered back into place by np.unique's inverse index."""
    for lo in range(0, len(records), CHUNK_ROWS):
        # + 0.0 turns -0.0 into 0.0 and leaves every other value alone
        chunk = records[lo:lo + CHUNK_ROWS, columns] + 0.0
        values, inverse = np.unique(chunk, return_inverse=True)
        texts = np.array(render(values.tolist()), dtype=object)[inverse.ravel()]
        f.write((sep if lo else "") + sep.join([row] * len(chunk)) % tuple(texts.tolist()))


def _csv_texts(values: list) -> list:
    return (("%.17g\n" * len(values)) % tuple(values)).split("\n")[:-1]


def _json_texts(values: list) -> list:
    return json.dumps(values)[1:-1].split(", ")


def serialize_csv(result: SweepResult, destination) -> None:
    """Write '# meta: {json}', a fixed header, and one row per record with 17
    significant digits.  ``destination`` is a path or a text file object."""
    with _text_stream(destination, "w") as f:
        f.write("# meta: " + json.dumps(result.meta, sort_keys=True) + "\n")
        f.write(",".join(RECORD_COLUMNS) + "\n")
        _write_records(f, result.records, slice(None), _csv_texts, _CSV_ROW, "")


def serialize_json(result: SweepResult, destination) -> None:
    """JSON mirror of the CSV: a meta object plus a records array with the
    same field names as the CSV header.

    The bytes are those of json.dump({"meta": ..., "records": [...]}, f,
    sort_keys=True) plus a newline, with -0.0 records written as 0.0 like the
    CSV's.  No dict is built per record: the C encoder renders each chunk's
    distinct values (NaN and Infinity included) in one call, and a fixed
    record template in sorted-key order places them."""
    with _text_stream(destination, "w") as f:
        f.write('{"meta": ' + json.dumps(result.meta, sort_keys=True) + ', "records": [')
        _write_records(f, result.records, _JSON_COLUMNS, _json_texts, _JSON_ROW, ", ")
        f.write("]}\n")


def read_csv(source) -> tuple[dict, np.ndarray]:
    """Parse a sweep CSV back into (meta, records)."""
    with _text_stream(source, "r") as f:
        meta = {}
        header = None
        rows = []
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# meta:"):
                    meta = json.loads(line[len("# meta:"):])
                continue
            if header is None:
                header = line.split(",")
                if tuple(header) != RECORD_COLUMNS:
                    raise ValueError(f"unexpected CSV header {header}")
                continue
            rows.append([float(v) for v in line.split(",")])
        return meta, np.array(rows)
