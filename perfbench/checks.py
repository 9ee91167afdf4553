"""Checks on one output file, read with the benchmark's own parser.

``check_output`` returns the list of reasons the file is wrong (empty when it
passes) and the number of records it holds.
"""

from __future__ import annotations

import json
import random

import numpy as np

import oracle
from workloads import QUADRATURES, Op

COLUMNS = ("q1", "p1", "q2", "p2", "W", "W2", "I", "budget")
BUDGET_TOL = 1e-8   # the package's acceptance tolerance for budget and conservation
ORACLE_TOL = 1e-8
ORACLE_POINTS = 3
ROUNDING_TOL = 1e-15  # W2 and budget are sums and products of the other columns


def parse(path: str, fmt: str) -> np.ndarray:
    """Records as an (n, 8) array; raises ValueError on a malformed file."""
    with open(path, encoding="utf-8") as f:
        if fmt == "json":
            payload = json.load(f)
            if set(payload) != {"meta", "records"} or not isinstance(payload["meta"], dict):
                raise ValueError(f"JSON keys {sorted(payload)}")
            rows = []
            for rec in payload["records"]:
                if tuple(sorted(rec)) != tuple(sorted(COLUMNS)):
                    raise ValueError(f"record keys {sorted(rec)}")
                rows.append([rec[c] for c in COLUMNS])
            return np.array(rows, dtype=float).reshape(-1, len(COLUMNS))
        meta = f.readline()
        if not meta.startswith("# meta: "):
            raise ValueError("first line is not '# meta: {json}'")
        json.loads(meta[len("# meta: "):])
        header = f.readline().rstrip("\n")
        if header != ",".join(COLUMNS):
            raise ValueError(f"header {header!r}")
        rows = [line.split(",") for line in f]
    if any(len(row) != len(COLUMNS) for row in rows):
        raise ValueError("row with the wrong number of fields")
    return np.array(rows, dtype=float).reshape(-1, len(COLUMNS))


def expected_coordinates(op: Op) -> np.ndarray:
    """The preset's linspace grid, row-major over its axes, others pinned at 0."""
    values = [np.linspace(lo, hi, count) for _, lo, hi, count in op.axes]
    mesh = np.meshgrid(*values, indexing="ij")
    coords = np.zeros((op.points, 4))
    for (name, *_), grid in zip(op.axes, mesh):
        coords[:, QUADRATURES.index(name)] = grid.ravel()
    return coords


def check_output(path: str, op: Op, rng: random.Random) -> tuple[list[str], int]:
    try:
        records = parse(path, op.fmt)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"], 0
    if not np.isfinite(records).all():
        return ["non-finite value in the records"], 0
    reasons = []
    coords = expected_coordinates(op)
    if records.shape[0] != coords.shape[0]:
        return [f"{records.shape[0]} records, expected {coords.shape[0]}"], 0
    if not np.array_equal(records[:, :4], coords):
        reasons.append("coordinates differ from the preset grid")
    w, w2, skew, budget = records[:, 4], records[:, 5], records[:, 6], records[:, 7]
    if np.max(np.abs(w2 - w * w)) > ROUNDING_TOL:
        reasons.append(f"W2 != W^2 by {np.max(np.abs(w2 - w * w)):.3e}")
    if np.max(np.abs(budget - (skew + w2))) > ROUNDING_TOL:
        reasons.append(f"budget != I + W2 by {np.max(np.abs(budget - skew - w2)):.3e}")
    if op.s is None:
        if np.max(np.abs(budget - 1.0)) > BUDGET_TOL:
            reasons.append(f"pure budget off 1 by {np.max(np.abs(budget - 1.0)):.3e}")
    else:
        if np.min(skew) < 0.0:
            reasons.append(f"negative skew information {np.min(skew):.3e}")
        if np.max(budget) > 1.0 + BUDGET_TOL:
            reasons.append(f"budget {np.max(budget):.17g} above 1")
    for i in rng.sample(range(len(records)), ORACLE_POINTS):
        point, w_i = tuple(records[i, :4].tolist()), float(records[i, 4])
        ref = oracle.wigner(op.twoj, op.angles, point, op.s)
        if not abs(w_i - ref) <= ORACLE_TOL:
            reasons.append(f"W at {point} is {w_i!r}, oracle {ref!r}")
    return reasons, len(records)
