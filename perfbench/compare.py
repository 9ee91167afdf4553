"""Compare two result sets written by collect.py, against BENCHMARK.json bounds.

    python3 perfbench/compare.py BASE.json HEAD.json

For each workload and end-to-end metric it prints both medians and quartile
spreads and one verdict:

* unresolved - either side's quartile spread, as a share of its median, is
  wider than the bound, and not every HEAD run beats every BASE run;
* worse      - the HEAD median is worse than the BASE median by more than the
  bound;
* better     - HEAD wins at least 9 in 10 of the runs paired by seed, and the
  medians differ by more than BASE's own quartile spread;
* unchanged  - otherwise.

Attempted and failed operations are printed side by side, with a mark when
their ratio differs.  Exit code 1 when any verdict is `worse` or HEAD fails a
larger share of its operations than BASE; a smaller share is only marked.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def metric_values(runs: list[dict], name: str) -> list[tuple[int, float]]:
    return sorted((r.get("seed", i), r["metrics"][name]["value"])
                  for i, r in enumerate(runs) if name in r["metrics"])


def summarize(runs: dict[str, list[dict]], spec: dict) -> list[str]:
    """Median and spread of every end-to-end metric per workload."""
    lines = []
    for workload, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        lines.append(f"{workload}: {len(results)} runs, attempted {attempted}, "
                     f"failed {failed}, correct {all(r['correct'] for r in results)}")
        for metric in spec["end_to_end"]:
            values = [v for _, v in metric_values(results, metric["name"])]
            if len(values) < 2:
                continue
            q1, median, q3 = quartiles(values)
            lines.append(f"  {metric['name']:14s} median {median:.6g} {metric['unit']}  "
                         f"spread {(q3 - q1) / median:.2%} (bound {metric['bound']:.0%})")
    return lines


def verdict(base: list[tuple[int, float]], head: list[tuple[int, float]],
            bound: float, lower_better: bool) -> tuple[str, str]:
    a = [v for _, v in base]
    b = [v for _, v in head]
    if len(a) < 2 or len(b) < 2:
        return "unresolved", "fewer than two runs"
    aq1, amed, aq3 = quartiles(a)
    bq1, bmed, bq3 = quartiles(b)
    sign = 1.0 if lower_better else -1.0
    worse_by = sign * (bmed - amed) / amed
    spread = max((aq3 - aq1) / amed, (bq3 - bq1) / bmed)
    all_better = max(b) < min(a) if lower_better else min(b) > max(a)
    detail = f"{amed:.6g} -> {bmed:.6g} ({worse_by:+.2%} worse, spread {spread:.2%})"
    if spread > bound and not all_better:
        return "unresolved", detail
    if worse_by > bound:
        return "worse", detail
    seeds_a, seeds_b = dict(base), dict(head)
    pairs = ([(seeds_a[s], seeds_b[s]) for s in seeds_a if s in seeds_b]
             if set(seeds_a) & set(seeds_b) else list(zip(a, b)))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(bmed - amed) > aq3 - aq1:
        return "better", detail
    return "unchanged", detail


def compare(base: dict, head: dict, spec: dict) -> tuple[list[str], bool]:
    lines, ok = [], True
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base["runs"] or workload not in head["runs"]:
            lines.append(f"{workload}: missing from one set")
            ok = False
            continue
        ra, rb = base["runs"][workload], head["runs"][workload]
        att_a, fail_a = sum(r["attempted"] for r in ra), sum(r["failed"] for r in ra)
        att_b, fail_b = sum(r["attempted"] for r in rb), sum(r["failed"] for r in rb)
        more, fewer = fail_b * att_a > fail_a * att_b, fail_b * att_a < fail_a * att_b
        ok &= not more
        lines.append(f"{workload}: attempted {att_a} | {att_b}, failed {fail_a} | {fail_b}"
                     + ("  FAILED SHARE HIGHER" if more else "")
                     + ("  failed share lower" if fewer else ""))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            word, detail = verdict(metric_values(ra, name), metric_values(rb, name),
                                   metric["bound"], metric["better"] == "lower")
            ok &= word != "worse"
            lines.append(f"  {name:14s} {word:10s} {detail}  bound {metric['bound']:.0%}")
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            sets.append(json.load(f))
    lines, ok = compare(sets[0], sets[1], load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
