"""Run every workload once per seed and save the results as one set.

    python3 perfbench/collect.py --seeds 1-10 --out set.json

Each run is `perfbench/run.py --trace 0` in its own process, with
run_seconds from BENCHMARK.json.  The set file maps each workload to
its runs' JSON results; `perfbench/compare.py` compares two such files.  A
summary of each end-to-end metric (median and quartile spread as a share of
the median) and of attempted and failed operations is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_spec, summarize

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    status = 0
    for seed in parse_seeds(args.seeds):
        for workload in [w["name"] for w in spec["workloads"]]:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode} "
                      f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.setdefault(workload, []).append(result)
            brief = "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}  {brief}",
                  flush=True)
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump({"runs": runs}, f, indent=1)
    for line in summarize(runs, spec):
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
