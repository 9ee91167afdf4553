"""Preset benchmark: one workload as a closed loop of `spincat preset` calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs `spincat.cli.main` in a fresh interpreter (child.py), so
each call starts with the package's caches empty, as a user's call does.
SPINCAT_THREADS is removed from the child's environment.  A run repeats whole
rounds of its workload's operations, in an order drawn from the seed, and
starts another round only while it can end within S seconds; it runs at least
one.  Outputs are checked after the loop, outside every timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds (at least one of each), writes each traced call's spans under
.bench_out/<workload>/spans/ and prints the per-layer metrics, per traced
round, plus the tracing overhead: traced minus untraced wall time per round.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_output
from compare import load_spec
from tracer import layer_metrics
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 10  # import-only interpreters before and after the loop
RUN_LIMIT_S = 170  # a run must end within 180 s; children are cut at this mark
_START = time.monotonic()

# a per-layer metric is named <span>.<aggregate>; these aggregates are the
# span's summed count
COUNT_AGGREGATES = ("elements", "bytes")


class SetupError(RuntimeError):
    """Nothing can be measured: spincat does not import or no operation
    passed.  The run prints no result."""


def source_digest() -> str:
    """Hash of the package sources; byte-identity references are kept per
    digest, so a checkout reused for another version starts afresh."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPINCAT_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(result_path: Path, argv: list[str], spans_path: Path | None = None) -> dict:
    """Run child.py; returns its result dict, or one with an 'error' key when
    the child died or timed out before writing it."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    cmd += ["--", *argv]
    result_path.unlink(missing_ok=True)
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - _START))
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"cut at {RUN_LIMIT_S} s into the run"}
    try:
        with open(result_path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": f"child died: {tail[0]}"}


def measure_setup(work: Path, tag: str) -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES):
        res = run_child(work / f"setup-{tag}{i}.json", [])
        if "import_s" not in res:
            raise SetupError(f"cannot import spincat: {res.get('error')}")
        samples.append(res["import_s"])
    return samples


def run_loop(ops: tuple[Op, ...], rng: random.Random, seconds: float, trace: bool,
             work: Path) -> list[dict]:
    """Whole rounds of ops; each entry records one call and where its output went."""
    calls: list[dict] = []
    start = time.perf_counter()
    round_no, longest = 0, 0.0
    min_rounds = 2 if trace else 1  # a traced run needs an untraced round too
    while round_no < min_rounds or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        traced = trace and round_no % 2 == 1
        for op in rng.sample(ops, len(ops)):
            tag = f"r{round_no}-{op.name}"
            out = work / f"{tag}.{op.fmt}"
            spans = work / "spans" / f"{tag}.json" if traced else None
            res = run_child(work / f"{tag}.result.json", op.argv(str(out)), spans)
            calls.append({"op": op, "round": round_no, "traced": traced, "out": out,
                          "spans": spans, **res})
        longest = max(longest, time.perf_counter() - round_start)
        round_no += 1
    return calls


def check_calls(calls: list[dict], rng: random.Random, refs: Path) -> tuple[list[str], bool]:
    """Mark each call passed or failed; returns failure lines and whether every
    output that was produced is correct."""
    lines, correct = [], True
    for call in calls:
        op, reasons, wrong = call["op"], [], False
        if call.get("error") or call.get("rc") != 0:
            reasons.append(call.get("error") or f"exit code {call.get('rc')}")
        else:
            wrong_output, call["points"] = check_output(str(call["out"]), op, rng)
            reasons += wrong_output
            ref = refs / f"{op.name}.{op.fmt}"
            if not wrong_output:
                if not ref.exists():
                    shutil.copyfile(call["out"], ref.with_suffix(".tmp"))
                    os.replace(ref.with_suffix(".tmp"), ref)
                elif ref.read_bytes() != call["out"].read_bytes():
                    reasons.append("output differs from an earlier call's bytes")
            if call["traced"] and not call.get("restored"):
                reasons.append("tracer left a wrapped name in place")
            wrong = bool(reasons)
        call["passed"] = not reasons
        correct &= not wrong
        for reason in reasons:
            lines.append(f"FAILED {op.name} round {call['round']}: {reason}")
    return lines, correct


def end_to_end(calls: list[dict], setup: list[float]) -> dict[str, tuple[float, str]]:
    passed = [c for c in calls if c["passed"]]
    if not passed:
        raise SetupError("no operation passed; nothing to measure")
    wall = sum(c["op_s"] for c in calls if "op_s" in c)
    imports = setup + [c["import_s"] for c in calls if "import_s" in c]
    return {
        "setup_s": (statistics.median(imports), "s"),
        "op_s": (statistics.median(c["op_s"] for c in passed), "s"),
        "points_per_s": (sum(c["points"] for c in passed) / wall, "points/s"),
        "peak_rss_mb": (max(c["maxrss_kb"] for c in calls if "maxrss_kb" in c) / 1024,
                        "MB"),
    }


def per_layer(calls: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [c for c in calls if c["traced"]]
    rounds = len({c["round"] for c in traced})
    totals: dict[str, dict[str, float]] = {}
    for call in traced:
        if call["spans"] is None or not call["spans"].exists():
            continue
        with open(call["spans"], encoding="utf-8") as f:
            spans = json.load(f)["spans"]
        for name, agg in layer_metrics(spans).items():
            into = totals.setdefault(name, {})
            for key, value in agg.items():
                into[key] = into.get(key, 0) + value
    metrics = {}
    for metric in load_spec()["per_layer"]:
        span, _, key = metric["name"].rpartition(".")
        if span != "trace":
            key = "count" if key in COUNT_AGGREGATES else key
            metrics[metric["name"]] = (totals.get(span, {}).get(key, 0) / rounds,
                                       metric["unit"])
    untraced = [c for c in calls if not c["traced"]]
    baseline_rounds = len({c["round"] for c in untraced})
    overhead = (sum(c.get("op_s", 0.0) for c in traced) / rounds
                - sum(c.get("op_s", 0.0) for c in untraced) / baseline_rounds)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spincat" / "__init__.py").is_file():
        print(f"error: no spincat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / args.workload
    refs = ROOT / ".bench_out" / "ref" / source_digest()
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    refs.mkdir(parents=True, exist_ok=True)
    for other in refs.parent.iterdir():
        if other.is_dir() and other != refs:
            shutil.rmtree(other)

    order_rng, oracle_rng = random.Random(args.seed), random.Random(f"oracle-{args.seed}")
    try:
        setup = measure_setup(work, "a")
        calls = run_loop(WORKLOADS[args.workload], order_rng, args.seconds,
                         bool(args.trace), work)
        setup += measure_setup(work, "b")
        failures, correct = check_calls(calls, oracle_rng, refs)
        rounds = 1 + max(c["round"] for c in calls)
        failed = sum(not c["passed"] for c in calls)
        print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
              f"attempted {len(calls)}  failed {failed}")
        for line in failures:
            print(line)
        metrics = per_layer(calls) if args.trace else end_to_end(calls, setup)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    if args.trace:
        print(f"spans: {work / 'spans'}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
