"""Command-line interface: figure presets, custom sweeps, invariant battery.

Exit codes: 0 success, 1 invariant violation (verify), 2 usage errors,
3 numerical failures (an audit, residue or clamp check that did not hold).
"""

from __future__ import annotations

import argparse
import sys

from ._expr import parse_angle, parse_spin
from .channel import ChannelParams
from .grids import QUADRATURES, GridSpec
from .states import CatParams
from .sweep import (
    EVALUATORS,
    WignerConvention,
    evaluate_grid,
    preset_names,
    run_preset,
    serialize_csv,
    serialize_json,
)

USAGE_EXIT = 2
VIOLATION_EXIT = 1
NUMERICAL_EXIT = 3

_CONVENTIONS = tuple(c.value for c in WignerConvention)


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--range -2,2' into '--range=-2,2' so argparse does not mistake
    the leading minus for an option."""
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--range" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"--range={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincat",
        description="Phase-space sweeps of spin-j cat states: Wigner values, "
        "skew information, Gaussian noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="run a bundled parameter regime")
    p_preset.add_argument("name", help=f"one of: {', '.join(preset_names())}")
    p_preset.add_argument("--j", type=parse_spin, default=None,
                          help="spin override for the fig2/fig5 families (e.g. 5/2)")
    p_preset.add_argument("--channel-s", type=float, default=None,
                          help="noise override for the fig3/fig4/fig5 families")
    p_preset.add_argument("--evaluator", choices=EVALUATORS, default="closed")
    p_preset.add_argument("--convention", choices=_CONVENTIONS,
                          default=WignerConvention.KERNEL_MEAN.value)
    p_preset.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p_preset.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sweep = sub.add_parser("sweep", help="run a custom grid sweep")
    p_sweep.add_argument("--j", type=parse_spin, required=True, help="spin, e.g. 1/2")
    for angle in ("theta1", "theta2", "phi1", "phi2"):
        p_sweep.add_argument(f"--{angle}", type=parse_angle, required=True,
                             help=f"{angle} in radians; accepts pi expressions")
    p_sweep.add_argument("--axes", required=True,
                         help="one or two of q1,p1,q2,p2 (comma separated)")
    p_sweep.add_argument("--range", dest="axis_range", required=True,
                         help="min,max applied to every swept axis")
    p_sweep.add_argument("--count", type=int, required=True,
                         help="points per swept axis")
    p_sweep.add_argument("--fixed", default="",
                         help="pinned quadratures, e.g. p1=0,p2=0.3 (default all 0)")
    p_sweep.add_argument("--channel-s", type=float, default=None,
                         help="apply the Gaussian noise channel with this strength")
    p_sweep.add_argument("--evaluator", choices=EVALUATORS, default="closed")
    p_sweep.add_argument("--convention", choices=_CONVENTIONS,
                         default=WignerConvention.KERNEL_MEAN.value)
    p_sweep.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run the full invariant battery")
    p_verify.add_argument("--seed", type=int, default=42,
                          help="seed fixing all randomized draws")
    return parser


def _write(result, out: str, fmt: str) -> None:
    writer = serialize_csv if fmt == "csv" else serialize_json
    if out == "-":
        writer(result, sys.stdout)
    else:
        writer(result, out)


def _parse_fixed(text: str) -> dict[str, float]:
    fixed: dict[str, float] = {}
    if not text.strip():
        return fixed
    for part in text.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in QUADRATURES or not value:
            raise ValueError(f"bad fixed assignment {part!r}")
        if name in fixed:
            raise ValueError(f"fixed quadrature {name!r} assigned twice")
        fixed[name] = parse_angle(value)
    return fixed


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        if args.command == "preset":
            result = run_preset(args.name, j=args.j, s=args.channel_s,
                                evaluator=args.evaluator,
                                conv=WignerConvention(args.convention))
            _write(result, args.out, args.format)
            return 0
        if args.command == "sweep":
            params = CatParams(args.j, args.theta1, args.theta2, args.phi1, args.phi2)
            axis_names = [a.strip() for a in args.axes.split(",") if a.strip()]
            lo_hi = [parse_angle(v) for v in args.axis_range.split(",")]
            if len(lo_hi) != 2:
                raise ValueError(f"--range expects min,max, got {args.axis_range!r}")
            grid = GridSpec(
                axes=tuple((name, lo_hi[0], lo_hi[1], args.count) for name in axis_names),
                fixed=_parse_fixed(args.fixed),
            )
            channel = None if args.channel_s is None else ChannelParams(args.channel_s)
            result = evaluate_grid(params, grid, evaluator=args.evaluator,
                                   conv=WignerConvention(args.convention),
                                   channel=channel)
            _write(result, args.out, args.format)
            return 0
        if args.command == "verify":
            from .verify import run_battery

            results = run_battery(seed=args.seed)
            failed = [r for r in results if not r.passed]
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
            return VIOLATION_EXIT if failed else 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE_EXIT
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
