"""Self-tests of the benchmark: the oracle, the output checks and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spincat as sc  # noqa: E402
import spincat.cli  # noqa: E402

import oracle  # noqa: E402
from checks import ORACLE_TOL, check_output  # noqa: E402
from tracer import LAYERS, METHODS, Tracer, layer_metrics  # noqa: E402
from workloads import GENERAL_CAT, WORKLOADS, Op  # noqa: E402


def _closed(j, point):
    params = sc.CatParams(j, *GENERAL_CAT)
    return sc.wigner_closed_general(params, sc.PhasePoint.from_quadratures(*point))


@pytest.mark.parametrize("j, point", [(5, (0, 0, -2.5, 0)), (10, (0, 0, -3.0, 0)),
                                      (10, (-3.3, 0, 0, 0))])
def test_oracle_agrees_with_closed_form_up_to_j10(j, point):
    assert abs(_closed(j, point) - oracle.wigner(2 * j, GENERAL_CAT, point)) < 1e-9


def _float64_wigner(twoj, angles, point):
    """The oracle's pure-state sums in plain float64, with no guard digits."""

    def laguerre(n, a, x):
        return sum((-1) ** i * math.comb(n + a, n - i) * x**i / math.factorial(i)
                   for i in range(n + 1))

    def kernel(a):
        g = 2 * a
        x = abs(g) ** 2

        def element(m, n):
            lo, hi = min(m, n), max(m, n)
            power = g ** (m - n) if m >= n else (-g.conjugate()) ** (n - m)
            return (math.sqrt(math.factorial(lo) / math.factorial(hi)) * power
                    * math.exp(-x / 2) * laguerre(lo, hi - lo, x))

        return [[element(p, q) * (-1) ** q for q in range(twoj + 1)] for p in range(twoj + 1)]

    theta1, theta2, phi1, phi2 = angles

    def branch(theta, phi):
        return [math.sqrt(math.comb(twoj, k)) * math.cos(theta / 2) ** (twoj - k)
                * (cmath.exp(-1j * phi) * math.sin(theta / 2)) ** k for k in range(twoj + 1)]

    c = [u + v for u, v in zip(branch(theta1, phi1), branch(theta2, phi2))]
    norm = math.sqrt(sum(abs(u) ** 2 for u in c))
    q1, p1, q2, p2 = point
    k1, k2 = kernel(complex(q1, p1) / math.sqrt(2)), kernel(complex(q2, p2) / math.sqrt(2))
    return sum(c[n].conjugate() * c[m] * k1[n][m] * k2[twoj - n][twoj - m]
               for n in range(twoj + 1) for m in range(twoj + 1)).real / norm**2


@pytest.mark.parametrize("j, point, flagged", [(10, (0, 0, -3.0, 0), False),
                                               (15, (0, 0, -4.0, 0), True),
                                               (20, (0, 0, -4.5, 0), True)])
def test_oracle_flags_float64_cancellation(j, point, flagged):
    # the same sums in float64 hold to 1e-11 at j = 10 and lose their accuracy
    # at j = 15 and 20; the oracle must see that loss, or its check could pass
    # vacuously
    error = abs(_float64_wigner(2 * j, GENERAL_CAT, point)
                - oracle.wigner(2 * j, GENERAL_CAT, point))
    assert (error > ORACLE_TOL) == flagged


@pytest.mark.parametrize("s, point", [(1.0, (-3.3, 0, 0, 0)), (2.0, (0, 0, 0.7, 0)),
                                      (2.0, (1.5, -0.5, 0.2, 0))])
def test_oracle_agrees_with_channel_convolution(s, point):
    params = sc.CatParams(1, *GENERAL_CAT)
    w = sc.channel_wigner_convolution(params, sc.ChannelParams(s),
                                      sc.PhasePoint.from_quadratures(*point))
    assert abs(w - oracle.wigner(2, GENERAL_CAT, point, s)) < 1e-12


def _small_op() -> Op:
    return Op("fig2-q1", 1, GENERAL_CAT, None, (("q1", -10.0, 10.0, 201),), "csv", "1/2")


def _rewrite_rows(src: Path, dst: Path, edit) -> None:
    lines = src.read_text().splitlines(keepends=True)
    out = lines[:2]
    for line in lines[2:]:
        q1, p1, q2, p2, w, _, skew, _ = (float(v) for v in line.split(","))
        w, skew = edit(w, skew)
        out.append(",".join(repr(v) for v in (q1, p1, q2, p2, w, w * w, skew, skew + w * w))
                   + "\n")
    dst.write_text("".join(out))


def test_checks_pass_good_output_and_catch_wrong_values(tmp_path):
    op = _small_op()
    good = tmp_path / "good.csv"
    assert spincat.cli.main(op.argv(str(good))) == 0
    reasons, points = check_output(str(good), op, random.Random(0))
    assert reasons == [] and points == 201

    bad = tmp_path / "bad.csv"
    _rewrite_rows(good, bad, lambda w, skew: (w, skew + 1e-7))
    reasons, _ = check_output(str(bad), op, random.Random(0))
    assert [r for r in reasons if "budget off 1" in r]

    # a shifted W with its skew shifted to match keeps the budget at 1;
    # only the oracle sees it
    _rewrite_rows(good, bad, lambda w, skew: (w + 1e-7, 1.0 - (w + 1e-7) ** 2))
    reasons, _ = check_output(str(bad), op, random.Random(0))
    assert reasons and all("oracle" in r for r in reasons)


def test_tracer_restores_names_and_leaves_output_unchanged(tmp_path):
    argv = ["sweep", "--j", "1", "--theta1", "pi/3", "--theta2", "pi/2", "--phi1", "0",
            "--phi2", "2*pi", "--axes", "q1", "--range", "-3,3", "--count", "9",
            "--channel-s", "1"]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert spincat.cli.main(argv + ["--out", str(plain)]) == 0

    before = {name: getattr(sys.modules["spincat.fockspace"], name)
              for name in ("displacement_matrix", "smoothed_kernel_element")}
    tracer = Tracer()
    tracer.install()
    assert spincat.cli.main(argv + ["--out", str(traced)]) == 0
    assert tracer.uninstall()
    for name, fn in before.items():
        assert getattr(sys.modules["spincat.fockspace"], name) is fn
    for target, key, original in tracer.patched:
        assert vars(target)[key] is original
    assert plain.read_bytes() == traced.read_bytes()

    spans_path = tmp_path / "spans.json"
    tracer.dump(str(spans_path), "sweep")
    metrics = layer_metrics(json.loads(spans_path.read_text())["spans"])
    for span in ("cli.main", "sweep.grid", "channel.apply", "channel.convolution",
                 "skewinfo.values", "fockspace.displacement", "wigner.closed",
                 "fockspace.smoothed_element", "sweep.serialize"):
        assert metrics[span]["calls"] > 0, span
    assert metrics["skewinfo.values"]["calls"] == 9
    assert metrics["sweep.serialize"]["count"] == traced.stat().st_size
    grid = metrics["sweep.grid"]
    assert 0 <= grid["self_s"] <= grid["busy_s"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    spans = {layer[2] for layer in LAYERS} | {method[3] for method in METHODS} | {"trace"}
    for metric in spec["per_layer"]:
        assert metric["name"].rpartition(".")[0] in spans, metric["name"]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_s", "points_per_s",
                                                      "peak_rss_mb"}
