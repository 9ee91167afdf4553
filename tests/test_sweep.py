import io
import json
import math

import numpy as np
import pytest

import spincat.sweep
from spincat.channel import ChannelParams, apply_channel_density
from spincat.grids import RECORD_COLUMNS, GridSpec, SweepResult
from spincat.skewinfo import SkewEvaluator
from spincat.states import CatParams, cat_state, density_from_vector
from spincat.sweep import (
    WignerConvention,
    evaluate_grid,
    preset_names,
    read_csv,
    run_preset,
    serialize_csv,
    serialize_json,
)
from spincat.wigner import (
    PhasePoint,
    wigner_closed_half,
    wigner_gaussian_half,
    wigner_kernel_trace,
)

HALF_CAT = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)


def _reference_csv(result) -> str:
    """The writer as it was before chunking: one f-string per value."""
    def fmt(v):
        if v == 0.0:
            v = 0.0  # normalize -0.0
        return f"{v:.17g}"

    lines = ["# meta: " + json.dumps(result.meta, sort_keys=True), ",".join(RECORD_COLUMNS)]
    lines += [",".join(fmt(v) for v in row) for row in result.records]
    return "\n".join(lines) + "\n"


def _reference_json(result) -> str:
    """The writer as it was before chunking: one json.dump of the payload,
    with -0.0 records written as 0.0 like the CSV's."""
    payload = {
        "meta": result.meta,
        "records": [dict(zip(RECORD_COLUMNS, (float(v) + 0.0 for v in row)))
                    for row in result.records],
    }
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True)
    return buf.getvalue() + "\n"


def _mixed_result(n_rows) -> SweepResult:
    """Magnitudes over 40 decades with signed zeros, subnormals, NaN and
    +-inf sprinkled in; the first record holds every special value."""
    rng = np.random.default_rng(n_rows)
    special = np.array([-0.0, 5e-324, 1e16, 0.1, 1 / 3, np.nan, np.inf, -np.inf])
    records = rng.standard_normal((n_rows, 8)) * 10.0 ** rng.integers(-20, 20, (n_rows, 8))
    mask = rng.random((n_rows, 8)) < 0.3
    records[mask] = rng.choice(special, mask.sum())
    records[0] = special
    return SweepResult(meta={"z": [1.5, None], "a": {"y": "x", "b": -0.0}}, records=records)


def _constant_columns_result() -> SweepResult:
    """Seven constant columns, -0.0 and a subnormal among them, beside one
    column that changes from row to row."""
    records = np.tile([-0.0, 5e-324, 1 / 3, 0.0, 1e16, -2.5, 0.1, 7.0], (16, 1))
    records[:, 4] = np.linspace(-1.0, 1.0, 16)
    return SweepResult(meta={}, records=records)


def _boundary_repeat_result() -> SweepResult:
    """One value repeated in both chunks and across the boundary between
    them (rows 3 to 10 with chunks of 7), among values that differ."""
    records = np.random.default_rng(3).standard_normal((14, 8))
    records[3:11, 2] = math.pi
    records[[0, 13], 5] = math.pi
    return SweepResult(meta={}, records=records)


def _signed_specials_result() -> SweepResult:
    """0.0, -0.0, nan, -nan, inf and -inf, each several times in one chunk."""
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    records = special[np.arange(48).reshape(6, 8) % 6]
    assert np.signbit(records).sum() == 24  # -0.0, -nan and -inf survive construction
    return SweepResult(meta={}, records=records)


class TestGridSpec:
    def test_rejects_no_axes(self):
        with pytest.raises(ValueError):
            GridSpec(axes=())

    def test_rejects_three_axes(self):
        with pytest.raises(ValueError):
            GridSpec(axes=(("q1", 0, 1, 3), ("q2", 0, 1, 3), ("p1", 0, 1, 3)))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(axes=(("q1", 1.0, 0.0, 5),))

    def test_rejects_single_count_with_span(self):
        with pytest.raises(ValueError):
            GridSpec(axes=(("q1", 0.0, 1.0, 1),))

    def test_allows_degenerate_single_point(self):
        g = GridSpec(axes=(("q1", 0.5, 0.5, 1),))
        assert g.n_points == 1
        assert g.coordinates()[0] == pytest.approx([0.5, 0, 0, 0])

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            GridSpec(axes=(("q3", 0, 1, 5),))

    def test_rejects_duplicate_axis(self):
        with pytest.raises(ValueError):
            GridSpec(axes=(("q1", 0, 1, 5), ("q1", 0, 1, 5)))

    def test_rejects_swept_and_fixed(self):
        with pytest.raises(ValueError):
            GridSpec(axes=(("q1", 0, 1, 5),), fixed={"q1": 0.0})

    def test_row_major_coordinates(self):
        g = GridSpec(axes=(("q1", 0.0, 1.0, 2), ("p2", 0.0, 1.0, 2)), fixed={"q2": 0.3})
        coords = g.coordinates()
        assert coords[:, 0] == pytest.approx([0, 0, 1, 1])
        assert coords[:, 3] == pytest.approx([0, 1, 0, 1])
        assert coords[:, 2] == pytest.approx([0.3] * 4)
        assert coords[:, 1] == pytest.approx([0.0] * 4)


class TestEvaluateGrid:
    def test_record_count_and_budget_identity(self):
        grid = GridSpec(axes=(("q1", -1.0, 1.0, 5), ("q2", -1.0, 1.0, 5)))
        res = evaluate_grid(HALF_CAT, grid)
        assert res.records.shape == (25, 8)
        assert np.allclose(res.column("budget"), 1.0, atol=1e-8)
        assert np.allclose(res.column("W2"), res.column("W") ** 2, atol=1e-14)

    def test_single_point_matches_point_operation(self):
        grid = GridSpec(axes=(("q1", 0.5, 0.5, 1),), fixed={"q2": 0.5})
        res = evaluate_grid(HALF_CAT, grid)
        pt = PhasePoint.from_quadratures(0.5, 0, 0.5, 0)
        assert res.column("W")[0] == pytest.approx(wigner_closed_half(HALF_CAT, pt), abs=1e-12)

    def test_kernel_evaluator_agrees_with_closed(self):
        grid = GridSpec(axes=(("q1", -1.0, 1.0, 3), ("q2", -1.0, 1.0, 3)))
        a = evaluate_grid(HALF_CAT, grid, evaluator="closed")
        b = evaluate_grid(HALF_CAT, grid, evaluator="kernel")
        assert np.abs(a.column("W") - b.column("W")).max() < 1e-8

    def test_gaussian_evaluator_uses_surrogate_w_and_true_skew(self):
        grid = GridSpec(axes=(("q1", 0.9, 0.9, 1),), fixed={"q2": 0.4})
        res = evaluate_grid(HALF_CAT, grid, evaluator="gaussian")
        pt = PhasePoint.from_quadratures(0.9, 0, 0.4, 0)
        assert res.column("W")[0] == pytest.approx(wigner_gaussian_half(HALF_CAT, pt), abs=1e-12)
        w_true = wigner_closed_half(HALF_CAT, pt)
        assert res.column("I")[0] == pytest.approx(1.0 - w_true**2, abs=1e-8)

    def test_channel_budget_below_one(self):
        grid = GridSpec(axes=(("q1", -1.0, 1.0, 5),))
        res = evaluate_grid(HALF_CAT, grid, channel=ChannelParams(1.0))
        assert (res.column("budget") <= 1.0 + 1e-8).all()
        assert res.meta["channel"]["s"] == 1.0

    @pytest.mark.parametrize("evaluator", ["closed", "kernel"])
    def test_noisy_w_is_the_engine_kernel_mean(self, evaluator):
        grid = GridSpec(axes=(("q1", -2.0, 2.0, 9), ("p2", -1.0, 1.0, 3)))
        res = evaluate_grid(HALF_CAT, grid, evaluator=evaluator, channel=ChannelParams(1.0))
        rho = apply_channel_density(density_from_vector(cat_state(HALF_CAT)),
                                    ChannelParams(1.0))
        assert np.array_equal(res.column("W"), SkewEvaluator(rho).grid(*grid.amplitudes())[0])

    def test_noisy_sweep_audits_with_one_convolution_call(self, monkeypatch):
        # 9 points: records 0, 2, 4, 6, 8; the largest |alpha| is record 0
        # and every beta is 0
        original = spincat.sweep.channel_wigner_convolution
        calls = []

        def recording(params, channel, point, *args, **kwargs):
            calls.append(np.size(point.alpha))
            return original(params, channel, point, *args, **kwargs)

        monkeypatch.setattr(spincat.sweep, "channel_wigner_convolution", recording)
        evaluate_grid(HALF_CAT, GridSpec(axes=(("q1", -3.0, 3.0, 9),)),
                      channel=ChannelParams(1.0))
        assert calls == [5]

    def test_pure_closed_sweep_writes_the_kernel_block_w(self):
        # fig2-q2 at j = 10: the shell closed form is off by 4e-10 at q2 = -3.1,
        # the kernel-block W that the sweep writes by about 1e-17
        res = run_preset("fig2-q2", j=10.0)
        rho = density_from_vector(cat_state(CatParams(10.0, np.pi / 3, np.pi / 2, 0.0,
                                                      2 * np.pi)))
        for q2 in (-3.1, 3.1):
            i = int(np.abs(res.column("q2") - q2).argmin())
            pt = PhasePoint.from_quadratures(0.0, 0.0, res.column("q2")[i], 0.0)
            assert abs(res.column("W")[i] - wigner_kernel_trace(rho, pt)) <= 1e-14

    def test_pure_kernel_sweep_at_j50_matches_mpmath(self):
        # mpmath values of the fig2 cat at j = 50 (perfbench/oracle.py, 50
        # digits); a pure sweep builds no dense rho, which would take 1.7 GB
        params = CatParams(50.0, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi)
        res = evaluate_grid(params, GridSpec(axes=(("q2", -4.0, 2.5, 2),)), evaluator="kernel")
        ref = np.array([-4.380598144380998e-4, -6.804168634498246e-3])
        assert np.abs(res.column("W") - ref).max() <= 1e-14

    @pytest.mark.parametrize("evaluator", ["closed", "kernel", "gaussian"])
    def test_pure_sweep_builds_no_density_matrix(self, monkeypatch, evaluator):
        def refuse(psi):
            raise AssertionError("a pure sweep built |psi><psi|")

        monkeypatch.setattr(spincat.sweep, "density_from_vector", refuse)
        res = evaluate_grid(HALF_CAT, GridSpec(axes=(("q1", -1.0, 1.0, 5),)),
                            evaluator=evaluator)
        assert res.records.shape == (5, 8)

    @pytest.mark.parametrize("channel", [None, ChannelParams(1.0)], ids=["pure", "s=1"])
    @pytest.mark.parametrize("evaluator", ["closed", "kernel", "gaussian"])
    def test_density_convention_column(self, evaluator, channel):
        grid = GridSpec(axes=(("q1", -1.0, 1.0, 5),), fixed={"q2": 0.5})
        km, dens = (evaluate_grid(HALF_CAT, grid, evaluator=evaluator, conv=conv,
                                  channel=channel)
                    for conv in (WignerConvention.KERNEL_MEAN, WignerConvention.DENSITY))
        assert np.all(km.column("W") != 0.0)
        np.testing.assert_allclose(dens.column("W"), km.column("W") / np.pi**2, rtol=1e-12)
        assert np.array_equal(dens.column("I"), km.column("I"))
        assert dens.meta["convention"] == "density"

    def test_unknown_evaluator_rejected(self):
        grid = GridSpec(axes=(("q1", 0.0, 1.0, 2),))
        with pytest.raises(ValueError):
            evaluate_grid(HALF_CAT, grid, evaluator="magic")

    @pytest.mark.parametrize("evaluator,channel", [
        ("closed", None), ("kernel", None), ("closed", ChannelParams(1.0)),
    ], ids=["closed", "kernel", "closed-noisy"])
    def test_repeated_runs_give_identical_csv(self, evaluator, channel):
        grid = GridSpec(axes=(("q1", -2.0, 2.0, 21), ("q2", -2.0, 2.0, 21)))
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            serialize_csv(evaluate_grid(HALF_CAT, grid, evaluator=evaluator, channel=channel),
                          buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_displacement_built_once_per_axis_value(self, monkeypatch):
        # the recurrence runs once per distinct modulus |gamma|: a noisy 21x21
        # sweep needs the 18 distinct moduli of the 21 alphas and of the 21
        # betas (linspace is not exactly symmetric), each exactly once; the
        # channel builds no displacement matrix
        import spincat.fockspace

        original = spincat.fockspace.displacement_matrix
        passed, built, logs = [], [], []

        def counting(alpha, cutoff, ncols=None):
            result = original(alpha, cutoff, ncols)
            moduli = [(abs(complex(g)), result.shape[-1]) for g in np.ravel(alpha)]
            passed.extend(moduli)
            built.extend(set(moduli))
            return result

        def counting_log(x):
            logs.append(x)
            return math.log(x)

        monkeypatch.setattr(spincat.fockspace, "displacement_matrix", counting)
        # every nonzero modulus entering the recurrence takes its log once
        monkeypatch.setattr(spincat.fockspace, "log", counting_log)
        grid = GridSpec(axes=(("q1", -2.0, 2.0, 21), ("q2", -2.0, 2.0, 21)))
        evaluate_grid(HALF_CAT, grid, channel=ChannelParams(1.0))
        assert len(passed) == 18 + 18
        assert len(built) == 18 + 18
        assert len(set(built)) == len(built)  # no (modulus, columns) built twice
        assert sorted(logs) == sorted(r for r, _ in built if r > 0)


class TestSerialization:
    def test_csv_layout(self):
        res = evaluate_grid(HALF_CAT, GridSpec(axes=(("q1", -1.0, 1.0, 3),)))
        buf = io.StringIO()
        serialize_csv(res, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# meta: ")
        assert lines[1] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 2 + 3

    def test_csv_numbers_have_17_significant_digits(self):
        res = evaluate_grid(HALF_CAT, GridSpec(axes=(("q1", 1 / 3, 1 / 3, 1),)))
        buf = io.StringIO()
        serialize_csv(res, buf)
        row = buf.getvalue().splitlines()[2].split(",")
        assert row[0] == f"{1/3:.17g}"

    def test_negative_zero_normalized(self):
        res = SweepResult(meta={}, records=np.array([[-0.0, 0.0, 1.0, -1.0, -0.0, 0.0, 0.0, 0.0]]))
        buf = io.StringIO()
        serialize_csv(res, buf)
        assert buf.getvalue().splitlines()[2] == "0,0,1,-1,0,0,0,0"
        buf = io.StringIO()
        serialize_json(res, buf)
        record = json.loads(buf.getvalue())["records"][0]
        assert "-0.0" not in buf.getvalue()
        assert [math.copysign(1.0, record[name]) for name in ("q1", "W")] == [1.0, 1.0]

    @pytest.mark.parametrize("make, chunk", [
        (lambda: _mixed_result(1), 7),
        (lambda: _mixed_result(6), 7),
        (lambda: _mixed_result(7), 7),
        (lambda: _mixed_result(8), 7),
        (lambda: _mixed_result(10201), None),
        # records full of duplicates: the writers render each distinct value
        # of a chunk once and gather the texts back into place
        (lambda: SweepResult(meta={}, records=np.full((9, 8), 0.1)), 7),
        (_constant_columns_result, 7),
        (_boundary_repeat_result, 7),
        (_signed_specials_result, 7),
        (lambda: run_preset("fig1c"), None),
        (lambda: run_preset("fig3a"), None),
    ], ids=["one-row", "chunk-1", "chunk", "chunk+1", "fig1-size", "all-equal",
            "constant-columns", "repeat-across-boundary", "signed-specials",
            "fig1c", "fig3a"])
    def test_writers_match_reference_writers_byte_for_byte(self, monkeypatch, tmp_path,
                                                           make, chunk):
        if chunk is not None:
            monkeypatch.setattr(spincat.sweep, "CHUNK_ROWS", chunk)
        res = make()
        for writer, reference in ((serialize_csv, _reference_csv),
                                  (serialize_json, _reference_json)):
            expected = reference(res)
            buf = io.StringIO()
            writer(res, buf)
            assert buf.getvalue() == expected
            path = tmp_path / "out"
            writer(res, path)
            assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("writer, limit_mb", [(serialize_csv, 1.0), (serialize_json, 3.0)],
                             ids=["csv", "json"])
    def test_writer_working_set_is_bounded(self, writer, limit_mb):
        # records are formatted and written in CHUNK_ROWS chunks, never as
        # one document; the sink keeps nothing
        import tracemalloc

        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        res = run_preset("fig1c")
        tracemalloc.start()
        try:
            writer(res, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6

    def test_csv_roundtrip_and_budget_identity(self, tmp_path):
        res = evaluate_grid(HALF_CAT, GridSpec(axes=(("q1", -2.0, 2.0, 11),)))
        path = tmp_path / "out.csv"
        serialize_csv(res, path)
        meta, rows = read_csv(path)
        assert meta == json.loads(json.dumps(res.meta))
        cols = {name: rows[:, i] for i, name in enumerate(RECORD_COLUMNS)}
        assert np.abs(cols["budget"] - (cols["I"] + cols["W2"])).max() < 1e-15

    def test_csv_deterministic(self):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            serialize_csv(evaluate_grid(HALF_CAT, GridSpec(axes=(("q1", -1, 1, 9),))), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_json_mirrors_csv(self, tmp_path):
        res = evaluate_grid(HALF_CAT, GridSpec(axes=(("q1", -1.0, 1.0, 3),)))
        path = tmp_path / "out.json"
        serialize_json(res, path)
        payload = json.loads(path.read_text())
        assert payload["meta"] == json.loads(json.dumps(res.meta))
        assert len(payload["records"]) == 3
        assert set(payload["records"][0]) == set(RECORD_COLUMNS)
        assert payload["records"][1]["W"] == pytest.approx(res.column("W")[1], rel=1e-15)


class TestPresets:
    def test_registry_contents(self):
        names = preset_names()
        for expected in ("fig1a", "fig1h", "fig2-q1", "fig3a", "fig4-q1", "fig5a",
                         "fig5e", "origin-check"):
            assert expected in names

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            run_preset("fig99")

    def test_fig1a_grid_shape(self):
        res = run_preset("fig1a")
        assert len(res.records) == 101 * 101
        assert res.meta["preset"] == "fig1a"
        assert res.meta["params"]["theta1"] == pytest.approx(np.pi)
        assert res.meta["params"]["phi2"] == pytest.approx(2 * np.pi)

    def test_fig2_slice_with_spin_override(self):
        res = run_preset("fig2-q1", j=0.5)
        assert len(res.records) == 201
        assert res.meta["params"]["j"] == 0.5
        coords = res.column("q1")
        assert coords[0] == -10.0 and coords[-1] == 10.0

    def test_origin_check_single_record(self):
        res = run_preset("origin-check")
        assert len(res.records) == 1
        pt = PhasePoint(0j, 0j)
        assert res.column("W")[0] == pytest.approx(wigner_closed_half(HALF_CAT, pt), abs=1e-12)
        assert res.column("budget")[0] == pytest.approx(1.0, abs=1e-10)

    def test_fig5_overrides(self):
        res = run_preset("fig5e", j=0.5, s=2.0)
        assert res.meta["channel"]["s"] == 2.0
        assert res.meta["params"]["j"] == 0.5

    def test_fig1a_csv_loads_in_external_tool_with_expected_surface(self, tmp_path):
        pd = pytest.importorskip("pandas")
        path = tmp_path / "fig1a.csv"
        serialize_csv(run_preset("fig1a"), path)
        df = pd.read_csv(path, comment="#")
        assert list(df.columns) == list(RECORD_COLUMNS)
        assert len(df) == 10201
        # exact kernel-mean surface: W^2 in [0, 1], peak value 1 at the
        # origin, even under (q1, q2) -> (-q1, -q2)
        assert df.W2.between(-1e-12, 1 + 1e-9).all()
        origin = df[(df.q1 == 0) & (df.q2 == 0)]
        assert origin.W2.iloc[0] == pytest.approx(1.0, abs=1e-10)
        flipped = df.sort_values(["q1", "q2"]).W2.to_numpy()
        assert np.abs(flipped - flipped[::-1]).max() < 1e-10

        # the Gaussian-branch surface carries the plotted asymmetry: its
        # peak sits in the positive quadrant
        path_g = tmp_path / "fig1a_gaussian.csv"
        serialize_csv(run_preset("fig1a", evaluator="gaussian"), path_g)
        dg = pd.read_csv(path_g, comment="#")
        peak = dg.loc[dg.W2.idxmax()]
        assert peak.q1 > 0 and peak.q2 > 0
