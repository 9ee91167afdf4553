import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spincat._expr import parse_angle, parse_spin
from spincat.cli import main


class TestExpressions:
    def test_pi_fractions(self):
        assert parse_angle("pi/3") == pytest.approx(np.pi / 3)
        assert parse_angle("2*pi") == pytest.approx(2 * np.pi)
        assert parse_angle("-pi/2 + 0.1") == pytest.approx(-np.pi / 2 + 0.1)
        assert parse_angle("(1+2)/4") == pytest.approx(0.75)

    def test_rejects_arbitrary_code(self):
        with pytest.raises(ValueError):
            parse_angle("__import__('os')")
        with pytest.raises(ValueError):
            parse_angle("pi**2")
        with pytest.raises(ValueError):
            parse_angle("1/0")

    def test_spin_fractions(self):
        assert parse_spin("1/2") == 0.5
        assert parse_spin("3/2") == 1.5
        assert parse_spin("2") == 2.0
        assert parse_spin("2.5") == 2.5

    def test_spin_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            parse_spin("0.3")
        with pytest.raises(ValueError):
            parse_spin("-1/2")
        with pytest.raises(ValueError):
            parse_spin("cat")


class TestPresetCommand:
    def test_fig1a_row_count(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        assert main(["preset", "fig1a", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 10201

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["preset", "fig99", "--out", "-"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_json_output(self, tmp_path):
        out = tmp_path / "o.json"
        assert main(["preset", "origin-check", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 1

    @pytest.mark.parametrize("s", ["1e-12", "1e-300"])
    def test_noise_below_purity_margin_names_s_and_margin(self, capsys, s):
        # the channel's purity check needs a drop above 1e-10; with a clean
        # trace the error blames the weak noise, not the quadrature
        assert main(["preset", "fig3a", "--channel-s", s, "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: noise strength s = {s} lowers the purity by ")
        assert "1e-10 margin" in err
        assert "quadrature" not in err
        assert err.count("\n") == 1

    def test_small_noise_above_purity_margin_runs(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        assert main(["preset", "fig3a", "--channel-s", "1e-8", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 101 * 101

    def test_strong_noise_runs(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        assert main(["preset", "fig3a", "--channel-s", "3", "--out", str(out)]) == 0
        meta = json.loads(out.read_text().splitlines()[0][len("# meta: "):])
        assert meta["channel"] == {"s": 3.0}

    @pytest.mark.parametrize("s", ["inf", "nan"])
    def test_bad_noise_strength_is_usage_error(self, capsys, s):
        assert main(["preset", "fig3a", "--channel-s", s, "--out", "-"]) == 2
        assert "noise strength s" in capsys.readouterr().err

    def test_spin_override(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["preset", "fig2-q1", "--j", "5/2", "--out", str(out)]) == 0
        meta = json.loads(out.read_text().splitlines()[0][len("# meta: "):])
        assert meta["params"]["j"] == 2.5

    @pytest.mark.parametrize("args, named", [
        (["fig1a", "--j", "3"], "spin j"),
        (["origin-check", "--j", "5"], "spin j"),
        (["fig4-q1", "--j", "2"], "spin j"),
        (["fig1a", "--channel-s", "1"], "noise strength s"),
        (["fig2-q1", "--channel-s", "1"], "noise strength s"),
    ])
    def test_override_the_preset_does_not_take_is_usage_error(self, capsys, args, named):
        assert main(["preset", *args, "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: preset {args[0]!r} takes no {named} override, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args, key, value", [
        (["fig2-q1", "--j", "2"], "params", 2.0),
        (["fig5a", "--channel-s", "0.5"], "channel", {"s": 0.5}),
    ])
    def test_override_the_preset_takes_runs(self, tmp_path, args, key, value):
        out = tmp_path / "o.csv"
        assert main(["preset", *args, "--out", str(out)]) == 0
        meta = json.loads(out.read_text().splitlines()[0][len("# meta: "):])
        assert (meta[key]["j"] if key == "params" else meta[key]) == value

    def test_skew_panels_take_the_same_overrides(self):
        from spincat.sweep import PRESETS

        for panel, twin in zip("abcd", "efgh"):
            for fig in ("fig1", "fig3"):
                a, b = PRESETS[fig + panel], PRESETS[fig + twin]
                assert (a.default_j, a.default_s) == (b.default_j, b.default_s)

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 31.7 GiB for an array", "Unable to allocate 31.7 GiB for an array"),
        ("", "MemoryError"),
    ])
    def test_memory_error_is_usage_error(self, monkeypatch, capsys, message, line):
        # a failed allocation, as numpy raises for an oversized channel
        # output (fig3a at s = 1000 asks for 31.7 GiB); nothing large is built
        import spincat.cli

        def fake_run_preset(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(spincat.cli, "run_preset", fake_run_preset)
        assert main(["preset", "fig3a", "--channel-s", "1000", "--out", "-"]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"


class TestNumericalFailure:
    @pytest.mark.parametrize("target, fake", [
        ("pure_point_values", lambda psi, pt: (np.full(pt.alpha.shape, 0.5),
                                               np.full(pt.alpha.shape, 0.75))),
        ("_closed_kernel_mean", lambda params, alphas, betas: np.full(alphas.shape, 1e-3j)),
    ], ids=["audit", "imaginary-residue"])
    def test_exits_three_with_one_error_line(self, monkeypatch, capsys, target, fake):
        import spincat.sweep

        monkeypatch.setattr(spincat.sweep, target, fake)
        assert main(["preset", "origin-check", "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    def test_channel_trace_drift_exits_three(self, monkeypatch, capsys):
        import spincat.channel

        monkeypatch.setattr(spincat.channel, "required_mode1_growth", lambda s: 1)
        assert main(["preset", "fig3a", "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: channel trace drift ") and err.count("\n") == 1
        assert "n1_max = 2" in err

    def test_noisy_audit_exits_three(self, monkeypatch, capsys):
        # a convolution off by 1e-6 fails the audit of the engine's noisy W
        import spincat.sweep

        original = spincat.sweep.channel_wigner_convolution
        monkeypatch.setattr(spincat.sweep, "channel_wigner_convolution",
                            lambda *args, **kwargs: original(*args, **kwargs) + 1e-6)
        assert main(["preset", "fig5a", "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: noisy audit failed at ") and err.count("\n") == 1
        assert "engine W=" in err and "convolution W=" in err

    def test_closed_form_audit_exits_three(self, monkeypatch, capsys):
        # a closed form off by 1e-6 fails the audit of the kernel-block W
        import spincat.sweep

        original = spincat.sweep._closed_kernel_mean
        monkeypatch.setattr(spincat.sweep, "_closed_kernel_mean",
                            lambda *args, **kwargs: original(*args, **kwargs) + 1e-6)
        assert main(["preset", "fig2-q1", "--j", "1", "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: pure-state audit failed at ") and err.count("\n") == 1
        assert "kernel W=" in err and "closed-form W=" in err

    @pytest.mark.parametrize("preset, target, fake, named", [
        ("origin-check", "_closed_kernel_mean",
         lambda params, alphas, betas: np.full(alphas.shape, np.nan),
         "pure-state audit failed at "),
        ("fig5a", "channel_wigner_convolution",
         lambda params, channel, point: np.full(np.shape(point.alpha), np.nan),
         "noisy audit failed at "),
    ], ids=["closed-form", "convolution"])
    def test_nan_reference_fails_its_audit(self, monkeypatch, capsys, preset, target, fake,
                                           named):
        # NaN compares False against the tolerance, so a gap test that only
        # asks "above the tolerance?" lets it through
        import spincat.sweep

        monkeypatch.setattr(spincat.sweep, target, fake)
        assert main(["preset", preset, "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: " + named) and err.count("\n") == 1
        assert "W=nan" in err

    def test_commutator_w_audit_exits_three(self, monkeypatch, capsys):
        # a kernel-block W off by 1e-6, with I = 1 - W^2 consistent with it,
        # fails the audit against the per-point commutator oracle
        import spincat.sweep

        original = spincat.sweep._shell_kernel_mean
        monkeypatch.setattr(spincat.sweep, "_shell_kernel_mean",
                            lambda *args: original(*args) + 1e-6)
        assert main(["preset", "fig2-q1", "--j", "1", "--evaluator", "kernel",
                     "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: pure-state audit failed at ") and err.count("\n") == 1
        assert "kernel W=" in err and "commutator W=" in err

    def test_pure_audit_leaves_no_silent_wrong_value(self, tmp_path):
        # the sweep must either exit 3 or write W that the commutator route
        # confirms to the audit tolerance at every point
        from spincat.skewinfo import pure_point_values
        from spincat.states import CatParams, cat_state
        from spincat.sweep import read_csv
        from spincat.wigner import PhasePoint

        out = tmp_path / "j15.csv"
        code = main([
            "sweep", "--j", "15", "--theta1", "pi/3", "--theta2", "pi/2",
            "--phi1", "0", "--phi2", "2*pi", "--axes", "q2",
            "--range", "-10,10", "--count", "21", "--out", str(out),
        ])
        if code == 3:
            return
        assert code == 0
        _, rows = read_csv(out)
        psi = cat_state(CatParams(15.0, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi))
        w_ref = [pure_point_values(psi, PhasePoint.from_quadratures(*row[:4]))[0]
                 for row in rows]
        assert np.max(np.abs(rows[:, 4] - w_ref)) <= 1e-7


class TestPresetProcess:
    @pytest.mark.parametrize("preset", ["fig1a", "fig3a"])
    def test_preset_leaves_lazy_numpy_modules_unimported(self, tmp_path, preset):
        # the audits draw no random numbers, and importing numpy.random
        # costs about 15 ms per call; np.unique without an inverse imports
        # numpy.ma, about 13 ms more
        import spincat

        code = ("import sys; from spincat.cli import main; "
                "code = main(['preset', sys.argv[1], '--out', sys.argv[2]]); "
                "print(code, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(spincat.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, preset, str(tmp_path / "out.csv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0", "False", "False"], proc.stderr


    def test_csv_is_identical_at_one_and_two_blas_threads(self, tmp_path):
        # fig5e is the known exception: its I moves in the last bit (README)
        import spincat

        code = ("import sys; from spincat.cli import main; "
                "sys.exit(main(['preset', 'fig5a', '--j', '1', '--out', sys.argv[1] + '5a']) "
                "or main(['preset', 'fig3a', '--out', sys.argv[1] + '3a']))")
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(spincat.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / threads)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        for preset in ("5a", "3a"):
            assert (tmp_path / f"1{preset}").read_bytes() == (tmp_path / f"2{preset}").read_bytes()

    def test_python_dash_m_runs_the_cli(self):
        import spincat

        env = dict(os.environ, PYTHONPATH=str(Path(spincat.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "spincat", "preset", "origin-check"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1] == "q1,p1,q2,p2,W,W2,I,budget"


class TestSweepCommand:
    def test_count_arithmetic(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--j", "1/2", "--theta1", "pi", "--theta2", "0",
            "--phi1", "0", "--phi2", "2*pi", "--axes", "q1,q2",
            "--range", "-2,2", "--count", "11", "--out", str(out),
        ])
        assert code == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        assert len(data) == 121

    def test_channel_flag(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--j", "1/2", "--theta1", "pi", "--theta2", "0",
            "--phi1", "0", "--phi2", "2*pi", "--axes", "q1",
            "--range", "-1,1", "--count", "5", "--channel-s", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        meta = json.loads(out.read_text().splitlines()[0][len("# meta: "):])
        assert meta["channel"]["s"] == 1.0

    def test_degenerate_params_usage_error(self, capsys):
        code = main([
            "sweep", "--j", "1/2", "--theta1", "pi", "--theta2", "pi",
            "--phi1", "0", "--phi2", "pi", "--axes", "q1",
            "--range", "-1,1", "--count", "3", "--out", "-",
        ])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_bad_fixed_assignment(self, capsys):
        code = main([
            "sweep", "--j", "1/2", "--theta1", "pi", "--theta2", "0",
            "--phi1", "0", "--phi2", "0", "--axes", "q1",
            "--range", "-1,1", "--count", "3", "--fixed", "zz=1",
            "--out", "-",
        ])
        assert code == 2

    def test_repeated_fixed_quadrature_is_usage_error(self, capsys):
        code = main([
            "sweep", "--j", "1", "--theta1", "1", "--theta2", "2",
            "--phi1", "0", "--phi2", "0", "--axes", "q1",
            "--range", "-1,1", "--count", "3", "--fixed", "p1=1,p1=2", "--out", "-",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: fixed quadrature 'p1' assigned twice\n"

    def test_pure_range_beyond_max_amplitude_is_usage_error(self, capsys):
        # refused before any kernel column is built, not by numpy's allocator
        code = main([
            "sweep", "--j", "1", "--theta1", "1", "--theta2", "2",
            "--phi1", "0", "--phi2", "0", "--axes", "q1",
            "--range", "-1e6,1e6", "--count", "3", "--evaluator", "kernel", "--out", "-",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: |alpha| = 707107 exceeds skewinfo.MAX_AMPLITUDE = 100: ")
        assert err.endswith("GB at block 3\n") and err.count("\n") == 1

    @pytest.mark.parametrize("extra, named", [
        (["--range", "-3,1e400"], "axis 'q1' needs finite bounds"),
        (["--range", "-3,1", "--fixed", "p1=1e400"], "fixed quadrature 'p1' must be finite"),
    ])
    def test_non_finite_grid_value_is_usage_error(self, capsys, extra, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "sweep", "--j", "1", "--theta1", "pi/3", "--theta2", "pi/2",
                "--phi1", "0", "--phi2", "0", "--axes", "q1", "--count", "5",
                "--out", "-", *extra,
            ])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1

    def test_missing_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--j", "1/2"])
        assert exc.value.code == 2

    def test_density_convention_flag(self, tmp_path):
        from spincat.sweep import read_csv

        args = ["sweep", "--j", "1", "--theta1", "pi/3", "--theta2", "pi/2",
                "--phi1", "0", "--phi2", "2*pi", "--axes", "q1",
                "--range", "-1,1", "--count", "5", "--channel-s", "1"]
        assert main(args + ["--out", str(tmp_path / "km.csv")]) == 0
        assert main(args + ["--convention", "density", "--out", str(tmp_path / "d.csv")]) == 0
        (_, km), (meta, dens) = (read_csv(tmp_path / name) for name in ("km.csv", "d.csv"))
        assert meta["convention"] == "density"
        np.testing.assert_allclose(dens[:, 4], km[:, 4] / np.pi**2, rtol=1e-12)

    def test_spin_beyond_binomial_range_is_usage_error(self, capsys):
        code = main([
            "sweep", "--j", "515", "--theta1", "pi/3", "--theta2", "pi/2",
            "--phi1", "0", "--phi2", "0", "--axes", "q1",
            "--range", "-1,1", "--count", "3", "--out", "-",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 2j must be at most 1029") and err.count("\n") == 1

    @pytest.mark.parametrize("evaluator", ["closed", "gaussian"])
    def test_noisy_boundary_theta_fails_before_channel(self, monkeypatch, capsys, evaluator):
        import spincat.sweep

        def refuse(*args):
            raise AssertionError("the channel ran for a rejected theta")

        monkeypatch.setattr(spincat.sweep, "apply_channel_density", refuse)
        code = main([
            "sweep", "--j", "1", "--theta1", "0", "--theta2", "pi/2",
            "--phi1", "0", "--phi2", "0", "--axes", "q1", "--range", "-1,1",
            "--count", "3", "--channel-s", "1", "--evaluator", evaluator, "--out", "-",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: theta1 = 0.0 lies on the boundary of ]0, pi[")
        assert err.count("\n") == 1

    def test_gaussian_evaluator_flag(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main([
            "sweep", "--j", "1", "--theta1", "pi/3", "--theta2", "pi/2",
            "--phi1", "0", "--phi2", "2*pi", "--axes", "q1",
            "--range", "-1,1", "--count", "3", "--evaluator", "gaussian",
            "--out", str(out),
        ])
        assert code == 0


class TestPureBudget:
    # |W| <= 1 holds exactly for a pure state; a W that rounds past it must
    # not give a negative I
    def test_origin_check_writes_exact_parity_budget(self, tmp_path):
        from spincat.sweep import read_csv

        out = tmp_path / "o.csv"
        assert main(["preset", "origin-check", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0, 4:].tolist() == [-1.0, 1.0, 0.0, 1.0]

    def test_sweep_origin_writes_exact_parity_budget(self, tmp_path):
        from spincat.sweep import read_csv

        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--j", "1", "--theta1", "1", "--theta2", "2",
            "--phi1", "0", "--phi2", "0", "--axes", "q1",
            "--range", "-141,141", "--count", "3", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        assert rows[1].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0]
        assert (rows[:, 6] >= 0).all()


class TestVerifyCommand:
    def test_verify_passes_on_correct_build(self, capsys):
        assert main(["verify", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "[FAIL]" not in out
