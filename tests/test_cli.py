import json
import math
import os
import warnings

import pytest

from shearwave import (DomainError, bifurcation_scan, build_phase_portrait, drift_profile,
                       from_mapping)
from shearwave.cli import EXIT_BAD_INPUT, EXIT_IO, EXIT_NUMERICAL, PRESETS, main
from shearwave.drift import MAX_LEVELS
from shearwave.errors import NumericsError
from shearwave.phase import MAX_RESOLUTION
from shearwave.steady import MAX_SCAN_STEPS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_option(argv, path):
    """``--out path`` for a command that writes files; validate writes none."""
    return [] if argv[0] == "validate" else ["--out", str(path)]


class TestDispersionCommand:
    def test_irrotational(self, capsys):
        code, out, _ = run(capsys, "dispersion", "--g", "9.81", "--h", "1",
                           "--k", "1", "--omega", "0", "--branch", "plus")
        assert code == 0
        report = json.loads(out)
        assert report["c"] == pytest.approx(2.7333566671632985, rel=1e-12)
        assert report["residual"] < 1e-10
        assert report["regime"]["vorticity_sign"] == "zero"

    def test_left_going_minus_branch(self, capsys):
        code, out, _ = run(capsys, "dispersion", "--g", "9.81", "--h", "1",
                           "--k", "1", "--omega", "0", "--branch", "minus")
        assert code == 0
        report = json.loads(out)
        assert report["c"] == pytest.approx(-2.7333566671632985, rel=1e-12)
        assert report["regime"] is None

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dispersion", "--g", "9.81", "--h", "1", "--k", "1"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "dispersion", "--g", "-1", "--h", "1",
                           "--k", "1", "--omega", "0")
        assert code == EXIT_BAD_INPUT
        assert "error" in err

    def test_non_finite_vorticity_is_named(self, capsys):
        code, _, err = run(capsys, "dispersion", "--g", "9.81", "--h", "1",
                           "--k", "1", "--omega", "nan")
        assert code == EXIT_BAD_INPUT
        assert err == "error: omega must be finite, got nan\n"

    def test_huge_vorticity_is_named(self, capsys):
        code, _, err = run(capsys, "dispersion", "--g", "9.81", "--h", "1",
                           "--k", "1", "--omega", "1e200")
        assert code == EXIT_BAD_INPUT
        assert err == "error: omega = 1e+200 is too large: (omega*tanh(k*h))**2 overflows\n"


class TestPortraitCommand:
    def test_irrotational_summary(self, capsys, tmp_path):
        code, _, _ = run(capsys, "portrait", "--preset", "fig1",
                         "--out", str(tmp_path), "--quiet",
                         "--format", "csv,json,svg")
        assert code == 0
        summary = json.loads((tmp_path / "fig1" / "portrait.json").read_text())
        assert summary["n_critical_points"] == 1
        assert summary["critical_points"][0]["kind"] == "saddle"
        assert summary["n_separatrices"] == 2
        assert (tmp_path / "fig1" / "isoclines.csv").exists()
        assert (tmp_path / "fig1" / "separatrices.csv").exists()
        assert (tmp_path / "fig1" / "portrait.svg").read_text().startswith("<svg")

    def test_supercritical_summary(self, capsys, tmp_path):
        code, _, _ = run(capsys, "portrait", "--preset", "fig2",
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        summary = json.loads((tmp_path / "fig2" / "portrait.json").read_text())
        assert summary["n_critical_points"] == 3
        assert [cp["kind"] for cp in summary["critical_points"]] == \
            ["saddle", "center", "saddle"]
        assert summary["regime"]["crest_shift"] == "X=pi"

    def test_inline_flags_override_preset(self, capsys, tmp_path):
        code, _, _ = run(capsys, "portrait", "--preset", "fig1", "--a", "0.0",
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        summary = json.loads((tmp_path / "fig1" / "portrait.json").read_text())
        assert summary["n_critical_points"] == 0

    def test_no_parameters_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "portrait", "--out", str(tmp_path))
        assert code == EXIT_BAD_INPUT
        assert "no parameters" in err


class TestScenarioFiles:
    def test_kv_scenario_with_ignored_speed(self, capsys, tmp_path):
        scen = tmp_path / "case.kv"
        scen.write_text("# strong counter-current\nname = demo\ng = 9.81\n"
                        "h = 1.0\nk = 1.0\nomega = -6.0\na = 0.01\n"
                        "branch = minus\nc = 123.0\n")
        code, _, _ = run(capsys, "portrait", "--scenario", str(scen),
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        summary = json.loads((tmp_path / "demo" / "portrait.json").read_text())
        assert summary["params"]["c"] == pytest.approx(0.1527086415613681, rel=1e-12)

    def test_json_scenario(self, capsys, tmp_path):
        scen = tmp_path / "case.json"
        scen.write_text(json.dumps({"g": 9.81, "h": 1.0, "k": 1.0,
                                    "omega": 0.0, "a": 0.01, "branch": "plus"}))
        code, _, _ = run(capsys, "validate", "--scenario", str(scen), "--quiet")
        assert code == 0

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        scen = tmp_path / "bad.kv"
        scen.write_text("g = 9.81\nh = 1\nk = 1\nomega = 0\nwavelenght = 3\n")
        code, _, _ = run(capsys, "portrait", "--scenario", str(scen),
                         "--out", str(tmp_path))
        assert code == EXIT_BAD_INPUT

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        scen = tmp_path / "bad.kv"
        scen.write_text("g : 9.81\n")
        code, _, _ = run(capsys, "portrait", "--scenario", str(scen),
                         "--out", str(tmp_path))
        assert code == EXIT_BAD_INPUT


class TestOtherCommands:
    def test_paths_outputs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "paths", "--preset", "fig1", "--periods", "2",
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        summary = json.loads((tmp_path / "fig1" / "paths.json").read_text())
        assert len(summary["trajectories"]) == 6
        assert all(t["h_drift_scaled"] < 1e-8 for t in summary["trajectories"])
        first = (tmp_path / "fig1" / "trajectory_000.csv").read_text().splitlines()
        assert first[0] == "t,X,Y,x,y,H"

    def test_paths_keeps_the_rows_below_the_guard(self, capsys, tmp_path):
        # At rtol 0.9 some DOP853 steps jump past Y = 700: those runs are
        # truncated at their last row below it, not refused.
        code, _, err = run(capsys, "paths", "--preset", "fig2", "--rtol", "0.9",
                           "--periods", "1", "--out", str(tmp_path), "--quiet")
        assert (code, err) == (0, "")
        summary = json.loads((tmp_path / "fig2" / "paths.json").read_text())
        assert any(t["truncated"] for t in summary["trajectories"])

    def test_paths_default_end_time_on_a_left_going_wave(self, capsys, tmp_path):
        # f = k*c < 0 on the minus branch: the default end time is
        # periods*2*pi/|f|, the same run as an explicit --t-end.
        code, _, err = run(capsys, "paths", "--preset", "fig1", "--branch", "minus",
                           "--periods", "1", "--out", str(tmp_path / "a"), "--quiet")
        assert (code, err) == (0, "")
        p = from_mapping({**PRESETS["fig1"]["params"], "branch": "minus"})
        assert p.f < 0
        summary = json.loads((tmp_path / "a" / "fig1" / "paths.json").read_text())
        assert summary["t_end"] == 2.0 * math.pi / abs(p.f)
        code, _, _ = run(capsys, "paths", "--preset", "fig1", "--branch", "minus",
                         "--t-end", repr(summary["t_end"]),
                         "--out", str(tmp_path / "b"), "--quiet")
        assert code == 0
        for name in ("paths.json", "trajectory_000.csv", "trajectory_005.csv"):
            assert ((tmp_path / "a" / "fig1" / name).read_bytes()
                    == (tmp_path / "b" / "fig1" / name).read_bytes())

    def test_paths_with_seeds_file(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("# one seed\n3.141592653589793 0.0\n")
        code, _, _ = run(capsys, "paths", "--preset", "fig1",
                         "--seeds", str(seeds), "--periods", "1",
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        summary = json.loads((tmp_path / "fig1" / "paths.json").read_text())
        assert len(summary["trajectories"]) == 1

    def test_non_utf8_seeds_file_exits_2(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_bytes(b"\xff3.14 0.0\n")
        code, _, err = run(capsys, "paths", "--preset", "fig1",
                           "--seeds", str(seeds), "--out", str(tmp_path / "out"))
        assert code == EXIT_BAD_INPUT
        assert err == f"error: seeds file {seeds} is not UTF-8 (byte 0: invalid start byte)\n"
        assert not (tmp_path / "out").exists()

    def test_paths_stop_at_the_step_budget(self, capsys, monkeypatch, tmp_path):
        import shearwave.drift
        monkeypatch.setattr(shearwave.drift, "MAX_STEPS", 1000)
        code, _, err = run(capsys, "paths", "--preset", "fig1", "--t-end", "1e308",
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL
        assert err == ("numerical failure: integration stopped at the step budget "
                       "of 1000 steps\n")
        assert not (tmp_path / "out").exists()

    def test_drift_outputs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "drift", "--preset", "fig2", "--levels", "9",
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        rows = (tmp_path / "fig2" / "drift.csv").read_text().splitlines()
        assert rows[0] == "Y0,y0_m,tau,drift_m,direction,layer"
        assert len(rows) == 10
        summary = json.loads((tmp_path / "fig2" / "drift.json").read_text())
        assert set(summary["directions"]) <= {"forward", "always_forward"}

    def test_drift_find_closed(self, capsys, tmp_path):
        code, _, _ = run(capsys, "drift", "--preset", "fig4-left",
                         "--levels", "5", "--find-closed",
                         "--out", str(tmp_path), "--quiet")
        assert code == 0
        summary = json.loads((tmp_path / "fig4-left" / "drift.json").read_text())
        assert summary["closed_orbit"]["verified"] is True

    def test_bifurcation_outputs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bifurcation", "--preset", "fig3",
                         "--steps", "13", "--out", str(tmp_path), "--quiet")
        assert code == 0
        summary = json.loads((tmp_path / "fig3" / "bifurcation.json").read_text())
        assert summary["counts"] == [1, 3]
        assert summary["omega_star"] == pytest.approx(-0.94684365, abs=1e-6)

    def test_validate_passes_on_presets(self, capsys):
        for preset in ("fig1", "fig2", "fig4-left"):
            code, out, _ = run(capsys, "validate", "--preset", preset)
            assert code == 0
            assert out.count("PASS") == 6
            assert "FAIL" not in out

    def test_validate_left_going_wave(self, capsys):
        # c = -1.337: the identities hold in either direction, sampled over
        # three periods 2*pi/|f|.
        code, out, _ = run(capsys, "validate", "--preset", "fig2", "--k", "1e-3")
        assert code == 0
        assert out.count("PASS") == 6 and len(out.splitlines()) == 6

    def test_quiet_validate_prints_only_failures(self, capsys):
        code, out, _ = run(capsys, "validate", "--preset", "fig2", "--quiet")
        assert (code, out) == (0, "")
        with pytest.warns(UserWarning):
            code, out, _ = run(capsys, "validate", "--preset", "fig2",
                               "--a", "1e305", "--k", "600", "--quiet")
        assert code == EXIT_NUMERICAL
        rows = out.splitlines()
        assert [row.split()[1] for row in rows] == \
            ["divergence", "curl_defect", "kinematic_defect"]
        assert all(row.endswith("FAIL") for row in rows)

    def test_validate_grid_export(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "validate", "--preset", "fig1",
                         "--grid", str(grid), "--quiet")
        assert code == 0
        assert grid.read_text().splitlines()[0] == "x,y,t,u,v,P,eta_flag"


class TestExitCodes:
    def test_unwritable_output_dir_exits_3(self, capsys, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code, _, err = run(capsys, "portrait", "--preset", "fig1",
                           "--out", str(blocker), "--quiet")
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_numerical_failure_exits_4(self, capsys, monkeypatch, tmp_path):
        import shearwave.phase

        def boom(*args, **kwargs):
            raise NumericsError("synthetic failure in component X")
        monkeypatch.setattr(shearwave.phase, "build_phase_portrait", boom)
        code, _, err = run(capsys, "portrait", "--preset", "fig1",
                           "--out", str(tmp_path), "--quiet")
        assert code == EXIT_NUMERICAL
        assert "component X" in err


class TestOptionsPerCommand:
    """Each command accepts only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["--out", "out"],
        ["--format", "csv"],
        ["--format", "nonsense", "--out", "/nonexistent/x"],
    ], ids=" ".join)
    def test_validate_has_no_output_options(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--preset", "fig2", *argv])
        assert exc.value.code == EXIT_BAD_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["paths", "drift", "bifurcation"])
    @pytest.mark.parametrize("formats", ["svg", "csv,svg", "json,svg"])
    def test_only_portrait_writes_svg(self, command, formats, capsys, tmp_path):
        code, _, err = run(capsys, command, "--preset", "fig1", "--format", formats,
                           "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        assert err == f"error: {command} writes csv,json, not svg\n"
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["portrait", "paths", "drift", "bifurcation"])
    @pytest.mark.parametrize("formats", [",", "", " , "])
    def test_a_format_that_names_no_format_exits_2(self, command, formats, capsys,
                                                   tmp_path):
        code, out, err = run(capsys, command, "--preset", "fig1", "--format", formats,
                             "--out", str(tmp_path))
        assert code == EXIT_BAD_INPUT and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: --format {formats!r} names no format")
        assert not os.listdir(tmp_path)

    def test_portrait_names_an_unknown_format(self, capsys, tmp_path):
        code, _, err = run(capsys, "portrait", "--preset", "fig1", "--format", "svg,png",
                           "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        assert err == "error: portrait writes csv,json,svg, not png\n"


class TestOptionRanges:
    @pytest.mark.parametrize("argv", [
        ["portrait", "--ymax", "0", "--format", "svg"],
        ["portrait", "--ymax", "-1"],
        ["portrait", "--ymax", "nan"],
        ["portrait", "--ymax", "400"],   # above the portrait's height limit, 350
        ["portrait", "--ymax", "1000"],
        ["portrait", "--resolution", "-1"],
        ["drift", "--levels", "0"],
        ["drift", "--levels", "-3"],
        ["drift", "--a", "1.0"],  # the surface touches the bed at X = pi
        ["validate", "--omega", "nan"],
        ["validate", "--g", "inf"],
        ["validate", "--omega", "1e155"],  # (omega*tanh(kh))**2 overflows
        ["portrait", "--omega", "nan"],
    ], ids=" ".join)
    def test_out_of_range_option_exits_2_with_one_line(self, argv, capsys, tmp_path):
        code, _, err = run(capsys, *argv, "--preset", "fig1",
                           *out_option(argv, tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["drift", "--levels", str(MAX_LEVELS + 1)],
        ["portrait", "--resolution", str(MAX_RESOLUTION + 1)],
        ["bifurcation", "--steps", str(MAX_SCAN_STEPS + 1)],
    ], ids=" ".join)
    def test_size_above_its_cap_exits_2_naming_the_option(self, argv, capsys, tmp_path):
        code, _, err = run(capsys, *argv, "--preset", "fig3",
                           "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{argv[1][2:]} must be from " in err and err.endswith(f", got {argv[2]}\n")
        assert not os.listdir(tmp_path)

    def test_size_caps_hold_at_the_library_entry(self):
        p = from_mapping(PRESETS["fig3"]["params"])
        with pytest.raises(DomainError, match="drift levels"):
            drift_profile(p, n=MAX_LEVELS + 1)
        with pytest.raises(DomainError, match="resolution"):
            build_phase_portrait(p, resolution=MAX_RESOLUTION + 1)
        with pytest.raises(DomainError, match="steps"):
            bifurcation_scan(p.g, p.h, p.k, p.a, 0.0, -6.0, MAX_SCAN_STEPS + 1)

    def test_underflowing_drift_levels_exit_2_with_one_line(self, capsys, tmp_path):
        # k = 5e-324: 1e-5 of the surface height over X = pi, the lowest
        # default drift level, would underflow to zero; WaveParams refuses a
        # k below 1e-300.
        code, _, err = run(capsys, "drift", "--preset", "fig4-right", "--k", "5e-324",
                           "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["drift", "--preset", "fig1", "--a", "1.0"],         # the trough touches the bed
        ["drift", "--preset", "fig4-right", "--a", "1.0"],   # shifted: the crest column
        ["drift", "--preset", "fig4-left", "--a", "1.5", "--find-closed"],
    ], ids=" ".join)
    def test_surface_reaching_the_bed_exits_2_with_one_line(self, argv, capsys, tmp_path):
        with pytest.warns(UserWarning):
            code, _, err = run(capsys, *argv, "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        a = float(argv[4])
        assert err == f"error: the surface reaches the bed: a = {a:g} >= h = 1\n"

    @pytest.mark.parametrize("argv", [
        ["validate", "--preset", "fig1", "--h", "5e-324"],       # k*h underflows
        ["validate", "--preset", "fig4-left", "--k", "5e-324"],  # the wavelength overflows
        ["validate", "--preset", "fig4-left", "--h", "1e-8", "--omega", "1",
         "--g", "1e-300"],                                        # f = k*c rounds to 0
        ["bifurcation", "--preset", "fig3", "--omega-start", "1e154"],
        ["paths", "--preset", "fig1", "--a", "1e154", "--k", "1e154", "--h", "5e-324",
         "--periods", "1"],                                       # A = a*(f + ...) overflows
    ], ids=" ".join)
    def test_degenerate_scales_exit_2_with_one_line(self, argv, capsys, tmp_path):
        code, _, err = run(capsys, *argv, *out_option(argv, tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_vorticity_above_its_cap_is_printed_exactly(self, capsys, tmp_path):
        # The sweep's first vorticity past 1e150 rounds to 1e+150 at three digits.
        with pytest.warns(UserWarning):
            code, _, err = run(capsys, "bifurcation", "--preset", "fig3",
                               "--omega-stop", "1e151", "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        head, _, value = err.rstrip("\n").rpartition(", got ")
        assert head == "error: |omega| must be at most 1e+150"
        assert float(value) > 1e150

    def test_scan_past_the_guard_warns_once_then_fails(self, capsys, tmp_path):
        # Five swept vorticities raise the validity guard before the sixth
        # passes the cap; "always" would show every warning the scan let out.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "bifurcation", "--preset", "fig3",
                               "--omega-stop", "1e151", "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT and err.startswith("error: |omega| must be")
        assert [w.category for w in caught] == [UserWarning]
        assert str(caught[0].message).startswith(
            "5 of the swept vorticities exceed a guard, the first at omega = "
            "1.6666666666666668e+149: (a/h)*|omega_nd| = 5.32e+146 exceeds 0.3")

    def test_default_fig3_scan_warns_nothing(self, capsys, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, "bifurcation", "--preset", "fig3",
                             "--out", str(tmp_path), "--quiet")
        assert code == 0 and caught == []

    def test_failed_run_leaves_no_output_directory(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "portrait", "--preset", "fig1", "--ymax", "0",
                         "--out", "od")
        assert code == EXIT_BAD_INPUT
        assert not (tmp_path / "od" / "fig1").exists()


class TestNegativeNumbers:
    """A negative value in exponent form, or a negative infinity or NaN, is a
    value, not an option."""

    def test_exponent_form_reads_as_the_number(self, capsys):
        reports = [run(capsys, "validate", "--preset", "fig2", *omega)
                   for omega in (["--omega", "-6e0"], ["--omega=-6e0"], ["--omega", "-6"])]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0][0] == 0 and len(reports[0][1].splitlines()) == 6

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity", "-NaN", "-INF"])
    def test_a_negative_non_finite_value_is_refused_as_a_value(self, capsys, value):
        spaced = run(capsys, "validate", "--preset", "fig2", "--omega", value)
        joined = run(capsys, "validate", "--preset", "fig2", f"--omega={value}")
        assert spaced == joined
        code, out, err = spaced
        assert code == EXIT_BAD_INPUT and out == ""
        assert err.splitlines() == [f"error: omega must be finite, got {float(value)!r}"]

    def test_bifurcation_stops_at_a_tiny_negative_vorticity(self, capsys, tmp_path):
        code, _, err = run(capsys, "bifurcation", "--preset", "fig3",
                           "--omega-stop", "-1e-300", "--out", str(tmp_path), "--quiet")
        assert (code, err) == (0, "")
        summary = json.loads((tmp_path / "fig3" / "bifurcation.json").read_text())
        assert summary["omega_range"] == [0.0, -1e-300]


class TestDeterminism:
    def test_portrait_and_drift_reruns_are_byte_identical(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(capsys, "portrait", "--preset", "fig2",
                       "--out", str(out), "--quiet",
                       "--format", "csv,json,svg")[0] == 0
            assert run(capsys, "drift", "--preset", "fig2", "--levels", "7",
                       "--out", str(out), "--quiet")[0] == 0
        names = sorted(os.listdir(out_a / "fig2"))
        assert names == sorted(os.listdir(out_b / "fig2"))
        for name in names:
            assert (out_a / "fig2" / name).read_bytes() == \
                (out_b / "fig2" / name).read_bytes()


class TestPresetCatalog:
    def test_every_preset_has_documentation(self):
        for name, preset in PRESETS.items():
            assert preset["doc"]
            assert set(preset["params"]) == {"g", "h", "a", "k", "omega", "s",
                                             "branch"}

    def test_fig4_left_satisfies_its_construction(self):
        from shearwave import WaveParams
        preset = PRESETS["fig4-left"]
        p = WaveParams.solve(**preset["params"])
        y_star, width = preset["backward_band"]
        Ak, f = p.A * p.k, p.f
        assert p.omega * y_star - width > math.pi
        assert Ak * math.cosh(y_star + width) < width
        assert Ak < f
        assert y_star + width < p.k * (p.h - p.a)
