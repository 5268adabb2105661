import json
import math
import os

import pytest

from shearwave.cli import EXIT_BAD_INPUT, EXIT_IO, EXIT_NUMERICAL, PRESETS, main
from shearwave.errors import NumericsError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                           "--out", str(tmp_path), "--quiet")
        assert code == EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_failed_run_leaves_no_output_directory(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "portrait", "--preset", "fig1", "--ymax", "0",
                         "--out", "od")
        assert code == EXIT_BAD_INPUT
        assert not (tmp_path / "od" / "fig1").exists()


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
