import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncphase import cli, constrained, darboux, dynamics, spectrum, structure
from ncphase.errors import StepRejected

BASE = {
    "schema_version": 1,
    "N": 2,
    "field": {"B": 1.0, "C": 1.0},
    "model": {"m": 1.0, "kappa": 1.0},
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(argv):
    return cli.main(argv)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, surprise=1))
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG

    def test_wrong_schema_version(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, schema_version=2))
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG

    def test_field_and_problem_exclusive(self, tmp_path):
        bad = dict(BASE)
        bad["problem"] = {"omega": [[0.0]], "hessian": [[0.0]], "gradient": [0.0]}
        path = write_config(tmp_path, bad)
        assert run(["reduce", "--config", path]) == cli.EXIT_CONFIG

    def test_mixed_field_forms(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "Cvec": [0, 0, 1]}))
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG

    def test_model_requires_one_potential(self, tmp_path):
        cfg = dict(BASE, model={"m": 1.0, "kappa": 1.0, "Evec": [1.0, 0.0]})
        path = write_config(tmp_path, cfg)
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG

    def test_missing_file(self):
        assert run(["brackets", "--config", "/nonexistent/cfg.json"]) == cli.EXIT_CONFIG

    def test_state_length_checked(self, tmp_path):
        cfg = dict(BASE, state=[1.0, 2.0], time={"t_final": 1.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        assert run(["simulate", "--config", path]) == cli.EXIT_CONFIG

    def test_no_partial_output_on_error(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, schema_version=99))
        out = tmp_path / "never.json"
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_env_tolerance_override(self, tmp_path, monkeypatch):
        # chi = 1e-4 regular structure: det Psi = 1e-8 trips a raised gate.
        cfg = dict(BASE, field={"B": 1.0, "C": 1e-4 - 1.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "br.json"
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        monkeypatch.setenv(cli.ENV_TOL, "1e-6")
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR

    @pytest.mark.parametrize("section, value, key", [
        ("field", {"B": float("nan"), "C": 1.0}, "field.B"),
        ("field", {"B": 1.0, "C": float("inf")}, "field.C"),
        ("model", {"m": float("inf"), "kappa": 1.0}, "model.m"),
        ("model", {"m": 1.0, "Evec": [0.0, float("-inf")]}, "model.Evec[1]"),
        ("state", [1.0, 0.0, float("nan"), 1.0], "state[2]"),
        ("time", {"t_final": float("inf"), "dt": 0.1}, "time.t_final"),
        ("tolerances", {"singular": float("nan")}, "tolerances.singular"),
    ])
    def test_non_finite_numbers_refused(self, tmp_path, capsys, section, value, key):
        # json accepts NaN and Infinity; `"B": NaN` used to give NaN brackets.
        cfg = dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1.0, "dt": 0.1})
        cfg[section] = value
        path = write_config(tmp_path, cfg)
        for command in ("brackets", "simulate"):
            out = tmp_path / "never.out"
            assert run([command, "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
            assert f"{key} must be finite" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_problem_and_overflowing_literal_refused(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"schema_version": 1, "N": 1, "problem": {"omega": '
                        '[[0.0, 1.0], [-1.0, NaN]], "hessian": [[1.0, 0.0], [0.0, 1e400]], '
                        '"gradient": [0.0, 0.0]}}')
        assert run(["reduce", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "problem.omega[1][1] must be finite, got nan" in capsys.readouterr().err
        path.write_text(path.read_text().replace("NaN", "0.0"))
        assert run(["reduce", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "problem.hessian[1][1] must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [-1.0, 0.0])
    def test_non_positive_tolerance_refused(self, tmp_path, capsys, tol):
        # At chi = 0 a negative tolerance used to end in "Singular matrix".
        cfg = dict(BASE, field={"B": 1.0, "C": -1.0}, tolerances={"singular": tol})
        path = write_config(tmp_path, cfg)
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG
        assert "tolerances.singular must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("env", ["-1", "0", "nan", "inf"])
    def test_non_positive_env_tolerance_refused(self, tmp_path, capsys, monkeypatch, env):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "C": -1.0}))
        monkeypatch.setenv(cli.ENV_TOL, env)
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG
        assert f"{cli.ENV_TOL} must be positive" in capsys.readouterr().err

    def test_tolerances_require_singular(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE, tolerances={}))
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG
        assert "tolerances requires 'singular'" in capsys.readouterr().err


class TestBrackets:
    def test_planar_report(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "br.json"
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["status"] == "ok"
        assert rep["brackets"]["qq"][0][1] == pytest.approx(-0.5)
        assert rep["brackets"]["pp"][0][1] == pytest.approx(0.5)
        assert rep["brackets"]["qp"][0][0] == pytest.approx(0.5)

    def test_singular_reports_kernel_dimension(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "C": -1.0}))
        out = tmp_path / "sing.json"
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        rep = json.loads(out.read_text())
        assert rep["status"] == "singular"
        assert rep["kernel_dimension"] == 2


class TestDarboux:
    def test_closed_route(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 3.0, "C": 1.0}))
        out = tmp_path / "dx.json"
        assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["route"] == "closed-n2"
        assert rep["residual"] <= 1e-12
        assert rep["sp_equivalence_residual"] <= 1e-8

    def test_negative_chi_routes_to_generic(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 3.0, "C": -1.0}))
        out = tmp_path / "dx.json"
        assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["route"] == "generic"
        assert "note" in rep
        assert rep["residual"] <= 1e-8

    def test_identity_for_zero_fields(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 0.0, "C": 0.0}))
        out = tmp_path / "dx.json"
        run(["darboux", "--config", path, "--out", str(out)])
        rep = json.loads(out.read_text())
        assert np.allclose(rep["T"], np.eye(4))


class TestSimulate:
    def test_free_particle_monotone(self, tmp_path):
        cfg = dict(BASE, field={"B": 0.0, "C": 0.0}, model={"m": 1.0, "kappa": 0.0},
                   state=[0.0, 0.0, 1.0, 0.0], time={"t_final": 1.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "free.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,q1,q2,p1,p2,H,Lambda3"
        q1 = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(q1, q1[1:]))

    def test_energy_column_constant(self, tmp_path):
        cfg = dict(BASE, state=[1.0, 0.0, 0.0, 1.0],
                   time={"t_final": 5.0, "dt": 0.05, "method": "exact"})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "osc.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        h_col = lines[0].split(",").index("H")
        energies = [float(line.split(",")[h_col]) for line in lines[1:]]
        assert max(energies) - min(energies) <= 1e-10 * abs(energies[0])

    def test_degenerate_flow_stays_on_constraints(self, tmp_path):
        cfg = dict(BASE, field={"B": 1.0, "C": -1.0}, state=[1.0, 0.0, 0.0, 1.0],
                   time={"t_final": 20.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "deg.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].endswith("constraint_residual")
        residuals = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(residuals) <= 1e-9

    def test_axial_trajectory_columns(self, tmp_path):
        cfg = dict(BASE, N=3, field={"Bvec": [0, 0, 1.0], "Cvec": [0, 0, 0.5]},
                   state=[1.0, 0.0, 0.3, 0.0, 0.7, -0.2],
                   time={"t_final": 2.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "axial.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,q1,q2,q3,p1,p2,p3,H,Lambda3"
        lam3 = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(lam3) - min(lam3) <= 1e-9

    def test_step_rejection_exit_code(self, tmp_path, monkeypatch):
        # No in-scope config degenerates the midpoint resolvent (the flow
        # spectra are purely imaginary), so the exit path is driven directly.
        def reject(*args, **kwargs):
            raise StepRejected("forced", suggested_dt=0.01)

        monkeypatch.setattr(dynamics, "integrate", reject)
        cfg = dict(BASE, state=[1.0, 0.0, 0.0, 1.0],
                   time={"t_final": 1.0, "dt": 0.5, "method": "midpoint"})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "rej.csv"
        code = run(["simulate", "--config", path, "--out", str(out)])
        assert code == cli.EXIT_STEP_REJECTED
        assert not out.exists()

    def test_non_finite_trajectory_refused(self, tmp_path, capsys):
        # chi = 2, but the exact propagator of these magnitudes is all NaN.
        cfg = dict(BASE, field={"B": 1e300, "C": 1e-300}, state=[1.0, 0.0, 0.0, 1.0],
                   time={"t_final": 1.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "nan.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        assert "non-finite trajectory" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_trajectory_leaves_no_warning_on_stderr(self, tmp_path):
        # m = 1: the ~990 squarings of the exact propagator overflow.
        # m = 1e-10: Lambda . Hess(H) itself overflows in flow_matrix, on
        # both methods.  numpy must not print a RuntimeWarning beside the
        # refusal.
        for i, (m, method) in enumerate(
                [(1.0, "exact"), (1e-10, "exact"), (1e-10, "midpoint")]):
            cfg = dict(BASE, field={"B": 1e300, "C": 1e-300},
                       model={"m": m, "kappa": 1.0}, state=[1.0, 0.0, 0.0, 1.0],
                       time={"t_final": 1.0, "dt": 0.1, "method": method})
            path = write_config(tmp_path, cfg, name=f"config{i}.json")
            out = tmp_path / "nan.csv"
            proc = subprocess.run(
                [sys.executable, "-W", "always", "-m", "ncphase.cli", "simulate",
                 "--config", path, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == cli.EXIT_SINGULAR, (m, method)
            assert proc.stderr.splitlines() == [
                "ncphase simulate: non-finite trajectory (overflow or invalid "
                "arithmetic in the flow); no output written"
            ], (m, method)
            assert not out.exists()

    def test_off_constraint_initial_state(self, tmp_path):
        cfg = dict(BASE, field={"B": 1.0, "C": -1.0}, state=[1.0, 0.0, 0.0, 0.0],
                   time={"t_final": 1.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        assert run(["simulate", "--config", path]) == cli.EXIT_CONFIG


class TestSpectrum:
    def test_isotropic_ground_state(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 0.0, "C": 0.0}))
        out = tmp_path / "sp.json"
        assert run(["spectrum", "--config", path, "--out", str(out), "--nmax", "1"]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["levels"][0]["energy"] == pytest.approx(1.0)

    def test_worked_ground_state(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "C": 0.0}))
        out = tmp_path / "sp.json"
        run(["spectrum", "--config", path, "--out", str(out), "--nmax", "2"])
        rep = json.loads(out.read_text())
        assert rep["kind"] == "planar"
        assert rep["levels"][0]["energy"] == pytest.approx(np.sqrt(5) / 2, abs=1e-12)

    def test_degenerate_ladder(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "C": -1.0}))
        out = tmp_path / "sp.json"
        run(["spectrum", "--config", path, "--out", str(out), "--nmax", "2"])
        rep = json.loads(out.read_text())
        assert rep["kind"] == "degenerate-ladder"
        assert [lvl["energy"] for lvl in rep["levels"]] == pytest.approx([0.25, 0.75, 1.25])

    def test_axial_spectrum(self, tmp_path):
        cfg = dict(BASE, N=3, field={"Bvec": [0, 0, 1.0], "Cvec": [0, 0, 0.0]})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sp.json"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["kind"] == "axial"
        assert rep["levels"][0]["energy"] == pytest.approx(np.sqrt(5) / 2 + 0.5, abs=1e-12)

    def test_extreme_planar_fields_without_warnings(self, tmp_path):
        # kappa' overflows to inf inside n2_frequencies; it is not part of
        # the report, which stays finite.  RuntimeWarnings fail the suite.
        path = write_config(tmp_path, dict(BASE, field={"B": 1e300, "C": 1e-300}))
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--config", path, "--out", str(out), "--nmax", "1"]) == cli.EXIT_OK
        assert json.loads(out.read_text())["frequencies"] == [5e299, 1e-300]

    def test_crossed_axial_fields_rejected(self, tmp_path):
        cfg = dict(BASE, N=3, field={"Bvec": [0, 0, 1.0], "Cvec": [1.0, 0, 0]})
        path = write_config(tmp_path, cfg)
        assert run(["spectrum", "--config", path]) == cli.EXIT_CONFIG


class TestSizeCaps:
    """simulate, spectrum and limit-scan refuse over-cap sizes with exit 1
    before any array is allocated: the configs below would need petabytes."""

    @pytest.mark.parametrize("field,state", [
        ({"B": 1.0, "C": 0.5}, [1.0, 0.0, 0.0, 1.0]),
        ({"B": -1.0, "C": 1.0}, [1.0, 0.0, 0.0, -1.0]),  # chi = 0 route
    ])
    @pytest.mark.parametrize("time", [
        {"t_final": 1e9, "dt": 1e-6},      # 1e15 rows
        {"t_final": 1e300, "dt": 1e-300},  # t_final / dt overflows to inf
    ])
    def test_simulate_over_cap(self, tmp_path, capsys, field, state, time):
        path = write_config(tmp_path, dict(BASE, field=field, state=state, time=time))
        out = tmp_path / "big.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ncphase: config error: t_final/dt = ")
        assert f"exceeds the cap of {cli.MAX_STATE_VALUES} state values" in err
        assert not out.exists()

    def test_simulate_cap_boundary(self, tmp_path, monkeypatch):
        # t_final / dt = 10: 11 rows of 2N = 4 values.
        cfg = dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        monkeypatch.setattr(cli, "MAX_STATE_VALUES", 44)
        assert run(["simulate", "--config", path, "--out", str(tmp_path / "a.csv")]) == cli.EXIT_OK
        monkeypatch.setattr(cli, "MAX_STATE_VALUES", 43)
        assert run(["simulate", "--config", path, "--out", str(tmp_path / "b.csv")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("field,N", [
        ({"B": 1.0, "C": 0.5}, 2),
        ({"B": -1.0, "C": 1.0}, 2),  # one-mode degenerate ladder
        ({"Bvec": [0, 0, 1.0], "Cvec": [0, 0, 0.5]}, 3),
    ])
    def test_spectrum_over_cap(self, tmp_path, capsys, field, N):
        path = write_config(tmp_path, dict(BASE, N=N, field=field))
        out = tmp_path / "big.json"
        # (10^12)^d levels, at least 1e12.
        code = run(["spectrum", "--config", path, "--out", str(out), "--nmax", str(10**12)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"ncphase: config error: nmax = {10**12} gives (nmax + 1)^")
        assert err.endswith(f"levels, above the cap of {spectrum.MAX_LEVELS}\n")
        assert not out.exists()

    def test_spectrum_cap_boundary(self, tmp_path, monkeypatch):
        cfg = dict(BASE, N=3, field={"Bvec": [0, 0, 1.0], "Cvec": [0, 0, 0.5]})
        path = write_config(tmp_path, cfg)
        monkeypatch.setattr(spectrum, "MAX_LEVELS", 27)
        out = tmp_path / "a.json"
        assert run(["spectrum", "--config", path, "--out", str(out), "--nmax", "2"]) == cli.EXIT_OK
        assert len(json.loads(out.read_text())["levels"]) == 27
        out = tmp_path / "b.json"
        assert run(["spectrum", "--config", path, "--out", str(out), "--nmax", "3"]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_limit_scan_over_cap(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "C": 0.5}))
        out = tmp_path / "big.csv"
        code = run(["limit-scan", "--config", path, "--out", str(out), "--points", str(10**12)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"ncphase: config error: --points {10**12} exceeds the cap of "
            f"{cli.MAX_SCAN_POINTS} scan points\n")
        assert not out.exists()

    def test_limit_scan_cap_boundary(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, BASE)
        monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 5)
        out = tmp_path / "a.csv"
        assert run(["limit-scan", "--config", path, "--out", str(out), "--points", "5"]) == cli.EXIT_OK
        assert len(out.read_text().splitlines()) == 6
        out = tmp_path / "b.csv"
        assert run(["limit-scan", "--config", path, "--out", str(out), "--points", "6"]) == cli.EXIT_CONFIG
        assert not out.exists()


class TestLimitScan:
    def test_scan_columns_and_trivial_row(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "scan.csv"
        code = run(["limit-scan", "--config", path, "--out", str(out),
                    "--eps-min", "1", "--eps-max", "1", "--points", "1"])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,omega_plus,omega_minus,omega_r_target,fast_amplitude"
        row = [float(v) for v in lines[1].split(",")]
        fr = dynamics.n2_frequencies(dynamics.OscillatorModel(m=1, kappa=1), 1.0, 0.0)
        assert row[1] == pytest.approx(fr.omega_plus)
        assert row[2] == pytest.approx(fr.omega_minus)

    def test_scan_orders(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "scan.csv"
        run(["limit-scan", "--config", path, "--out", str(out),
             "--eps-min", "1e-3", "--eps-max", "1e-1", "--points", "9"])
        rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        eps = np.array([r[0] for r in rows])
        defect = np.array([abs(r[2] - r[3]) for r in rows])
        slope = np.polyfit(np.log(eps), np.log(defect), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


    @pytest.mark.parametrize("bounds", [
        ["--eps-max", "inf", "--points", "3"],
        ["--eps-min", "inf", "--eps-max", "inf"],
        ["--eps-min", "nan"],
        ["--eps-max", "nan"],
    ])
    def test_non_finite_bounds_refused(self, tmp_path, capsys, bounds):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "scan.csv"
        code = run(["limit-scan", "--config", path, "--out", str(out), *bounds])
        assert code == cli.EXIT_CONFIG
        assert "finite 0 < eps_min <= eps_max" in capsys.readouterr().err
        assert not out.exists()


class TestNumericalFailure:
    """Numerical failures exit 2 with their own message, not as config
    errors (LinAlgError subclasses ValueError) or tracebacks."""

    def test_singular_inverse_in_darboux(self, tmp_path, capsys):
        # chi = 2, but the generic cross-check's symplectic Gram-Schmidt
        # meets a non-finite basis pair and raises ArithmeticError.
        cfg = dict(BASE, field={"B": 1e300, "C": 1e-300})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "d.json"
        assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: ")
        assert "config error" not in err
        assert not out.exists()

    def test_extreme_scale_darboux_writes_one_stderr_line(self, tmp_path):
        # The generic cross-check's balanced pair underflows at these
        # scales; the refusal must not come with numpy RuntimeWarnings.
        path = write_config(tmp_path, dict(BASE, field={"B": 1e300, "C": 1e-300}))
        out = tmp_path / "d.json"
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "ncphase.cli", "darboux",
             "--config", path, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == cli.EXIT_SINGULAR
        assert proc.stderr.splitlines() == [
            "ncphase: numerical failure: non-finite basis pair at pair 0"
        ]
        assert not out.exists()

    def test_poisson_cross_check_failure(self, tmp_path, capsys, monkeypatch):
        # A perturbed dense Omega makes the real cross-check in
        # structure.poisson_matrix raise its ArithmeticError.
        build = structure.build_omega
        monkeypatch.setattr(structure, "build_omega", lambda cfg: 1.5 * build(cfg))
        path = write_config(tmp_path, BASE)
        assert run(["brackets", "--config", path]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: closed-form Poisson blocks")

    def test_darboux_contract_failure(self, tmp_path, capsys, monkeypatch):
        # A residual above its bound makes darboux._finish raise.
        monkeypatch.setattr(darboux, "verify_darboux", lambda dmap, omega: 1.0)
        path = write_config(tmp_path, BASE)
        assert run(["darboux", "--config", path]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: constructed map violates")


    def test_non_finite_brackets_refused(self, tmp_path, capsys):
        # chi = 1 + 1e600 overflows: det Psi and the Poisson blocks are not
        # finite, and json.dumps would have written Infinity and NaN.
        path = write_config(tmp_path, dict(BASE, field={"B": 1e300, "C": 1e300}))
        out = tmp_path / "br.json"
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: non-finite number ")
        assert err.endswith(" in the JSON output\n")
        assert not out.exists()

    def test_non_finite_spectrum_refused(self, tmp_path, capsys):
        # m kappa = 1 but omega0^2 = kappa / m overflows to inf.
        path = write_config(tmp_path, dict(BASE, model={"m": 1e-300, "kappa": 1e300}))
        out = tmp_path / "sp.json"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: non-finite ")
        assert err.endswith(" in the JSON output\n")
        assert not out.exists()

    def test_non_finite_level_energy_refused(self, tmp_path, capsys):
        # Finite frequencies and hbar, but hbar (n + 1/2) . omega overflows
        # above the ground state: the templated level records are checked too.
        cfg = dict(BASE, field={"B": 0.0, "C": 0.0},
                   model={"m": 1.0, "kappa": 1.0, "hbar": 1e308})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sp.json"
        code = run(["spectrum", "--config", path, "--out", str(out), "--nmax", "1"])
        assert code == cli.EXIT_SINGULAR
        assert capsys.readouterr().err == (
            "ncphase: numerical failure: non-finite level energy in the JSON output\n")
        assert not out.exists()


class TestReduce:
    def test_nondegenerate_single_link(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "red.json"
        assert run(["reduce", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["status"] == "consistent"
        assert rep["dimensions"] == [4]

    def test_degenerate_chain(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "C": -1.0}))
        out = tmp_path / "red.json"
        assert run(["reduce", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["dimensions"] == [4, 2]
        assert sorted(rep["eigenvalues"]["imag"]) == pytest.approx([-0.5, 0.5], abs=1e-10)
        assert rep["eigenvalues"]["real"] == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_inconsistent_problem_block(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "N": 2,
            "problem": {
                "omega": [[0, -1, 1, 0], [1, 0, 0, 1], [-1, 0, 0, -1], [0, -1, 1, 0]],
                "hessian": [[0] * 4] * 4,
                "gradient": [1.0, 0.0, 0.0, 0.0],
            },
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "inc.json"
        assert run(["reduce", "--config", path, "--out", str(out)]) == cli.EXIT_INCONSISTENT
        rep = json.loads(out.read_text())
        assert rep["status"] == "inconsistent"


    def test_rank_loss_in_chain_exits_instead_of_looping(self, tmp_path):
        # The relative SVD cutoff dropped rows of the accumulated constraints
        # once the new rows reached ~1e184, so the chain alternated between
        # row counts and never closed, growing without bound.
        cfg = dict(BASE, field={"B": 1e200, "C": 1.0}, model={"m": 1.0, "kappa": 1e200})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "red.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ncphase.cli", "reduce", "--config", path,
             "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.EXIT_SINGULAR
        assert proc.stderr.startswith("ncphase: numerical failure: constraint rows lost rank")
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        jobs = [
            (["brackets"], BASE),
            (["darboux"], dict(BASE, field={"B": 3.0, "C": 1.0})),
            (["simulate"], dict(BASE, state=[1.0, 0.0, 0.0, 1.0],
                                time={"t_final": 2.0, "dt": 0.05, "method": "midpoint"})),
            (["spectrum", "--nmax", "3"], dict(BASE, field={"B": 1.0, "C": 0.0})),
            (["limit-scan", "--points", "5"], BASE),
            (["reduce"], dict(BASE, field={"B": 1.0, "C": -1.0})),
        ]
        for argv, cfg in jobs:
            path = write_config(tmp_path, cfg, name=f"{argv[0]}.json")
            out_a = tmp_path / f"{argv[0]}-a.out"
            out_b = tmp_path / f"{argv[0]}-b.out"
            assert run([argv[0], "--config", path, "--out", str(out_a)] + argv[1:]) == cli.EXIT_OK
            assert run([argv[0], "--config", path, "--out", str(out_b)] + argv[1:]) == cli.EXIT_OK
            assert out_a.read_bytes() == out_b.read_bytes(), argv[0]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_config(tmp_path, BASE)
        proc = subprocess.run(
            [sys.executable, "-m", "ncphase.cli", "brackets", "--config", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "ok"

    def test_import_and_scipy_free_routes_do_not_load_scipy(self, tmp_path):
        # scipy is needed only for the matrix exponential of the exact method.
        midpoint = write_config(tmp_path, dict(
            BASE, state=[1.0, 0.0, 0.0, 1.0],
            time={"t_final": 1.0, "dt": 0.1, "method": "midpoint"}), name="mid.json")
        degenerate = write_config(tmp_path, dict(
            BASE, field={"B": 1.0, "C": -1.0}, state=[1.0, 0.0, 0.0, 1.0],
            time={"t_final": 1.0, "dt": 0.1}), name="deg.json")
        script = f"""
import sys
import ncphase.cli
assert "scipy" not in sys.modules, "import"
for argv in (["brackets", "--config", {midpoint!r}],
             ["simulate", "--config", {midpoint!r}],
             ["simulate", "--config", {degenerate!r}]):
    assert ncphase.cli.main(argv + ["--out", {str(tmp_path / "out")!r}]) == 0
    assert "scipy" not in sys.modules, argv
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_exact_simulate_and_finite_rotation_do_not_load_scipy(self, tmp_path):
        # The matrix exponential is numpy's own: no ncphase route needs scipy.
        rng = np.random.default_rng(3)
        upper = np.triu(rng.normal(0.0, 0.1, (4, 4)), 1)
        lower = np.triu(rng.normal(0.0, 0.1, (4, 4)), 1)
        time = {"t_final": 1.0, "dt": 0.1, "method": "exact"}
        configs = [
            dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time=time),
            {"schema_version": 1, "N": 3,
             "field": {"Bvec": [0.0, 0.0, 1.0], "Cvec": [0.0, 0.0, 0.5]},
             "model": BASE["model"], "state": [1.0, 0.0, 0.5, 0.0, 1.0, 0.2],
             "time": time},
            {"schema_version": 1, "N": 4,
             "field": {"eF": (upper - upper.T).tolist(), "rG": (lower - lower.T).tolist()},
             "model": BASE["model"], "state": [0.5] * 8, "time": time},
        ]
        paths = [write_config(tmp_path, c, name=f"exact{i}.json") for i, c in enumerate(configs)]
        script = f"""
import sys
import ncphase.cli
from ncphase import symmetry
for path in {paths!r}:
    assert ncphase.cli.main(["simulate", "--config", path, "--out", {str(tmp_path / "out")!r}]) == 0
    assert "scipy" not in sys.modules, path
symmetry.finite_rotation(3, {{(0, 1): 0.7, (1, 2): -0.2}})
assert "scipy" not in sys.modules, "finite_rotation"
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _json_oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


_rng = np.random.default_rng(11)
_upper = np.triu(_rng.normal(0.0, 0.5, (4, 4)), 1)
_lower = np.triu(_rng.normal(0.0, 0.5, (4, 4)), 1)
_GENERIC = {"schema_version": 1, "N": 4,
            "field": {"eF": (_upper - _upper.T).tolist(), "rG": (_lower - _lower.T).tolist()},
            "model": BASE["model"]}
_AXIAL = dict(BASE, N=3, field={"Bvec": [0, 0, 1.0], "Cvec": [0, 0, 0.5]})
_PROBLEM = {"schema_version": 1, "N": 2, "problem": {
    "omega": [[0, -1, 1, 0], [1, 0, 0, 1], [-1, 0, 0, -1], [0, -1, 1, 0]],
    "hessian": [[0] * 4] * 4, "gradient": [1.0, 0.0, 0.0, 0.0]}}


class TestJsonWriter:
    """The JSON subcommands write exactly json.dumps(indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("argv, cfg, code", [
        (["brackets"], BASE, cli.EXIT_OK),
        (["brackets"], dict(BASE, field={"B": 1.0, "C": -1.0}), cli.EXIT_SINGULAR),
        (["brackets"], _GENERIC, cli.EXIT_OK),
        (["darboux"], dict(BASE, field={"B": 3.0, "C": 1.0}), cli.EXIT_OK),
        (["darboux"], dict(BASE, field={"B": 3.0, "C": -1.0}), cli.EXIT_OK),
        (["darboux"], dict(_AXIAL, field={"Bvec": [0.3, 0.1, 1.0], "Cvec": [0.2, -0.4, 0.5]}),
         cli.EXIT_OK),
        (["darboux"], _GENERIC, cli.EXIT_OK),
        (["spectrum", "--nmax", "3"], dict(BASE, field={"B": 1.0, "C": 0.0}), cli.EXIT_OK),
        (["spectrum", "--nmax", "0"], dict(BASE, field={"B": 0.0, "C": 0.0}), cli.EXIT_OK),
        (["spectrum", "--nmax", "5"], dict(BASE, field={"B": 1.0, "C": -1.0}), cli.EXIT_OK),
        (["spectrum", "--nmax", "4"], _AXIAL, cli.EXIT_OK),
        (["reduce"], BASE, cli.EXIT_OK),
        (["reduce"], dict(BASE, field={"B": 1.0, "C": -1.0}), cli.EXIT_OK),
        (["reduce"], _GENERIC, cli.EXIT_OK),
        (["reduce"], _PROBLEM, cli.EXIT_INCONSISTENT),
    ], ids=["brackets", "brackets-singular", "brackets-generic", "darboux-n2",
            "darboux-negative-chi", "darboux-n3", "darboux-generic", "spectrum-planar",
            "spectrum-nmax0", "spectrum-degenerate", "spectrum-axial", "reduce",
            "reduce-degenerate", "reduce-generic", "reduce-inconsistent"])
    def test_output_bytes_equal_json_dumps(self, tmp_path, capsys, argv, cfg, code):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out.json"
        assert run([argv[0], "--config", path, "--out", str(out)] + argv[1:]) == code
        text = out.read_text()
        assert text == _json_oracle(json.loads(text)) + "\n"
        # stdout carries the same bytes.
        capsys.readouterr()
        assert run([argv[0], "--config", path] + argv[1:]) == code
        assert capsys.readouterr().out == text

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=8), children, max_size=5),
        max_leaves=40,
    ))
    @example(-0.0)
    @example([5e-324, 1e-300, 1e308, -1.7976931348623157e308, 1e16, 0.1])
    @example({"big": 2**200, "neg": -(2**70), "bools": [True, False, None], "empty": [[], {}]})
    @example({"q\"uote": "back\\slash \x00\x1f\x7f é \U0001f600 \ud800", "": ""})
    @example([[1.0, 2], [3.0, True], (4.0, 5.0)])
    def test_matches_json_dumps(self, obj):
        assert cli._json_text(obj) == _json_oracle(obj)

    @pytest.mark.parametrize("obj", [
        float("nan"), float("inf"), [float("-inf")], [1.0, 2.0, float("nan")],
        [1, float("inf")], {"a": [[0.0], [float("nan")]]}, (np.float64("inf"),),
    ])
    def test_non_finite_float_raises(self, obj):
        with pytest.raises(ArithmeticError, match="non-finite number"):
            cli._json_text(obj)

    @pytest.mark.parametrize("obj", [np.int64(1), [np.float32(1.0)], {"a": object()}])
    def test_unsupported_type_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            _json_oracle(obj)
        with pytest.raises(TypeError):
            cli._json_text(obj)
