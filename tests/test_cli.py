import argparse
import contextlib
import errno
import functools
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from ncphase import cli, darboux, dynamics, g17, spectrum, structure
from ncphase.errors import StepRejected

import closed_forms as cf

BASE = {
    "schema_version": 1,
    "N": 2,
    "field": {"B": 1.0, "C": 1.0},
    "model": {"m": 1.0, "kappa": 1.0},
}
UNIT = dynamics.OscillatorModel(m=1.0, kappa=1.0)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(argv):
    return cli.main(argv)


_PROBLEM_N1 = {"schema_version": 1, "N": 1, "problem": {
    "omega": [[0.0, 1.0], [-1.0, 0.0]], "hessian": [[1.0, 0.0], [0.0, 1.0]],
    "gradient": [0.0, 0.0]}}


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
        # The config is the one source of the tolerance: the environment
        # variable that used to set it is not read.
        cfg = dict(BASE, field={"B": 1.0, "C": 1e-4 - 1.0})
        out = tmp_path / "br.json"
        monkeypatch.setenv("NCPHASE_TOL_SINGULAR", "1e-6")
        path = write_config(tmp_path, cfg)
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        path = write_config(tmp_path, dict(cfg, tolerances={"singular": 1e-6}))
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR

    @pytest.mark.parametrize("section, value, key", [
        ("field", {"B": float("nan"), "C": 1.0}, "field.B"),
        ("field", {"B": 1.0, "C": float("inf")}, "field.C"),
        ("model", {"m": float("inf"), "kappa": 1.0}, "model.m"),
        ("model", {"m": 1.0, "Evec": [0.0, float("-inf")]}, "model.Evec[1]"),
        ("state", [1.0, 0.0, float("nan"), 1.0], "state[2]"),
        ("time", {"t_final": float("inf"), "dt": 0.1}, "time.t_final"),
        ("tolerances", {"singular": float("nan")}, "tolerances.singular"),
        # A ragged list is not one array: its items are tested one by one.
        ("state", [[1.0, 2.0], [float("nan")]], "state[1][0]"),
        # An integer literal beyond the float range.
        ("field", {"B": 10**400, "C": 1.0}, "field.B"),
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

    @pytest.mark.parametrize("section, value, where, got", [
        ("field", {"eF": [[0, "nan"], ["nan", 0]], "rG": [[0, 0], [0, 0]]},
         "field.eF[0][1]", '"nan"'),
        ("field", {"B": 1.0, "C": None}, "field.C", "null"),
        ("model", {"m": 1.0, "kappa": "1.5"}, "model.kappa", '"1.5"'),
        ("model", {"m": 1.0, "kappa": 1.0, "hbar": True}, "model.hbar", "true"),
        ("model", {"m": 1.0, "Evec": [0.0, {"x": 1}]}, "model.Evec[1]", '{"x": 1}'),
        ("state", [None, 0.0, 0.0, 1.0], "state[0]", "null"),
        ("state", ["1.5", 0.0, 0.0, 1.0], "state[0]", '"1.5"'),
        ("time", {"t_final": 1.0, "dt": False}, "time.dt", "false"),
        ("tolerances", {"singular": "1e-10"}, "tolerances.singular", '"1e-10"'),
    ])
    def test_non_numbers_refused(self, tmp_path, capsys, section, value, where, got):
        # numpy's float conversion takes numeric strings, null and booleans.
        cfg = dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1.0, "dt": 0.1})
        cfg[section] = value
        path = write_config(tmp_path, cfg)
        for command in ("brackets", "simulate"):
            out = tmp_path / "never.out"
            assert run([command, "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"ncphase: config error: {path}: {where} must be a JSON number, got {got}\n")
            assert not out.exists()

    @pytest.mark.parametrize("key", ["N", "schema_version"])
    def test_boolean_integer_keys_refused(self, tmp_path, key):
        path = write_config(tmp_path, dict(BASE, **{key: True}))
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG

    def test_non_numbers_in_problem_refused(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "N": 1, "problem": {
            "omega": [[0.0, 1.0], [-1.0, 0.0]], "hessian": [[1.0, 0.0], [0.0, 1.0]],
            "gradient": [0.0, "0"]}}
        path = write_config(tmp_path, cfg)
        assert run(["reduce", "--config", path]) == cli.EXIT_CONFIG
        assert 'problem.gradient[1] must be a JSON number, got "0"' in capsys.readouterr().err

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

    def test_finite_config_is_not_walked(self, tmp_path, monkeypatch):
        # The per-entry walk only names the key of a value that failed.
        def walk(value, where):
            raise AssertionError(f"walked {where}")

        monkeypatch.setattr(cli, "_check_finite", walk)
        cfg = dict(_GENERIC, state=[0.5] * 8, time={"t_final": 1.0, "dt": 0.1},
                   tolerances={"singular": 1e-10})
        rc = cli.load_config(write_config(tmp_path, cfg))
        assert rc.cfg.N == 4 and rc.state.shape == (8,)

    @pytest.mark.parametrize("tol", [-1.0, 0.0])
    def test_non_positive_tolerance_refused(self, tmp_path, capsys, tol):
        # At chi = 0 a negative tolerance used to end in "Singular matrix".
        cfg = dict(BASE, field={"B": 1.0, "C": -1.0}, tolerances={"singular": tol})
        path = write_config(tmp_path, cfg)
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG
        assert "tolerances.singular must be positive" in capsys.readouterr().err

    def test_tolerances_require_singular(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE, tolerances={}))
        assert run(["brackets", "--config", path]) == cli.EXIT_CONFIG
        assert "tolerances requires 'singular'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, message", [
        ("brackets", dict(BASE, model=5), "model must be a JSON object"),
        ("simulate", dict(BASE, time=5), "time must be a JSON object"),
        ("brackets", dict(BASE, tolerances=5), "tolerances must be a JSON object"),
        ("reduce", dict(_PROBLEM_N1, problem=5), "problem must be a JSON object"),
        ("brackets", dict(BASE, model=[]), "model must be a JSON object"),
        ("brackets", dict(BASE, model={"m": 1.0, "kappa": [1, 2]}), "model.kappa must be a number"),
        ("brackets", dict(BASE, field={"B": [1, 2], "C": 1.0}), "field.B must be a number"),
        ("brackets", dict(BASE, model={"m": 1.0, "Evec": 5}), "model.Evec must be a vector"),
        ("reduce", dict(_PROBLEM_N1, N=5),
         "problem.omega must have shape (10, 10), got (2, 2)"),
        ("reduce", dict(_PROBLEM_N1, problem=dict(_PROBLEM_N1["problem"], gradient=[[0, 0]])),
         "problem.gradient must be a vector"),
    ])
    def test_malformed_values_refused(self, tmp_path, capsys, command, cfg, message):
        # Sections that are not objects, ranks that do not match and problem
        # arrays that disagree with N: each used to end in a traceback, a
        # numpy message or exit 0.
        path = write_config(tmp_path, cfg)
        out = tmp_path / "never.out"
        assert run([command, "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"ncphase: config error: {path}: {message}\n"
        assert not out.exists()


_AXIAL_FIELD = {"Bvec": [0.0, 0.0, 1.0], "Cvec": [0.0, 0.0, 0.5]}


class TestRefusals:
    """Each refusal of a config or an option: exit 1, one stderr line that
    names it, and no output file.  ``{path}`` stands for the config path."""

    @pytest.mark.parametrize("command, cfg, extra, message", [
        ("brackets", "not json", [], "{path}: invalid JSON at line 1: Expecting value"),
        ("brackets", dict(BASE, N=3), [], "{path}: the B/C field form requires N = 2"),
        ("brackets", dict(BASE, field={"eF": [[0.0, 1.0], [0.5, 0.0]],
                                       "rG": [[0.0, 0.0], [0.0, 0.0]]}), [],
         "{path}: invalid field section: eF is not antisymmetric"),
        ("brackets", dict(BASE, model={"m": 1.0, "kappa": -1.0}), [],
         "{path}: invalid model: kappa must be nonnegative, got -1.0"),
        ("simulate", BASE, [], "this subcommand requires a time grid in the config"),
        ("spectrum", BASE, ["--nmax", "-1"], "nmax must be nonnegative, got -1"),
        ("limit-scan", dict(BASE, N=3, field=_AXIAL_FIELD), [],
         "the limit scan requires the scalar B/C field form"),
        ("brackets", dict(BASE, model={"m": 0, "kappa": 1.0}), [],
         "{path}: invalid model: mass must be positive, got 0.0"),
        ("brackets", dict(BASE, model={"m": 1.0, "kappa": 1.0, "hbar": 0}), [],
         "{path}: invalid model: hbar must be positive, got 0.0"),
        ("limit-scan", dict(BASE, field={"B": -1.0, "C": 1.0}), [],
         "the scan fixes the orientation B > 0"),
        ("brackets", dict(BASE, model={"m": 1.0, "kappa": 1.0, "Evec": [1.0, 0.0]}), [],
         "{path}: model requires exactly one of 'kappa' or 'Evec'"),
    ], ids=["invalid-json", "bc-at-n3", "eF-not-antisymmetric", "negative-kappa",
            "missing-time", "negative-nmax", "limit-scan-vector-field", "zero-mass",
            "zero-hbar", "limit-scan-negative-B", "kappa-and-Evec"])
    def test_refusal_names_its_cause(self, tmp_path, capsys, command, cfg, extra, message):
        path = tmp_path / "config.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        out = tmp_path / "never.out"
        assert run([command, "--config", str(path), "--out", str(out)] + extra) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "ncphase: config error: " + message.format(path=path) + "\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, out, message", [
        ("dir", "never.out", "cannot read config file {config}: " + os.strerror(errno.EISDIR)),
        ("config.json", "dir", "cannot write {out}: " + os.strerror(errno.EISDIR)),
        ("config.json", "missing/never.out", "cannot write {out}: " + os.strerror(errno.ENOENT)),
    ], ids=["config-is-a-directory", "out-is-a-directory", "out-in-a-missing-directory"])
    def test_file_error_names_its_path(self, tmp_path, capsys, config, out, message):
        # Each used to end in a traceback.
        write_config(tmp_path, BASE)
        (tmp_path / "dir").mkdir()
        config, out = str(tmp_path / config), str(tmp_path / out)
        assert run(["brackets", "--config", config, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "ncphase: config error: " + message.format(config=config, out=out) + "\n")
        # No temp file is left behind, and nothing is written.
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "dir"]


class TestLinearPotential:
    """`simulate` and `reduce` with a constant force Evec, in process,
    against the generator (M, k) of the closed-form Psi/Phi solve and
    scipy's expm of the augmented generator."""

    M, EVEC = 1.3, np.array([0.4, -0.7])
    CFG = dict(BASE, field={"B": 0.6, "C": 0.4}, model={"m": 1.3, "Evec": [0.4, -0.7]},
               state=[0.1, -0.2, 0.4, 0.0], time={"t_final": 2.0, "dt": 0.25})

    def oracle(self):
        fields = structure.field_config_n2(0.6, 0.4)
        hess = np.diag([0.0, 0.0, 1.0 / self.M, 1.0 / self.M])
        flow = np.column_stack([cf.hamiltonian_vector_field(fields, col) for col in hess.T])
        offset = cf.hamiltonian_vector_field(fields, np.r_[-self.EVEC, 0.0, 0.0])
        return flow, offset

    def test_simulate_rows_and_energy(self, tmp_path):
        header, table = simulate_table(tmp_path, self.CFG)
        assert header == ["t", "q1", "q2", "p1", "p2", "H", "Lambda3"]
        flow, offset = self.oracle()
        aug = np.zeros((5, 5))
        aug[:4, :4], aug[:4, 4] = flow, offset
        want = np.array([(scipy_expm(t * aug) @ np.r_[self.CFG["state"], 1.0])[:4]
                         for t in table[:, 0]])
        assert np.abs(table[:, 1:5] - want).max() <= 1e-13
        q, p = want[:, :2], want[:, 2:]
        energy = (p * p).sum(1) / (2 * self.M) - q @ self.EVEC
        assert np.abs(table[:, 5] - energy).max() <= 1e-14

    def test_reduce_flow_and_eigenvalues(self, tmp_path):
        path = write_config(tmp_path, self.CFG)
        out = tmp_path / "r.json"
        assert run(["reduce", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        flow, offset = self.oracle()
        assert np.abs(np.array(report["terminal_flow"]) - flow).max() <= 1e-15
        assert np.abs(np.array(report["flow_offset"]) - offset).max() <= 1e-15
        # M = [[0, Lambda_qp / m], [0, Lambda_pp / m]]: 0, 0 and +-i |Lambda_pp| / m.
        w = abs(flow[2, 3])
        assert report["eigenvalues"]["real"] == [0.0] * 4
        assert np.abs(np.array(report["eigenvalues"]["imag"]) - [-w, 0.0, 0.0, w]).max() <= 1e-15


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


def symplectic_error(s):
    """Max-abs entry of S^T J S - J."""
    n = s.shape[0] // 2
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return np.abs(s.T @ j @ s - j).max()


class TestDarboux:
    def test_closed_route(self, tmp_path):
        # Planar and spatial fields take the generic route; the paper's
        # closed-form chart, a test oracle, differs from the printed map by
        # a symplectic matrix: T_closed T^-1.
        for n, field, closed in [
            (2, {"B": 3.0, "C": 1.0}, cf.darboux_n2(3.0, 1.0)),
            (3, {"Bvec": [0.3, 0.1, 1.0], "Cvec": [0.2, -0.4, 0.5]},
             cf.darboux_n3([0.3, 0.1, 1.0], [0.2, -0.4, 0.5])),
        ]:
            path = write_config(tmp_path, dict(BASE, N=n, field=field))
            out = tmp_path / "dx.json"
            assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_OK
            rep = json.loads(out.read_text())
            assert rep["route"] == "generic" and "note" not in rep
            assert rep["residual"] <= 1e-15
            assert rep["sp_equivalence_residual"] <= 1e-15
            assert symplectic_error(closed.T @ np.array(rep["Tinv"])) <= 1e-12

    def test_negative_chi_routes_to_generic(self, tmp_path):
        # chi = -2: the paper's chart does not exist, and the generic map
        # is written without a note.
        with pytest.raises(cf.NegativeChi):
            cf.darboux_n2(3.0, -1.0)
        path = write_config(tmp_path, dict(BASE, field={"B": 3.0, "C": -1.0}))
        out = tmp_path / "dx.json"
        assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["route"] == "generic"
        assert "note" not in rep
        assert rep["residual"] <= 1e-8

    def test_identity_for_zero_fields(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, field={"B": 0.0, "C": 0.0}))
        out = tmp_path / "dx.json"
        run(["darboux", "--config", path, "--out", str(out)])
        rep = json.loads(out.read_text())
        assert np.allclose(rep["T"], np.eye(4))

    def test_chi_zero_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE, field={"B": 1.0, "C": -1.0}))
        out = tmp_path / "dx.json"
        assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        assert capsys.readouterr().err == (
            "ncphase: singular structure: det Psi = 0.000e+00 below tolerance 1.0e-10; "
            "use the constrained module\n")
        assert not out.exists()

    def test_large_tolerance_keeps_a_regular_field(self, tmp_path):
        # det Psi = 6.25 passes tolerances.singular = 4, and the generic
        # cross-check has no tolerance of its own to refuse it with.
        cfg = dict(BASE, field={"B": 1.0, "C": 1.5}, tolerances={"singular": 4.0})
        out = tmp_path / "dx.json"
        assert run(["darboux", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["route"] == "generic"
        assert rep["residual"] <= 1e-15 * 1.5
        assert rep["sp_equivalence_residual"] <= 1e-15


class TestOneRegularityDecision:
    """`structure.regularity` is the one regular/degenerate decision of a
    field config: each of `brackets`, `darboux`, `simulate`, `spectrum` and
    `reduce` asks it once per run and takes the route it gives."""

    CHIS = (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5, 1e-3, -1e-3)

    @staticmethod
    def singular_route(tmp_path, capsys, command, path, fields):
        out = tmp_path / f"{command}.out"
        out.unlink(missing_ok=True)
        code = run([command, "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        if command == "darboux":
            return code == cli.EXIT_SINGULAR and "det Psi" in err
        assert out.exists(), (command, code, err)
        text = out.read_text()
        if command == "brackets":
            return json.loads(text)["status"] == "singular"
        if command == "simulate":
            return text.split("\n", 1)[0].endswith(",constraint_residual")
        if command == "spectrum":
            return json.loads(text)["kind"] == "degenerate-ladder"
        # Near chi = 0 the degenerate chain may find no constraint row, so
        # the route shows in the flow: the regular one is what `simulate`
        # steps, that of `dynamics.flow_matrix`, bit for bit.
        rep = json.loads(text)
        try:
            want = dynamics.flow_matrix(structure.poisson_matrix(fields), UNIT)
        except (ArithmeticError, np.linalg.LinAlgError):  # no Lambda at chi = 0
            return True
        if not (np.array_equal(rep["terminal_flow"], want[0])
                and np.array_equal(rep["flow_offset"], want[1])):
            return True
        n = 2 * fields.N
        assert (rep["dimensions"], rep["gauge_dimension"], rep["constraints"]) == (
            [n], 0, {"matrix": [], "offset": []})
        return False

    @pytest.mark.parametrize("tol", [None, 1e-6, 1e-16])
    @pytest.mark.parametrize("n", [2, 3])
    def test_subcommands_agree_on_the_route(self, tmp_path, capsys, monkeypatch, n, tol):
        calls = []
        regularity = structure.regularity

        def counted(*args):
            calls.append(args)
            return regularity(*args)

        monkeypatch.setattr(structure, "regularity", counted)
        routes = {}
        for chi in self.CHIS:
            field = ({"B": 1.0, "C": -1.0 + chi} if n == 2 else
                     {"Bvec": [0.0, 0.0, 1.0], "Cvec": [0.0, 0.0, -1.0 + chi]})
            fields = (structure.field_config_n2(**field) if n == 2 else
                      structure.field_config_n3(**field))
            cfg = dict(BASE, N=n, field=field, state=[0.0] * (2 * n),
                       time={"t_final": 1.0, "dt": 0.5})
            if tol is not None:
                cfg["tolerances"] = {"singular": tol}
            path = write_config(tmp_path, cfg)
            routes[chi] = set()
            for command in ("brackets", "darboux", "simulate", "spectrum", "reduce"):
                calls.clear()
                routes[chi].add(self.singular_route(tmp_path, capsys, command, path, fields))
                assert len(calls) == 1, (command, chi, len(calls))
        assert all(len(seen) == 1 for seen in routes.values()), routes
        # Both routes are taken on the grid, chi = 0 singular and 1e-3 not.
        assert routes[0.0] == {True} and routes[1e-3] == {False}

    def test_lambda3_follows_the_chart(self, tmp_path):
        # At a 1e-30 gate the regular route reaches chi = 3e-11, where the
        # paper's chart exists: the Lambda3 column is the angular momentum
        # of the rows mapped by its T.  At chi = 1e-13 the chart fails its
        # contract, and the column is still the rotation's moment map of
        # the written rows, evaluated in mpmath.
        cfg = dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1.0, "dt": 0.25},
                   tolerances={"singular": 1e-30})
        header, table = simulate_table(tmp_path, dict(cfg, field={"B": 1.0, "C": -1.0 + 3e-11}))
        assert header[-1] == "Lambda3"
        l3 = cf.chart_lambda3(cf.darboux_n2(1.0, -1.0 + 3e-11), table[:, 1:5])
        assert np.abs(table[:, -1] - l3).max() <= 1e-12 * np.abs(l3).max()
        fields = structure.field_config_n2(1.0, -1.0 + 1e-13)
        assert cf.closed_form_chart(fields) is None
        header, table = simulate_table(tmp_path, dict(cfg, field={"B": 1.0, "C": -1.0 + 1e-13}))
        assert header[-1] == "Lambda3"
        want = cf.moment_map_mpmath(fields, table[:, 1:5])
        assert (np.abs(table[:, -1] - want)
                <= 8 * np.finfo(float).eps * cf.moment_map_scale(fields, table[:, 1:5])).all()


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

    @pytest.mark.parametrize("field, z0", [
        ({"B": 1.0, "C": 0.5}, [1.0, 0.0, 0.0, 1.0]),
        ({"B": -1.0, "C": 1.0}, [1.0, 0.0, 0.0, -1.0]),  # chi = 0, on the constraints
    ], ids=["planar", "degenerate"])
    def test_step_rejection_exit_code(self, tmp_path, monkeypatch, capsys, field, z0):
        # No in-scope config degenerates the midpoint resolvent (the flow
        # spectra are purely imaginary), so the stepping core's one-step
        # map is made to refuse; both routes reach it through affine_flow.
        def reject(*args, **kwargs):
            raise StepRejected("forced", suggested_dt=0.01)

        monkeypatch.setattr(dynamics, "midpoint_transfer", reject)
        cfg = dict(BASE, field=field, state=z0,
                   time={"t_final": 1.0, "dt": 0.5, "method": "midpoint"})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "rej.csv"
        code = run(["simulate", "--config", path, "--out", str(out)])
        assert code == cli.EXIT_STEP_REJECTED
        assert capsys.readouterr().err == (
            "ncphase: step rejected: forced (try dt <= 1.000e-02)\n")
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
        # B = 1e300, C = 1e-300, m = 1: the ~990 squarings of the exact
        # propagator overflow.  m = 1e-10: Lambda . Hess(H) itself overflows
        # in flow_matrix, on both methods.  Evec = 1e300 or kappa = 1e300
        # with dt = 1e9: the step's products k dt and M dt overflow, on
        # both methods.  numpy must not print a RuntimeWarning beside the
        # refusal.
        line = ("ncphase simulate: non-finite trajectory (overflow or invalid "
                "arithmetic in the flow); no output written")
        short, long = {"t_final": 1.0, "dt": 0.1}, {"t_final": 1e10, "dt": 1e9}
        cases = [
            ({"B": 1e300, "C": 1e-300}, {"m": 1.0, "kappa": 1.0}, short, "exact"),
            ({"B": 1e300, "C": 1e-300}, {"m": 1e-10, "kappa": 1.0}, short, "exact"),
            ({"B": 1e300, "C": 1e-300}, {"m": 1e-10, "kappa": 1.0}, short, "midpoint"),
            ({"B": 1.0, "C": 0.5}, {"m": 1.0, "Evec": [1e300, 0.0]}, long, "exact"),
            ({"B": 1.0, "C": 0.5}, {"m": 1.0, "Evec": [1e300, 0.0]}, long, "midpoint"),
            ({"B": 1.0, "C": 0.5}, {"m": 1.0, "kappa": 1e300}, long, "exact"),
        ]
        for i, (field, model, time, method) in enumerate(cases):
            cfg = dict(BASE, field=field, model=model, state=[1.0, 0.0, 0.0, 1.0],
                       time=dict(time, method=method))
            path = write_config(tmp_path, cfg, name=f"config{i}.json")
            out = tmp_path / "nan.csv"
            proc = subprocess.run(
                [sys.executable, "-W", "always", "-m", "ncphase.cli", "simulate",
                 "--config", path, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == cli.EXIT_SINGULAR, cases[i]
            assert proc.stderr.splitlines() == [line], cases[i]
            assert not out.exists()

    def test_chart_without_finite_coefficients_keeps_lambda3(self, tmp_path):
        # Axial Bz = Cz = 1e300: chi overflows, but the transverse Lambda
        # block of about 1e-300 is representable.  The paper's chart has no
        # finite coefficients; the Lambda3 column is the rotation's moment
        # map, which needs none, and no warning is written.  The rows are
        # those of a 700-digit mpmath flow, and the column that of a
        # 50-digit moment map of each row.
        cfg = {"schema_version": 1, "N": 3,
               "field": {"Bvec": [0.0, 0.0, 1e300], "Cvec": [0.0, 0.0, 1e300]},
               "model": BASE["model"], "state": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
               "time": {"t_final": 1.0, "dt": 0.5}}
        out = tmp_path / "axial.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "ncphase.cli", "simulate",
             "--config", write_config(tmp_path, cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
        assert out.read_text().splitlines()[0] == "t,q1,q2,q3,p1,p2,p3,H,Lambda3"
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        fields = structure.field_config_n3(*cfg["field"].values())
        want = cf.trajectory_mpmath(fields, UNIT, cfg["state"], rows[:, 0])
        assert np.abs(rows[:, 1:7] - want).max() <= 1e-16
        assert np.abs(rows[1:, [2, 4]] / want[1:, [1, 3]] - 1.0).max() <= 1e-15
        lam3 = cf.moment_map_mpmath(fields, rows[:, 1:7])
        assert (np.abs(rows[:, -1] - lam3)
                <= 8 * np.finfo(float).eps * cf.moment_map_scale(fields, rows[:, 1:7])).all()

    def test_off_constraint_initial_state(self, tmp_path):
        cfg = dict(BASE, field={"B": 1.0, "C": -1.0}, state=[1.0, 0.0, 0.0, 0.0],
                   time={"t_final": 1.0, "dt": 0.1})
        path = write_config(tmp_path, cfg)
        assert run(["simulate", "--config", path]) == cli.EXIT_CONFIG


def degenerate_n4(rng):
    """N = 4 fields with Psi = 0: two planar chi = 0 blocks (B_k = -1/C_k)
    under one rotation Q.  Returns (eF, rG, (C1, C2), Q)."""
    cs = rng.uniform(0.5, 2.0, 2)
    e0 = np.zeros((4, 4))
    r0 = np.zeros((4, 4))
    for k, c in enumerate(cs):
        e0[2 * k:2 * k + 2, 2 * k:2 * k + 2] = (-1.0 / c) * structure.EPS2
        r0[2 * k:2 * k + 2, 2 * k:2 * k + 2] = c * structure.EPS2
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    eF = q @ e0 @ q.T
    rG = q @ r0 @ q.T
    return 0.5 * (eF - eF.T), 0.5 * (rG - rG.T), tuple(float(c) for c in cs), q


def on_constraint_n4(cs, q, amplitudes):
    """A state on the constraints of `degenerate_n4`, and the closed-form
    flow through it: in the rotated frame each block is a planar chi = 0
    state, p_k = -i C_k q_k (m = kappa = 1), turning at its own rate."""
    blocks = []
    for c, (a, b) in zip(cs, amplitudes):
        blocks.append(np.array([a, b, c * b, -c * a]))

    def flow(times):
        parts = [cf.degenerate_flow_n2(UNIT, c, z, times) for c, z in zip(cs, blocks)]
        q_rot = np.concatenate([part[:, :2] for part in parts], axis=1)
        p_rot = np.concatenate([part[:, 2:] for part in parts], axis=1)
        return np.hstack([q_rot @ q.T, p_rot @ q.T])

    return flow(np.zeros(1))[0], flow


def simulate_table(tmp_path, cfg, name="run"):
    path = write_config(tmp_path, cfg, name=f"{name}.json")
    out = tmp_path / f"{name}.csv"
    assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    header = out.read_text().splitlines()[0].split(",")
    return header, np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)


def chain_expm(fields, times, z0):
    """Dense scipy expm of the constraint chain's flow, applied to z0."""
    chain = cf.gnh_from_model(fields, UNIT)
    assert not chain.flow_offset.any()
    return np.array([scipy_expm(chain.reduced_flow * t) @ z0 for t in times]), chain


class TestDegenerateSimulate:
    """Degenerate configs of any N follow the constraint chain's flow."""

    def test_planar_chi0_against_closed_form(self, tmp_path):
        z0 = [1.0, 0.0, 0.0, -1.0]
        cfg = dict(BASE, field={"B": -1.0, "C": 1.0}, state=z0,
                   time={"t_final": 100.0, "dt": 0.01})
        header, table = simulate_table(tmp_path, cfg)
        assert header == ["t", "q1", "q2", "p1", "p2", "H", "constraint_residual"]
        ref = cf.degenerate_flow_n2(UNIT, 1.0, z0, table[:, 0])
        assert np.abs(table[:, 1:5] - ref).max() <= 1e-13
        assert table[:, -1].max() <= 1e-13

    def test_axial_chi0_against_expm_and_closed_form(self, tmp_path):
        # Transverse chi = 1 + B C = 0; the axial pair (q3, p3) is a free
        # oscillator.
        z0 = np.array([1.0, 0.0, 0.5, 0.0, 1.0, 0.2])
        cfg = dict(BASE, N=3, field={"Bvec": [0, 0, 1.0], "Cvec": [0, 0, -1.0]},
                   state=z0.tolist(), time={"t_final": 20.0, "dt": 0.01})
        header, table = simulate_table(tmp_path, cfg)
        assert header == ["t", "q1", "q2", "q3", "p1", "p2", "p3", "H",
                          "constraint_residual"]
        times, states = table[:, 0], table[:, 1:7]
        fields = structure.field_config_n3([0, 0, 1.0], [0, 0, -1.0])
        dense, chain = chain_expm(fields, times[::50], z0)
        assert chain.dimensions == [6, 4]
        assert np.abs(states[::50] - dense).max() <= 1e-12
        transverse = cf.degenerate_flow_n2(UNIT, -1.0, z0[[0, 1, 3, 4]], times)
        assert np.abs(states[:, [0, 1, 3, 4]] - transverse).max() <= 1e-12
        axial = np.column_stack([0.5 * np.cos(times) + 0.2 * np.sin(times),
                                 0.2 * np.cos(times) - 0.5 * np.sin(times)])
        assert np.abs(states[:, [2, 5]] - axial).max() <= 1e-12
        assert table[:, -1].max() <= 1e-12

    def test_n4_psi_zero_against_expm_and_closed_form(self, tmp_path):
        eF, rG, cs, q = degenerate_n4(np.random.default_rng(7))
        z0, flow = on_constraint_n4(cs, q, [(0.8, -0.3), (0.2, 0.6)])
        cfg = dict(BASE, N=4, field={"eF": eF.tolist(), "rG": rG.tolist()},
                   state=z0.tolist(), time={"t_final": 100.0, "dt": 0.01})
        header, table = simulate_table(tmp_path, cfg)
        assert header[-1] == "constraint_residual" and len(header) == 11
        times, states = table[:, 0], table[:, 1:9]
        dense, chain = chain_expm(structure.FieldConfig(4, eF, rG), times[::500], z0)
        assert chain.dimensions == [8, 4]
        assert np.abs(states[::500] - dense).max() <= 1e-12
        assert np.abs(states - flow(times)).max() <= 1e-12
        assert table[:, -1].max() <= 1e-12

    def test_midpoint_within_second_order_phase_bound(self, tmp_path):
        # The implicit midpoint map turns the chi = 0 mode by
        # 2 arctan(w dt / 2) per step instead of w dt.
        z0 = [1.0, 0.0, 0.0, -1.0]
        dt, t_final = 0.01, 100.0
        cfg = dict(BASE, field={"B": -1.0, "C": 1.0}, state=z0,
                   time={"t_final": t_final, "dt": dt, "method": "midpoint"})
        _, table = simulate_table(tmp_path, cfg)
        exact = cf.degenerate_flow_n2(UNIT, 1.0, z0, table[:, 0])
        w = cf.degenerate_omega_r(UNIT, 1.0)
        bound = t_final * abs(w - 2.0 * np.arctan(0.5 * w * dt) / dt)
        deviation = np.abs(table[:, 1:5] - exact).max()
        assert 0.9 * bound <= deviation <= bound * (1.0 + 1e-6)
        assert table[:, -1].max() <= 1e-13

    def test_tolerance_gate_above_the_chain_cutoff(self, tmp_path):
        # chi = 1e-4: det Psi = 1e-8 is below a raised gate of 1e-6, but the
        # chain's relative rank cutoff sees a nondegenerate Omega and adds
        # no constraint rows.  The run is then the regular flow, with an
        # empty-row residual of 0.
        z0 = [1.0, 0.0, 0.0, 1.0]
        cfg = dict(BASE, field={"B": 1.0, "C": -0.9999}, state=z0,
                   time={"t_final": 1.0, "dt": 0.1}, tolerances={"singular": 1e-6})
        header, table = simulate_table(tmp_path, cfg)
        assert header[-1] == "constraint_residual"
        assert not table[:, -1].any()
        regular = dynamics.affine_flow(*dynamics.flow_matrix(
            structure.poisson_matrix(structure.field_config_n2(1.0, -0.9999)), UNIT), z0, 0.1, 10)
        assert np.abs(table[:, 1:5] - regular).max() <= 1e-9

    @pytest.mark.parametrize("n", [2, 4])
    def test_off_constraint_refused_without_output(self, tmp_path, capsys, n):
        if n == 2:
            cfg = dict(BASE, field={"B": 1.0, "C": -1.0}, state=[1.0, 0.0, 0.0, 0.0])
        else:
            eF, rG, cs, q = degenerate_n4(np.random.default_rng(7))
            z0, _ = on_constraint_n4(cs, q, [(0.8, -0.3), (0.2, 0.6)])
            z0[4] += 1e-3
            cfg = dict(BASE, N=4, field={"eF": eF.tolist(), "rG": rG.tolist()},
                       state=z0.tolist())
        cfg["time"] = {"t_final": 1.0, "dt": 0.1}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "off.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ncphase: config error: "), err
        assert "violates the constraints" in err[0]
        assert not out.exists()
        assert not list(tmp_path.glob(".ncphase-*"))


def spectrum_report(tmp_path, cfg, *args):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sp.json"
    assert run(["spectrum", "--config", path, "--out", str(out), *args]) == cli.EXIT_OK
    return json.loads(out.read_text())


def dense_frequencies(fields, model=UNIT):
    """Positive imaginary parts of the eigenvalues of -Omega^-1 Hess H,
    descending."""
    flow = -np.linalg.inv(structure.build_omega(fields)) @ model.hessian(fields.N)
    return np.sort(np.linalg.eigvals(flow).imag)[::-1][:fields.N]


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
        assert rep["kind"] == "normal-modes"
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
        assert rep["kind"] == "normal-modes"
        assert rep["levels"][0]["energy"] == pytest.approx(np.sqrt(5) / 2 + 0.5, abs=1e-12)

    def test_extreme_planar_fields_without_warnings(self, tmp_path):
        # w+/w- = 5e599: each Hermitian form loses one mode, the core keeps
        # the other form's.  The reference is a 1300-digit mpmath
        # eigensolve of -Omega^-1 Hess H, correctly rounded.  RuntimeWarnings
        # fail the suite.
        path = write_config(tmp_path, dict(BASE, field={"B": 1e300, "C": 1e-300}))
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--config", path, "--out", str(out), "--nmax", "1"]) == cli.EXIT_OK
        got = np.array(json.loads(out.read_text())["frequencies"])
        assert np.abs(got / [5e299, 1e-300] - 1.0).max() <= 1e-15

    def test_crossed_axial_fields_match_dense_eigensolve(self, tmp_path):
        for bvec, cvec in [([0, 0, 1.0], [1.0, 0, 0]), ([0.3, 0.1, 1.0], [0.2, -0.4, 0.5])]:
            rep = spectrum_report(tmp_path, dict(BASE, N=3, field={"Bvec": bvec, "Cvec": cvec}))
            want = dense_frequencies(structure.field_config_n3(bvec, cvec))
            assert rep["kind"] == "normal-modes"
            assert np.abs(np.array(rep["frequencies"]) / want - 1.0).max() <= 1e-12

    def test_generic_n4_matches_dense_eigensolve(self, tmp_path):
        rep = spectrum_report(tmp_path, _GENERIC, "--nmax", "2")
        fields = structure.FieldConfig(4, _GENERIC["field"]["eF"], _GENERIC["field"]["rG"])
        freqs = np.array(rep["frequencies"])
        assert rep["kind"] == "normal-modes" and len(rep["levels"]) == 3**4
        assert np.abs(freqs / dense_frequencies(fields) - 1.0).max() <= 1e-12
        assert rep["levels"][0]["energy"] == pytest.approx(0.5 * freqs.sum(), rel=1e-15)

    def test_frequencies_descend_and_order_the_quanta(self, tmp_path):
        # Axial B = 1: w+ = 1.618 > w3 = 1 > w- = 0.618, so the bare axial
        # mode is the middle column of n.
        rep = spectrum_report(tmp_path, dict(BASE, N=3, field={"Bvec": [0, 0, 1.0],
                                                              "Cvec": [0, 0, 0.0]}))
        freqs = rep["frequencies"]
        assert freqs == sorted(freqs, reverse=True)
        assert freqs[1] == pytest.approx(1.0, rel=1e-15)
        for level in rep["levels"]:
            assert level["energy"] == pytest.approx(np.dot(np.add(level["n"], 0.5), freqs),
                                                    rel=1e-15)

    def test_n4_psi_zero_matches_reduced_frequencies(self, tmp_path):
        eF, rG, cs, _ = degenerate_n4(np.random.default_rng(7))
        rep = spectrum_report(tmp_path, dict(BASE, N=4, field={"eF": eF.tolist(),
                                                               "rG": rG.tolist()}))
        want = sorted((abs(cf.degenerate_omega_r(UNIT, c)) for c in cs), reverse=True)
        assert rep["kind"] == "degenerate-ladder"
        assert np.abs(np.array(rep["frequencies"]) / want - 1.0).max() <= 1e-12

    def test_axial_chi0_ladder(self, tmp_path):
        # Transverse chi = 0 leaves the reduced rotation |omega_r| = 1/2 and
        # the bare axial oscillator.
        rep = spectrum_report(tmp_path, dict(BASE, N=3, field={"Bvec": [0, 0, 1.0],
                                                              "Cvec": [0, 0, -1.0]}))
        assert rep["kind"] == "degenerate-ladder"
        assert np.abs(np.array(rep["frequencies"]) / [1.0, 0.5] - 1.0).max() <= 1e-12

    def test_degenerate_ladder_at_extreme_elasticity(self, tmp_path):
        # Hess H = diag(1e-300, 1e-300, 1, 1): a chain on the raw pair puts
        # the 1e-16 rounding of its basis into the restricted Hessian.
        model = {"m": 1.0, "kappa": 1e-300}
        rep = spectrum_report(tmp_path, dict(BASE, field={"B": 0.5, "C": -2.0}, model=model))
        want = abs(cf.degenerate_omega_r(dynamics.OscillatorModel(**model), -2.0))
        assert rep["kind"] == "degenerate-ladder"
        assert abs(rep["frequencies"][0] / want - 1.0) <= 1e-15

    @pytest.mark.parametrize("field, model, message", [
        # omega_r = 1e-600: rG m overflows where Hess H = I.
        ({"B": -1e-300, "C": 1e300}, {"m": 1e300, "kappa": 1.0},
         "Omega overflows in the coordinates where Hess H = I"),
        # R Lambda R^T = 1e150 Lambda_pp 1e150 overflows, and LAPACK's
        # eigensolve of it fails.
        ({"B": 1e300, "C": 1e-300}, {"m": 1e-300, "kappa": 1.0},
         "Eigenvalues did not converge for the whitened flow R Lambda R^T "
         "(largest magnitude inf)"),
    ])
    def test_unresolvable_scales_refused(self, tmp_path, capsys, field, model, message):
        path = write_config(tmp_path, dict(BASE, field=field, model=model))
        out = tmp_path / "sp.json"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        assert capsys.readouterr().err == f"ncphase: numerical failure: {message}\n"
        assert not out.exists()

    def test_tolerance_gate_above_the_chain_cutoff(self, tmp_path):
        # chi = 1e-4 with a raised gate: the chain route, whose cutoff sees a
        # nondegenerate Omega, so V = I and the modes are the regular ones.
        cfg = dict(BASE, field={"B": 1.0, "C": -0.9999})
        regular = spectrum_report(tmp_path, cfg)
        gated = spectrum_report(tmp_path, dict(cfg, tolerances={"singular": 1e-6}))
        assert (regular["kind"], gated["kind"]) == ("normal-modes", "degenerate-ladder")
        assert np.abs(np.array(gated["frequencies"]) / regular["frequencies"] - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("field", [{"B": 1.0, "C": 0.5}, {"B": 1.0, "C": -1.0}])
    @pytest.mark.parametrize("model", [{"m": 1.0, "kappa": 0.0},
                                       {"m": 1.0, "Evec": [1.0, 0.0]}])
    def test_hessian_not_positive_definite_refused(self, tmp_path, capsys, field, model):
        path = write_config(tmp_path, dict(BASE, field=field, model=model))
        out = tmp_path / "sp.json"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "ncphase: config error: the Hessian of H is not positive definite, "
            "so the spectrum is not a ladder\n")
        assert not out.exists()

    def test_extreme_mass_and_elasticity_spectrum(self, tmp_path):
        # m kappa = 1 but kappa / m = 1e600 overflows a double; the modes
        # omega0 / sqrt(chi) = sqrt(kappa / 2 m) do not.
        mp = pytest.importorskip("mpmath")
        rep = spectrum_report(tmp_path, dict(BASE, model={"m": 1e-300, "kappa": 1e300}))
        with mp.workdps(50):
            want = float(mp.sqrt(mp.mpf(1e300) / mp.mpf(1e-300) / 2))
        assert np.abs(np.array(rep["frequencies"]) / want - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("bz, cz", [(1e8, 0.0), (1e300, 1e-300)])
    def test_wide_axial_spread_keeps_the_middle_mode(self, tmp_path, bz, cz):
        # w3 = omega0 = 1 lies between w+ ~ bz and w- ~ 1 / bz.  The axial
        # pair shares no nonzero with the transverse ones, so it is solved
        # on its own and takes none of the eps w_max noise of theirs.
        rep = spectrum_report(tmp_path, dict(BASE, N=3, field={"Bvec": [0, 0, bz],
                                                              "Cvec": [0, 0, cz]}))
        want = sorted(cf.spectrum_n3_parallel(UNIT, bz, cz, 0).frequencies, reverse=True)
        assert np.abs(np.array(rep["frequencies"]) / want - 1.0).max() <= 1e-12

    def test_moderate_oblique_spread_matches_closed_form(self, tmp_path):
        # Along (1, 2, 2)/3 every coordinate is coupled; at |B| = 100 the
        # middle mode's bound 16 n eps w_max / w is 1e-12.
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        rep = spectrum_report(tmp_path, dict(BASE, N=3, field={"Bvec": (100 * u).tolist(),
                                                              "Cvec": [0, 0, 0]}))
        want = sorted(cf.spectrum_n3_parallel(UNIT, 100.0, 0.0, 0).frequencies, reverse=True)
        assert np.abs(np.array(rep["frequencies"]) / want - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("bmag, cmag", [(1e8, 0.0), (1e150, 1e-150)])
    def test_unresolved_middle_mode_refused(self, tmp_path, capsys, bmag, cmag):
        # The same fields along (1, 2, 2)/3: no block splits off, and each
        # eigensolve puts noise of about eps sqrt(w_max / w_min) on w3 = 1.
        # Unchecked, the core printed w3 = 1.0000000041 and 6.0e-135.
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        path = write_config(tmp_path, dict(BASE, N=3, field={"Bvec": (bmag * u).tolist(),
                                                             "Cvec": (cmag * u).tolist()}))
        out = tmp_path / "sp.json"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: a frequency spread of ")
        assert err.endswith(" relative\n") and err.count("\n") == 1
        assert not out.exists()

    def test_axial_block_checks_its_own_lambda(self, tmp_path):
        # chi = 1 + B C overflows, but the transverse Lambda block of about
        # 1e-300 is representable; each block passes its own residual check,
        # and the axial w3 = 1 does not hide the transverse pair.  The
        # frequencies are those of a 700-digit mpmath eigensolve.
        field = {"Bvec": [0, 0, 1e300], "Cvec": [0, 0, 1e300]}
        rep = spectrum_report(tmp_path, dict(BASE, N=3, field=field))
        want = cf.frequencies_mpmath(structure.field_config_n3(*field.values()), UNIT)
        assert np.abs(np.array(rep["frequencies"]) / want - 1.0).max() <= 1e-15


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
        fr = cf.n2_frequencies(dynamics.OscillatorModel(m=1, kappa=1), 1.0, 0.0)
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

    def test_non_finite_row_refused(self, tmp_path, capsys):
        # omega_plus overflows to inf, which the spectrum core refuses.  The
        # refusal is the only line on stderr: numpy must not warn.
        cfg = dict(BASE, field={"B": 1e150, "C": 0.5}, model={"m": 1e-300, "kappa": 1.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert run(["limit-scan", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err.splitlines()
        assert err == ["ncphase: numerical failure: limit scan at epsilon = 0.1: a frequency "
                       "spread of inf resolves a normal mode only to inf relative"]
        assert not out.exists()
        assert not list(tmp_path.glob(".ncphase-*"))

    # The configs that a correct scan runs; every other one is refused.  At
    # m = 1e-100, kappa = 1e100 the rows are within 4.4e-16 (frequencies)
    # and 7.9e-11 (fast amplitudes) of a 400-digit mpmath solve.
    EXTREME_OK = {(1.0, 1.0, 1.0), (1.0, 1e100, 1e-100), (1.0, 1e-100, 1e100)}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("kappa", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("B", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
    def test_extreme_scales_exit_cleanly(self, tmp_path, capsys, B, m, kappa):
        cfg = dict(BASE, field={"B": B, "C": 0.5}, model={"m": m, "kappa": kappa})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        code = run(["limit-scan", "--config", path, "--out", str(out), "--points", "50"])
        err = capsys.readouterr().err.splitlines()
        if (B, m, kappa) in self.EXTREME_OK:
            assert (code, err) == (cli.EXIT_OK, [])
            assert len(out.read_text().splitlines()) == 51
        else:
            assert code == cli.EXIT_SINGULAR
            assert len(err) == 1 and err[0].startswith("ncphase: numerical failure: "), err
            assert not out.exists()

    def test_non_finite_value_names_the_first_row(self, tmp_path, capsys, monkeypatch):
        def scan(model, B, grid):
            rows = np.column_stack([grid] + [np.full(grid.size, v) for v in (2.0, 0.5, 0.5, 1e-3)])
            rows[2, 4], rows[3, 1] = np.nan, np.inf
            return rows

        monkeypatch.setattr(spectrum, "chi_limit_scan", scan)
        path = write_config(tmp_path, BASE)
        out = tmp_path / "scan.csv"
        assert run(["limit-scan", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        eps = np.geomspace(1e-1, 1e-3, 9)[2]
        assert capsys.readouterr().err.splitlines() == [
            f"ncphase: numerical failure: non-finite limit-scan row at epsilon = {float(eps)!r}"]
        assert not out.exists()

    def test_unresolved_fast_amplitude_refused(self, tmp_path, capsys):
        # B = 1e-300: the fast part of the start is lost to rounding, so
        # the amplitude's error estimate is infinite.
        cfg = dict(BASE, field={"B": 1e-300, "C": 0.5})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert run(["limit-scan", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        assert capsys.readouterr().err.splitlines() == [
            "ncphase: numerical failure: limit scan at epsilon = 0.1: "
            "the fast amplitude's error estimate inf exceeds 1e-05 relative"]
        assert not out.exists()
        assert not list(tmp_path.glob(".ncphase-*"))

    @pytest.mark.parametrize("eps", ["1e-5", "1e-7", "1e-9"])
    def test_small_epsilon_accurate_or_refused(self, tmp_path, eps):
        # At 1e-9, C B rounds to -1: chi = 0 and Omega is singular.
        path = write_config(tmp_path, BASE)
        out = tmp_path / "scan.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "ncphase.cli", "limit-scan", "--config", path,
             "--out", str(out), "--eps-min", eps, "--eps-max", eps, "--points", "1"],
            capture_output=True, text=True,
        )
        if proc.returncode == cli.EXIT_OK:
            assert proc.stderr == ""
            row = [float(v) for v in out.read_text().splitlines()[1].split(",")]
            C = (row[0] * row[0] - 1.0) / 1.0
            want, _ = cf.fast_q_coeffs_mpmath(1.0, 1.0, 1.0, row[0], C)
            assert abs(row[4] - float(want)) <= spectrum.AMPLITUDE_ACCURACY * float(want)
        else:
            assert proc.returncode == cli.EXIT_SINGULAR
            assert len(proc.stderr.splitlines()) == 1
            assert proc.stderr.startswith(
                f"ncphase: numerical failure: limit scan at epsilon = {float(eps)!r}: ")
            assert not out.exists()


# det Psi = 1, but the first Schur update of Bunch's elimination adds two
# terms of 1e308 in the q block: the second pivot is -inf.
OVERFLOWING_PIVOT = {
    "eF": (1e308 * np.array([[0, 1, 1, 1], [-1, 0, 1, -1],
                             [-1, -1, 0, 1], [-1, 1, -1, 0]])).tolist(),
    "rG": np.zeros((4, 4)).tolist(),
}


class TestNumericalFailure:
    """Numerical failures exit 2 with their own message, not as config
    errors (LinAlgError subclasses ValueError) or tracebacks."""

    def test_singular_inverse_in_darboux(self, tmp_path, capsys):
        # chi = 2 at |B| = 1e300, |C| = 1e-300: the map meets the contract
        # to rounding.  Its cond is 7.1e299 for planar fields; for oblique
        # ones it is beyond a double and written as null.  Where the
        # overflowing Schur update of a 1e308 field leaves no pivot, the
        # refusal is a numerical failure, not a config error.
        unit = np.array([1.0, 2.0, 2.0]) / 3.0
        out = tmp_path / "d.json"
        for n, field, cond in [
            (2, {"B": 1e300, "C": 1e-300}, 7.1e299),
            (3, {"Bvec": (1e300 * unit).tolist(), "Cvec": (1e-300 * unit).tolist()}, None),
        ]:
            path = write_config(tmp_path, dict(BASE, N=n, field=field))
            assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_OK
            rep = json.loads(out.read_text())
            assert rep["route"] == "generic"
            if cond is None:
                assert rep["cond"] is None
            else:
                assert rep["cond"] == pytest.approx(cond, rel=1e-2)
            assert rep["residual"] <= 1e-15 * 1e300
            assert rep["sp_equivalence_residual"] <= 1e-15
        path = write_config(tmp_path, dict(BASE, N=4, field=OVERFLOWING_PIVOT))
        assert run(["darboux", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: ")
        assert "config error" not in err

    def test_extreme_scale_darboux_writes_one_stderr_line(self, tmp_path):
        # Under -W always, B = 1e300, C = 1e-300 and B = 1e150, C = 1e300
        # (chi overflows) write their maps and nothing on stderr; an N = 4
        # field of 1e308 whose Schur update overflows writes one line and
        # no file.
        for i, (n, field, code, lines) in enumerate([
            (2, {"B": 1e300, "C": 1e-300}, cli.EXIT_OK, []),
            (2, {"B": 1e150, "C": 1e300}, cli.EXIT_OK, []),
            (4, OVERFLOWING_PIVOT, cli.EXIT_SINGULAR,
             ["ncphase: numerical failure: pivot -inf at pair 1: no Darboux map"]),
        ]):
            path = write_config(tmp_path, dict(BASE, N=n, field=field), name=f"config{i}.json")
            out = tmp_path / f"d{i}.json"
            proc = subprocess.run(
                [sys.executable, "-W", "always", "-m", "ncphase.cli", "darboux",
                 "--config", path, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == code
            assert proc.stderr.splitlines() == lines
            assert out.exists() == (code == cli.EXIT_OK)

    @pytest.mark.parametrize("n, field", [
        (2, {"B": 1e150, "C": 1e300}),
        (3, {"Bvec": [0.0, 0.0, 1e300], "Cvec": [0.0, 0.0, 1e300]}),
    ])
    def test_overflowing_chi_darboux_writes_the_generic_map(self, tmp_path, n, field):
        # chi = 1 + C.B overflows and the paper's chart has no finite
        # coefficients, but the generic map needs no chi: it is written,
        # with no warning, and meets its contract to rounding.
        path = write_config(tmp_path, dict(BASE, N=n, field=field))
        out = tmp_path / "d.json"
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "ncphase.cli", "darboux",
             "--config", path, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
        rep = json.loads(out.read_text())
        t = np.array(rep["T"])
        omega = structure.build_omega(structure.field_config_n2(**field) if n == 2 else
                                      structure.field_config_n3(**field))
        j = structure.canonical_j(n)
        assert rep["route"] == "generic"
        assert np.abs(t.T @ j @ t - omega).max() <= 1e-15 * np.abs(omega).max()
        assert symplectic_error(t @ np.array(rep["Tinv"])) <= 1e-15

    def test_oblique_overflowing_gamma_writes_one_stderr_line(self, tmp_path):
        # B.C = 1e300: chi is finite, but the products of the spatial
        # mixing scalars overflow; the refusal comes without numpy warnings.
        unit = np.array([1.0, 2.0, 2.0]) / 3.0
        cfg = dict(BASE, N=3, field={"Bvec": (1e300 * unit).tolist(), "Cvec": unit.tolist()})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "d.json"
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "ncphase.cli", "darboux",
             "--config", path, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == cli.EXIT_SINGULAR
        assert len(proc.stderr.splitlines()) == 1
        assert "RuntimeWarning" not in proc.stderr
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

    def test_lambda_that_does_not_invert_omega(self, tmp_path, capsys, monkeypatch):
        # A Lambda off by a factor 1.5 trips the spectrum core's check that
        # Lambda inverts -Omega, and no file is written.
        lam = structure.poisson_matrix
        monkeypatch.setattr(structure, "poisson_matrix", lambda cfg: 1.5 * lam(cfg))
        out = tmp_path / "s.json"
        path = write_config(tmp_path, BASE)
        assert run(["spectrum", "--config", path, "--out", str(out)]) == cli.EXIT_SINGULAR
        assert capsys.readouterr().err == (
            "ncphase: numerical failure: Lambda does not invert -Omega at these scales\n")
        assert not out.exists()

    def test_darboux_contract_failure(self, tmp_path, capsys, monkeypatch):
        # A residual above its bound makes darboux._finish raise.
        monkeypatch.setattr(darboux, "verify_darboux", lambda dmap, omega: 1.0)
        path = write_config(tmp_path, BASE)
        assert run(["darboux", "--config", path]) == cli.EXIT_SINGULAR
        err = capsys.readouterr().err
        assert err.startswith("ncphase: numerical failure: constructed map violates")


    def test_non_finite_brackets_refused(self, tmp_path):
        # chi = 1 + 1e200: Lambda is representable, but det Psi = chi^2
        # overflows, and json.dumps would have written Infinity.  One line
        # names det Psi, with no warning beside it.
        for i, (field, kappa) in enumerate([({"B": 1e100, "C": 1e100}, 1.0),
                                            ({"B": 1e200, "C": 1.0}, 1e200)]):
            cfg = dict(BASE, field=field, model={"m": 1.0, "kappa": kappa})
            out = tmp_path / "br.json"
            proc = subprocess.run(
                [sys.executable, "-W", "always", "-m", "ncphase.cli", "brackets",
                 "--config", write_config(tmp_path, cfg, name=f"config{i}.json"),
                 "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == cli.EXIT_SINGULAR
            assert proc.stderr.splitlines() == [
                "ncphase brackets: det Psi = inf is not finite in double precision; "
                "no output written"]
            assert not out.exists()

    @pytest.mark.parametrize("command, kappa", [
        ("brackets", 1.0), ("simulate", 1.0), ("spectrum", 1.0), ("spectrum", 1e300),
    ], ids=["brackets", "simulate", "spectrum", "spectrum-stiff"])
    def test_overflowing_chi_keeps_lambda(self, tmp_path, command, kappa):
        # chi = 1 + B C overflows a double, but the Lambda blocks of about
        # 1/B and 1/C do not.  `spectrum` (also at kappa = 1e300, a mode of
        # 1e150) and `simulate` agree with a 700-digit mpmath eigensolve
        # and matrix exponential of the flow, with nothing on stderr.
        # `brackets` refuses in one line: det Psi = chi^2 is not finite.
        model = dynamics.OscillatorModel(m=1.0, kappa=kappa)
        for i, (B, C) in enumerate([(1e150, 1e300), (-1e300, 1e150)]):
            cfg = dict(BASE, field={"B": B, "C": C}, model={"m": 1.0, "kappa": kappa},
                       state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1.0, "dt": 0.5})
            out = tmp_path / f"{i}.out"
            proc = subprocess.run(
                [sys.executable, "-W", "always", "-m", "ncphase.cli", command,
                 "--config", write_config(tmp_path, cfg, name=f"{i}.json"), "--out", str(out)],
                capture_output=True, text=True,
            )
            if command == "brackets":
                assert proc.returncode == cli.EXIT_SINGULAR
                assert proc.stderr.splitlines() == [
                    "ncphase brackets: det Psi = inf is not finite in double precision; "
                    "no output written"]
                assert not out.exists()
                continue
            assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
            fields = structure.field_config_n2(B, C)
            if command == "spectrum":
                freqs = np.array(json.loads(out.read_text())["frequencies"])
                want = cf.frequencies_mpmath(fields, model)
                assert np.abs(freqs / want - 1.0).max() <= 1e-15
            else:
                rows = np.loadtxt(out, delimiter=",", skiprows=1)
                want = cf.trajectory_mpmath(fields, model, cfg["state"], rows[:, 0])
                moving = want != 0
                assert np.array_equal(rows[:, 1:5] == 0, ~moving)
                assert np.abs(rows[:, 1:5][moving] / want[moving] - 1.0).max() <= 1e-15

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


    def test_positive_definite_problem_block_matches_its_field(self, tmp_path):
        # The Omega and Hessian of B = 1e200, C = 1, kappa = 1e200, a regular
        # field.  On the raw data the chain's cutoff loses rank
        # (tests/test_constrained.py); where Hess H = I they are of one
        # scale, and the problem block has the field's modes.
        model = dynamics.OscillatorModel(m=1.0, kappa=1e200)
        field = {"B": 1e200, "C": 1.0}
        cfg = {"schema_version": 1, "N": 2, "problem": {
            "omega": structure.build_omega(structure.field_config_n2(**field)).tolist(),
            "hessian": model.hessian(2).tolist(), "gradient": [0.0] * 4}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "red.json"
        assert run(["reduce", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert (rep["status"], rep["dimensions"]) == ("consistent", [4])
        assert rep["eigenvalues"] == {"imag": [-1.0, -1.0, 1.0, 1.0], "real": [0.0] * 4}
        path = write_config(tmp_path, dict(BASE, field=field, model={"m": 1.0, "kappa": 1e200}))
        assert run(["spectrum", "--config", path, "--out", str(out), "--nmax", "0"]) == cli.EXIT_OK
        assert json.loads(out.read_text())["frequencies"] == [1.0, 1.0]


# A planar chi = 0 field at m and kappa near 1e9 and 1e4: a chain built on
# the raw data over-cuts its last stage to dimension 0, the chain where
# Hess H = I keeps the 2-dimensional terminal stage, and
# 2486552.42... = m kappa / B puts the state below on the true constraint
# (oracle residual 2e-19).
_OVER_CUT_B = 5074788.115583803
_OVER_CUT = dict(BASE, field={"B": _OVER_CUT_B, "C": -1.0 / _OVER_CUT_B},
                 model={"m": 1788489525.6778197, "kappa": 7055.521709333194})
# A chi = 0 field whose whitened two-form has entries near 1e-10: unscaled,
# the chain would cut them against its unit constraint rows.
_STIFF_B = 1.545773989453215
_STIFF_CHI0 = dict(BASE, field={"B": _STIFF_B, "C": -1.0 / _STIFF_B},
                   model={"m": 2.8829074819845476e-09, "kappa": 58558066872.5091})


class TestOneNormalModeRoute:
    """`reduce` reports +-i times `spectrum`'s frequencies wherever Hess H is
    positive definite, from the one helper both subcommands call, and
    `simulate` steps the flow of the one chain that both read."""

    @staticmethod
    def reports(tmp_path, capsys, cfg):
        """{command: (exit code, stderr lines, report or None)}."""
        path, out = write_config(tmp_path, cfg), {}
        for command in ("reduce", "spectrum"):
            target = tmp_path / f"{command}.json"
            target.unlink(missing_ok=True)
            code = run([command, "--config", path, "--out", str(target)])
            out[command] = (code, capsys.readouterr().err.splitlines(),
                            json.loads(target.read_text()) if target.exists() else None)
        return out

    @staticmethod
    def check_agreement(got, cfg, bound):
        """Both exit 0, `reduce` with one pair per `spectrum` frequency, and the
        frequency is the closed-form omega_r within ``bound`` relative."""
        (code, err, rep), (sp_code, sp_err, sp_rep) = got["reduce"], got["spectrum"]
        assert (code, err, sp_code, sp_err) == (cli.EXIT_OK, [], cli.EXIT_OK, [])
        freqs = sp_rep["frequencies"]
        assert rep["eigenvalues"] == {"imag": [-f for f in freqs] + freqs[::-1],
                                      "real": [0.0] * (2 * len(freqs))}
        assert (rep["dimensions"], sp_rep["kind"]) == ([4, 2], "degenerate-ladder")
        model = dynamics.OscillatorModel(**cfg["model"])
        want = abs(cf.degenerate_omega_r(model, cfg["field"]["C"]))
        assert abs(freqs[0] / want - 1.0) <= bound
        return freqs

    @staticmethod
    def check_simulate(tmp_path, cfg, t_final):
        """`simulate` from q0 = 1 on the true constraint follows the closed-form
        rotation to 1e-12 relative and conserves H."""
        m, kappa, B = cfg["model"]["m"], cfg["model"]["kappa"], cfg["field"]["B"]
        z0 = [1.0, 0.0, 0.0, m * kappa / B]
        fields = structure.field_config_n2(**cfg["field"])
        model = dynamics.OscillatorModel(m=m, kappa=kappa)
        oracle = cf.secondary_constraints(fields, model)
        assert oracle.residual(z0) <= 1e-14 * np.abs(oracle.matrix).max() * max(z0)
        run_cfg = dict(cfg, state=z0, time={"t_final": t_final, "dt": t_final / 4})
        path, out = write_config(tmp_path, run_cfg), tmp_path / "run.csv"
        assert run(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        # The start was checked above, at the scale of the rows.
        want = cf.degenerate_flow_n2(model, cfg["field"]["C"], z0, rows[:, 0], tol=np.inf)
        assert np.abs(rows[:, 1:5] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(rows[:, 5] - rows[0, 5]).max() <= 1e-12 * rows[0, 5]
        return rows

    def test_over_cut_field_agrees_in_reduce_and_spectrum(self, tmp_path, capsys):
        freqs = self.check_agreement(self.reports(tmp_path, capsys, _OVER_CUT), _OVER_CUT,
                                     4 * np.finfo(float).eps)
        assert freqs == [0.0009331046095742727]

    def test_stiff_chi0_field_runs_in_both(self, tmp_path, capsys):
        self.check_agreement(self.reports(tmp_path, capsys, _STIFF_CHI0), _STIFF_CHI0, 1e-14)
        # About two radians of the reduced rotation, at omega_r = 5.3e8.
        rows = self.check_simulate(tmp_path, _STIFF_CHI0, 4e-9)
        assert np.abs(rows[-1, 2]) > 0.5

    def test_empty_terminal_stage_keeps_exit_0(self, tmp_path):
        # Omega = 0 and Hess H = I: the chain cuts to dimension 0.
        cfg = {"schema_version": 1, "N": 1, "problem": {
            "omega": [[0.0, 0.0], [0.0, 0.0]], "hessian": [[1.0, 0.0], [0.0, 1.0]],
            "gradient": [0.5, 0.0]}}
        path, out = write_config(tmp_path, cfg), tmp_path / "red.json"
        assert run(["reduce", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert (rep["status"], rep["dimensions"]) == ("empty", [2, 0])
        assert rep["eigenvalues"] == {"imag": [], "real": []}

    @pytest.mark.parametrize("key, value", [
        ("omega", [[0.0, 1.0], [-1.0, 1e-300]]),
        ("hessian", [[1.0, 0.5], [0.0, 1.0]]),
    ])
    def test_problem_block_must_be_a_two_form_and_a_hessian(self, tmp_path, capsys, key, value):
        # The normal-mode core reads one triangle of each matrix.
        cfg = dict(_PROBLEM_N1, problem=dict(_PROBLEM_N1["problem"], **{key: value}))
        assert run(["reduce", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
        assert ("problem.omega must be antisymmetric, problem.hessian symmetric"
                in capsys.readouterr().err)

    def test_simulate_accepts_a_start_on_the_true_constraint(self, tmp_path):
        # A chain built on the raw data refused this start with residual 1.773e+06.
        rows = self.check_simulate(tmp_path, _OVER_CUT, 1.0)
        assert (rows[:, -1] <= 1e-8 * np.abs(rows[:, 1:5]).max()).all()

    def test_one_chain_per_run_and_one_lambda_per_regular_spectrum(
            self, tmp_path, capsys, monkeypatch):
        chains, lambdas = [], []
        gnh_chain, poisson_matrix = spectrum.gnh_chain, structure.poisson_matrix
        monkeypatch.setattr(spectrum, "gnh_chain",
                            lambda *a: chains.append(1) or gnh_chain(*a))
        monkeypatch.setattr(structure, "poisson_matrix",
                            lambda *a: lambdas.append(1) or poisson_matrix(*a))
        degenerate = dict(_OVER_CUT, state=[1.0, 0.0, 0.0, 2486552.4210922113],
                          time={"t_final": 1.0, "dt": 0.5})
        regular = dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1.0, "dt": 0.5})
        problem = {"schema_version": 1, "N": 2, "problem": {
            "omega": structure.build_omega(structure.field_config_n2(1.0, -1.0)).tolist(),
            "hessian": UNIT.hessian(2).tolist(), "gradient": [0.0] * 4}}
        for command, cfg, want in [("simulate", degenerate, (1, 0)),
                                   ("reduce", degenerate, (1, 0)),
                                   ("spectrum", degenerate, (1, 0)),
                                   ("reduce", problem, (1, 0)),
                                   ("spectrum", BASE, (0, 1)),
                                   ("reduce", BASE, (0, 1)),
                                   ("simulate", regular, (0, 1))]:
            chains.clear()
            lambdas.clear()
            path = write_config(tmp_path, cfg)
            assert run([command, "--config", path, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
            assert (len(chains), len(lambdas)) == want, (command, cfg)


# One run of each subcommand: (argv after the subcommand's name, config).
JOBS = [
    (["brackets"], BASE),
    (["darboux"], dict(BASE, field={"B": 3.0, "C": 1.0})),
    (["simulate"], dict(BASE, state=[1.0, 0.0, 0.0, 1.0],
                        time={"t_final": 2.0, "dt": 0.05, "method": "midpoint"})),
    (["spectrum", "--nmax", "3"], dict(BASE, field={"B": 1.0, "C": 0.0})),
    (["limit-scan", "--points", "5"], BASE),
    (["reduce"], dict(BASE, field={"B": 1.0, "C": -1.0})),
]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for argv, cfg in JOBS:
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

    def test_closed_stdout_exits_141_without_a_traceback(self, tmp_path):
        # 100,001 rows, far more than a pipe buffer holds: the writer is
        # still writing when the reader goes.
        cfg = dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1000.0, "dt": 0.01})
        argv = [sys.executable, "-m", "ncphase.cli", "simulate",
                "--config", write_config(tmp_path, cfg)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"t,q1,q2,p1,p2,H,Lambda3\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141

    def test_closed_stdout_of_a_json_subcommand_exits_141(self, tmp_path):
        # spectrum --nmax 30 on the axial field: 31**3 level records, in
        # four chunks and about 3 MB of bytes on sys.stdout.buffer.
        assert 3 * g17.CHUNK_VALUES < 31 ** 3 <= 4 * g17.CHUNK_VALUES
        argv = [sys.executable, "-m", "ncphase.cli", "spectrum", "--nmax", "30",
                "--config", write_config(tmp_path, _AXIAL)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE

    def test_stdout_without_a_buffer_gets_the_text(self, tmp_path):
        # An embedding caller may swap sys.stdout for a text stream.
        path = write_config(tmp_path, BASE)
        out = tmp_path / "brackets.json"
        assert run(["brackets", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert run(["brackets", "--config", path]) == cli.EXIT_OK
        assert text.getvalue().encode("ascii") == out.read_bytes()

    def test_import_does_not_load_dataclasses(self):
        # Records are NamedTuples or __slots__ classes: creating the frozen
        # dataclasses once cost about half of a fresh `import ncphase.cli`.
        script = "import sys, ncphase.cli; assert 'dataclasses' not in sys.modules"
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
for path in {paths!r}:
    assert ncphase.cli.main(["simulate", "--config", path, "--out", {str(tmp_path / "out")!r}]) == 0
    assert "scipy" not in sys.modules, path
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _modules(script: str) -> set:
    """The modules loaded by the end of a fresh ``python -c script``."""
    proc = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


class TestProcessEntry:
    """`cli.run` is the entry of the `ncphase` command and of `python -m
    ncphase.cli`: `main` after one `gc.freeze`.  A fresh process does no
    work that an in-process `main` call does not."""

    def test_import_loads_no_argument_parser(self):
        # argparse, and the gettext and locale its messages go through, cost
        # about 4 ms of a fresh process; only an argv that is not plain needs them.
        assert _modules("import ncphase.cli") & {"argparse", "gettext", "locale", "_locale"} == set()

    @pytest.mark.parametrize("argv, cfg", JOBS, ids=[argv[0] for argv, _ in JOBS])
    def test_fresh_process_loads_no_numpy_module_and_writes_main_bytes(
            self, tmp_path, argv, cfg):
        # np.unique imports numpy.ma when first called, and argparse's gettext
        # imports locale, each a few ms of a fresh process: a plain run may
        # reach no module that `python -m ncphase.cli` had not loaded before `main`.
        path = write_config(tmp_path, cfg)
        out = tmp_path / "process.out"
        command = [argv[0], "--config", path, "--out", str(out)] + argv[1:]
        imported = _modules("import runpy\nimport ncphase.cli")
        ran = _modules(f"import sys\nsys.argv = {['ncphase'] + command!r}\n"
                       "import runpy\n"
                       "try:\n"
                       "    runpy.run_module('ncphase.cli', run_name='__main__')\n"
                       "except SystemExit as exc:\n"
                       "    assert exc.code == 0, exc.code")
        assert ran - imported == set()
        in_process = tmp_path / "main.out"
        assert run([argv[0], "--config", path, "--out", str(in_process)] + argv[1:]) == 0
        assert out.read_bytes() == in_process.read_bytes()

    def test_run_freezes_once_and_main_never(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append(1))
        argv = ["brackets", "--config", write_config(tmp_path, BASE),
                "--out", str(tmp_path / "out")]
        assert run(argv) == cli.EXIT_OK
        assert calls == []
        assert cli.run(argv) == cli.EXIT_OK
        assert calls == [1]

    def test_script_and_module_share_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["ncphase"] == "ncphase.cli:run"
        module, _, name = scripts["ncphase"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run


class TestOneParserPerProcess:
    """`cli.build_parser` is cached: a process builds its argparse tree once,
    when the first argv that is not plain needs it, and later `main` calls
    only parse.  A freshly built parser, `build_parser.__wrapped__()`, is
    what every call used before."""

    def test_two_calls_build_no_new_parser(self, tmp_path, monkeypatch):
        # Plain calls build none; the first call that is not plain builds the tree.
        path = write_config(tmp_path, BASE)
        plain = ["brackets", "--config", path, "--out", str(tmp_path / "out")]
        other = ["brackets", f"--config={path}", "--out", str(tmp_path / "out")]
        monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert cli.main(plain) == cli.main(plain) == cli.EXIT_OK
        assert built == []
        assert cli.main(other) == cli.main(other) == cli.EXIT_OK
        assert len(built) == 7  # the top level and six subcommands
        assert cli.main(plain) == cli.EXIT_OK
        assert len(built) == 7

    @pytest.mark.parametrize("first", [["spectrum", "--nmax", "2"],
                                       ["limit-scan", "--points", "3"]])
    def test_the_cached_parser_keeps_no_state(self, tmp_path, monkeypatch, first):
        # The same subcommand with its defaults, after a call that set them.
        path = write_config(tmp_path, BASE)
        then, argv = first[:1], [first[0], "--config", path]

        def output(command):
            out = tmp_path / "out"
            assert cli.main(command[:1] + ["--config", path, "--out", str(out)]
                            + command[1:]) == cli.EXIT_OK
            return out.read_text()

        changed = output(first)
        cached_args, cached = cli.build_parser().parse_args(argv), output(then)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert vars(cached_args) == vars(cli.build_parser().parse_args(argv))
        assert cached == output(then) != changed

    @pytest.mark.parametrize("argv", [
        [],
        ["nope"],
        ["--help"],
        ["spectrum", "--help"],
        ["brackets"],
        ["brackets", "--config", "cfg.json", "--extra"],
        ["spectrum", "--config", "cfg.json", "--nmax", "x"],
    ])
    def test_usage_and_errors_match_a_fresh_parser(self, capsys, monkeypatch, argv):
        def outcome():
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            return (exc.value.code, *capsys.readouterr())

        cached = [outcome(), outcome()]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cached == [outcome()] * 2
        assert cached[0][0] == (0 if "--help" in argv else 2)


_FLAGS = ["--config", "--out", "--nmax", "--eps-min", "--eps-max", "--points",
          "--conf", "--o", "--n", "--eps", "--eps-m", "--po", "--config=c.json", "--nmax=2",
          "-h", "--help", "--", "-1"]
_VALUES = ["c.json", "o.json", "3", "0.5", "1e-3", "-1", "-0.5", "", "nan", "inf", " 5",
           "1_0", "1e400", "x", "brackets", "--", "-h"]


@st.composite
def _argvs(draw):
    """A subcommand (or not), then flag-value pairs, mostly of its own flags
    and often with --config, now and then with one token more or less."""
    command = draw(st.sampled_from([*cli.OPTIONS, "nope", "", "-h"]))
    own = ["--config", "--out", *cli.OPTIONS.get(command, ())]
    rare = st.integers(0, 4).map(lambda i: i == 0)
    pairs = [("--config", "c.json")] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 3))):
        pairs.append((draw(st.sampled_from(_FLAGS if draw(rare) else own)),
                      draw(st.sampled_from(_VALUES if draw(rare) else _VALUES[:5]))))
    tokens = [token for pair in pairs for token in pair]
    if draw(rare):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_FLAGS + _VALUES)))
    if tokens and draw(rare):
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return [command] + tokens


def _argparse_reads(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestPlainArgv:
    """`cli._plain_args` reads a plain argv without argparse, and every other
    argv goes to argparse: where it reads one, argparse reads the same."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_argvs())
    @example(["spectrum", "--config", "c.json", "--nmax", " 5"])
    @example(["spectrum", "--config", "c.json", "--nmax", "-1"])
    @example(["limit-scan", "--config", "c.json", "--eps-min", "nan", "--points", "1_0"])
    @example(["limit-scan", "--out", "o.json", "--config", "", "--eps-max", "1e400"])
    @example(["brackets", "--config", "a.json", "--config", "b.json"])
    @example(["brackets", "--config", "c.json", "--", "--out", "o.json"])
    @example(["darboux", "--conf", "c.json"])
    @example(["darboux", "--config", "-h"])
    @example(["simulate", "--config", "c.json", "--out"])
    @example(["reduce", "--config", "c.json", "--out", "--config"])
    def test_plain_reader_agrees_with_argparse(self, argv):
        plain, parsed = cli._plain_args(argv), _argparse_reads(argv)
        if plain is not None:  # repr tells 5 from 5.0 and matches nan with nan
            assert parsed is not None
            assert {k: repr(v) for k, v in vars(plain).items()} == {
                k: repr(v) for k, v in parsed.items()}
        if parsed is None:
            assert plain is None

    @pytest.mark.parametrize("argv, cfg", JOBS, ids=[argv[0] for argv, _ in JOBS])
    def test_job_argvs_are_plain(self, argv, cfg):
        # The form of the benchmark's ops: the subcommand, --config, its own
        # options, --out.
        full = [argv[0], "--config", "c.json", *argv[1:], "--out", "o.json"]
        assert vars(cli._plain_args(full)) == _argparse_reads(full)


def _check_numbers_oracle(value, where):
    """`cli._check_numbers` as it was, with a Python generator over a list's
    items in place of one scan of their types."""
    if type(value) in (int, float):
        return
    if type(value) is list:
        if not all(type(item) in (int, float) for item in value):
            for i, item in enumerate(value):
                _check_numbers_oracle(item, f"{where}[{i}]")
        return
    raise cli.ConfigError(f"{where} must be a JSON number, got {json.dumps(value)}")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**1100, 2**1100)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=2), inner,
                                                                  max_size=2),
    max_leaves=20)


def _refusal(check, value):
    try:
        check(value, "x")
    except cli.ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example([[1, 2.5], [0, True]])
@example([1.0, None, "1.5"])
@example([[0.0, [1, {"a": 1}]]])
@example([10**400, float("nan"), -float("inf")])
@example([[1, 2], [3, False], [None]])
@example(True)
def test_check_numbers_matches_its_generator_oracle(value):
    assert _refusal(cli._check_numbers, value) == _refusal(_check_numbers_oracle, value)


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
    @example({"\x00": None})
    def test_matches_json_dumps(self, obj):
        assert cli._json_text(obj) == _json_oracle(obj).encode("ascii")

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


class TestFloatArrays:
    """A float64 ndarray in the JSON output is written as its tolist() would be."""

    @pytest.mark.parametrize("arr", [
        np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)), np.array([-0.0, 0.0]),
        np.array([[1.5, -0.0, 2.0, 1e16, 1e-5]]), np.array([[1e-300], [-0.0], [3.0]]),
        np.arange(24.0).reshape(2, 3, 4), np.float64(0.1) * np.ones(()),
    ], ids=["empty", "0xN", "Nx0", "signed-zeros", "1xN", "Nx1", "3-d", "0-d"])
    def test_shapes_match_json_dumps(self, arr):
        for obj in (arr, [arr], {"a": {"b": arr}, "c": arr}):
            oracle = json.loads(json.dumps(obj, default=np.ndarray.tolist))
            assert cli._json_text(obj) == _json_oracle(oracle).encode("ascii")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
           st.integers(1, 7), st.integers(0, 3))
    def test_random_arrays_match_json_dumps(self, values, cols, depth):
        cols = min(cols, len(values))
        arr = np.array(values[:len(values) // cols * cols]).reshape(-1, cols)
        obj = arr if cols > 1 else arr[:, 0]
        for _ in range(depth):
            obj = {"k": [obj]}
        assert cli._json_text(obj) == _json_oracle(json.loads(
            json.dumps(obj, default=np.ndarray.tolist))).encode("ascii")

    @pytest.mark.parametrize("obj", [
        {"\x00": np.ones(2)}, {"a": np.ones(2), "b": "\x00"}, ["\"\x00", np.ones((2, 2))],
        {"\"\x00": [np.zeros(1), "x\x00"]},
    ], ids=["key", "value", "quoted", "quoted-key"])
    def test_strings_like_the_placeholder_keep_their_text(self, obj):
        # Each array is laid out around a placeholder string, "\x00"; a
        # document that holds that text elsewhere is laid out by json alone.
        oracle = json.loads(json.dumps(obj, default=np.ndarray.tolist))
        assert cli._json_text(obj) == _json_oracle(oracle).encode("ascii")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_and_leaves_no_file(self, tmp_path, monkeypatch, bad):
        arr = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ArithmeticError, match=f"^non-finite number {bad!r} in the JSON"):
            cli._json_text({"a": arr})
        monkeypatch.setattr(cli, "cmd_brackets", lambda rc, args: (cli.EXIT_OK, {"omega": arr}))
        out = tmp_path / "out.json"
        assert run(["brackets", "--config", write_config(tmp_path, BASE),
                    "--out", str(out)]) == cli.EXIT_SINGULAR
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("arr", [np.array([1, 2]), np.array([1j]), np.array([True]),
                                     np.array([1.0], dtype=object),
                                     np.array([1.0], dtype=np.float32)])
    def test_other_arrays_raise_type_error(self, arr):
        with pytest.raises(TypeError):
            cli._json_text({"a": arr})


class TestLevelRecords:
    """The streamed levels list is the text json.dumps gives the records."""

    @staticmethod
    def check(table):
        got = b'{\n  "levels": [\n    ' + b"".join(cli._level_records(table)) + b"\n  ]\n}"
        levels = [{"energy": e, "n": n}
                  for e, n in zip(table.energies.tolist(), table.quanta.tolist())]
        assert got == _json_oracle({"levels": levels}).encode("ascii")

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("hbar", [1e-300, 1e-7, 1.0, 1e17, 1e300])
    def test_ladders(self, d, hbar):
        freqs = [1.0, 0.7071067811865476, 0.3, 2.5][:d]
        self.check(spectrum.ladder(freqs, hbar, {1: 40, 2: 9, 3: 4, 4: 3}[d]))

    def test_seven_digit_quanta(self):
        quanta = np.array([[0], [9], [10], [999999], [1000000], [1999999]])
        energies = 0.1 * (quanta[:, 0] + 0.5)
        self.check(spectrum.SpectrumTable(quanta, energies, 1.0, (0.1,)))

    def test_non_finite_energy_refused(self):
        table = spectrum.ladder([1.0], 1.0, 2)
        table.energies[1] = np.inf
        with pytest.raises(ArithmeticError, match="non-finite level energy"):
            cli._level_records(table)


class TestRecords:
    """Subcommands return (exit code, payload); `main` alone writes."""

    def test_main_calls_the_module_binding(self, tmp_path, monkeypatch):
        # A wrapper bound to the module name, as a tracer binds it, sees the call.
        calls = []
        original = cli.cmd_brackets

        def wrapper(rc, args):
            calls.append(args.command)
            return original(rc, args)

        monkeypatch.setattr(cli, "cmd_brackets", wrapper)
        out = tmp_path / "br.json"
        assert run(["brackets", "--config", write_config(tmp_path, BASE),
                    "--out", str(out)]) == cli.EXIT_OK
        assert calls == ["brackets"] and out.exists()

    @pytest.mark.parametrize("argv, cfg, code", [
        (["brackets"], BASE, cli.EXIT_OK),
        (["brackets"], dict(BASE, field={"B": 1.0, "C": -1.0}), cli.EXIT_SINGULAR),
        (["darboux"], BASE, cli.EXIT_OK),
        (["simulate"], dict(BASE, state=[1.0, 0.0, 0.0, 1.0], time={"t_final": 1.0, "dt": 0.1}),
         cli.EXIT_OK),
        (["spectrum", "--nmax", "2"], BASE, cli.EXIT_OK),
        (["limit-scan", "--points", "3"], BASE, cli.EXIT_OK),
        (["reduce"], BASE, cli.EXIT_OK),
        (["reduce"], _PROBLEM, cli.EXIT_INCONSISTENT),
    ])
    def test_subcommands_return_records_and_write_nothing(self, tmp_path, capsys,
                                                           argv, cfg, code):
        args = cli.build_parser().parse_args(
            [argv[0], "--config", write_config(tmp_path, cfg)] + argv[1:])
        command = getattr(cli, "cmd_" + argv[0].replace("-", "_"))
        got, payload = command(cli.load_config(args.config), args)
        assert got == code
        if not isinstance(payload, dict):
            assert all(isinstance(chunk, (bytes, bytearray)) for chunk in payload)
        assert capsys.readouterr() == ("", "")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
