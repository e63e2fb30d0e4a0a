"""The hard-config corpus: configs that have broken the program, each with
the outcome a correct program gives.

An entry is (config, subcommand, expected outcome), run in process
through `cli.main` with every warning an error.  The outcomes:

- OK: exit 0, and the output agrees with an mpmath oracle of
  `closed_forms` within the bound of its check below (on a planar chi = 0
  field, with the closed-form reduced rotation of the terminal stage);
- REFUSED: exit 2, one stderr line that starts with the entry's text,
  and no file;
- OK_OR_FAILURE: OK, or REFUSED with a numerical-failure line;
- SINGULAR: exit 2 with the `brackets` singular report, its `det_psi`
  within 1e-8 of the mpmath det Psi.

An entry the program gets wrong today is a strict xfail naming the
ROADMAP item that mends it, so the change that mends it also removes the
mark.  The CHANGES.md FOUND line of each config names its test id here.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ncphase import cli, spectrum
from ncphase import dynamics as dyn
from ncphase import structure as st

import closed_forms as cf

pytestmark = pytest.mark.filterwarnings("error")

OK, OK_OR_FAILURE, SINGULAR = "ok", "ok-or-failure", "singular"
FAILURE = "ncphase: numerical failure: "
TIMES = [0.0, 0.5, 1.0]
UNIT_DIAGONAL = np.array([1.0, 2.0, 2.0]) / 3.0


def _config(field, model=None, tol=None):
    n = 3 if "Bvec" in field else 2
    cfg = {"schema_version": 1, "N": n, "field": field,
           "model": model or {"m": 1.0, "kappa": 1.0},
           "state": [1.0] + [0.0] * (2 * n - 2) + [1.0],
           "time": {"t_final": TIMES[-1], "dt": TIMES[1]}}
    if tol is not None:
        cfg["tolerances"] = {"singular": tol}
    return cfg


# name: (config, mpmath digits its oracles need)
CONFIGS = {
    "oblique-1e300": (_config({"Bvec": (1e300 * UNIT_DIAGONAL).tolist(),
                               "Cvec": UNIT_DIAGONAL.tolist()}), 700),
    # The same family at |B| = 10^e; det Psi = (1 + 10^e)^2.
    **{f"oblique-1e{e}": (_config({"Bvec": (10.0 ** e * UNIT_DIAGONAL).tolist(),
                                   "Cvec": UNIT_DIAGONAL.tolist()}), 2 * e + 60)
       for e in (12, 16, 20, 40, 100)},
    "B1e300-C1e-300": (_config({"B": 1e300, "C": 1e-300}), 700),
    "B1e150-C1e300": (_config({"B": 1e150, "C": 1e300}), 700),
    "B1e200-kappa1e200": (_config({"B": 1e200, "C": 1.0}, {"m": 1.0, "kappa": 1e200}), 700),
    "B2to18-C2to-18": (_config({"B": 2.0**18, "C": 2.0**-18}), 60),
    "B2to34-C2to-34": (_config({"B": 2.0**34, "C": 2.0**-34}), 60),
    "chi1e-7": (_config({"B": 1.0, "C": -0.9999999}), 60),
    # chi = -1: no closed-form chart, but a Darboux map and a moment map.
    "B2-C-1": (_config({"B": 2.0, "C": -1.0}), 60),
    "C1.5-tol4": (_config({"B": 1.0, "C": 1.5}, tol=4.0), 60),
    # An oblique field of mixed scales (ROADMAP item 21): a frequency spread
    # of 1e40, where double precision resolves no middle mode.
    "oblique-mixed": (_config({"Bvec": [-3.8371050050382895e-85, 3.556578951425496e-85,
                                        1.413272101775584e-85],
                               "Cvec": [-1.111604476896361e+22, 1.0306431700304927e+22,
                                        4.0947106950188614e+21]},
                              {"m": 0.024545923060614747, "kappa": 0.001705428817437341}), 400),
    # A chi = 0 field whose chain, built on the raw data, over-cut its
    # terminal stage to dimension 0 (ROADMAP items 9 and 21); the start
    # q0 = 1, p0 = i m kappa q0 / B is on the secondary constraints.
    "chi0-over-cut": (dict(_config({"B": 5074788.115583803, "C": -1.0 / 5074788.115583803},
                                   {"m": 1788489525.6778197, "kappa": 7055.521709333194}),
                           state=[1.0, 0.0, 0.0, 2486552.4210922113]), 60),
    # chi = 1e-12 kept regular by tolerances.singular = 1e-30: the
    # closed-form Lambda is checked against a dense inverse of Omega that
    # is 7.2e-6 off, and refused.
    "B1.7-chi1e-12": (_config({"B": 1.7, "C": (1e-12 - 1.0) / 1.7}, tol=1e-30), 60),
    # The limit scan's on-constraint start p0 = m kappa / B overflows.
    "B1e-300-kappa1e100": (_config({"B": 1e-300, "C": 0.5}, {"m": 1.0, "kappa": 1e100}), 60),
}
LIMIT_SCAN = (_config({"B": 6.0, "C": 0.0}, {"m": 0.25, "kappa": 0.25}),
              ("--eps-min", "1e-3", "--eps-max", "1", "--points", "20"))


def _xfail(item, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


DET_PSI_INF = "ncphase brackets: det Psi = inf is not finite"
ENTRIES = [
    ("oblique-1e300", "brackets", DET_PSI_INF,
     _xfail(17, "the LU of Psi cancels to det Psi = 0.0, a singular report")),
    ("oblique-1e300", "darboux", OK_OR_FAILURE,
     _xfail(17, "refused as a singular structure (det Psi = 0.0)")),
    ("oblique-1e300", "simulate", OK_OR_FAILURE,
     _xfail(17, "exit 1: the state violates constraints of the degenerate route")),
    ("oblique-1e300", "spectrum", OK_OR_FAILURE,
     _xfail(17, "exit 0 with the one frequency 1e-300, not [1, 1, 1e-300]")),
    ("oblique-1e300", "reduce", OK,
     _xfail(17, "det Psi = 0.0 takes the chain: dimensions [6, 2], gauge dimension 4")),
    ("oblique-1e12", "brackets", OK,
     _xfail(17, "exit 0 with det_psi 1.0000542534754714e+24, exact 1.000000000002e24; "
                "its Lambda is 2.0e-9 off too (item 20)")),
    ("oblique-1e16", "brackets", OK,
     _xfail(20, "closed-form Poisson blocks disagree with dense inversion")),
    ("oblique-1e20", "brackets", OK,
     _xfail(20, "closed-form Poisson blocks disagree with dense inversion")),
    ("oblique-1e40", "brackets", OK,
     _xfail(17, "the LU of Psi cancels to det Psi = 0.0, a singular report")),
    ("oblique-1e100", "brackets", OK,
     _xfail(20, "closed-form Poisson blocks disagree with dense inversion")),
    ("B1e300-C1e-300", "brackets", OK, None),
    ("B1e300-C1e-300", "darboux", OK, None),
    ("B1e300-C1e-300", "simulate", "ncphase simulate: non-finite trajectory", None),
    ("B1e300-C1e-300", "spectrum", OK, None),
    ("B1e300-C1e-300", "reduce", OK, None),
    ("B1e150-C1e300", "brackets", DET_PSI_INF, None),
    ("B1e150-C1e300", "darboux", OK, None),
    ("B1e150-C1e300", "simulate", OK, None),
    ("B1e150-C1e300", "spectrum", OK, None),
    ("B1e150-C1e300", "reduce", OK, None),
    ("B1e200-kappa1e200", "brackets", DET_PSI_INF, None),
    ("B1e200-kappa1e200", "darboux", OK, None),
    ("B1e200-kappa1e200", "simulate", OK, None),
    ("B1e200-kappa1e200", "spectrum", OK, None),
    ("B1e200-kappa1e200", "reduce", OK, None),
    ("B2to18-C2to-18", "brackets", OK, None),
    ("B2to18-C2to-18", "darboux", OK, None),
    ("B2to18-C2to-18", "simulate", OK, None),
    ("B2to18-C2to-18", "spectrum", OK, None),
    ("B2to18-C2to-18", "reduce", OK, None),
    ("B2to34-C2to-34", "brackets", OK, None),
    ("B2to34-C2to-34", "darboux", OK, None),
    ("B2to34-C2to-34", "simulate", OK, None),
    ("B2to34-C2to-34", "spectrum", OK, None),
    ("B2to34-C2to-34", "reduce", OK, None),
    ("chi1e-7", "brackets", SINGULAR, None),
    ("chi1e-7", "darboux", "ncphase: singular structure: det Psi = 1.000e-14", None),
    ("chi1e-7", "simulate", OK, None),
    ("chi1e-7", "spectrum", OK, None),
    ("chi1e-7", "reduce", OK, None),
    ("B2-C-1", "darboux", OK, None),
    ("B2-C-1", "simulate", OK, None),
    ("C1.5-tol4", "brackets", OK, None),
    ("C1.5-tol4", "darboux", OK, None),
    ("C1.5-tol4", "simulate", OK, None),
    ("C1.5-tol4", "spectrum", OK, None),
    ("C1.5-tol4", "reduce", OK, None),
    ("oblique-mixed", "spectrum", FAILURE + "a frequency spread", None),
    ("oblique-mixed", "reduce", FAILURE + "a frequency spread", None),
    ("chi0-over-cut", "simulate", OK, None),
    ("chi0-over-cut", "spectrum", OK, None),
    ("chi0-over-cut", "reduce", OK, None),
    ("B1.7-chi1e-12", "brackets", OK,
     _xfail(20, "closed-form Poisson blocks disagree with dense inversion (rel 7.184e-06); "
                "unchecked, Lambda is 4.0e-12 off and det_psi (LU of Psi) 1.0e-4")),
    ("B1.7-chi1e-12", "spectrum", OK,
     _xfail(20, "closed-form Poisson blocks disagree with dense inversion (rel 7.184e-06); "
                "unchecked, the frequencies are 3.5e-12 off")),
    ("B1.7-chi1e-12", "simulate", OK,
     _xfail(20, "closed-form Poisson blocks disagree with dense inversion (rel 7.184e-06)")),
    ("B1.7-chi1e-12", "reduce", OK,
     _xfail(20, "closed-form Poisson blocks disagree with dense inversion (rel 7.184e-06)")),
    ("B1e-300-kappa1e100", "limit-scan",
     FAILURE + "the start [1.0, 0.0, 0.0, inf] of the limit scan is not finite", None),
]


def _structure(config):
    """The FieldConfig and model of ``config``, built without the CLI."""
    field, model = config["field"], config["model"]
    cfg = (st.field_config_n3(field["Bvec"], field["Cvec"]) if "Bvec" in field
           else st.field_config_n2(field["B"], field["C"]))
    return cfg, dyn.OscillatorModel(m=model["m"], kappa=model["kappa"])


def _det_psi_mpmath(cfg, dps):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        psi = mp.eye(cfg.N) - mp.matrix(cfg.rG.tolist()) * mp.matrix(cfg.eF.tolist())
        return float(mp.det(psi))


def _rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.abs(got - want).max() / np.abs(want).max())


def check_brackets(text, cfg, model, dps):
    rep = json.loads(text)
    assert rep["status"] == "ok"
    assert _rel(rep["poisson"], cf.lambda_mpmath(cfg, dps)) <= 1e-15
    assert _rel(rep["det_psi"], _det_psi_mpmath(cfg, dps)) <= 1e-15


def check_darboux(text, cfg, model, dps):
    # T^T J T - Omega of the written T, summed exactly in mpmath.
    mp = pytest.importorskip("mpmath")
    rep = json.loads(text)
    omega = st.build_omega(cfg)
    with mp.workdps(50):
        t = mp.matrix(rep["T"])
        residual = t.T * mp.matrix(st.canonical_j(cfg.N).tolist()) * t - mp.matrix(omega.tolist())
        worst = float(max(abs(x) for x in residual))
    assert worst <= 1e-15 * np.abs(omega).max()
    assert rep["sp_equivalence_residual"] <= 1e-15


def _chi0_c(cfg):
    """C of a planar field with chi = 1 + B C = 0 up to the rounding of
    C = -1/B, else None."""
    if cfg.N != 2:
        return None
    B, C = float(cfg.eF[0, 1]), float(cfg.rG[0, 1])
    return C if abs(1.0 + B * C) <= 4 * np.finfo(float).eps else None


def check_simulate(text, cfg, model, dps):
    # The propagator rounds relative to |M| t_final, about 2e7 at chi = 1e-7
    # (error measured there: 4.4e-10).
    lines = text.splitlines()
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    assert rows[:, 0].tolist() == TIMES
    states, last = rows[:, 1:1 + 2 * cfg.N], lines[0].rsplit(",", 1)[1]
    C = _chi0_c(cfg)
    if C is not None:  # the reduced rotation from the start in row 0
        want = cf.degenerate_flow_n2(model, C, states[0], TIMES)
        assert np.abs(states - want).max() <= 1e-12 * np.abs(want).max()
        assert last == "constraint_residual"
        assert np.abs(rows[:, -2] - rows[0, -2]).max() <= 1e-12 * rows[0, -2]
        return
    want = cf.trajectory_mpmath(cfg, model, [1.0] + [0.0] * (2 * cfg.N - 2) + [1.0],
                                TIMES, dps)
    stiffness = max(1.0, cf.frequencies_mpmath(cfg, model, dps)[0] * TIMES[-1])
    assert (np.abs(states - want).max()
            <= 1e-12 * stiffness * max(1.0, np.abs(want).max()))
    # Off the degenerate route, a Lambda3 column exactly where Omega A is
    # symmetric, each value the moment map of its row's state to rounding.
    if last != "constraint_residual":
        assert (last == "Lambda3") == cf.commutes_with_rotation(cfg)
    if last == "Lambda3":
        assert (np.abs(rows[:, -1] - cf.moment_map_mpmath(cfg, states))
                <= 8 * np.finfo(float).eps * cf.moment_map_scale(cfg, states)).all()


def _frequencies(cfg, model, dps):
    """The oracle's normal-mode frequencies, descending."""
    C = _chi0_c(cfg)
    if C is not None:
        return [abs(cf.degenerate_omega_r(model, C))]
    return cf.frequencies_mpmath(cfg, model, dps)


def check_spectrum(text, cfg, model, dps):
    freqs = json.loads(text)["frequencies"]
    want = _frequencies(cfg, model, dps)
    assert np.abs(np.array(freqs) / want - 1.0).max() <= 1e-14


def check_reduce(text, cfg, model, dps):
    rep = json.loads(text)
    # +-i w, ascending, each w to check_spectrum's bound.
    want = np.array(_frequencies(cfg, model, dps))
    assert (rep["status"], rep["dimensions"], rep["gauge_dimension"]) == (
        "consistent", [2 * cfg.N] + ([2 * len(want)] if len(want) < cfg.N else []), 0)
    imag = np.array(rep["eigenvalues"]["imag"])
    assert np.abs(imag / np.concatenate([-want, want[::-1]]) - 1.0).max() <= 1e-14
    assert rep["eigenvalues"]["real"] == [0.0] * len(imag)


CHECKS = {"brackets": check_brackets, "darboux": check_darboux, "simulate": check_simulate,
          "spectrum": check_spectrum, "reduce": check_reduce}


def _run(capsys, command, config, *args):
    """(exit code, stderr lines, output text or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(path), "--out", str(out), *args])
        text = out.read_text() if out.exists() else None
    return code, capsys.readouterr().err.splitlines(), text


@pytest.mark.parametrize("name, command, outcome", [
    pytest.param(name, command, outcome, id=f"{name}-{command}", marks=mark or ())
    for name, command, outcome, mark in ENTRIES])
def test_outcome(capsys, name, command, outcome):
    config, dps = CONFIGS[name]
    cfg, model = _structure(config)
    code, err, text = _run(capsys, command, config)
    if outcome == OK_OR_FAILURE:
        outcome = OK if code == cli.EXIT_OK else FAILURE
    if outcome == OK:
        assert (code, err) == (cli.EXIT_OK, [])
        CHECKS[command](text, cfg, model, dps)
    elif outcome == SINGULAR:
        assert (code, err) == (cli.EXIT_SINGULAR, [])
        rep = json.loads(text)
        assert rep["status"] == "singular"
        assert _rel(rep["det_psi"], _det_psi_mpmath(cfg, dps)) <= 1e-8
    else:
        assert code == cli.EXIT_SINGULAR
        assert len(err) == 1 and err[0].startswith(outcome), err
        assert text is None


@_xfail(15, "the eps = 1e-3 row's error estimate 1.2e-5 refuses a value "
            "within 1.8e-7 of the oracle")
def test_limit_scan_to_eps_1e_3(capsys):
    config, args = LIMIT_SCAN
    code, err, text = _run(capsys, "limit-scan", config, *args)
    assert (code, err) == (cli.EXIT_OK, [])
    m, kappa, B = config["model"]["m"], config["model"]["kappa"], config["field"]["B"]
    model = dyn.OscillatorModel(m=m, kappa=kappa)
    rows = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    assert rows.shape == (20, 5)
    for eps, w_plus, w_minus, _, amplitude in rows:
        C = (eps * eps - 1.0) / B
        want = cf.frequencies_mpmath(st.field_config_n2(B, C), model, 60)
        assert np.abs(np.array([w_plus, w_minus]) / want - 1.0).max() <= 1e-13
        fast, _ = cf.fast_q_coeffs_mpmath(m, kappa, B, eps, C)
        assert abs(amplitude - float(fast)) <= spectrum.AMPLITUDE_ACCURACY * float(fast)
