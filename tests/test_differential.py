"""Differential properties across subcommands: `spectrum` and `reduce`
report one normal-mode computation, and `simulate` steps the flow of the
one constraint chain that both read.

Wherever Hess H is positive definite and both exit 0, `reduce`'s
eigenvalues are +-i times `spectrum`'s frequencies, bit for bit, with real
parts 0.0, and its terminal stage holds one pair per frequency.  Any other
exit is 2, with one line on stderr and no output file.  The draws are
planar chi = 0 fields (|B| in 10^+-8, m and kappa in 10^+-12) and oblique
N = 3 fields (|B| and |C| in 10^+-100, m and kappa in 10^+-3).  On the
planar chi = 0 draws, `simulate` from a start on the closed-form secondary
constraints exits 0 and follows the closed-form reduced rotation.  The run is
derandomized with a fixed budget, so no local example database replays
another draw; a failure found here becomes an `@example`, and the property
is never widened to let a draw pass.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ncphase import cli, dynamics, structure

import closed_forms as cf


def _scale(lo, hi):
    return hst.floats(lo, hi).map(lambda e: 10.0 ** e)


def _config(field, m, kappa):
    return {"schema_version": 1, "N": 3 if "Bvec" in field else 2, "field": field,
            "model": {"m": m, "kappa": kappa}}


@hst.composite
def _planar_chi0(draw):
    B = draw(hst.sampled_from([-1.0, 1.0])) * draw(_scale(-8, 8))
    return _config({"B": B, "C": -1.0 / B}, draw(_scale(-12, 12)), draw(_scale(-12, 12)))


@hst.composite
def _oblique(draw):
    def field_vector():
        v = np.array(draw(hst.lists(hst.floats(-1, 1), min_size=3, max_size=3)
                          .filter(lambda v: np.linalg.norm(v) > 0.1)))
        return (v / np.linalg.norm(v) * draw(_scale(-100, 100))).tolist()
    return _config({"Bvec": field_vector(), "Cvec": field_vector()},
                   draw(_scale(-3, 3)), draw(_scale(-3, 3)))


def _run(command, config, *args, parse=json.loads):
    """(exit code, stderr lines, parsed output or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(out), *args])
        report = parse(out.read_text()) if out.exists() else None
    return code, err.getvalue().splitlines(), report


# The mixed-scale oblique field of ROADMAP item 21: a frequency spread of
# 1e40, which both must refuse (`eigvals` of its flow has real parts of 2048).
MIXED_OBLIQUE = _config(
    {"Bvec": [-3.8371050050382895e-85, 3.556578951425496e-85, 1.413272101775584e-85],
     "Cvec": [-1.111604476896361e+22, 1.0306431700304927e+22, 4.0947106950188614e+21]},
    0.024545923060614747, 0.001705428817437341)
# A chi = 0 field whose raw-data chain over-cuts to dimension 0, while the
# chain where Hess H = I keeps 2.
OVER_CUT = _config({"B": 5074788.115583803, "C": -1.0 / 5074788.115583803},
                   1788489525.6778197, 7055.521709333194)
# A chi = 0 field whose whitened two-form has entries near 1e-10, cut by
# the chain unless the form is scaled to unit size first.
STIFF_CHI0 = _config({"B": 1.545773989453215, "C": -1.0 / 1.545773989453215},
                     2.8829074819845476e-09, 58558066872.5091)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hst.one_of(_planar_chi0(), _oblique()))
@example(MIXED_OBLIQUE)
@example(OVER_CUT)
@example(STIFF_CHI0)
def test_reduce_reports_the_spectrum_frequencies(config):
    runs = {"spectrum": _run("spectrum", config, "--nmax", "0"), "reduce": _run("reduce", config)}
    for code, err, report in runs.values():
        if code != cli.EXIT_OK:
            assert (code, len(err), report) == (cli.EXIT_SINGULAR, 1, None), (code, err)
    if all(code == cli.EXIT_OK for code, _, _ in runs.values()):
        freqs, rep = runs["spectrum"][2]["frequencies"], runs["reduce"][2]
        assert rep["eigenvalues"]["imag"] == [-f for f in freqs] + freqs[::-1]
        # As text, so that a real part of -0.0 fails too.
        assert json.dumps(rep["eigenvalues"]["real"]) == json.dumps([0.0] * (2 * len(freqs)))
        assert rep["dimensions"][-1] == 2 * len(freqs)


def _csv_rows(text):
    return np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_planar_chi0())
@example(OVER_CUT)
@example(STIFF_CHI0)
def test_simulate_follows_the_reduced_rotation(config):
    m, kappa = config["model"]["m"], config["model"]["kappa"]
    B, C = config["field"]["B"], config["field"]["C"]
    fields, model = structure.field_config_n2(B, C), dynamics.OscillatorModel(m=m, kappa=kappa)
    z0 = [1.0, 0.0, 0.0, m * kappa / B]
    oracle = cf.secondary_constraints(fields, model)
    assert oracle.residual(z0) <= 1e-14 * np.abs(oracle.matrix).max() * max(1.0, abs(z0[3]))
    # About one radian of the reduced rotation, in four steps.
    t_final = 1.0 / abs(cf.degenerate_omega_r(model, C))
    run = dict(config, state=z0, time={"t_final": t_final, "dt": t_final / 4})
    code, err, rows = _run("simulate", run, parse=_csv_rows)
    assert (code, err) == (cli.EXIT_OK, [])
    reduce, spectrum = _run("reduce", config), _run("spectrum", config, "--nmax", "0")
    assert reduce[:2] == (cli.EXIT_OK, [])
    # `simulate` exponentiates the terminal flow M in z, so its rounding
    # grows with |M| t_final (up to 1.7e6 on these draws, ROADMAP item 9),
    # on top of the conditioning of the chain's solve.
    stiffness = np.abs(reduce[2]["terminal_flow"]).max() * t_final
    want = cf.degenerate_flow_n2(model, C, z0, rows[:, 0], tol=np.inf)  # checked above
    assert (np.abs(rows[:, 1:5] - want).max()
            <= (1e-11 + 4 * np.finfo(float).eps * stiffness) * np.abs(want).max())
    if spectrum[0] == cli.EXIT_OK:
        assert reduce[2]["dimensions"][-1] == 2 * len(spectrum[2]["frequencies"]) == 2
