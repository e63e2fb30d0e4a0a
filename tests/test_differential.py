"""A differential property across subcommands: `spectrum` and `reduce`
report one normal-mode computation.

Wherever Hess H is positive definite and both exit 0, `reduce`'s
eigenvalues are +-i times `spectrum`'s frequencies, bit for bit, with real
parts 0.0, and its terminal stage holds one pair per frequency.  Any other
exit is 2, with one line on stderr and no output file.  The draws are
planar chi = 0 fields (|B| in 10^+-8, m and kappa in 10^+-12) and oblique
N = 3 fields (|B| and |C| in 10^+-100, m and kappa in 10^+-3).  The run is
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

from ncphase import cli


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


def _run(command, config, *args):
    """(exit code, stderr lines, report or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(out), *args])
        report = json.loads(out.read_text()) if out.exists() else None
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
