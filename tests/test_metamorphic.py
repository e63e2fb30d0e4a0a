"""The paper's symmetries as metamorphic tests of the command line.

Two symplectic maps of the phase space carry one config to another whose
outputs are known from the first run's, at any N, with no closed form:

- a rotation R of the coordinates lifts to D = diag(R, R): the fields go
  to R eF R^T and R rG R^T and a state z to D z.  `brackets` must give
  D Lambda D^T, `spectrum` the same frequencies, `simulate` the rows D z(t)
  with the same H, and `reduce` the same stage and gauge dimensions;
- q = a q', p = p' / a with a = 2^k keeps dq ^ dp and gives eF' = a^2 eF,
  rG' = rG / a^2, m' = a^2 m, kappa' = a^2 kappa and z' = (q / a, a p).
  Every product of the structure and of the spectrum then scales by a
  power of two, which is exact: `brackets` must give D Lambda D^T with
  D = diag(I / a, a I), and `spectrum` the same frequencies, both bit for
  bit, with det Psi unchanged.  `simulate` may differ in rounding only,
  because the Pade degree of the propagator follows the norm of M dt.
  `B = 2^k, C = 2^-k` is `B = C = 1` so rescaled, regular at every k:
  `brackets`, `darboux`, `spectrum` and `reduce` must take one route.

Each run goes through `cli.main`, in process, on a written config.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ncphase import cli

# Largest differences measured over 200 random problems at N = 2..6
# (trajectories: t_final = 2, dt = 0.01, 60 of them): rotated Lambda
# 6.7e-15 and frequencies 8.7e-15 relative, rotated rows 6.6e-14 relative
# to the largest |z| and H 3.5e-15.  Over 300 rescaled trajectories the
# rows and H differ by at most 4.3e-15 a^2 (a = 2^|k|; 3.4e-11 at |k| = 8):
# the propagator of the rescaled flow D M D^-1 rounds relative to its
# norm, up to a^2 times that of M.  The bounds leave a factor of 15 or more.
ROTATION_TOL = 1e-12
RESCALING_TOL = 1e-13  # times a^2

SEEDS = hst.integers(0, 2**32 - 1)
DIMENSIONS = hst.integers(2, 6)


def _antisymmetric(rng, n):
    a = rng.uniform(-1.0, 1.0, (n, n))
    return a - a.T


def _problem(seed, n):
    """Random regular fields, a harmonic model and a state at dimension n."""
    rng = np.random.default_rng(seed)
    while True:
        eF, rG = _antisymmetric(rng, n), _antisymmetric(rng, n)
        if abs(np.linalg.det(np.eye(n) - rG @ eF)) > 1e-2:
            break
    m, kappa = rng.uniform(0.5, 2.0, 2)
    return eF, rG, float(m), float(kappa), rng.uniform(-1.0, 1.0, 2 * n)


def _rotation(seed, n):
    q, r = np.linalg.qr(np.random.default_rng(seed + 1).normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _config(eF, rG, m, kappa, state):
    return {"schema_version": 1, "N": len(eF),
            "field": {"eF": eF.tolist(), "rG": rG.tolist()},
            "model": {"m": m, "kappa": kappa}, "state": list(state),
            "time": {"t_final": 2.0, "dt": 0.01}}


def _run(command, config, *args):
    """(exit code, output text) of one subcommand on ``config``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(path), "--out", str(out), *args])
        return code, out.read_text() if out.exists() else None


def _report(command, config, *args):
    code, text = _run(command, config, *args)
    assert code == cli.EXIT_OK
    return json.loads(text)


def _rows(config):
    code, text = _run("simulate", config)
    assert code == cli.EXIT_OK
    return np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)


def _rotated(R, eF, rG, m, kappa, state):
    """The config of R eF R^T, R rG R^T (antisymmetric to the last bit)
    and D z."""
    n = len(R)
    eF, rG = R @ eF @ R.T, R @ rG @ R.T
    return _config(0.5 * (eF - eF.T), 0.5 * (rG - rG.T), m, kappa,
                   np.concatenate([R @ state[:n], R @ state[n:]]))


def _rescaled(k, eF, rG, m, kappa, state):
    a, n = 2.0 ** k, len(eF)
    return _config(a * a * eF, rG / (a * a), a * a * m, a * a * kappa,
                   np.concatenate([state[:n] / a, a * state[n:]]))


@settings(max_examples=15, deadline=None)
@given(SEEDS, DIMENSIONS)
def test_rotation_maps_brackets_and_spectrum(seed, n):
    eF, rG, m, kappa, z0 = _problem(seed, n)
    R = _rotation(seed, n)
    D = np.kron(np.eye(2), R)
    plain = _config(eF, rG, m, kappa, z0)
    turned = _rotated(R, eF, rG, m, kappa, z0)

    lam = np.array(_report("brackets", plain)["poisson"])
    lam_turned = np.array(_report("brackets", turned)["poisson"])
    assert np.abs(lam_turned - D @ lam @ D.T).max() <= ROTATION_TOL * np.abs(lam).max()

    freqs = np.array(_report("spectrum", plain, "--nmax", "0")["frequencies"])
    freqs_turned = np.array(_report("spectrum", turned, "--nmax", "0")["frequencies"])
    assert np.abs(freqs_turned / freqs - 1.0).max() <= ROTATION_TOL


@settings(max_examples=10, deadline=None)
@given(SEEDS, DIMENSIONS)
def test_rotation_maps_trajectories(seed, n):
    eF, rG, m, kappa, z0 = _problem(seed, n)
    R = _rotation(seed, n)
    D = np.kron(np.eye(2), R)
    rows = _rows(_config(eF, rG, m, kappa, z0))
    rows_turned = _rows(_rotated(R, eF, rG, m, kappa, z0))
    scale = np.abs(rows[:, 1:2 * n + 1]).max()
    assert np.array_equal(rows_turned[:, 0], rows[:, 0])
    assert np.abs(rows_turned[:, 1:2 * n + 1] - rows[:, 1:2 * n + 1] @ D.T).max() \
        <= ROTATION_TOL * scale
    assert np.abs(rows_turned[:, 2 * n + 1] - rows[:, 2 * n + 1]).max() \
        <= ROTATION_TOL * np.abs(rows[:, 2 * n + 1]).max()


@settings(max_examples=10, deadline=None)
@given(SEEDS, DIMENSIONS, hst.floats(0.5, 2.0))
def test_rotation_keeps_the_constraint_chain(seed, n, b):
    # rG = eF^-1 on a random 2-plane makes Psi singular there; generic
    # fields on the complement keep the rest of the chain nontrivial.
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    plane, rest = basis[:, :2], basis[:, 2:]
    eps = plane @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ plane.T
    eF = b * eps + rest @ _antisymmetric(rng, n - 2) @ rest.T
    rG = -eps / b + rest @ _antisymmetric(rng, n - 2) @ rest.T
    eF, rG = 0.5 * (eF - eF.T), 0.5 * (rG - rG.T)
    z0 = np.zeros(2 * n)
    R = _rotation(seed, n)
    keys = ("status", "dimensions", "gauge_dimension")
    plain = _report("reduce", _config(eF, rG, 1.0, 1.0, z0))
    turned = _report("reduce", _rotated(R, eF, rG, 1.0, 1.0, z0))
    assert plain["dimensions"][-1] < 2 * n
    assert [plain[key] for key in keys] == [turned[key] for key in keys]


@settings(max_examples=15, deadline=None)
@given(SEEDS, DIMENSIONS, hst.integers(-8, 8))
def test_power_of_two_rescaling_is_exact(seed, n, k):
    eF, rG, m, kappa, z0 = _problem(seed, n)
    a = 2.0 ** k
    d = np.concatenate([np.full(n, 1.0 / a), np.full(n, a)])
    plain = _config(eF, rG, m, kappa, z0)
    scaled = _rescaled(k, eF, rG, m, kappa, z0)

    rep, rep_scaled = _report("brackets", plain), _report("brackets", scaled)
    assert rep_scaled["det_psi"] == rep["det_psi"]
    lam = np.array(rep["poisson"])
    assert np.array_equal(np.array(rep_scaled["poisson"]), d[:, None] * lam * d)

    freqs = _report("spectrum", plain, "--nmax", "0")["frequencies"]
    assert _report("spectrum", scaled, "--nmax", "0")["frequencies"] == freqs


@settings(max_examples=10, deadline=None)
@given(SEEDS, DIMENSIONS, hst.integers(-8, 8))
def test_power_of_two_rescaling_maps_trajectories(seed, n, k):
    eF, rG, m, kappa, z0 = _problem(seed, n)
    a = 2.0 ** k
    rows = _rows(_config(eF, rG, m, kappa, z0))
    rows_scaled = _rows(_rescaled(k, eF, rG, m, kappa, z0))
    back = rows_scaled[:, 1:2 * n + 1] * np.concatenate([np.full(n, a), np.full(n, 1.0 / a)])
    scale = np.abs(rows[:, 1:2 * n + 1]).max()
    assert np.array_equal(rows_scaled[:, 0], rows[:, 0])
    tol = RESCALING_TOL * 4.0 ** abs(k)
    assert np.abs(back - rows[:, 1:2 * n + 1]).max() <= tol * scale
    assert np.abs(rows_scaled[:, 2 * n + 1] - rows[:, 2 * n + 1]).max() \
        <= tol * np.abs(rows[:, 2 * n + 1]).max()


@pytest.mark.filterwarnings("error")
@settings(max_examples=20, deadline=None)
@given(hst.integers(-1000, 1000))
@example(18)
@example(-18)
@example(34)
@example(-34)
@example(996)
@example(-996)
def test_power_of_two_fields_take_one_route(k):
    # B = 2^k, C = 2^-k has chi = 2 and det Psi = 4, exactly, at every k,
    # with m = kappa = 1 or 2^k.  The four subcommands must agree on the
    # route, with nothing on stderr.
    a2 = 2.0 ** k
    for m in (1.0, a2):
        config = {"schema_version": 1, "N": 2, "field": {"B": a2, "C": 1.0 / a2},
                  "model": {"m": m, "kappa": m}}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            brackets = json.loads(_run("brackets", config)[1])["status"] == "ok"
            darboux = _run("darboux", config)[0] == cli.EXIT_OK
            spectrum = _report("spectrum", config, "--nmax", "0")["kind"] == "normal-modes"
            rep = _report("reduce", config)
        reduce = (rep["dimensions"], rep["gauge_dimension"]) == ([4], 0)
        assert err.getvalue() == ""
        assert brackets == darboux == spectrum == reduce, (m, brackets, darboux, spectrum, reduce)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the eigenvalues of the unbalanced flow")
@pytest.mark.parametrize("k", [996, -996])
def test_rescaled_reduce_keeps_its_report(k):
    # B = 2^k, C = 2^-k is B = C = 1 rescaled by a^2 = 2^k: chi = 2, and
    # `reduce` reports the one-stage chain of a regular Omega, as at k = 0.
    # `np.linalg.eigvals` of the unbalanced flow gives +-0.5i, not +-0.7071i.
    def report(k):
        a2 = 2.0 ** k
        return _report("reduce", {"schema_version": 1, "N": 2,
                                  "field": {"B": a2, "C": 1.0 / a2},
                                  "model": {"m": a2, "kappa": a2}})
    want, got = report(0), report(k)
    keys = ("status", "dimensions", "gauge_dimension")
    assert [got[key] for key in keys] == [want[key] for key in keys]
    for part in ("real", "imag"):
        assert np.allclose(got["eigenvalues"][part], want["eigenvalues"][part], atol=1e-12)
