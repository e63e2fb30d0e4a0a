"""Accuracy of the scaling-and-squaring `dynamics.expm_minus_identity`:
exp(A) - I, checked as itself plus I.

scipy.linalg.expm and 50-digit mpmath are the oracles; neither is used by
the package itself.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from ncphase import dynamics as dyn
from ncphase import structure as st

EPS = np.finfo(float).eps
THETA = dyn.PADE_THETA
# 1-norms that select r_3, r_5, r_7, r_9, unscaled r_13 and r_13 with s > 0.
NORMS = (
    0.5 * THETA[3],
    0.5 * (THETA[3] + THETA[5]),
    0.5 * (THETA[5] + THETA[7]),
    0.5 * (THETA[7] + THETA[9]),
    0.5 * (THETA[9] + THETA[13]),
    10.0 * THETA[13],
    200.0 * THETA[13],
)


def _hamiltonian_generator(rng, N):
    """Lambda @ Hess with Lambda = -Omega^-1 for a random nondegenerate
    antisymmetric Omega and a positive definite Hess, so the flow is
    bounded and exp(t A) stays O(1) even at large ||A||."""
    omega = rng.normal(size=(2 * N, 2 * N))
    omega = omega - omega.T
    hess = rng.normal(size=(2 * N, 2 * N))
    hess = hess @ hess.T + np.eye(2 * N)
    return -np.linalg.solve(omega, hess)


def _augmented(M, k, dt):
    n = M.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = M * dt
    aug[:n, n] = k * dt
    return aug


def _taylor(a, terms):
    out, term = np.eye(a.shape[0]), np.eye(a.shape[0])
    for j in range(1, terms):
        term = term @ a / j
        out = out + term
    return out


def test_norms_reach_every_pade_order_and_squaring():
    orders = [next((m for m in (3, 5, 7, 9) if x <= THETA[m]), 13) for x in NORMS]
    assert orders == [3, 5, 7, 9, 13, 13, 13]
    assert NORMS[4] <= THETA[13] < NORMS[5]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 10, 20, 35, 50])
def test_matches_scipy_on_hamiltonian_generators(N):
    rng = np.random.default_rng(1000 + N)
    for target in NORMS:
        M = _hamiltonian_generator(rng, N)
        a = M * (target / np.linalg.norm(M, 1))
        ref = scipy_expm(a)
        got = dyn.expm_minus_identity(a) + np.eye(len(a))
        err = np.linalg.norm(got - ref, 1) / np.linalg.norm(ref, 1)
        # Rounding in the squarings grows like ||A|| eps (Higham 2005).
        assert err <= 50.0 * max(1.0, target) * EPS, (N, target, err)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_nilpotent_generators(N):
    # Free particle without eF: M = Lambda Hess has M^2 = 0; the augmented
    # linear potential adds a third nilpotent order.  exp is a finite sum.
    rng = np.random.default_rng(N)
    upper = np.triu(rng.normal(0.0, 0.3, (N, N)), 1)
    cfg = st.FieldConfig(N, np.zeros((N, N)), upper - upper.T)
    free = dyn.OscillatorModel(m=0.7, kappa=0.0)
    linear = dyn.OscillatorModel(m=0.7, Evec=tuple(rng.normal(size=N)))
    for model in (free, linear):
        for dt in (0.01, 1.0, 50.0):
            a = _augmented(*dyn.flow_matrix(st.poisson_matrix(cfg), model), dt)
            assert not np.linalg.matrix_power(a, 3).any()
            exact = _taylor(a, 3)
            got = dyn.expm_minus_identity(a) + np.eye(len(a))
            tol = 10.0 * max(1.0, np.linalg.norm(a, 1)) * EPS * np.linalg.norm(exact, 1)
            assert np.linalg.norm(got - exact, 1) <= tol
            assert np.linalg.norm(got - scipy_expm(a), 1) <= tol


def test_zero_matrix_gives_identity():
    for n in (1, 2, 5, 101):
        assert np.array_equal(dyn.expm_minus_identity(np.zeros((n, n))) + np.eye(n), np.eye(n))


def _mp_expm_rounded(a, dps=50):
    mp = pytest.importorskip("mpmath")
    n = a.shape[0]
    with mp.workdps(dps):
        ref = mp.expm(mp.matrix(a.tolist()))
        return np.array([[float(ref[i, j]) for j in range(n)] for i in range(n)])


BENCHMARK_FIELDS = {
    "planar": st.field_config_n2(1.0, 0.5),
    "axial": st.field_config_n3(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.5])),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_FIELDS))
def test_benchmark_propagator_within_a_tenth_eps_of_50_digits(name):
    # The exact `simulate` propagator of the benchmark's planar and axial
    # configs (m = kappa = 1, dt = 0.01) is applied 10^4-10^5 times, so its
    # rounding accumulates.  Carrying exp(A) - I keeps every entry within
    # 0.1 eps of the correctly rounded exponential of the same double
    # matrix; the (V - U)^-1 (V + U) form is off by 0.5-1 eps on the
    # diagonal.
    model = dyn.OscillatorModel(m=1.0, kappa=1.0)
    a = _augmented(*dyn.flow_matrix(st.poisson_matrix(BENCHMARK_FIELDS[name]), model), 0.01)
    err = np.abs(dyn.expm_minus_identity(a) + np.eye(len(a)) - _mp_expm_rounded(a)).max()
    assert err <= 0.1 * EPS, err / EPS


def test_linear_potential_propagator_against_50_digits():
    cfg = st.field_config_n2(1.0, 0.5)
    model = dyn.OscillatorModel(m=1.0, Evec=(0.3, -1.1))
    a = _augmented(*dyn.flow_matrix(st.poisson_matrix(cfg), model), 0.01)
    assert a[:4, 4].any()
    err = np.abs(dyn.expm_minus_identity(a) + np.eye(len(a)) - _mp_expm_rounded(a)).max()
    assert err <= 0.1 * EPS, err / EPS


def test_non_finite_input_gives_nan():
    for bad in (np.inf, np.nan):
        a = np.eye(3)
        a[0, 1] = bad
        assert np.isnan(dyn.expm_minus_identity(a)).all()


def test_overflowing_squarings_are_silent():
    # B = 1e300, C = 1e-300: chi = 2 but ||M dt||_1 ~ 5e298, so about 990
    # squarings overflow.  The result is non-finite and no warning is raised.
    model = dyn.OscillatorModel(m=1.0, kappa=1.0)
    a = _augmented(*dyn.flow_matrix(st.poisson_matrix(st.field_config_n2(1e300, 1e-300)), model),
                   0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = dyn.expm_minus_identity(a)
    assert not np.isfinite(out).all()
