"""Closed forms and reference solves that the tests compare the program to.

None of these run in the program: `simulate` propagates every flow, the
degenerate ones included, through `dynamics.affine_flow`, and `spectrum`
takes every ladder from `spectrum.mode_frequencies`.  (The module is
not called `oracles`, which would shadow the benchmark's `oracles` module
when pytest collects both directories in one run.)
"""

from typing import NamedTuple

import numpy as np

from ncphase import constrained as con
from ncphase import dynamics as dyn
from ncphase import spectrum as sp
from ncphase import structure as st
from ncphase.errors import NoKernel, OffConstraint, SingularOmega


def refined_inv(a) -> np.ndarray:
    """Dense float64 inverse driven to its representation limit.

    Newton steps with extended-precision residuals remove the usual
    eps * cond forward-error floor of a LAPACK inverse.
    """
    return st._newton_inv(np.asarray(a, dtype=np.longdouble)).astype(float)


def hamiltonian_vector_field(cfg: st.FieldConfig, grad_f,
                             tol_singular: float = st.TOL_SINGULAR) -> np.ndarray:
    """Lambda . grad f solved from the Psi/Phi factorization.

    X_q = Psi^{-1} (df/dp - rG df/dq),  X_p = -Phi^{-1} (df/dq - eF df/dp),
    each with one step of residual refinement.  With grad f = grad H(z)
    this is dz/dt.
    """
    pair = st.psi_phi(cfg)
    if abs(pair.det_psi) < tol_singular:
        raise SingularOmega(f"det Psi = {pair.det_psi:.3e}")
    grad_f = np.asarray(grad_f, dtype=float)
    N = cfg.N
    gq, gp = grad_f[:N], grad_f[N:]
    rhs_q = gp - cfg.rG @ gq
    rhs_p = gq - cfg.eF @ gp
    xq = np.linalg.solve(pair.Psi, rhs_q)
    xq += np.linalg.solve(pair.Psi, rhs_q - pair.Psi @ xq)
    xp = np.linalg.solve(pair.Phi, rhs_p)
    xp += np.linalg.solve(pair.Phi, rhs_p - pair.Phi @ xp)
    return np.concatenate([xq, -xp])


def closed_form_solution_n2(model: dyn.OscillatorModel, B: float, C: float,
                            z0, t) -> np.ndarray:
    """Exact planar flow via the rotating modes of `dynamics.shift_modes`.

    Accepts scalar or array t; returns shape (4,) or (len(t), 4).
    """
    modes = dyn.shift_modes(model, B, C, z0)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ap = modes.a_plus * np.exp(-1j * modes.omega_plus * t_arr)
    am = modes.a_minus_dag * np.exp(1j * modes.omega_minus * t_arr)
    q = modes.q_coeff_plus * ap + modes.q_coeff_minus * am
    p = modes.p_coeff_plus * ap + modes.p_coeff_minus * am
    out = np.stack([q.real, q.imag, p.real, p.imag], axis=-1)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def degenerate_flow_n2(model: dyn.OscillatorModel, C: float, z0, t,
                       tol: float = 1e-8) -> np.ndarray:
    """Rotating solution on the constraint subspace of the chi = 0 plane.

    Requires B = -1/C and an initial state satisfying the secondary
    constraints p/m + i C kappa q = 0 to within tol; q and p then turn
    at the reduced frequency `constrained.degenerate_omega_r`.
    """
    z0 = np.asarray(z0, dtype=float)
    q0 = complex(z0[0], z0[1])
    p0 = complex(z0[2], z0[3])
    res = abs(p0 / model.m + 1j * C * model.kappa * q0)
    if res > tol * max(1.0, abs(q0), abs(p0)):
        raise OffConstraint(
            f"initial state violates the secondary constraints (residual {res:.3e})"
        )
    phase = np.exp(1j * con.degenerate_omega_r(model, C) * np.asarray(t, dtype=float))
    q = phase * q0
    p = phase * p0
    return np.stack([q.real, q.imag, p.real, p.imag], axis=-1)


def spectrum_n2(model: dyn.OscillatorModel, B: float, C: float, nmax: int) -> sp.SpectrumTable:
    """Planar levels E(n+, n-) = hbar w+ (n+ + 1/2) + hbar w- (n- + 1/2)."""
    fr = dyn.n2_frequencies(model, B, C)
    return sp.ladder((fr.omega_plus, fr.omega_minus), model.hbar, nmax)


def spectrum_degenerate_n2(model: dyn.OscillatorModel, C: float, nmax: int) -> sp.SpectrumTable:
    """Single reduced ladder E(n) = hbar |omega_r| (n + 1/2) at chi = 0.

    The sign of omega_r (orientation of the reduced rotation) is recorded
    by `reduced_structure_n2`; the ladder uses its magnitude.
    """
    return sp.ladder((abs(con.degenerate_omega_r(model, C)),), model.hbar, nmax)


def spectrum_n3_parallel(model: dyn.OscillatorModel, B: float, C: float,
                         nmax: int) -> sp.SpectrumTable:
    """Axis-aligned spatial levels: transverse pair (w+, w-) plus the bare w3."""
    fr = dyn.n2_frequencies(model, B, C)
    return sp.ladder((fr.omega_plus, fr.omega_minus, model.omega0), model.hbar, nmax)


class ReducedOscillatorN2(NamedTuple):
    """Reduced structure on the secondary constraint subspace.

    bracket_qqdag is the fundamental bracket {q, q*}; the reduced
    Hamiltonian is H_r = h_r_coeff * q* q, generating dq/dt = i omega_r q.
    a_scale normalizes a = a_scale * q* so that {a, a*} = -i.
    """

    C: float
    B: float
    omega_r: float
    bracket_qqdag: complex
    h_r_coeff: float
    a_scale: float

    @property
    def rotation_rate(self) -> complex:
        return 1j * self.omega_r


def reduced_structure_n2(model: dyn.OscillatorModel, C: float) -> ReducedOscillatorN2:
    """Reduced bracket, Hamiltonian and ladder normalization at chi = 0 (B = -1/C)."""
    if C == 0.0:
        raise ValueError("C must be nonzero in the degenerate regime")
    mk = model.m * model.kappa
    denom = 1.0 + mk * C * C
    return ReducedOscillatorN2(
        C=float(C),
        B=-1.0 / C,
        omega_r=con.degenerate_omega_r(model, C),
        bracket_qqdag=complex(0.0, -2.0 * C / denom**2),
        h_r_coeff=float(denom * model.kappa / 2.0),
        a_scale=float(denom / np.sqrt(2.0 * abs(C))),
    )


def secondary_constraints(cfg: st.FieldConfig,
                          model: dyn.OscillatorModel) -> con.LinearConstraints:
    """Solvability rows <grad H(z) | Z> = 0 for each kernel direction Z of
    Omega: the first stage of `constrained.gnh_chain`, built directly."""
    z_basis = con.kernel(st.build_omega(cfg))
    if z_basis.shape[1] == 0:
        raise NoKernel("Omega is nondegenerate; no secondary constraints arise")
    hess = model.hessian(cfg.N)
    g0 = model.gradient_offset(cfg.N)
    return con.LinearConstraints(z_basis.T @ hess, z_basis.T @ g0)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x (order-fit helper)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    a = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    return float(coef[1])
