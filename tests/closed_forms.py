"""Closed forms and reference solves that the tests compare the program to.

None of these run in the program: `simulate` propagates every flow, the
degenerate ones included, through `dynamics.affine_flow`, `spectrum`
and `limit-scan` take every frequency from the core of
`spectrum.mode_frequencies`, `darboux` prints `darboux.darboux_generic`
for every field, and the `Lambda3` column is the moment map
`darboux.lambda3`, read in no chart.  (The module is not called
`oracles`, which would shadow the benchmark's `oracles` module when
pytest collects both directories in one run.)
"""

from typing import NamedTuple

import numpy as np
import pytest

from ncphase import constrained as con
from ncphase import darboux as dx
from ncphase import dynamics as dyn
from ncphase import spectrum as sp
from ncphase import structure as st
from ncphase.errors import OffConstraint, SingularOmega


class NoKernel(Exception):
    """`secondary_constraints` of a nondegenerate Omega."""


class NegativeChi(Exception):
    """chi = 1 + C.B is not positive: outside the closed-form branch."""


# --- The paper's closed-form Darboux maps ----------------------------------

class N2Coefficients(NamedTuple):
    """Planar regularity data: chi = 1 + CB and the branch scalar u."""

    chi: float
    u: float


def _checked_chi(B, C):
    """(C.B, chi = 1 + C.B) where the closed forms hold, 0 < chi < inf; else
    NegativeChi (chi <= 0: the generic map applies) or OverflowError."""
    with np.errstate(over="ignore", invalid="ignore"):
        theta = float(np.dot(C, B))
    chi = 1.0 + theta
    if chi <= 0:
        raise NegativeChi(f"chi = {chi:.6g} <= 0: no closed-form map")
    if not chi < np.inf:
        raise OverflowError(f"chi = 1 + C.B = {chi:.6g} is not finite: no closed-form map")
    return theta, chi


def n2_coefficients(B: float, C: float) -> N2Coefficients:
    chi = _checked_chi(B, C)[1]
    return N2Coefficients(chi, 0.5 * (1.0 + np.sqrt(chi)))


class N3Coefficients(NamedTuple):
    """Spatial regularity data with the mixing scalars gamma, gamma_prime.

    Both scalars are 0/0 forms in theta = C.B at theta = 0; they are
    evaluated through equivalent cancellation-free expressions with the
    finite limits gamma -> -1/8 and gamma_prime -> 3/8.
    """

    theta: float
    chi: float
    u: float
    gamma: float
    gamma_prime: float


def n3_coefficients(Bvec, Cvec) -> N3Coefficients:
    theta, chi = _checked_chi(Bvec, Cvec)
    # A chi near the float limit overflows these products; the map built
    # from them is refused by its contract, so numpy's warnings would only
    # add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        rchi = np.sqrt(chi)
        u = 0.5 * (1.0 + rchi)
        ru = np.sqrt(u)
        # gamma = (1 - sqrt(u)) / (theta sqrt(u)) rewritten without the 0/0 form.
        gamma = -1.0 / (2.0 * (rchi + 1.0) * (1.0 + ru) * ru)
        gamma_prime = (2.0 * rchi + 1.0) / (2.0 * (rchi + 1.0) * (rchi + ru) * ru)
    return N3Coefficients(theta, chi, float(u), float(gamma), float(gamma_prime))


def n3_vectors(cfg: st.FieldConfig):
    """Recover (Bvec, Cvec) for an N=3 config; else None."""
    if cfg.N != 3:
        return None
    bvec = np.array([cfg.eF[1, 2], cfg.eF[2, 0], cfg.eF[0, 1]])
    cvec = np.array([cfg.rG[1, 2], cfg.rG[2, 0], cfg.rG[0, 1]])
    return bvec, cvec


def darboux_n2(B: float, C: float) -> dx.DarbouxMap:
    """Closed-form planar map.

    xi = sqrt(u) (q - (C/2u) eps p),  pi = sqrt(u) (p - (B/2u) eps q),
    with u = (1 + sqrt(chi))/2; the inverse carries the extra 1/sqrt(chi).
    """
    co = n2_coefficients(B, C)
    ru = np.sqrt(co.u)
    ident = np.eye(2)
    half = lambda s: (s / (2.0 * co.u)) * st.EPS2

    T = ru * np.block([[ident, -half(C)], [-half(B), ident]])
    Tinv = (ru / np.sqrt(co.chi)) * np.block([[ident, half(C)], [half(B), ident]])
    return dx._finish(T, Tinv, st.build_omega(st.field_config_n2(B, C)), 1e-12)


def darboux_n3(Bvec, Cvec) -> dx.DarbouxMap:
    """Closed-form spatial map.

    xi = sqrt(u) (q + gamma B (C.q) + (1/2u) C x p),
    pi = sqrt(u) (p + gamma (p.B) C + (1/2u) B x q).
    """
    B = np.asarray(Bvec, dtype=float)
    C = np.asarray(Cvec, dtype=float)
    co = n3_coefficients(B, C)
    ru = np.sqrt(co.u)
    ident = np.eye(3)
    bx, cx = st.cross_matrix(B), st.cross_matrix(C)
    bc, cb = np.outer(B, C), np.outer(C, B)

    T = ru * np.block([
        [ident + co.gamma * bc, cx / (2.0 * co.u)],
        [bx / (2.0 * co.u), ident + co.gamma * cb],
    ])
    Tinv = (ru / np.sqrt(co.chi)) * np.block([
        [ident + co.gamma_prime * bc, -cx / (2.0 * co.u)],
        [-bx / (2.0 * co.u), ident + co.gamma_prime * cb],
    ])
    return dx._finish(T, Tinv, st.build_omega(st.field_config_n3(B, C)), 1e-9)


def closed_form_chart(cfg: st.FieldConfig):
    """The paper's Darboux map of a planar config, or of an axis-aligned
    spatial one, where chi = 1 + C.B is finite and positive and the map
    meets its contract; else None."""
    sc, vecs = st.n2_scalars(cfg), n3_vectors(cfg)
    try:
        if sc is not None:
            return darboux_n2(*sc)
        if vecs is not None and not (vecs[0][:2].any() or vecs[1][:2].any()):
            return darboux_n3(*vecs)
    except (NegativeChi, ArithmeticError):
        pass
    return None


def chart_lambda3(dmap: dx.DarbouxMap, states) -> np.ndarray:
    """Angular momentum xi^1 pi_2 - xi^2 pi_1 of each state in the chart
    zeta = T z of ``dmap``."""
    zeta = np.atleast_2d(np.asarray(states, dtype=float)) @ dmap.T.T
    N = zeta.shape[1] // 2
    return zeta[:, 0] * zeta[:, N + 1] - zeta[:, 1] * zeta[:, N]


def rotation_generator(N: int) -> np.ndarray:
    """A with A e_1 = e_2 and A e_2 = -e_1 in q and in p: the simultaneous
    rotation of (q^1, q^2) and (p_1, p_2)."""
    a = np.zeros((2 * N, 2 * N))
    for k in (0, N):
        a[k + 1, k], a[k, k + 1] = 1.0, -1.0
    return a


def commutes_with_rotation(cfg: st.FieldConfig) -> bool:
    """Whether Omega A is symmetric, so that -1/2 z^T Omega A z is the
    rotation's moment map.  A's entries are 0 and +-1, so the product is
    exact."""
    if cfg.N < 2:
        return False
    s = st.build_omega(cfg) @ rotation_generator(cfg.N)
    return bool(np.array_equal(s, s.T))


def moment_map_mpmath(cfg: st.FieldConfig, states, dps: int = 50) -> np.ndarray:
    """-1/2 z^T (Omega A) z of each state, in dps-digit mpmath, rounded once."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        s = mp.matrix(st.build_omega(cfg).tolist()) * mp.matrix(
            rotation_generator(cfg.N).tolist())
        out = []
        for z in np.atleast_2d(np.asarray(states, dtype=float)):
            zm = mp.matrix([mp.mpf(float(x)) for x in z])
            out.append(float(-(zm.T * s * zm)[0] / 2))
        return np.array(out)


def moment_map_scale(cfg: st.FieldConfig, states) -> np.ndarray:
    """|z|^T |Omega A| |z| / 2 of each state: the sum of the magnitudes of
    the terms of the moment map, against which its rounding is measured."""
    s = np.abs(st.build_omega(cfg) @ rotation_generator(cfg.N))
    z = np.abs(np.atleast_2d(np.asarray(states, dtype=float)))
    with np.errstate(over="ignore"):
        return 0.5 * np.einsum("ij,ij->i", z @ s, z)


def refined_inv(a) -> np.ndarray:
    """Dense float64 inverse driven to its representation limit.

    Newton steps with extended-precision residuals remove the usual
    eps * cond forward-error floor of a LAPACK inverse.  The loop is this
    module's own, in extended precision rather than double-double, so it
    does not share a fault with `structure.poisson_matrix`.
    """
    a = np.asarray(a, dtype=np.longdouble)
    x = np.linalg.inv(a.astype(float)).astype(np.longdouble)
    ident = np.eye(a.shape[0], dtype=np.longdouble)
    for _ in range(3):
        x = x + x @ (ident - a @ x)
    return x.astype(float)


def lambda_mpmath(cfg: st.FieldConfig, dps: int = 60) -> np.ndarray:
    """Lambda = -Omega^{-1} from a dps-digit mpmath inverse, rounded once."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        inv = mp.matrix(st.build_omega(cfg).tolist()) ** -1
        return -np.array(inv.tolist(), dtype=float)


def hamiltonian_vector_field(cfg: st.FieldConfig, grad_f,
                             tol_singular: float = st.TOL_SINGULAR) -> np.ndarray:
    """Lambda . grad f solved from the Psi/Phi factorization.

    X_q = Psi^{-1} (df/dp - rG df/dq),  X_p = -Phi^{-1} (df/dq - eF df/dp),
    with Psi = I - rG eF and Phi = I - eF rG formed here, each solve with
    one step of residual refinement.  With grad f = grad H(z) this is dz/dt.
    """
    N = cfg.N
    psi = np.eye(N) - cfg.rG @ cfg.eF
    phi = np.eye(N) - cfg.eF @ cfg.rG
    det_psi = np.linalg.det(psi)
    if abs(det_psi) < tol_singular:
        raise SingularOmega(f"det Psi = {det_psi:.3e}")
    grad_f = np.asarray(grad_f, dtype=float)
    gq, gp = grad_f[:N], grad_f[N:]
    rhs_q = gp - cfg.rG @ gq
    rhs_p = gq - cfg.eF @ gp
    xq = np.linalg.solve(psi, rhs_q)
    xq += np.linalg.solve(psi, rhs_q - psi @ xq)
    xp = np.linalg.solve(phi, rhs_p)
    xp += np.linalg.solve(phi, rhs_p - phi @ xp)
    return np.concatenate([xq, -xp])


class N2Frequencies(NamedTuple):
    """Renormalized planar oscillator data.

    omega0_prime = (omega0 / 2 chi) sqrt((b-c)^2 + 4 chi), the induced
    rotation frequency omegaL_prime = (omega0 / 2 chi)(b-c), and the two
    positive mode frequencies omega_pm = omega0_prime +/- omegaL_prime.
    """

    b: float
    c: float
    chi: float
    u: float
    m_prime: float
    kappa_prime: float
    omega0: float
    omega0_prime: float
    omegaL_prime: float
    omega_plus: float
    omega_minus: float

    @property
    def m_prime_omega0_prime(self) -> float:
        return float(np.sqrt(self.m_prime * self.kappa_prime))


def n2_frequencies(model: dyn.OscillatorModel, B: float, C: float,
                   tol: float = st.TOL_SINGULAR) -> N2Frequencies:
    """Renormalized mass/elasticity and mode frequencies for the planar oscillator."""
    if model.potential != dyn.HARMONIC or model.kappa <= 0:
        raise ValueError("frequencies require a harmonic potential with kappa > 0")
    co = n2_coefficients(B, C)
    chi, u = co.chi, co.u
    if chi <= tol:
        raise SingularOmega(f"chi = {chi:.6g} is at or below {tol:.1e}")
    # Extreme parameters overflow to inf or nan here.  The output writers
    # refuse non-finite numbers, so numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mk = np.sqrt(model.m * model.kappa)
        b = B / mk
        c = C * mk
        omega0 = np.sqrt(model.kappa / model.m)
        m_prime = model.m * chi / (u * (1.0 + c * c / (4.0 * u * u)))
        kappa_prime = model.kappa * (u / chi) * (1.0 + b * b / (4.0 * u * u))

        d = b - c
        root = np.hypot(d, 2.0 * np.sqrt(chi))
        omega0_prime = omega0 * root / (2.0 * chi)
        omegaL_prime = omega0 * d / (2.0 * chi)
        # Evaluate the smaller mode through the difference-free form; the raw
        # omega0_prime - |omegaL_prime| cancels catastrophically as chi -> 0.
        small = 2.0 * omega0 / (root + abs(d))
        large = omega0 * (root + abs(d)) / (2.0 * chi)
    if d >= 0:
        omega_plus, omega_minus = large, small
    else:
        omega_plus, omega_minus = small, large
    return N2Frequencies(
        b=float(b), c=float(c), chi=float(chi), u=float(u),
        m_prime=float(m_prime), kappa_prime=float(kappa_prime),
        omega0=float(omega0), omega0_prime=float(omega0_prime),
        omegaL_prime=float(omegaL_prime),
        omega_plus=float(omega_plus), omega_minus=float(omega_minus),
    )


class ShiftModes(NamedTuple):
    """Complex normal-mode content of a planar state.

    q(t) = q_coeff_plus A+(t) + q_coeff_minus A-*(t) with
    A+(t) = a_plus exp(-i w+ t) and A-*(t) = a_minus_dag exp(+i w- t);
    p(t) analogously with the p coefficients.
    """

    omega_plus: float
    omega_minus: float
    a_plus: complex
    a_minus_dag: complex
    q_coeff_plus: complex
    q_coeff_minus: complex
    p_coeff_plus: complex
    p_coeff_minus: complex


def shift_modes(model: dyn.OscillatorModel, B: float, C: float, z0) -> ShiftModes:
    """Decompose a planar state into the two rotating modes."""
    fr = n2_frequencies(model, B, C)
    mw = fr.m_prime_omega0_prime
    if mw == 0.0:
        raise ArithmeticError("m' omega0' = sqrt(m' kappa') underflows to 0")
    u, chi = fr.u, fr.chi
    bp = B / mw
    cp = C * mw
    ru, rmw = np.sqrt(u), np.sqrt(mw)

    z0 = np.asarray(z0, dtype=float)
    q0 = complex(z0[0], z0[1])
    p0 = complex(z0[2], z0[3])
    a_plus = 0.5 * ru * (rmw * (1.0 - bp / (2 * u)) * q0
                         + 1j * (1.0 + cp / (2 * u)) * p0 / rmw)
    a_minus_dag = 0.5 * ru * (rmw * (1.0 + bp / (2 * u)) * q0
                              - 1j * (1.0 - cp / (2 * u)) * p0 / rmw)

    back = np.sqrt(u / chi)
    q_plus = back * (1.0 - cp / (2 * u)) / rmw
    q_minus = back * (1.0 + cp / (2 * u)) / rmw
    p_plus = -1j * back * (1.0 + bp / (2 * u)) * rmw
    p_minus = 1j * back * (1.0 - bp / (2 * u)) * rmw
    return ShiftModes(fr.omega_plus, fr.omega_minus, a_plus, a_minus_dag,
                      q_plus, q_minus, p_plus, p_minus)


def degenerate_omega_r(model: dyn.OscillatorModel, C: float) -> float:
    """Reduced rotation frequency on the secondary constraint subspace."""
    if model.potential != dyn.HARMONIC or model.kappa <= 0:
        raise ValueError("the reduced frequency requires a harmonic potential")
    mk = model.m * model.kappa
    omega0 = np.sqrt(model.kappa / model.m)
    return float(-np.sqrt(mk) * C * omega0 / (1.0 + mk * C * C))


def closed_form_solution_n2(model: dyn.OscillatorModel, B: float, C: float,
                            z0, t) -> np.ndarray:
    """Exact planar flow via the rotating modes of `shift_modes`.

    Accepts scalar or array t; returns shape (4,) or (len(t), 4).
    """
    modes = shift_modes(model, B, C, z0)
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
    at the reduced frequency `degenerate_omega_r`.
    """
    z0 = np.asarray(z0, dtype=float)
    q0 = complex(z0[0], z0[1])
    p0 = complex(z0[2], z0[3])
    res = abs(p0 / model.m + 1j * C * model.kappa * q0)
    if res > tol * max(1.0, abs(q0), abs(p0)):
        raise OffConstraint(
            f"initial state violates the secondary constraints (residual {res:.3e})"
        )
    phase = np.exp(1j * degenerate_omega_r(model, C) * np.asarray(t, dtype=float))
    q = phase * q0
    p = phase * p0
    return np.stack([q.real, q.imag, p.real, p.imag], axis=-1)


def spectrum_n2(model: dyn.OscillatorModel, B: float, C: float, nmax: int) -> sp.SpectrumTable:
    """Planar levels E(n+, n-) = hbar w+ (n+ + 1/2) + hbar w- (n- + 1/2)."""
    fr = n2_frequencies(model, B, C)
    return sp.ladder((fr.omega_plus, fr.omega_minus), model.hbar, nmax)


def spectrum_degenerate_n2(model: dyn.OscillatorModel, C: float, nmax: int) -> sp.SpectrumTable:
    """Single reduced ladder E(n) = hbar |omega_r| (n + 1/2) at chi = 0.

    The sign of omega_r (orientation of the reduced rotation) is recorded
    by `reduced_structure_n2`; the ladder uses its magnitude.
    """
    return sp.ladder((abs(degenerate_omega_r(model, C)),), model.hbar, nmax)


def spectrum_n3_parallel(model: dyn.OscillatorModel, B: float, C: float,
                         nmax: int) -> sp.SpectrumTable:
    """Axis-aligned spatial levels: transverse pair (w+, w-) plus the bare w3."""
    fr = n2_frequencies(model, B, C)
    return sp.ladder((fr.omega_plus, fr.omega_minus, fr.omega0), model.hbar, nmax)


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
        omega_r=degenerate_omega_r(model, C),
        bracket_qqdag=complex(0.0, -2.0 * C / denom**2),
        h_r_coeff=float(denom * model.kappa / 2.0),
        a_scale=float(denom / np.sqrt(2.0 * abs(C))),
    )


def gnh_from_model(cfg: st.FieldConfig, model: dyn.OscillatorModel) -> con.ConstraintChain:
    """`constrained.gnh_chain` of the kinetic-plus-potential data of a field
    config, as `simulate` and `reduce` build it on the degenerate route."""
    return con.gnh_chain(st.build_omega(cfg), model.hessian(cfg.N), model.gradient_offset(cfg.N))


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


def fast_q_coeffs_mpmath(m, kappa, B, eps, C=None):
    """Fast-mode content of q = q^1 + i q^2 for the limit scan's
    on-constraint start.

    Builds Omega = [[-eF, I], [-I, rG]] with eF = B eps_ij, rG = C eps_ij,
    C = (eps^2 - 1)/B unless C is given, then Lambda = -Omega^{-1} and
    Hess H = diag(kappa, kappa, 1/m, 1/m) in 60-digit mpmath,
    eigendecomposes the dense flow matrix Lambda Hess H and expands
    z0 = (1, 0, 0, m kappa/B) in its eigenvectors.  Uses no ncphase code.
    Returns the magnitudes of the q coefficients on the two fast
    eigenvalues +/- i omega_plus, larger first: the co-rotating amplitude
    and its counter-rotating partner, which rotational symmetry makes zero.
    The scan rounds C to a float, which moves chi = 1 + B C by about
    1e-16 / eps^2 relative; pass that C to compare with its rows.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        m, kappa, B = mp.mpf(m), mp.mpf(kappa), mp.mpf(B)
        C = (mp.mpf(eps) ** 2 - 1) / B if C is None else mp.mpf(C)
        omega = mp.matrix([[0, -B, 1, 0],
                           [B, 0, 0, 1],
                           [-1, 0, 0, C],
                           [0, -1, -C, 0]])
        flow = -mp.inverse(omega) * mp.diag([kappa, kappa, 1 / m, 1 / m])
        eigvals, vecs = mp.eig(flow)
        coeffs = mp.lu_solve(vecs, mp.matrix([1, 0, 0, m * kappa / B]))
        fast = max(abs(mp.im(lam)) for lam in eigvals)
        amps = sorted((abs(coeffs[j] * (vecs[0, j] + 1j * vecs[1, j]))
                       for j, lam in enumerate(eigvals)
                       if abs(mp.im(lam)) > fast / 2), reverse=True)
        return amps[0], amps[1]


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x (order-fit helper)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    a = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    return float(coef[1])


def flow_mpmath(cfg: st.FieldConfig, model: dyn.OscillatorModel, dps: int):
    """The flow matrix -Omega^{-1} Hess H in dps-digit mpmath, unrounded."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        return (-mp.inverse(mp.matrix(st.build_omega(cfg).tolist()))
                * mp.matrix(model.hessian(cfg.N).tolist()))


def frequencies_mpmath(cfg: st.FieldConfig, model: dyn.OscillatorModel,
                       dps: int = 700) -> list:
    """Normal-mode frequencies of a positive-definite H, descending: the
    positive imaginary parts of a dps-digit eigensolve of the flow."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        eigvals = mp.eig(flow_mpmath(cfg, model, dps), left=False, right=False)
        return [float(w) for w in sorted((mp.im(e) for e in eigvals), reverse=True)[:cfg.N]]


def trajectory_mpmath(cfg: st.FieldConfig, model: dyn.OscillatorModel, z0, times,
                      dps: int = 700) -> np.ndarray:
    """Rows exp(flow t) z0 at each t, from a dps-digit matrix exponential."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        flow, z0 = flow_mpmath(cfg, model, dps), mp.matrix(list(map(float, z0)))
        return np.array([[float(x) for x in mp.expm(flow * mp.mpf(float(t))) * z0]
                         for t in times])
