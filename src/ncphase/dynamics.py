"""Equations of motion, renormalized frequencies and propagation.

All in-scope Hamiltonians are quadratic, H = p^2/2m + V(q) with V either
(kappa/2) q^2 or -E.q, so the flow is affine: dz/dt = M z + k with
M = Lambda . Hess(H).  The exact propagator uses the matrix exponential;
the implicit midpoint rule provides the generic symplectic step.  Both
give the one-step map as E = map - I, which `affine_rows` squares into
the block map that advances a trajectory sqrt(steps) rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .darboux import darboux_n2, darboux_n3, n2_coefficients
from .errors import DegenerateChi, SingularOmega, StepRejected
from .structure import (
    TOL_SINGULAR,
    FieldConfig,
    n2_scalars,
    n3_vectors,
    poisson_matrix,
    psi_phi,
)

HARMONIC = "harmonic"
LINEAR = "linear"


# Scaling and squaring with diagonal Pade approximants r_m (Higham 2005,
# "The scaling and squaring method for the matrix exponential revisited"):
# r_m is used unscaled when |A|_1 <= theta_m; beyond theta_9, A is scaled
# by 2^-s into |A|_1 <= theta_13 and r_13 is squared s times.
PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}


def _pade_uv(a, m: int):
    """Odd part U and even part V of the Pade numerator p_m(A) = V + U;
    the denominator is q_m(A) = p_m(-A) = V - U."""
    b = _PADE_COEFFS[m]
    ident = np.eye(a.shape[0])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
        return u, v
    powers = [ident, a2]
    while len(powers) <= m // 2:
        powers.append(powers[-1] @ a2)
    u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
    v = sum(b[2 * j] * p for j, p in enumerate(powers))
    return u, v


def _square(e, times: int):
    """(I + E)^(2^times) - I by `times` squarings E <- 2E + E E.

    Carrying E rather than I + E keeps the digits of a small E.  Squarings
    that overflow give inf/NaN entries without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(times):
            e = 2.0 * e + e @ e
    return e


def expm_minus_identity(a):
    """exp(A) - I by scaling and squaring.

    The Pade step gives E = 2 (V - U)^-1 U and each squaring E <- 2E + E E,
    so no number near 1 is formed: for a small step A, E is O(|A|) and
    keeps its own rounding instead of that of numbers near 1
    (notes/decisions.md).  A non-finite 1-norm gives all NaN.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan)
    m = next((m for m in (3, 5, 7, 9) if norm <= PADE_THETA[m]), 13)
    s = 0
    if m == 13 and norm > PADE_THETA[13]:
        s = int(np.ceil(np.log2(norm / PADE_THETA[13])))
        a = a / 2.0 ** s
    u, v = _pade_uv(a, m)
    return _square(2.0 * np.linalg.solve(v - u, u), s)


def expm(a):
    """Matrix exponential exp(A): `expm_minus_identity(A)` plus I."""
    e = expm_minus_identity(a)
    return e + np.eye(e.shape[0])


def _rowdot(a, b):
    # Row-wise dot product of (..., n) arrays.  The batched matmul rounds
    # each row exactly like the BLAS `a @ b` of two 1-d vectors, which
    # einsum and (a * b).sum(-1) do not.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class OscillatorModel:
    """Mass, elasticity (or constant force) and the action scale hbar.

    potential "harmonic" uses V = (kappa/2) |q|^2 (kappa = 0 is the free
    particle); "linear" uses V = -Evec.q.
    """

    m: float
    kappa: float = 0.0
    potential: str = HARMONIC
    Evec: tuple | None = None
    hbar: float = 1.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.potential == HARMONIC:
            if self.kappa < 0:
                raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        elif self.potential == LINEAR:
            if self.Evec is None:
                raise ValueError("linear potential requires Evec")
            object.__setattr__(self, "Evec", tuple(float(e) for e in self.Evec))
        else:
            raise ValueError(f"unknown potential {self.potential!r}")

    @property
    def omega0(self) -> float:
        if self.potential != HARMONIC or self.kappa <= 0:
            raise ValueError("bare frequency requires a harmonic potential with kappa > 0")
        return float(np.sqrt(self.kappa / self.m))

    def hessian(self, N: int) -> np.ndarray:
        h = np.zeros((2 * N, 2 * N))
        if self.potential == HARMONIC:
            h[:N, :N] = self.kappa * np.eye(N)
        h[N:, N:] = np.eye(N) / self.m
        return h

    def gradient_offset(self, N: int) -> np.ndarray:
        g = np.zeros(2 * N)
        if self.potential == LINEAR:
            g[:N] = -np.asarray(self.Evec, dtype=float)
        return g

    def gradient(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        N = z.size // 2
        return self.hessian(N) @ z + self.gradient_offset(N)

    def hamiltonian(self, z):
        """H of one state (a float) or of each row of a (..., 2N) array."""
        z = np.asarray(z, dtype=float)
        N = z.shape[-1] // 2
        q, p = z[..., :N], z[..., N:]
        if self.potential == HARMONIC:
            v = (0.5 * self.kappa) * _rowdot(q, q)
        else:
            v = -_rowdot(q, np.asarray(self.Evec))
        h = _rowdot(p, p) / (2.0 * self.m) + v
        return float(h) if z.ndim == 1 else h


def flow_matrix(cfg: FieldConfig, model: OscillatorModel,
                tol_singular: float = TOL_SINGULAR):
    """Affine generator (M, k) of dz/dt = M z + k, M = Lambda . Hess(H).

    Finite fields and models can still overflow here; the products then
    hold inf/NaN, without a warning, and the trajectory is refused later.
    """
    lam = poisson_matrix(cfg, tol_singular)
    with np.errstate(over="ignore", invalid="ignore"):
        return lam @ model.hessian(cfg.N), lam @ model.gradient_offset(cfg.N)


def equations_of_motion(cfg: FieldConfig, model: OscillatorModel, z,
                        tol_singular: float = TOL_SINGULAR) -> np.ndarray:
    """dz/dt from the Psi/Phi closed form.

    dq/dt = Psi^{-1} (p/m - rG dV/dq),  dp/dt = Phi^{-1} (eF p/m - dV/dq).
    """
    pair = psi_phi(cfg)
    if abs(pair.det_psi) < tol_singular:
        raise SingularOmega(f"det Psi = {pair.det_psi:.3e}: use the constrained module")
    z = np.asarray(z, dtype=float)
    N = cfg.N
    q, p = z[:N], z[N:]
    if model.potential == HARMONIC:
        dv = model.kappa * q
    else:
        dv = -np.asarray(model.Evec, dtype=float)
    dq = np.linalg.solve(pair.Psi, p / model.m - cfg.rG @ dv)
    dp = np.linalg.solve(pair.Phi, cfg.eF @ (p / model.m) - dv)
    return np.concatenate([dq, dp])


@dataclass(frozen=True)
class N2Frequencies:
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


def n2_frequencies(model: OscillatorModel, B: float, C: float,
                   tol: float = TOL_SINGULAR) -> N2Frequencies:
    """Renormalized mass/elasticity and mode frequencies for the planar oscillator."""
    if model.potential != HARMONIC or model.kappa <= 0:
        raise ValueError("frequencies require a harmonic potential with kappa > 0")
    co = n2_coefficients(B, C, tol)
    chi, u = co.chi, co.u
    # Extreme parameters overflow to inf or nan here.  The output writers
    # refuse non-finite numbers, so numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        mk = np.sqrt(model.m * model.kappa)
        b = B / mk
        c = C * mk
        omega0 = model.omega0
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


@dataclass(frozen=True)
class ShiftModes:
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


def shift_modes(model: OscillatorModel, B: float, C: float, z0) -> ShiftModes:
    """Decompose a planar state into the two rotating modes."""
    fr = n2_frequencies(model, B, C)
    mw = fr.m_prime_omega0_prime
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


def closed_form_solution_n2(model: OscillatorModel, B: float, C: float,
                            z0, t) -> np.ndarray:
    """Exact planar flow via the rotating modes.

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


def angular_momentum(zeta):
    """Angular momentum xi^1 pi_2 - xi^2 pi_1 about the third axis in Darboux
    variables, of one state (a float) or of each row of a (..., 2N) array."""
    zeta = np.asarray(zeta, dtype=float)
    N = zeta.shape[-1] // 2
    l3 = zeta[..., 0] * zeta[..., N + 1] - zeta[..., 1] * zeta[..., N]
    return float(l3) if zeta.ndim == 1 else l3


@dataclass(frozen=True)
class N3ParallelModel:
    """Axis-aligned spatial oscillator: transverse sector renormalized as in
    the planar case, axial sector untouched."""

    m_perp: float
    kappa_perp: float
    omega3: float
    omega_perp: float
    omegaL_prime: float
    omega_plus: float
    omega_minus: float


def n3_parallel_model(model: OscillatorModel, B: float, C: float,
                      tol: float = TOL_SINGULAR) -> N3ParallelModel:
    """Decoupled frequencies when both field vectors point along the z-axis."""
    fr = n2_frequencies(model, B, C, tol)
    return N3ParallelModel(
        m_perp=fr.m_prime, kappa_perp=fr.kappa_prime,
        omega3=model.omega0, omega_perp=fr.omega0_prime,
        omegaL_prime=fr.omegaL_prime,
        omega_plus=fr.omega_plus, omega_minus=fr.omega_minus,
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow with per-sample energy and, when defined, the Darboux
    angular momentum about the third axis."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    lambda3: np.ndarray | None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")


def midpoint_transfer(M: np.ndarray, k: np.ndarray, dt: float):
    """One-step implicit midpoint map z' = P z + d in E form.

    Returns the (n+1) x (n+1) matrix E = [[P - I, d], [0, 0]], that is
    (I - dt M/2)^{-1} [dt M | dt k] over a zero row; raises StepRejected
    when the resolvent is singular.
    """
    n = M.shape[0]
    a = np.eye(n) - 0.5 * dt * M
    det = np.linalg.det(a)
    if abs(det) < 1e-12:
        spectral = np.abs(np.linalg.eigvals(M)).max()
        suggestion = 1.0 / spectral if spectral > 0 else None
        raise StepRejected(
            f"midpoint resolvent singular at dt = {dt}", suggested_dt=suggestion
        )
    e = np.zeros((n + 1, n + 1))
    e[:n, :n] = dt * M
    e[:n, n] = dt * k
    e[:n] = np.linalg.solve(a, e[:n])
    return e


def affine_rows(e: np.ndarray, z0, steps: int) -> np.ndarray:
    """Rows z_0 .. z_steps of z_{i+1} = P z_i + d, where [[P, d], [0, 1]] = I + E.

    Sqrt blocking: with b = 2^floor(bitlen(steps + 1) / 2), about
    sqrt(steps), rows 0 .. b-1 are stepped one at a time and each later
    block of b rows is the block before it times the b-step map
    I + E_b, E_b = (I + E)^b - I from log2(b) squarings.  Row j b + r is
    then r + j <= b - 1 + steps // b roundings from z_0 (645 for 10^5
    steps), not j b + r.
    """
    n = e.shape[0] - 1
    rows = steps + 1
    b = 1 << (rows.bit_length() // 2)
    f = e + np.eye(n + 1)
    p, d = f[:n, :n], f[:n, n]
    fb = _square(e, b.bit_length() - 1) + np.eye(n + 1)
    pb_t, db = fb[:n, :n].T, fb[:n, n]
    states = np.empty((rows, n))
    z = states[0] = z0
    # A flow that overflows leaves inf/NaN rows, refused by the caller,
    # without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, b):
            z = p @ z + d
            states[i] = z
        for start in range(b, rows, b):
            block = states[start:start + b]
            np.matmul(states[start - b:start - b + len(block)], pb_t, out=block)
            block += db
    return states


def _darboux_for_lambda3(cfg: FieldConfig):
    # Lambda3 is reported only where a closed-form chart exists: planar
    # configs and axis-aligned spatial configs.
    try:
        sc = n2_scalars(cfg)
        if sc is not None:
            return darboux_n2(*sc)
        vecs = n3_vectors(cfg)
        if vecs is not None:
            bv, cv = vecs
            if abs(bv[0]) + abs(bv[1]) + abs(cv[0]) + abs(cv[1]) == 0.0:
                return darboux_n3(bv, cv)
    except DegenerateChi:
        return None
    return None


def integrate(cfg: FieldConfig, model: OscillatorModel, z0, dt: float,
              steps: int, method: str = "exact",
              tol_singular: float = TOL_SINGULAR) -> Trajectory:
    """Propagate the affine flow for `steps` steps of size dt.

    method "exact" uses the matrix exponential of the augmented generator
    (variation of constants for the affine part); "midpoint" uses the
    implicit midpoint rule, which is exact on the drift and second order
    on the oscillation.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if method not in ("exact", "midpoint"):
        raise ValueError(f"unknown method {method!r}")
    M, k = flow_matrix(cfg, model, tol_singular)
    n = M.shape[0]
    z0 = np.asarray(z0, dtype=float)

    if method == "exact":
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = M * dt
        aug[:n, n] = k * dt
        e = expm_minus_identity(aug)
    else:
        e = midpoint_transfer(M, k, dt)
    states = affine_rows(e, z0, steps)

    times = dt * np.arange(steps + 1)
    dmap = _darboux_for_lambda3(cfg)
    lambda3 = None if dmap is None else angular_momentum(states @ dmap.T.T)
    return Trajectory(times, states, model.hamiltonian(states), lambda3)
