"""Rotation generators, momentum maps and field-invariance checks."""

from typing import NamedTuple

import numpy as np

from .dynamics import expm
from .errors import NotARotation
from .structure import FieldConfig, build_omega


class RotationGenerator(NamedTuple):
    """Antisymmetric generator of the rotation in the (alpha, beta) plane."""

    alpha: int
    beta: int
    matrix: np.ndarray


def generator_matrix(N: int, alpha: int, beta: int) -> np.ndarray:
    """(M_ab)^i_j = delta^i_a delta_bj - delta^i_b delta_aj (integer entries).

    Vanishes identically for alpha == beta.
    """
    m = np.zeros((N, N))
    m[alpha, beta] += 1.0
    m[beta, alpha] -= 1.0
    return m


def generators(N: int) -> list:
    """The N(N-1)/2 plane generators, ordered by (alpha < beta)."""
    if N < 2:
        raise ValueError(f"rotations require N >= 2, got {N}")
    return [
        RotationGenerator(a, b, generator_matrix(N, a, b))
        for a in range(N)
        for b in range(a + 1, N)
    ]


def commutator_expansion(N: int, a: int, b: int, mu: int, nu: int) -> np.ndarray:
    """Right-hand side of the so(N) relation for [M_ab, M_mu_nu]."""
    def delta(i, j):
        return 1.0 if i == j else 0.0

    return (
        -delta(a, mu) * generator_matrix(N, b, nu)
        + delta(a, nu) * generator_matrix(N, b, mu)
        - delta(b, nu) * generator_matrix(N, a, mu)
        + delta(b, mu) * generator_matrix(N, a, nu)
    )


def finite_rotation(N: int, coeffs: dict) -> np.ndarray:
    """exp of a generator combination; coeffs maps (alpha, beta) to an angle."""
    g = np.zeros((N, N))
    for (a, b), angle in coeffs.items():
        g += angle * generator_matrix(N, a, b)
    return expm(g)


class MomentumValue:
    """Antisymmetric collection of plane momenta J_ab = -J_ba.

    A plain class, not a NamedTuple: indexing takes a plane (a, b).
    """

    __slots__ = ("components",)

    def __init__(self, components: dict):
        self.components = components

    def __getitem__(self, pair) -> float:
        a, b = pair
        if a == b:
            return 0.0
        if (a, b) in self.components:
            return self.components[(a, b)]
        return -self.components[(b, a)]


def momentum_canonical(q, p) -> MomentumValue:
    """Plane momenta J_ab = p_k (M_ab)^k_j q^j of the canonical action.

    Sign convention: for N = 2, J_01 = p_1 q^2 - p_2 q^1, i.e. minus the
    angular momentum q^1 p_2 - q^2 p_1.  In Darboux variables (xi, pi) it
    is the same bilinear of the two halves of zeta.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    N = q.size
    comps = {}
    for a in range(N):
        for b in range(a + 1, N):
            comps[(a, b)] = float(p @ generator_matrix(N, a, b) @ q)
    return MomentumValue(comps)


def momentum_gradient(z, a: int, b: int) -> np.ndarray:
    """Phase-space gradient of J_ab = p^T M_ab q at z = (q, p)."""
    z = np.asarray(z, dtype=float)
    N = z.size // 2
    m = generator_matrix(N, a, b)
    q, p = z[:N], z[N:]
    return np.concatenate([m.T @ p, m @ q])


class InvarianceReport(NamedTuple):
    """Residuals of the field-invariance conditions under a rotation."""

    symplectic: bool
    residual_f: float
    residual_g: float
    residual_omega: float


def invariance_check(cfg: FieldConfig, R, tol: float = 1e-10) -> InvarianceReport:
    """Check whether the lifted rotation preserves the modified two-form.

    For constant fields the conditions are R^T (eF) R = eF and
    R (rG) R^T = rG; the congruence residual on the full Omega matrix is
    reported as well.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (cfg.N, cfg.N) or np.abs(R.T @ R - np.eye(cfg.N)).max() > 1e-10:
        raise NotARotation("R must be an orthogonal N x N matrix")
    res_f = float(np.abs(R.T @ cfg.eF @ R - cfg.eF).max())
    res_g = float(np.abs(R @ cfg.rG @ R.T - cfg.rG).max())

    omega = build_omega(cfg)
    lift = np.zeros((2 * cfg.N, 2 * cfg.N))
    lift[:cfg.N, :cfg.N] = R
    lift[cfg.N:, cfg.N:] = np.linalg.inv(R.T)
    res_omega = float(np.abs(lift.T @ omega @ lift - omega).max())
    return InvarianceReport(
        symplectic=bool(res_f <= tol and res_g <= tol),
        residual_f=res_f,
        residual_g=res_g,
        residual_omega=res_omega,
    )
