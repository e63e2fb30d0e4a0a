"""Phase-space structure matrices for constant magnetic and dual-magnetic fields.

Coordinates are ordered (q^1..q^N, p_1..p_N) throughout.  The modified
two-form is represented by the 2N x 2N block matrix

    Omega = [[-eF,  I],
             [ -I, rG]],

and the Poisson matrix is Lambda = -Omega^{-1}, assembled from closed-form
blocks built out of one inverse of Psi = I - rG.eF (Phi = I - eF.rG is
Psi^T for antisymmetric fields, so Phi^{-1} = Psi^{-T}).
"""

from typing import NamedTuple

import numpy as np

from .errors import SingularOmega

TOL_SINGULAR = 1e-10
NEWTON_STEPS = 3  # extended-precision corrections of the float64 inverse seed

# 2D orientation: eps_{12} = +1.
EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def cross_matrix(v) -> np.ndarray:
    """Matrix [v]_x such that [v]_x w = v x w."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def canonical_j(N: int) -> np.ndarray:
    """Canonical symplectic matrix J = [[0, I], [-I, 0]]."""
    j = np.zeros((2 * N, 2 * N))
    j[:N, N:] = np.eye(N)
    j[N:, :N] = -np.eye(N)
    return j


class FieldConfig:
    """Dimension N plus the constant coupled field matrices.

    eF lives on q-space (charge times magnetic field), rG on p-space
    (dual charge times dual field).  Both must be antisymmetric N x N;
    they are stored as read-only float copies.
    """

    __slots__ = ("N", "eF", "rG")

    def __init__(self, N: int, eF, rG):
        if int(N) < 1:
            raise ValueError(f"N must be a positive integer, got {N}")
        self.N = N = int(N)
        for name, m in (("eF", eF), ("rG", rG)):
            m = np.array(m, dtype=float)
            if m.shape != (N, N):
                raise ValueError(f"{name} must be {N}x{N}, got {m.shape}")
            scale = max(1.0, np.abs(m).max())
            if np.abs(m + m.T).max() > 1e-14 * scale:
                raise ValueError(f"{name} is not antisymmetric")
            m.setflags(write=False)
            setattr(self, name, m)


def field_config_n2(B: float, C: float) -> FieldConfig:
    """Planar fields: pseudoscalars B, C embedded via eps_{12} = +1."""
    return FieldConfig(2, B * EPS2, C * EPS2)


def field_config_n3(Bvec, Cvec) -> FieldConfig:
    """Spatial fields: pseudovectors embedded via the Levi-Civita symbol."""
    return FieldConfig(3, -cross_matrix(Bvec), -cross_matrix(Cvec))


def n2_scalars(cfg: FieldConfig):
    """Recover (B, C) for an N=2 config; else None."""
    if cfg.N != 2:
        return None
    return cfg.eF[0, 1], cfg.rG[0, 1]


def n3_vectors(cfg: FieldConfig):
    """Recover (Bvec, Cvec) for an N=3 config; else None."""
    if cfg.N != 3:
        return None
    bvec = np.array([cfg.eF[1, 2], cfg.eF[2, 0], cfg.eF[0, 1]])
    cvec = np.array([cfg.rG[1, 2], cfg.rG[2, 0], cfg.rG[0, 1]])
    return bvec, cvec


def build_omega(cfg: FieldConfig) -> np.ndarray:
    """Assemble the modified two-form matrix [[-eF, I], [-I, rG]]."""
    N = cfg.N
    omega = np.zeros((2 * N, 2 * N))
    omega[:N, :N] = -cfg.eF
    omega[:N, N:] = np.eye(N)
    omega[N:, :N] = -np.eye(N)
    omega[N:, N:] = cfg.rG
    return omega


class PsiPhiPair(NamedTuple):
    """Factorization matrices Psi = I - rG.eF and Phi = I - eF.rG (Phi = Psi^T)."""

    Psi: np.ndarray
    Phi: np.ndarray
    det_psi: float


def psi_phi(cfg: FieldConfig) -> PsiPhiPair:
    # Fields near the float limit overflow here; the non-finite products are
    # refused downstream, so numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.eye(cfg.N) - cfg.rG @ cfg.eF
        phi = np.eye(cfg.N) - cfg.eF @ cfg.rG
        return PsiPhiPair(psi, phi, float(np.linalg.det(psi)))


def regularity(cfg: FieldConfig) -> float:
    """det Psi; the structure is symplectic iff this is nonzero."""
    return psi_phi(cfg).det_psi


def _newton_inv(a_ld: np.ndarray) -> np.ndarray:
    """Inverse of a longdouble matrix by LAPACK seed plus Newton correction."""
    # Entries beyond the float64 range become inf in the seed, and the
    # caller's finiteness check refuses the result.
    with np.errstate(over="ignore"):
        x = np.linalg.inv(a_ld.astype(float)).astype(np.longdouble)
    ident = np.eye(a_ld.shape[0], dtype=np.longdouble)
    for _ in range(NEWTON_STEPS):
        x = x + x @ (ident - a_ld @ x)
    return x


def poisson_matrix(cfg: FieldConfig, tol_singular: float = TOL_SINGULAR) -> np.ndarray:
    """Poisson matrix Lambda = -Omega^{-1} from the closed-form blocks.

    Block layout: qq = -Psi^{-1} rG, qp = +Psi^{-1}, pq = -Psi^{-T},
    pp = +Psi^{-T} eF, from one inverse of Psi (Phi^{-1} = Psi^{-T}).
    Products and the inverse are carried in extended precision before the
    final rounding: near the admissible singularity the entries of Lambda
    amplify the formation rounding of Psi quadratically, which would
    otherwise dominate the result.  The output is cross-checked against a
    dense inversion of Omega and antisymmetrized.  Raises SingularOmega
    when |det Psi| is below tol_singular: this is the one
    regular/degenerate decision of `simulate` and `spectrum`.
    """
    det_psi = psi_phi(cfg).det_psi
    if abs(det_psi) < tol_singular:
        raise SingularOmega(
            f"det Psi = {det_psi:.3e} below tolerance {tol_singular:.1e}; "
            "use the constrained module"
        )
    eF = cfg.eF.astype(np.longdouble)
    rG = cfg.rG.astype(np.longdouble)
    psi_inv = _newton_inv(np.eye(cfg.N, dtype=np.longdouble) - rG @ eF)
    lam_ld = np.block([
        [-psi_inv @ rG, psi_inv],
        [-psi_inv.T, psi_inv.T @ eF],
    ])
    lam = (0.5 * (lam_ld - lam_ld.T)).astype(float)

    # The error is relative to the dense inverse: a Lambda lost to overflow
    # (all zero once chi = 1 + B C overflows) is refused, and so is a NaN.
    dense = -np.linalg.inv(build_omega(cfg))
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.abs(lam - dense).max() / np.abs(dense).max()
    if not err <= 1e-6:
        raise ArithmeticError(
            f"closed-form Poisson blocks disagree with dense inversion (rel {err:.3e})"
        )
    return lam


def bracket(grad_f, grad_g, lam: np.ndarray) -> float:
    """Poisson bracket {f, g} = (grad f)^T Lambda (grad g) at a point."""
    grad_f = np.asarray(grad_f, dtype=float)
    grad_g = np.asarray(grad_g, dtype=float)
    return float(grad_f @ lam @ grad_g)
