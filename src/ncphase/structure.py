"""Phase-space structure matrices for constant magnetic and dual-magnetic fields.

Coordinates are ordered (q^1..q^N, p_1..p_N) throughout.  The modified
two-form is represented by the 2N x 2N block matrix

    Omega = [[-eF,  I],
             [ -I, rG]],

and the Poisson matrix is Lambda = -Omega^{-1}, assembled from closed-form
blocks built out of one inverse of Psi = I - rG.eF (Phi = I - eF.rG is
Psi^T for antisymmetric fields, so Phi^{-1} = Psi^{-T}).
"""

import numpy as np

from .errors import SingularOmega

TOL_SINGULAR = 1e-10
NEWTON_STEPS = 3  # extended-precision corrections of the float64 inverse seed
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant

# 2D orientation: eps_{12} = +1.
EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _halves(v):
    """Dekker's split: v = hi + lo, each with at most 26 significant bits."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


def two_product(a, b):
    """``(p, err)`` with p = fl(a * b) and p + err = a * b exactly, elementwise
    (Dekker 1971), barring overflow and underflow."""
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _halves(b)
    p = a * b
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


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


def regularity(cfg: FieldConfig, tol_singular: float) -> float:
    """det Psi, Psi = I - rG.eF, in float64: the one regular/degenerate decision.
    Below tol_singular in magnitude it raises SingularOmega, carrying the value."""
    # Fields near the float limit overflow here; the non-finite products are
    # refused downstream, so numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        det_psi = float(np.linalg.det(np.eye(cfg.N) - cfg.rG @ cfg.eF))
    if abs(det_psi) < tol_singular:
        raise SingularOmega(f"det Psi = {det_psi:.3e} below tolerance {tol_singular:.1e}; "
                            "use the constrained module", det_psi)
    return det_psi


def _newton_inv(a_ld: np.ndarray) -> np.ndarray:
    """Inverse of a longdouble matrix by LAPACK seed plus Newton correction.

    The seed is the float64 inverse of a D, D = diag(2^-k_j) with 2^k_j
    near the largest |a_ij| of column j, scaled back as D inv(a D).  A
    matrix whose entries overflow a double still gets a finite seed, and
    one whose columns span more than the double range (the axial pair of
    a huge N = 3 field beside its unit entry) one that is not singular.
    Column powers of two keep LU's pivots, so any other matrix gets the
    bits of the unscaled seed.
    """
    k = np.frexp(np.abs(a_ld).max(axis=0))[1]
    x = np.ldexp(np.linalg.inv(np.ldexp(a_ld, -k).astype(float)).astype(np.longdouble),
                 -k[:, None])
    ident = np.eye(a_ld.shape[0], dtype=np.longdouble)
    for _ in range(NEWTON_STEPS):
        x = x + x @ (ident - a_ld @ x)
    return x


def poisson_matrix(cfg: FieldConfig) -> np.ndarray:
    """Poisson matrix Lambda = -Omega^{-1} from the closed-form blocks.

    Block layout: qq = -Psi^{-1} rG, qp = +Psi^{-1}, pq = -Psi^{-T},
    pp = +Psi^{-T} eF, from one inverse of Psi (Phi^{-1} = Psi^{-T}).
    Products and the inverse are carried in extended precision before the
    final rounding: near the admissible singularity the entries of Lambda
    amplify the formation rounding of Psi quadratically, which would
    otherwise dominate the result.  The output is cross-checked against a
    dense inversion of Omega and antisymmetrized.  Whether Lambda exists
    is the caller's decision, by `regularity`.
    """
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
