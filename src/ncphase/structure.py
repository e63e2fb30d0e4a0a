"""Phase-space structure matrices for constant magnetic and dual-magnetic fields.

Coordinates are ordered (q^1..q^N, p_1..p_N) throughout.  The modified
two-form is represented by the 2N x 2N block matrix

    Omega = [[-eF,  I],
             [ -I, rG]],

and the Poisson matrix is Lambda = -Omega^{-1}, assembled from closed-form
blocks built out of one inverse of Psi = I - rG.eF (Phi = I - eF.rG is
Psi^T for antisymmetric fields, so Phi^{-1} = Psi^{-T}).
"""

import math

import numpy as np

from .errors import SingularOmega

TOL_SINGULAR = 1e-10
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
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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


def _two_sum(a, b):
    """``(s, err)`` with s = fl(a + b) and s + err = a + b exactly (Knuth),
    elementwise, barring overflow."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _dd_matmul(a, b, a_lo=None):
    """``(hi, lo, ea, eb)`` with (a + a_lo) @ b = 2^ea_i (hi + lo)_ij 2^eb_j,
    to within about 2 k^2 2^(c - 106) of the row scale times the column
    scale (2^-63 at k = 50; about 2^-70 in practice).

    Each row of ``a`` and each column of ``b`` is scaled by a power of two
    to a largest entry in [0.5, 1), so no split below overflows, and split
    at 2^c, c = ceil((53 + log2 k) / 2) + 1 for a contraction of length k
    (Ozaki, Ogita, Oishi and Rump 2012).  The high parts are then multiples
    of 2^(c - 53) no larger than 1, so every partial sum of their product
    is a multiple of 2^(2c - 106) below 2^(2c - 55): BLAS sums ``hi``
    exactly, in any order.  The cross terms go through BLAS in float64, and
    ``a_lo`` (a low part of ``a``) with them.
    """
    # A subnormal line keeps a scale of at most 2^1000, which is finite.
    ea = np.maximum(np.frexp(np.abs(a).max(axis=1))[1], -1000)
    eb = np.maximum(np.frexp(np.abs(b).max(axis=0))[1], -1000)
    row = np.ldexp(1.0, -ea)[:, None]
    a = a * row
    b = b * np.ldexp(1.0, -eb)
    sigma = 2.0 ** (math.ceil((53 + math.log2(a.shape[1])) / 2) + 1)
    a_hi = (a + sigma) - sigma
    b_hi = (b + sigma) - sigma
    a -= a_hi
    if a_lo is not None:
        a += a_lo * row
    return a_hi @ b_hi, a_hi @ (b - b_hi) + a @ b, ea, eb


def _antisymmetric_part(hi, lo):
    """hi + lo - (hi + lo)^T of a double-double, rounded once."""
    s, e = _two_sum(hi, -hi.T)
    return s + (e + (lo - lo.T))


def poisson_matrix(cfg: FieldConfig) -> np.ndarray:
    """Poisson matrix Lambda = -Omega^{-1} from the closed-form blocks.

    Block layout: qq = -Psi^{-1} rG, qp = +Psi^{-1}, pq = -Psi^{-T},
    pp = +Psi^{-T} eF, from one inverse of Psi (Phi^{-1} = Psi^{-T}).
    Near the admissible singularity the entries of Lambda amplify the
    formation rounding of Psi quadratically, so every product is a
    double-double, from error-free split products in BLAS (`_dd_matmul`).
    Psi is formed as a double-double; the LAPACK inverse of its float64
    rounding takes one Newton step, whose residual is a double-double, and
    the correction stays as the inverse's low part.  The blocks and their
    antisymmetric average are double-doubles, rounded to float64 once.

    Psi^{-1} is carried as D Y with D = diag(2^-k), 2^k bounding the
    largest term of each column of Psi, and D is applied by exponent
    arithmetic.  So a Psi whose entries overflow a double (chi = 1 + B C
    beyond 1e308), or whose columns span more than the double range, still
    gives its blocks.  Every scale is a power of two taken from the data,
    so rescaling q and p by powers of two rescales Lambda bit for bit.  The
    output is cross-checked against a dense inversion of Omega.  Whether
    Lambda exists is the caller's decision, by `regularity`.
    """
    N = cfg.N
    eF, rG = cfg.eF, cfg.rG
    lam = np.empty((2 * N, 2 * N))
    # A non-finite product is refused by the cross-check below, so numpy's
    # warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # Psi D = D - rG eF D, k_j the exponent of the largest term of
        # column j of I - rG eF.
        hi, lo, ea, eb = _dd_matmul(rG, eF)
        # A zero term does not count: -(1 << 20) is below every exponent.
        top = np.where(hi == 0, -(1 << 20), np.frexp(hi)[1] + ea[:, None]).max(axis=0)
        k = np.maximum(top + eb, 1)
        shift = ea[:, None] + (eb - k)
        psi_hi, psi_lo = _two_sum(-np.ldexp(hi, shift), -np.ldexp(lo, shift))
        diag = np.diag_indices(N)
        s, e = _two_sum(np.ldexp(1.0, -k), psi_hi[diag])
        psi_hi[diag], psi_lo[diag] = _two_sum(s, e + psi_lo[diag])

        # Y = (Psi D)^{-1} = y0 + y_lo: the LAPACK seed and one Newton step.
        y0 = np.linalg.inv(psi_hi)
        hi, lo, ea, eb = _dd_matmul(psi_hi, y0, psi_lo)
        shift = ea[:, None] + eb
        y_lo = y0 @ ((np.eye(N) - np.ldexp(hi, shift)) - np.ldexp(lo, shift))

        # Psi^{-1} rG = D Y rG is -qq^T, and pp = Psi^{-T} eF = Y^T (D eF);
        # both are halved for the average.
        hi, lo, ea, eb = _dd_matmul(y0, rG, y_lo)
        shift = (ea - k - 1)[:, None] + eb
        lam[:N, :N] = _antisymmetric_part(np.ldexp(hi, shift).T, np.ldexp(lo, shift).T)
        hi, lo, ea, eb = _dd_matmul(y0.T, np.ldexp(eF, -k[:, None]), y_lo.T)
        shift = (ea - 1)[:, None] + eb
        lam[N:, N:] = _antisymmetric_part(np.ldexp(hi, shift), np.ldexp(lo, shift))
        lam[:N, N:] = np.ldexp(y0 + y_lo, -k[:, None])
        lam[N:, :N] = -lam[:N, N:].T

    # The error is relative to the dense inverse: a Lambda lost to overflow
    # is refused, and so is a NaN.
    dense = -np.linalg.inv(build_omega(cfg))
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.abs(lam - dense).max() / np.abs(dense).max()
    if not err <= 1e-6:
        raise ArithmeticError(
            f"closed-form Poisson blocks disagree with dense inversion (rel {err:.3e})"
        )
    return lam
