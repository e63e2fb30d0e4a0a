"""Linear Darboux maps bringing the modified two-form to canonical shape.

A map is stored as the matrix T with zeta = T z, accepted when
T^T J T = Omega up to a small residual.  One map serves every
nondegenerate Omega: the 2x2-pivoted skew-symmetric factorization of
Omega (Bunch 1982).  The paper's planar and spatial closed forms are
special cases of it, equal to it up to a symplectic matrix, and are kept
as test oracles (tests/closed_forms.py).  `lambda3`, the angular
momentum about the third axis, needs no chart: it is the moment map of
the rotation that both fields commute with.
"""

from typing import NamedTuple

import numpy as np

from .structure import FieldConfig, build_omega, canonical_j


class DarbouxMap(NamedTuple):
    """Invertible linear map z -> zeta = T z with T^T J T = Omega."""

    T: np.ndarray
    Tinv: np.ndarray
    residual: float
    cond: float


def verify_darboux(dmap: DarbouxMap, omega: np.ndarray) -> float:
    """Max-abs entry of T^T J T - Omega."""
    N = omega.shape[0] // 2
    return float(np.abs(dmap.T.T @ canonical_j(N) @ dmap.T - omega).max())


def symplectic_deviation(S: np.ndarray) -> float:
    """Max-abs entry of S^T J S - J; zero iff S is symplectic."""
    N = S.shape[0] // 2
    j = canonical_j(N)
    return float(np.abs(S.T @ j @ S - j).max())


def _finish(T: np.ndarray, Tinv: np.ndarray, omega: np.ndarray, bound: float) -> DarbouxMap:
    scale = max(1.0, np.abs(omega).max())
    dmap = DarbouxMap(T, Tinv, 0.0, float(np.linalg.cond(T)))
    res = verify_darboux(dmap, omega)
    inv_err = np.abs(T @ Tinv - np.eye(T.shape[0])).max()
    if res > bound * scale or inv_err > 1e-10 * scale:
        raise ArithmeticError(
            f"constructed map violates its contract (residual {res:.3e}, inverse {inv_err:.3e})"
        )
    return DarbouxMap(T, Tinv, res, dmap.cond)


def lambda3(cfg: FieldConfig, states):
    """Lambda3 = -1/2 z^T (Omega A) z of one state (a float) or of each row
    of a (..., 2N) array; None unless N >= 2 and Omega A is symmetric.

    A generates the simultaneous rotation of (q^1, q^2) and (p_1, p_2),
    A e_1 = e_2 in q and in p, so Lambda3 is its moment map: the angular
    momentum q^1 p_2 - q^2 p_1 at zero fields, xi^1 pi_2 - xi^2 pi_1 in
    the paper's planar and spatial Darboux variables.  Omega A is
    symmetric exactly when both fields commute with the rotation: planar
    and axis-aligned spatial fields, at any chi, and larger N whose (1, 2)
    block is invariant.  A's entries are 0 and +-1, so Omega A is copied
    from Omega's columns exactly and the test is exact.
    """
    N = cfg.N
    if N < 2:
        return None
    omega = build_omega(cfg)
    s = np.zeros_like(omega)
    for a, b in ((0, 1), (N, N + 1)):
        s[:, a], s[:, b] = omega[:, b], -omega[:, a]
    if not np.array_equal(s, s.T):
        return None
    z = np.asarray(states, dtype=float)
    # Fields near the float limit can overflow the form; the non-finite
    # column is refused with the trajectory, so numpy's warnings would only
    # add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        l3 = -0.5 * np.einsum("...i,...i->...", z @ s, z)
    return float(l3) if z.ndim == 1 else l3


def darboux_generic(omega: np.ndarray) -> DarbouxMap:
    """Generic Darboux map from the skew-symmetric factorization of Omega.

    Bunch's 2x2-pivoted elimination gives P Omega P^T = L D L^T, with L
    unit lower triangular and D = diag(d_k [[0, 1], [-1, 0]]).  Each step
    moves the largest |entry| of the remaining block to the pivot p = d_k
    (complete pivoting, so |L| <= 1) and takes the rank-2 Schur update
    A -= (c0 c1^T - c1 c0^T) / p of the pivot columns c0, c1, formed from
    L's columns c1 / p and -c0 / p so that no product of two entries can
    overflow.  With S = diag(sqrt|d_k|, sign(d_k) sqrt|d_k|) per pair,
    D = S^T J' S for the pairwise J' = Q^T J Q, where Q orders the pairs
    as (q, p); so T = Q S L^T P, and T^-1 = P^T L^-T S^-1 Q^T is a back
    substitution.

    Whether Omega is regular is `structure.regularity`'s decision; a zero
    or non-finite pivot (overflow at extreme field scales) raises
    ArithmeticError naming the pair.
    """
    a = np.array(omega, dtype=float)
    n2 = a.shape[0]
    N = n2 // 2
    perm, lower, pivots = np.arange(n2), np.eye(n2), np.empty(N)
    # An overflow becomes a non-finite pivot, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            top, rest = 2 * k, slice(2 * k + 2, n2)
            # The first maximum of a skew block lies above its diagonal: i < j.
            i, j = divmod(int(np.abs(a[top:, top:]).argmax()), n2 - top)
            for src, dst in ((top + i, top), (top + j, top + 1)):
                # Rows and columns of the remaining block, and L's finished rows.
                for rows in (a[:, top:], a[top:].T, lower[:, :top], perm):
                    rows[[src, dst]] = rows[[dst, src]]
            p = float(a[top, top + 1])
            if not (p != 0 and np.isfinite(p)):
                raise ArithmeticError(f"pivot {p!r} at pair {k}: no Darboux map")
            pivots[k] = p
            c1, l1 = a[rest, top + 1], -a[rest, top] / p
            lower[rest, top], lower[rest, top + 1] = c1 / p, l1
            a[rest, rest] -= c1[:, None] * l1 - l1[:, None] * c1
    root = np.sqrt(np.abs(pivots))
    s = np.column_stack([root, np.copysign(root, pivots)]).reshape(-1)
    qp = np.r_[0:n2:2, 1:n2:2]
    T, Tinv = np.empty((n2, n2)), np.empty((n2, n2))
    T[:, perm] = (lower.T * s[:, None])[qp]
    Tinv[perm] = (np.linalg.inv(lower.T) / s)[:, qp]
    return _finish(T, Tinv, omega, 1e-8)
