"""Linear Darboux maps bringing the modified two-form to canonical shape.

A map is stored as the matrix T with zeta = T z, accepted when
T^T J T = Omega up to a small residual.  Closed forms cover the planar
and spatial constant-field cases; the 2x2-pivoted skew-symmetric
factorization of Omega (Bunch 1982) handles any nondegenerate Omega.
"""

from typing import NamedTuple

import numpy as np

from .errors import NegativeChi
from .structure import (
    EPS2,
    FieldConfig,
    build_omega,
    canonical_j,
    cross_matrix,
    field_config_n2,
    field_config_n3,
    n2_scalars,
    n3_vectors,
)


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
    # from them is refused downstream, so numpy's warnings would only add
    # noise.
    with np.errstate(over="ignore", invalid="ignore"):
        rchi = np.sqrt(chi)
        u = 0.5 * (1.0 + rchi)
        ru = np.sqrt(u)
        # gamma = (1 - sqrt(u)) / (theta sqrt(u)) rewritten without the 0/0 form.
        gamma = -1.0 / (2.0 * (rchi + 1.0) * (1.0 + ru) * ru)
        gamma_prime = (2.0 * rchi + 1.0) / (2.0 * (rchi + 1.0) * (rchi + ru) * ru)
    return N3Coefficients(theta, chi, float(u), float(gamma), float(gamma_prime))


def darboux_n2(B: float, C: float) -> DarbouxMap:
    """Closed-form planar map.

    xi = sqrt(u) (q - (C/2u) eps p),  pi = sqrt(u) (p - (B/2u) eps q),
    with u = (1 + sqrt(chi))/2; the inverse carries the extra 1/sqrt(chi).
    """
    co = n2_coefficients(B, C)
    ru = np.sqrt(co.u)
    ident = np.eye(2)
    half = lambda s: (s / (2.0 * co.u)) * EPS2

    T = ru * np.block([[ident, -half(C)], [-half(B), ident]])
    Tinv = (ru / np.sqrt(co.chi)) * np.block([[ident, half(C)], [half(B), ident]])
    return _finish(T, Tinv, build_omega(field_config_n2(B, C)), 1e-12)


def darboux_n3(Bvec, Cvec) -> DarbouxMap:
    """Closed-form spatial map.

    xi = sqrt(u) (q + gamma B (C.q) + (1/2u) C x p),
    pi = sqrt(u) (p + gamma (p.B) C + (1/2u) B x q).
    """
    B = np.asarray(Bvec, dtype=float)
    C = np.asarray(Cvec, dtype=float)
    co = n3_coefficients(B, C)
    ru = np.sqrt(co.u)
    ident = np.eye(3)
    bx, cx = cross_matrix(B), cross_matrix(C)
    bc, cb = np.outer(B, C), np.outer(C, B)

    T = ru * np.block([
        [ident + co.gamma * bc, cx / (2.0 * co.u)],
        [bx / (2.0 * co.u), ident + co.gamma * cb],
    ])
    Tinv = (ru / np.sqrt(co.chi)) * np.block([
        [ident + co.gamma_prime * bc, -cx / (2.0 * co.u)],
        [-bx / (2.0 * co.u), ident + co.gamma_prime * cb],
    ])
    return _finish(T, Tinv, build_omega(field_config_n3(B, C)), 1e-9)


def lambda3(cfg: FieldConfig, states):
    """Angular momentum xi^1 pi_2 - xi^2 pi_1 about the third axis in the
    closed-form Darboux variables zeta = T z, of one state (a float) or of
    each row of a (..., 2N) array; None where no such chart exists.

    The charts are those of planar configs and of axis-aligned spatial
    configs whose chi = 1 + C.B is finite and positive, where the map
    meets `_finish`'s contract.
    """
    try:
        sc, vecs = n2_scalars(cfg), n3_vectors(cfg)
        if sc is not None:
            dmap = darboux_n2(*sc)
        elif vecs is not None and not (vecs[0][:2].any() or vecs[1][:2].any()):
            dmap = darboux_n3(*vecs)
        else:
            return None
    except (NegativeChi, ArithmeticError):
        return None
    zeta = np.asarray(states, dtype=float) @ dmap.T.T
    N = cfg.N
    l3 = zeta[..., 0] * zeta[..., N + 1] - zeta[..., 1] * zeta[..., N]
    return float(l3) if zeta.ndim == 1 else l3


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
