"""Linear Darboux maps bringing the modified two-form to canonical shape.

A map is stored as the matrix T with zeta = T z, accepted when
T^T J T = Omega up to a small residual.  Closed forms cover the planar
and spatial constant-field cases; a pivoted symplectic orthogonalization
handles any nondegenerate Omega.
"""

from typing import NamedTuple

import numpy as np

from .errors import NegativeChi, SingularOmega
from .structure import (
    EPS2,
    TOL_SINGULAR,
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


def symplectic_gram_schmidt(omega: np.ndarray, tol_singular: float = TOL_SINGULAR) -> DarbouxMap:
    """Generic Darboux map by greedy symplectic orthogonalization.

    Builds a basis (v_1..v_N, w_1..w_N) that is pairwise conjugate under
    Omega by largest-pivot selection: v is the largest-norm candidate,
    normalized, and w the candidate with the largest |Omega(v, w)|, scaled
    so that Omega(v, w) = 1; the pair is then balanced by
    s = sqrt(|w| / |v|).  The remaining candidates are projected onto the
    Omega-orthogonal complement of the pair (projection applied twice for
    stability), and the largest-norm ones are kept.  With S = [v | w],
    S^T Omega S = J, so T = S^{-1}.

    The candidates are held as one matrix, one candidate per row, so a
    step is BLAS work: the pivots of all candidates are one matvec with
    v^T Omega, their pairings Omega(u, v) and Omega(u, w) one product
    with [Omega v | Omega w], and each projection pass one rank-2 update.
    A step costs O(N^2) flops and the map O(N^3).  A pair or a candidate
    norm that stops being finite (extreme field scales) raises
    ArithmeticError naming the pair.
    """
    omega = np.asarray(omega, dtype=float)
    n2 = omega.shape[0]
    N = n2 // 2
    scale = max(1.0, np.abs(omega).max())

    # Rows in descending norm order: v is always the first candidate.
    cand, norms = np.eye(n2), np.ones(n2)
    vs, ws = [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(N):
            v = cand[0] / norms[0]
            pivots = cand @ (v @ omega)
            jmax = int(np.argmax(np.abs(pivots)))
            if abs(pivots[jmax]) < tol_singular * scale:
                raise SingularOmega(
                    f"pivot {abs(pivots[jmax]):.3e} below tolerance at pair {k}: "
                    "Omega is rank deficient"
                )
            w = cand[jmax] / pivots[jmax]
            # Balance the pair without changing Omega(v, w) = 1.
            s = np.sqrt(np.sqrt(w @ w) / np.sqrt(v @ v))
            v, w = v * s, w / s
            if not (np.isfinite(v).all() and np.isfinite(w).all()):
                raise ArithmeticError(f"non-finite basis pair at pair {k}")
            vs.append(v)
            ws.append(w)
            pair = np.stack([v, w])
            omega_pair = omega @ pair.T
            for _ in range(2):
                # u -> u - Omega(u, w) v + Omega(u, v) w for every row u.
                cand += (cand @ omega_pair) @ EPS2 @ pair
            norms = np.sqrt(np.einsum("ij,ij->i", cand, cand))
            if not np.isfinite(norms).all():
                raise ArithmeticError(f"non-finite candidate norms after pair {k}")
            keep = np.argsort(-norms, kind="stable")[: n2 - 2 * (k + 1)]
            cand, norms = cand[keep], norms[keep]

    S = np.column_stack(vs + ws)
    T = np.linalg.inv(S)
    return _finish(T, S, omega, 1e-8)
