"""Presymplectic regime: kernels and constraint chains.

When det Psi = 0 the two-form matrix Omega is singular and the dynamics
equation Omega X = -grad H(z) is only solvable on nested constraint
subspaces.  For quadratic H the whole chain is linear algebra: each
stage adds the rows along which the combined system

    [Omega] X = [-(Hess z + g)]      (solvability)
    [  A  ]     [      0       ]     (tangency to the current stage)

fails to be solvable, and stops when no new independent row appears.
"""

from typing import NamedTuple

import numpy as np

from .errors import InconsistentSystem

RANK_TOL_FACTOR = 1e-10


def _rank(s: np.ndarray) -> int:
    """Count of singular values above RANK_TOL_FACTOR times the largest (0 if none)."""
    return int(np.sum(s > RANK_TOL_FACTOR * s[0])) if s.size else 0


def kernel(omega: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of Omega (2N x k, possibly k = 0),
    of the rank that `_rank` finds."""
    omega = np.asarray(omega, dtype=float)
    _, s, vt = np.linalg.svd(omega)
    return vt[_rank(s):].T


class LinearConstraints(NamedTuple):
    """Affine constraint rows: z admissible iff matrix @ z + offset = 0."""

    matrix: np.ndarray
    offset: np.ndarray

    def residual(self, z):
        """Largest |row violation| of one state (a float) or of each row of a
        (..., 2N) array; 0 when there are no rows."""
        z = np.asarray(z, dtype=float)
        r = np.abs((self.matrix @ z[..., None])[..., 0] + self.offset).max(-1, initial=0.0)
        return float(r) if z.ndim == 1 else r


class ConstraintChain:
    """Nested subspaces M_1 >= M_2 >= ... with the terminal tangent flow.

    subspaces[k] is a basis (columns) of the direction space of stage k,
    orthonormal as `gnh_chain` builds it.  The terminal flow is dz/dt =
    reduced_flow @ z + flow_offset, valid on the terminal stage, with any
    residual gauge freedom spanned by gauge_basis.  `gnh_chain` fills the
    chain in stage by stage.
    """

    __slots__ = ("subspaces", "constraints", "reduced_flow", "flow_offset",
                 "gauge_basis", "status")

    def __init__(self, n: int, flow=None, offset=None):
        """Stage one, the whole n-space.  With the flow (M, k) of an invertible
        Omega it is the whole chain: no constraints (None), no gauge freedom."""
        self.subspaces = [np.eye(n)]
        self.constraints, self.reduced_flow, self.flow_offset = None, flow, offset
        self.gauge_basis = None if flow is None else np.zeros((n, 0))
        self.status = "consistent"

    @property
    def dimensions(self) -> list:
        return [b.shape[1] for b in self.subspaces]

    def terminal_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the flow restricted to the terminal direction space,
        ascending by imaginary part."""
        v = self.subspaces[-1]
        ev = np.linalg.eigvals(v.T @ self.reduced_flow @ v)
        return ev[np.lexsort((ev.real, ev.imag))]


def _row_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal spanning rows (empty-safe)."""
    if rows.shape[0] == 0:
        return rows
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[:_rank(s)]


def gnh_chain(omega: np.ndarray, h_hessian: np.ndarray, h_gradient) -> ConstraintChain:
    """Iterated constraint construction for quadratic Hamiltonian data.

    Inputs are the (possibly singular) two-form matrix, the constant
    Hessian of H and its gradient at the origin.  Raises
    InconsistentSystem (with the partial chain attached) when the
    solvability rows are nowhere satisfiable.
    """
    omega = np.asarray(omega, dtype=float)
    h_hessian = np.asarray(h_hessian, dtype=float)
    g = np.asarray(h_gradient, dtype=float)
    n = omega.shape[0]

    chain = ConstraintChain(n)
    aug = np.zeros((0, n + 1))  # rows [A | b] of the affine constraints A z + b = 0

    # A consistent stage adds at least one row to [A | b], and A has at most
    # n independent rows, so the chain closes within n + 1 passes.
    for _ in range(n + 1):
        a_rows = aug[:, :n]
        stacked = np.vstack([omega, a_rows])
        # Left null vectors of the stacked system generate the conditions
        # under which [Omega; A] X = [-(Hess z + g); 0] is solvable.
        u, s, vt = np.linalg.svd(stacked)
        rank = _rank(s)
        left_null = u[:, rank:].T
        y_omega = left_null[:, :omega.shape[0]]
        new_rows = np.hstack([y_omega @ h_hessian, (y_omega @ g)[:, None]])

        merged = _row_space(np.vstack([aug, new_rows]))
        if merged.shape[0] < aug.shape[0]:
            # merged spans aug and more: the relative cutoff lost rows of aug.
            raise ArithmeticError(
                f"constraint rows lost rank ({aug.shape[0]} -> {merged.shape[0]}) "
                "under the relative singular-value cutoff"
            )
        if merged.shape[0] == aug.shape[0]:
            break

        a_new, b_new = merged[:, :n], merged[:, n]
        basis = _row_space(a_new)
        if basis.shape[0] < merged.shape[0]:
            chain.status = "inconsistent"
            chain.constraints = LinearConstraints(a_new, b_new)
            raise InconsistentSystem(
                "solvability conditions are nowhere satisfied", chain=chain
            )
        aug = merged
        # The rows of `basis` are orthonormal: its complement needs no rank test.
        chain.subspaces.append(np.linalg.svd(basis)[2][basis.shape[0]:].T)

    # After the break, `stacked` is [Omega; A] of the final constraints.
    chain.constraints = LinearConstraints(a_rows, aug[:, n])
    # Its pseudo-inverse, as `np.linalg.pinv` forms it, under `_rank`'s cutoff.
    u, s, vt_r = np.linalg.svd(stacked, full_matrices=False)
    s_inv = np.divide(1, s, where=np.arange(s.size) < _rank(s), out=np.zeros_like(s))
    proj = (vt_r.T @ (s_inv[:, None] * u.T))[:, :n]
    chain.reduced_flow = -proj @ h_hessian
    chain.flow_offset = -proj @ g
    chain.gauge_basis = vt[rank:].T
    if chain.subspaces[-1].shape[1] == 0:
        chain.status = "empty"
    return chain
