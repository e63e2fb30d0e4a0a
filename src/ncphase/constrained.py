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
from .dynamics import OscillatorModel
from .structure import FieldConfig, build_omega

RANK_TOL_FACTOR = 1e-10


def kernel(omega: np.ndarray, tol_factor: float = RANK_TOL_FACTOR) -> np.ndarray:
    """Orthonormal basis of the null space of Omega (2N x k, possibly k = 0).

    Rank decisions use a singular-value cutoff relative to the largest
    singular value.
    """
    omega = np.asarray(omega, dtype=float)
    _, s, vt = np.linalg.svd(omega)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(omega.shape[0])
    mask = s <= tol_factor * s[0]
    return vt[mask].T


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

    subspaces[k] is an orthonormal basis (columns) of the direction space
    of stage k; points[k] a particular point on the stage.  The terminal
    flow is dz/dt = reduced_flow @ z + flow_offset, valid on the terminal
    stage, with any residual gauge freedom spanned by gauge_basis.
    `gnh_chain` fills the chain in stage by stage.
    """

    __slots__ = ("subspaces", "points", "constraints", "reduced_flow",
                 "flow_offset", "gauge_basis", "status")

    def __init__(self):
        self.subspaces, self.points = [], []
        self.constraints = self.reduced_flow = self.flow_offset = self.gauge_basis = None
        self.status = "consistent"

    @property
    def dimensions(self) -> list:
        return [b.shape[1] for b in self.subspaces]

    def terminal_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the flow restricted to the terminal direction space."""
        v = self.subspaces[-1]
        if v.shape[1] == 0:
            return np.array([], dtype=complex)
        restricted = v.T @ self.reduced_flow @ v
        ev = np.linalg.eigvals(restricted)
        return ev[np.lexsort((ev.real, ev.imag))]


def _row_space(rows: np.ndarray, tol_factor: float) -> np.ndarray:
    """Orthonormal spanning rows (empty-safe)."""
    if rows.shape[0] == 0:
        return rows
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return rows[:0]
    return vt[s > tol_factor * s[0]]


def gnh_chain(omega: np.ndarray, h_hessian: np.ndarray, h_gradient,
              tol_factor: float = RANK_TOL_FACTOR) -> ConstraintChain:
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

    chain = ConstraintChain()
    aug = np.zeros((0, n + 1))  # rows [A | b] of the affine constraints A z + b = 0
    chain.subspaces.append(np.eye(n))
    chain.points.append(np.zeros(n))

    # A consistent stage adds at least one row to [A | b], and A has at most
    # n independent rows, so the chain closes within n + 1 passes.
    for _ in range(n + 1):
        a_rows = aug[:, :n]
        stacked = np.vstack([omega, a_rows])
        # Left null vectors of the stacked system generate the conditions
        # under which [Omega; A] X = [-(Hess z + g); 0] is solvable.
        u, s, _ = np.linalg.svd(stacked)
        rank = int(np.sum(s > tol_factor * s[0])) if s.size and s[0] > 0 else 0
        left_null = u[:, rank:].T
        y_omega = left_null[:, :omega.shape[0]]
        new_rows = np.hstack([y_omega @ h_hessian, (y_omega @ g)[:, None]])

        merged = _row_space(np.vstack([aug, new_rows]), tol_factor)
        if merged.shape[0] < aug.shape[0]:
            # merged spans aug and more: the relative cutoff lost rows of aug.
            raise ArithmeticError(
                f"constraint rows lost rank ({aug.shape[0]} -> {merged.shape[0]}) "
                "under the relative singular-value cutoff"
            )
        if merged.shape[0] == aug.shape[0]:
            break

        a_new, b_new = merged[:, :n], merged[:, n]
        rank_a = _row_space(a_new, tol_factor).shape[0]
        if rank_a < merged.shape[0]:
            chain.status = "inconsistent"
            chain.constraints = LinearConstraints(a_new, b_new)
            raise InconsistentSystem(
                "solvability conditions are nowhere satisfied", chain=chain
            )
        aug = merged
        point, *_ = np.linalg.lstsq(a_new, -b_new, rcond=None)
        basis = _row_space(a_new, tol_factor)
        null_basis = _null_of_rows(basis, n)
        chain.subspaces.append(null_basis)
        chain.points.append(point)
    else:
        raise ArithmeticError(f"constraint chain did not close within {n + 1} stages")

    a_rows, b = aug[:, :n], aug[:, n]
    chain.constraints = LinearConstraints(a_rows, b)
    stacked = np.vstack([omega, a_rows])
    pinv = np.linalg.pinv(stacked, rcond=tol_factor)
    proj = pinv[:, :n]
    chain.reduced_flow = -proj @ h_hessian
    chain.flow_offset = -proj @ g
    chain.gauge_basis = _null_of_rows(_row_space(stacked, tol_factor), n)
    if chain.subspaces[-1].shape[1] == 0:
        chain.status = "empty"
    return chain


def _null_of_rows(orth_rows: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of {z : R z = 0} given orthonormal rows R."""
    if orth_rows.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(orth_rows, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL_FACTOR * s[0]))
    return vt[rank:].T


def gnh_from_model(cfg: FieldConfig, model: OscillatorModel) -> ConstraintChain:
    """Chain for the standard kinetic-plus-potential data of a field config."""
    return gnh_chain(build_omega(cfg), model.hessian(cfg.N),
                     model.gradient_offset(cfg.N))
