"""Equations of motion, renormalized frequencies and propagation.

All in-scope Hamiltonians are quadratic, H = p^2/2m + V(q) with V either
(kappa/2) q^2 or -E.q, so the flow is affine: dz/dt = M z + k with
M = Lambda . Hess(H).  The exact propagator uses the matrix exponential;
the implicit midpoint rule provides the generic symplectic step.  Both
give the one-step map as E = map - I, which `affine_rows` squares into
the block map that advances a trajectory sqrt(steps) rows at a time.
`affine_flow` does this for any (M, k), so the terminal flow of a
degenerate constraint chain is stepped by the same code.
"""

import numpy as np

from .errors import StepRejected


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


def _rowdot(a, b):
    # Row-wise dot product of (..., n) arrays.  The batched matmul rounds
    # each row exactly like the BLAS `a @ b` of two 1-d vectors, which
    # einsum and (a * b).sum(-1) do not.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class OscillatorModel:
    """Mass, elasticity or constant force, and the action scale hbar.

    With ``Evec`` the potential is V = -Evec.q, and ``kappa`` must be 0;
    without it, V = (kappa/2) |q|^2 (kappa = 0 is the free particle).
    """

    __slots__ = ("m", "kappa", "Evec", "hbar")

    def __init__(self, m: float, kappa: float = 0.0, Evec: tuple | None = None,
                 hbar: float = 1.0):
        if m <= 0:
            raise ValueError(f"mass must be positive, got {m}")
        if hbar <= 0:
            raise ValueError(f"hbar must be positive, got {hbar}")
        if kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {kappa}")
        if Evec is not None:
            if kappa:
                raise ValueError(f"a constant force Evec takes no kappa, got {kappa}")
            Evec = tuple(float(e) for e in Evec)
        self.m, self.kappa, self.Evec, self.hbar = m, kappa, Evec, hbar

    def hessian(self, N: int) -> np.ndarray:
        h = np.zeros((2 * N, 2 * N))
        if self.Evec is None:
            h[:N, :N] = self.kappa * np.eye(N)
        h[N:, N:] = np.eye(N) / self.m
        return h

    def gradient_offset(self, N: int) -> np.ndarray:
        g = np.zeros(2 * N)
        if self.Evec is not None:
            g[:N] = -np.asarray(self.Evec, dtype=float)
        return g

    def hamiltonian(self, z):
        """H of one state (a float) or of each row of a (..., 2N) array."""
        z = np.asarray(z, dtype=float)
        N = z.shape[-1] // 2
        q, p = z[..., :N], z[..., N:]
        if self.Evec is None:
            v = (0.5 * self.kappa) * _rowdot(q, q)
        else:
            v = -_rowdot(q, np.asarray(self.Evec))
        h = _rowdot(p, p) / (2.0 * self.m) + v
        return float(h) if z.ndim == 1 else h


def flow_matrix(lam: np.ndarray, model: OscillatorModel):
    """Affine generator (M, k) of dz/dt = M z + k, M = Lambda . Hess(H),
    of the Poisson matrix ``lam`` of a regular structure.

    Finite fields and models can still overflow here; the products then
    hold inf/NaN, without a warning, and the trajectory is refused later.
    """
    N = len(lam) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        return lam @ model.hessian(N), lam @ model.gradient_offset(N)


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
    # A step that overflows is refused with the trajectory, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
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


def affine_flow(M: np.ndarray, k: np.ndarray, z0, dt: float, steps: int,
                method: str = "exact") -> np.ndarray:
    """Rows z_0 .. z_steps of dz/dt = M z + k sampled every dt.

    method "exact" uses the matrix exponential of the augmented generator
    (variation of constants for the affine part); "midpoint" uses the
    implicit midpoint rule, which is exact on the drift and second order
    on the oscillation.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if method == "exact":
        n = M.shape[0]
        aug = np.zeros((n + 1, n + 1))
        # A step that overflows is refused with the trajectory, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            aug[:n, :n] = M * dt
            aug[:n, n] = k * dt
        e = expm_minus_identity(aug)
    elif method == "midpoint":
        e = midpoint_transfer(M, k, dt)
    else:
        raise ValueError(f"unknown method {method!r}")
    return affine_rows(e, np.asarray(z0, dtype=float), steps)

