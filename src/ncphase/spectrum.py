"""Quantum spectra of the quadratic models and the chi -> 0 limit scan.

A positive-definite quadratic H has a pure frequency ladder with
symmetric-ordering offsets: every normal mode contributes
hbar * omega * (n + 1/2).  `mode_frequencies` finds the frequencies of any
pair (Omega, Hess H), so one core serves every field and every N.
"""

from typing import NamedTuple

import numpy as np

from .constrained import LinearConstraints, gnh_chain
from .dynamics import OscillatorModel
from .errors import InconsistentSystem
from .structure import build_omega, field_config_n2, two_product

# Largest ladder built, in levels; refused before any array is allocated.
# At the cap an axial (d = 3) spectrum is about 200 MB of JSON.
MAX_LEVELS = 2_000_000

# Largest relative error bound of a reported frequency (_accept).
MODE_ACCURACY = 1e-8

# Largest estimated relative error of a fast amplitude in the limit scan,
# 4 eps |R z0| / |R z_fast| times w+ / (w+ - w-) (_scan_rows): the
# rounding of the start against the size of its fast part, amplified by
# the conditioning of the fast eigenvectors.  A row above it is refused.
AMPLITUDE_ACCURACY = 1e-5

class SpectrumTable(NamedTuple):
    """Energy ladder sorted by (energy, n): level k has the mode quantum
    numbers quanta[k] (ints, one column per frequency) and energies[k]."""

    quanta: np.ndarray
    energies: np.ndarray
    hbar: float
    frequencies: tuple


def ladder(freqs, hbar: float, nmax: int) -> SpectrumTable:
    """All levels hbar (n + 1/2) . freqs with 0 <= n_k <= nmax, sorted."""
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    if (nmax + 1) ** len(freqs) > MAX_LEVELS:
        raise ValueError(
            f"nmax = {nmax} gives (nmax + 1)^{len(freqs)} levels, "
            f"above the cap of {MAX_LEVELS}"
        )
    grids = np.meshgrid(*[np.arange(nmax + 1)] * len(freqs), indexing="ij")
    ns = np.stack([g.ravel() for g in grids], axis=1)
    # An overflow is refused by the caller's finiteness check on the energies.
    # The frequencies are copied: matmul rounds a strided vector differently.
    with np.errstate(over="ignore", invalid="ignore"):
        energies = hbar * (ns + 0.5) @ np.array(freqs, dtype=float)
    # The rows of ns are in lexicographic order, so a stable sort on the
    # energy gives the order of sorted() on (energy, n) tuples.
    order = np.argsort(energies, kind="stable")
    return SpectrumTable(ns[order], energies[order], float(hbar),
                         tuple(float(f) for f in freqs))


def hessian_factor(hess) -> np.ndarray:
    """Upper-triangular R with Hess H = R^T R.  A Hessian that is not
    positive definite (a linear potential, or kappa = 0) has a continuous
    spectrum: ValueError, a config error, rather than numpy's LinAlgError."""
    try:
        return np.linalg.cholesky(hess).T
    except np.linalg.LinAlgError:
        raise ValueError("the Hessian of H is not positive definite, so the "
                         "spectrum is not a ladder") from None


def whiten(omega, r) -> np.ndarray:
    """R^-T Omega R^-1: the two-form in the coordinates y = R z, where
    Hess H = R^T R is the identity.  The congruence keeps the frequencies.
    A non-finite result raises ArithmeticError before an SVD sees it."""
    r_inv = np.linalg.inv(r)
    with np.errstate(over="ignore", invalid="ignore"):
        white = r_inv.T @ omega @ r_inv
    if not np.isfinite(white).all():
        raise ArithmeticError("Omega overflows in the coordinates where Hess H = I")
    return white


def terminal_chain(omega, hess, g) -> tuple:
    """`gnh_chain` of (Omega, Hess H, g) and the terminal form that
    `mode_frequencies` reads.  Where Hess H = R^T R is positive definite it
    is built where Hess H = I (y = R z), on 2^s R^-T Omega R^-1 with max |.|
    in [1, 2) and gradient R^-T g, so its relative rank cutoff sees no scale
    of m, kappa or Omega, and mapped back to z (an InconsistentSystem's
    too); the form is R^-T Omega R^-1 on its terminal stage.  Elsewhere the
    chain is built on the raw data, with no form."""
    try:
        r = hessian_factor(hess)
    except ValueError:
        return gnh_chain(omega, hess, g), None
    white, r_inv = whiten(omega, r), np.linalg.inv(r)
    s = 1 - np.frexp(np.abs(white).max())[1]
    try:
        chain = gnh_chain(np.ldexp(white, s), np.eye(len(white)), r_inv.T @ g)
    except InconsistentSystem as exc:
        _in_z(exc.chain, r, r_inv, s)
        raise
    v = chain.subspaces[-1]
    return _in_z(chain, r, r_inv, s), v.T @ white @ v


def _in_z(chain, r, r_inv, s):
    """``chain`` of y = R z and 2^s R^-T Omega R^-1, in place in z: bases
    R^-1 V, constraint rows [A R | b] made orthonormal again (so that a
    residual keeps its scale in z), flow 2^s R^-1 M R and offset 2^s R^-1 k."""
    chain.subspaces = [r_inv @ v for v in chain.subspaces]
    a, b = chain.constraints
    rows = np.linalg.qr(np.column_stack([a @ r, b]).T)[0].T
    chain.constraints = LinearConstraints(rows[:, :-1], rows[:, -1])
    if chain.reduced_flow is not None:
        # The caller's finiteness check refuses a flow beyond the double range.
        with np.errstate(over="ignore", invalid="ignore"):
            chain.reduced_flow = np.ldexp(r_inv @ chain.reduced_flow @ r, s)
            chain.flow_offset = np.ldexp(r_inv @ chain.flow_offset, s)
        chain.gauge_basis = r_inv @ chain.gauge_basis
    return chain


def mode_frequencies(omega, r=None, lam=None) -> np.ndarray:
    """Normal-mode frequencies of H = |R z|^2 / 2 (r=None: R = I) under the
    two-form Omega, descending: the symplectic eigenvalues of R^T R.  The
    flow Lambda R^T R (Lambda = -Omega^-1, or ``lam``) is similar to the
    antisymmetric R Lambda R^T, and its inverse to -R^-T Omega R^-1.
    Coordinates that no exact nonzero couples are solved apart."""
    dim = omega.shape[0]
    if dim == 0 or dim % 2:
        raise ArithmeticError(f"a {dim}-dimensional phase space has no normal-mode pairs")
    lam = -np.linalg.inv(omega) if lam is None else lam
    white = omega if r is None else whiten(omega, r)
    with np.errstate(over="ignore", invalid="ignore"):
        flow = lam if r is None else r @ lam @ r.T
    reach = np.eye(dim, dtype=bool)
    for a in (omega, lam, white, flow) + (() if r is None else (r,)):
        reach |= (a != 0) | (a.T != 0)
    for _ in range(dim.bit_length()):  # squaring doubles the path length
        reach = (reach.astype(float) @ reach) > 0
    # The rows of a coupled block are equal: keep that of its smallest coordinate.
    blocks = reach[reach.argmax(1) == np.arange(dim)]
    parts = [_two_sided(*(a[np.ix_(b, b)] for a in (omega, lam, white, flow)))
             for b in map(np.flatnonzero, blocks)]
    return np.sort(np.concatenate(parts))[::-1]


def _two_sided(omega, lam, white, flow) -> np.ndarray:
    """One coupled block, or a stack of them along the leading axes.  The
    top halves of the Hermitian eigenvalues of 1j R Lambda R^T and
    -1j R^-T Omega R^-1 are the w and the 1/w, each accurate to about eps
    times its norm; `_accept` chooses between them."""
    n = omega.shape[-1] // 2
    _check_inverse(omega, lam)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            large = np.linalg.eigvalsh(1j * flow)[..., n:][..., ::-1]
        except np.linalg.LinAlgError as exc:
            # fmax skips the NaN of inf * 0 and names the overflow.
            largest = np.fmax.reduce(np.abs(flow), axis=None)
            raise ArithmeticError(f"{exc} for the whitened flow R Lambda R^T "
                                  f"(largest magnitude {largest:.3e})") from None
        small = 1.0 / np.linalg.eigvalsh(-1j * white)[..., n:]
    return _accept(large, small)


def _check_inverse(omega, lam):
    """Refuse a Lambda that does not invert -Omega at these scales: an
    underflowed Lambda would pass as a zero frequency."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(lam @ omega + np.eye(omega.shape[-1])).max((-2, -1))
        scale = np.abs(lam).max((-2, -1)) * np.abs(omega).max((-2, -1))
    if not (residual <= 1e-8 * scale).all():
        raise ArithmeticError("Lambda does not invert -Omega at these scales")


def _accept(large, small) -> np.ndarray:
    """The frequencies w of a block from its two descending estimates,
    ``large`` from the Lambda form and ``small`` (the 1/w) from the Omega
    form.  The Lambda form keeps the modes above sqrt(w_max w_min) and its
    own noise floor, the Omega form the rest, and a mode is known to
    16 n eps w_max / w or 16 n eps w / w_min by the form kept
    (notes/decisions.md); a bound above MODE_ACCURACY raises."""
    floor = 16 * large.shape[-1] * np.finfo(float).eps
    # A frequency of the discarded form may be inf or 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        keep = ((large >= np.sqrt(large[..., :1]) * np.sqrt(small[..., -1:]))
                & (large > floor * large[..., :1]))
        w = np.where(keep, large, small)
        w_max, w_min = w.max(-1, keepdims=True), w.min(-1, keepdims=True)
        spread, bound = w_max / w_min, floor * np.where(keep, w_max / w, w / w_min)
    if not (bound <= MODE_ACCURACY).all():
        raise ArithmeticError(f"a frequency spread of {spread.max():.3g} resolves a normal "
                              f"mode only to {bound.max():.1e} relative")
    return w


def planar_roots(a) -> np.ndarray:
    """The positive eigenvalues of 1j a, descending, for a stack of real
    antisymmetric 4x4 a, in closed form.  so(4) = su(2) + su(2) splits a
    into a self-dual half u = (a01 + a23, a02 - a13, a03 + a12) / 2 and an
    anti-self-dual half v = (a01 - a23, a02 + a13, a03 - a12) / 2, and the
    roots are |u| + |v| and ||u| - |v||, each within a few eps max|a|.  Each
    matrix is first scaled by a power of two, so the squares stay finite.
    Only the upper triangle is read."""
    _, e = np.frexp(np.abs(a).max((-2, -1)))
    a = np.ldexp(a, -e[..., None, None])
    s, t = a[..., 0, 1:], a[..., [2, 1, 1], [3, 3, 2]] * [1.0, -1.0, 1.0]
    u, v = np.linalg.norm(s + t, axis=-1), np.linalg.norm(s - t, axis=-1)
    return np.ldexp(np.stack([u + v, np.abs(u - v)], axis=-1) / 2, e[..., None])


def _scan_rows(omega, r, z0) -> np.ndarray:
    """Columns (omega_plus, omega_minus, fast_amplitude) of a stack of
    planar Omega: the roots of R Lambda R^T and R^-T Omega R^-1 in closed
    form (`planar_roots`), accepted by the core's rule, and the q amplitude
    of the projection of R z0 onto the +/- omega_plus plane of
    F = R Lambda R^T.  With G = F / omega_plus and rho = omega_minus /
    omega_plus, that projector is P = (G^2 + rho^2 I) / (rho^2 - 1), and
    z_fast = R^-1 P R z0."""
    # Extreme parameters overflow here; the core's checks, the estimate
    # and the caller's finiteness check refuse such rows, so numpy's
    # warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Psi = chi I, so Lambda is Omega's blocks over chi; chi = 1 + B C
        # from the exact product, 1 + p being exact where p is near -1.
        p, err = two_product(-omega[:, 0, 1], omega[:, 2, 3])
        chi = ((1.0 + p) + err)[:, None, None]
        if (chi == 0).any():
            raise ArithmeticError("Omega is singular in double precision")
        lam = np.block([[-omega[:, 2:, 2:], omega[:, :2, 2:]],
                        [omega[:, 2:, :2], -omega[:, :2, :2]]]) / chi
        _check_inverse(omega, lam)
        flow = r @ lam @ r.T
        w = _accept(planar_roots(flow), 1.0 / planar_roots(whiten(omega, r))[..., ::-1])
        w_plus, w_minus = w.max(-1), w.min(-1)
        # In units of omega_plus, |G| <= 1, so G^2 cannot overflow.
        g = flow / w_plus[:, None, None]
        rho2 = (w_minus / w_plus)[:, None] ** 2
        y0 = r @ z0
        y = ((g @ (g @ y0)[..., None])[..., 0] + rho2 * y0) / (rho2 - 1.0)
        # A stacked matmul rounds each row as a one-row scan does; a solve
        # with many right-hand sides would not.
        q = (np.linalg.inv(r)[:2] @ y[..., None])[..., 0]
        error = (4 * np.finfo(float).eps * np.linalg.norm(y0) / np.linalg.norm(y, axis=-1)
                 * w_plus / (w_plus - w_minus))
    # Where the two modes meet, rho^2 - 1 = 0 and the estimate is NaN.
    if not (error <= AMPLITUDE_ACCURACY).all():
        raise ArithmeticError(f"the fast amplitude's error estimate {error.max():.3e} "
                              f"exceeds {AMPLITUDE_ACCURACY:.0e} relative")
    return np.column_stack([w_plus, w_minus, np.hypot(q[:, 0], q[:, 1])])


def chi_limit_scan(model: OscillatorModel, B: float, eps_values) -> np.ndarray:
    """Scan chi = eps^2 at fixed B > 0, with C = (eps^2 - 1)/B, over positive eps.

    One float64 row per distinct eps, descending, with the columns
    (epsilon, omega_plus, omega_minus, omega_r_target, fast_amplitude):
    the two mode frequencies (omega_plus the larger), the
    reduced-frequency target of the chi = 0 system, and the amplitude of
    the omega_plus mode in q(t) for an initial state on the limiting
    constraint subspace.  As eps -> 0, omega_minus -> omega_r with an
    O(eps^2) defect, omega_plus * eps^2 tends to a constant, and the fast
    amplitude is O(eps^2).  All rows go through the spectrum core in one
    batched pass; the first row that fails, also by an amplitude error
    estimate above AMPLITUDE_ACCURACY, raises ArithmeticError naming its
    epsilon.
    """
    if B <= 0:
        raise ValueError("the scan fixes the orientation B > 0")
    eps_values = np.asarray(sorted(set(float(e) for e in eps_values), reverse=True))
    # q0 = 1 on the limiting constraint subspace: p0 = i m kappa q0 / B.
    with np.errstate(over="ignore"):
        z0 = np.array([1.0, 0.0, 0.0, model.m * model.kappa / B])
    if not np.isfinite(z0).all():
        raise ArithmeticError(f"the start {z0.tolist()} of the limit scan is not finite")
    hess = model.hessian(2)
    r = hessian_factor(hess)
    failures = (ArithmeticError, np.linalg.LinAlgError)
    try:  # a harmonic model has no gradient at the origin
        omega_r = mode_frequencies(terminal_chain(build_omega(field_config_n2(B, -1.0 / B)),
                                                  hess, np.zeros(4))[1])[0]
    except failures as exc:
        raise ArithmeticError(f"limit scan target omega_r at chi = 0: {exc}") from None

    # Omega of each row: the C = 0 matrix with C written into the rG block.
    omega = np.repeat(build_omega(field_config_n2(B, 0.0))[None], eps_values.size, axis=0)
    c = (eps_values * eps_values - 1.0) / B
    omega[:, 2, 3], omega[:, 3, 2] = c, -c
    try:
        table = _scan_rows(omega, r, z0)
    except failures:
        # Rows fail independently: bisect for the first one that does, in
        # chunks that halve, and report that row's own failure.
        lo, hi = 0, len(omega)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _scan_rows(omega[lo:mid], r, z0)
                lo = mid
            except failures:
                hi = mid
        try:
            _scan_rows(omega[lo:hi], r, z0)
        except failures as exc:
            raise ArithmeticError(
                f"limit scan at epsilon = {float(eps_values[lo])!r}: {exc}") from None
        raise
    return np.column_stack([eps_values, table[:, :2], np.full(eps_values.size, omega_r),
                            table[:, 2]])
