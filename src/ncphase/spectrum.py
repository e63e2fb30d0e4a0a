"""Quantum spectra of the quadratic models and the chi -> 0 limit scan.

Spectra are pure frequency ladders with symmetric-ordering offsets:
every mode contributes hbar * omega * (n + 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constrained import degenerate_omega_r
from .dynamics import OscillatorModel, n2_frequencies, shift_modes

# Largest ladder built, in levels; refused before any array is allocated.
# At the cap an axial (d = 3) spectrum is about 200 MB of JSON.
MAX_LEVELS = 2_000_000


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Energy ladder sorted by (energy, n): level k has the mode quantum
    numbers quanta[k] (ints, one column per frequency) and energies[k]."""

    quanta: np.ndarray
    energies: np.ndarray
    hbar: float
    frequencies: tuple

    @property
    def levels(self) -> tuple:
        """The levels as (quantum-number tuple, float energy) pairs."""
        return tuple(zip(map(tuple, self.quanta.tolist()), self.energies.tolist()))

    @property
    def ground_state(self) -> float:
        return float(self.energies[0])


def _ladder(freqs, hbar: float, nmax: int) -> SpectrumTable:
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
    with np.errstate(over="ignore", invalid="ignore"):
        energies = hbar * (ns + 0.5) @ np.asarray(freqs)
    # lexsort's last key is the primary one: the order of sorted() on
    # (energy, n) tuples.
    order = np.lexsort(tuple(ns.T[::-1]) + (energies,))
    return SpectrumTable(ns[order], energies[order], float(hbar),
                         tuple(float(f) for f in freqs))


def spectrum_n2(model: OscillatorModel, B: float, C: float, nmax: int) -> SpectrumTable:
    """Planar levels E(n+, n-) = hbar w+ (n+ + 1/2) + hbar w- (n- + 1/2)."""
    fr = n2_frequencies(model, B, C)
    return _ladder((fr.omega_plus, fr.omega_minus), model.hbar, nmax)


def spectrum_degenerate_n2(model: OscillatorModel, C: float, nmax: int) -> SpectrumTable:
    """Single reduced ladder E(n) = hbar |omega_r| (n + 1/2) at chi = 0.

    The sign of omega_r (orientation of the reduced rotation) is recorded
    by the constrained module; the ladder uses its magnitude.
    """
    omega_r = degenerate_omega_r(model, C)
    return _ladder((abs(omega_r),), model.hbar, nmax)


def spectrum_n3_parallel(model: OscillatorModel, B: float, C: float,
                         nmax: int) -> SpectrumTable:
    """Axis-aligned spatial levels: transverse pair (w+, w-) plus the bare w3."""
    fr = n2_frequencies(model, B, C)
    return _ladder((fr.omega_plus, fr.omega_minus, model.omega0), model.hbar, nmax)


@dataclass(frozen=True)
class LimitScanRow:
    """One chi = eps^2 sample of the degenerate-limit study."""

    epsilon: float
    omega_plus: float
    omega_minus: float
    omega_r_target: float
    fast_amplitude: float


def chi_limit_scan(model: OscillatorModel, B: float, eps_values,
                   z0=None) -> list:
    """Scan chi = eps^2 at fixed B > 0, with C = (eps^2 - 1)/B.

    Per row: the two mode frequencies, the reduced-frequency target of
    the chi = 0 system, and the amplitude of the fast mode in q(t) for an
    initial state on the limiting constraint subspace.  As eps -> 0,
    omega_minus -> omega_r with an O(eps^2) defect, omega_plus * eps^2
    tends to a constant, and the fast amplitude is O(eps^2).
    """
    if B <= 0:
        raise ValueError("the scan fixes the orientation B > 0")
    eps_values = np.asarray(sorted(set(float(e) for e in eps_values), reverse=True))
    if eps_values.size == 0 or eps_values[-1] <= 0:
        raise ValueError("eps values must be positive")

    mk = model.m * model.kappa
    omega_r = degenerate_omega_r(model, -1.0 / B)
    if z0 is None:
        # q0 = 1 on the limiting constraint subspace: p0 = i m kappa q0 / B.
        z0 = np.array([1.0, 0.0, 0.0, mk / B])

    rows = []
    for eps in eps_values:
        C = (eps * eps - 1.0) / B
        modes = shift_modes(model, B, C, z0)
        fast = abs(modes.q_coeff_plus * modes.a_plus)
        rows.append(LimitScanRow(
            epsilon=float(eps),
            omega_plus=modes.omega_plus,
            omega_minus=modes.omega_minus,
            omega_r_target=omega_r,
            fast_amplitude=float(fast),
        ))
    return rows


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x (order-fit helper)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    a = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    return float(coef[1])
