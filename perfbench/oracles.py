"""Independent checks of every op's output.

Each check compares one output against something the program did not use to
produce it: the normal modes of the dense flow matrix (mapped by the
midpoint rule's phase error for midpoint runs), the same on the secondary
constraint subspace of a degenerate config, the closed-form chi = 0
rotation frequency, a dense inverse of Omega, the spectrum of the flow, or
an exact count.  Everything is computed here from the config; nothing is
imported from ncphase, so the program can change without changing its
oracles.  A check is a `Check`; the ones marked `rounding` are expected at
rounding level and feed the `oracle_err` metric, the others are exact
counts or bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TOL = 1e-8          # rounding-level checks; measured values are 1e-16 .. 1e-11
LIMIT_EPS_MIN, LIMIT_EPS_MAX = 1e-3, 1e-1   # limit-scan's --eps-min, --eps-max defaults


@dataclass(frozen=True)
class Check:
    name: str
    err: float
    tol: float = TOL
    rounding: bool = True

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.err) and self.err <= self.tol)


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


def _count(name: str, got, want) -> Check:
    return Check(name, float(abs(got - want)), tol=0.0, rounding=False)


def _cross(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def fields(cfg: dict) -> tuple:
    """(eF, rG) of a config, embedded as the README documents."""
    f = cfg["field"]
    if "B" in f:
        eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return f["B"] * eps, f["C"] * eps
    if "Bvec" in f:
        return -_cross(f["Bvec"]), -_cross(f["Cvec"])
    return np.array(f["eF"], dtype=float), np.array(f["rG"], dtype=float)


def omega(cfg: dict) -> np.ndarray:
    eF, rG = fields(cfg)
    n = eF.shape[0]
    return np.block([[-eF, np.eye(n)], [-np.eye(n), rG]])


def hessian(cfg: dict) -> np.ndarray:
    n, m, kappa = cfg["N"], cfg["model"]["m"], cfg["model"]["kappa"]
    return np.block([[kappa * np.eye(n), np.zeros((n, n))],
                     [np.zeros((n, n)), np.eye(n) / m]])


def _is_degenerate(cfg: dict) -> bool:
    eF, rG = fields(cfg)
    return abs(np.linalg.det(np.eye(eF.shape[0]) - rG @ eF)) < 1e-10


def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- flows -----------------------------------------------------------------

def _null_space(a: np.ndarray, n: int) -> np.ndarray:
    if a.size == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T


def _flow(cfg: dict) -> np.ndarray:
    """Dense flow matrix -inv(Omega) H of a nondegenerate config."""
    return -np.linalg.solve(omega(cfg), hessian(cfg))


def _reduced(cfg: dict) -> tuple:
    """Flow of a degenerate config on its secondary constraint subspace.

    The kernel vectors Z of Omega give the constraint rows Z^T H; on their
    null space V the flow is R in V coordinates, from V^T (Omega V R + H V)
    = 0.  Returns (constraint rows, V, R).  Built with dense SVDs, not with
    the program's constraint chain.
    """
    n2 = 2 * cfg["N"]
    om, hess = omega(cfg), hessian(cfg)
    rows = _null_space(om, n2).T @ hess
    v = _null_space(rows, n2)
    return rows, v, np.linalg.solve(v.T @ om @ v, -v.T @ hess @ v)


def _omega_r(cfg: dict, c: float) -> float:
    """Closed-form rotation frequency of a chi = 0 planar block with B = -1/C."""
    m, kappa = cfg["model"]["m"], cfg["model"]["kappa"]
    mk = m * kappa
    return -np.sqrt(mk) * c * np.sqrt(kappa / m) / (1.0 + mk * c * c)


def _positive_frequencies(flow) -> np.ndarray:
    im = np.linalg.eigvals(flow).imag
    return np.sort(im[im > 1e-9])


# --- simulate ---------------------------------------------------------------

def _cayley(dt: float):
    """Angular frequency of the implicit midpoint map for a mode of frequency w."""
    return lambda w: 2.0 * np.arctan(0.5 * w * dt) / dt


def _modes(flow, z0, times, freq=lambda w: w) -> tuple:
    """Solution of dz/dt = flow z from the eigenvectors of the flow.

    The flow is Hamiltonian with positive-definite H, so each eigenvalue is
    i w; each mode turns at freq(w) instead.  Also returns each mode's
    largest coordinate amplitude and its w.
    """
    lam, vec = np.linalg.eig(flow)
    coeff = np.linalg.solve(vec, z0)
    phases = np.exp(1j * np.outer(times, freq(lam.imag)))
    return ((phases * coeff) @ vec.T).real, np.abs(vec * coeff).max(axis=0), lam.imag


def _reports_lambda3(cfg: dict) -> bool:
    """Planar and axis-aligned spatial configs: the ones with a closed-form chart."""
    f = cfg["field"]
    if "Bvec" in f:
        return not any(f["Bvec"][:2]) and not any(f["Cvec"][:2])
    return "B" in f


def check_simulate(cfg: dict, path: str) -> list:
    n = cfg["N"]
    m, kappa = cfg["model"]["m"], cfg["model"]["kappa"]
    tf, dt = cfg["time"]["t_final"], cfg["time"]["dt"]
    method = cfg["time"].get("method", "exact")
    steps = int(round(tf / dt))
    z0 = np.array(cfg["state"], dtype=float)
    degenerate = _is_degenerate(cfg)
    lambda3 = not degenerate and _reports_lambda3(cfg)

    header, data = _read_csv(path)
    names = ["t"] + [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)] + ["H"]
    if degenerate:
        names.append("constraint_residual")
    elif lambda3:
        names.append("Lambda3")
    checks = [
        _count("header", int(header != names), 0),
        _count("rows", data.shape[0], steps + 1),
        _count("nonfinite", int(np.count_nonzero(~np.isfinite(data))), 0),
    ]
    if header != names or data.shape != (steps + 1, len(names)):
        return checks
    col = dict(zip(names, data.T))
    times = dt * np.arange(steps + 1)
    z = data[:, 1:1 + 2 * n]
    checks.append(Check("time-grid", _rel(col["t"], times)))

    if degenerate:
        rows, v, flow = _reduced(cfg)
        ref = _modes(flow, v.T @ z0, times)[0] @ v.T
        checks.append(Check("state-vs-reduced-modes", _rel(z, ref)))
        checks.append(Check("on-constraint", float(np.abs(z @ rows.T).max())))
        checks.append(Check("residual-column", float(np.abs(col["constraint_residual"]).max())))
    elif method == "exact":
        checks.append(Check("state-vs-modes", _rel(z, _modes(_flow(cfg), z0, times)[0])))
    else:
        ref, _, _ = _modes(_flow(cfg), z0, times, _cayley(dt))
        checks.append(Check("state-vs-midpoint-modes", _rel(z, ref)))
        exact, amps, w = _modes(_flow(cfg), z0, times)
        # Each mode keeps its amplitude and lags by t |w - w_mid|: a
        # second-order phase error that bounds the state deviation.
        bound = float(np.sum(amps * tf * np.abs(w - _cayley(dt)(w))))
        checks.append(Check("second-order-bound", float(np.abs(z - exact).max()),
                            tol=bound * (1.0 + 1e-6) + TOL, rounding=False))
    if lambda3:
        lam3 = col["Lambda3"]
        checks.append(Check("Lambda3-conserved", _rel(lam3, np.full_like(lam3, lam3[0]))))

    q, p = z[:, :n], z[:, n:]
    h = 0.5 * kappa * np.einsum("ij,ij->i", q, q) + np.einsum("ij,ij->i", p, p) / (2.0 * m)
    checks.append(Check("H-column", _rel(col["H"], h)))
    checks.append(Check("H-conserved", _rel(col["H"], np.full_like(h, h[0]))))
    return checks


# --- brackets, darboux ------------------------------------------------------

def check_brackets(cfg: dict, path: str) -> list:
    out = _read_json(path)
    om = omega(cfg)
    n = cfg["N"]
    lam = np.array(out["poisson"], dtype=float)
    eF, rG = fields(cfg)
    blocks = out["brackets"]
    stacked = np.block([[np.array(blocks["qq"]), np.array(blocks["qp"])],
                        [np.array(blocks["pq"]), np.array(blocks["pp"])]])
    return [
        _count("status", int(out["status"] != "ok"), 0),
        Check("omega", _rel(out["omega"], om)),
        Check("poisson-vs-dense-inverse", _rel(lam, -np.linalg.inv(om))),
        Check("bracket-blocks", _rel(stacked, lam)),
        Check("det-psi", _rel(out["det_psi"], np.linalg.det(np.eye(n) - rG @ eF))),
    ]


def check_darboux(cfg: dict, path: str) -> list:
    out = _read_json(path)
    om = omega(cfg)
    n = cfg["N"]
    t, tinv = np.array(out["T"], dtype=float), np.array(out["Tinv"], dtype=float)
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    route = {"B": "closed-n2", "Bvec": "closed-n3"}.get(next(iter(cfg["field"])), "generic")
    return [
        _count("route", int(out["route"] != route), 0),
        Check("TtJT-vs-omega", _rel(t.T @ j @ t, om)),
        Check("T-Tinv-identity", _rel(t @ tinv, np.eye(2 * n))),
    ]


# --- reduce, spectrum, limit-scan ------------------------------------------

def check_reduce(cfg: dict, path: str, cs) -> list:
    out = _read_json(path)
    n2 = 2 * cfg["N"]
    om, hess = omega(cfg), hessian(cfg)
    kernel_dim = n2 - int(np.linalg.matrix_rank(om, tol=1e-10 * np.linalg.norm(om, 2)))
    a = np.array(out["constraints"]["matrix"], dtype=float).reshape(-1, n2)
    flow = np.array(out["terminal_flow"], dtype=float)
    v = _null_space(a, n2)
    w = sorted(abs(_omega_r(cfg, c)) for c in cs)
    want = np.sort(np.concatenate([w, np.negative(w)]))
    got = np.sort(np.array(out["eigenvalues"]["imag"], dtype=float))
    restricted = np.linalg.eigvals(v.T @ flow @ v)
    return [
        _count("status", int(out["status"] != "consistent"), 0),
        _count("dimensions", int(out["dimensions"] != [n2, n2 - kernel_dim]), 0),
        Check("flow-solves-omega-X=-dH", _rel(om @ flow @ v + hess @ v, np.zeros_like(v))),
        Check("flow-tangent", _rel(a @ flow @ v, np.zeros((a.shape[0], v.shape[1])))),
        Check("eigenvalues-vs-closed-form", _rel(got, want)),
        Check("eigenvalues-real", _rel(out["eigenvalues"]["real"], np.zeros(len(got)))),
        Check("eigenvalues-vs-flow", _rel(np.sort(restricted.imag), want)),
    ]


def check_spectrum(cfg: dict, path: str, nmax: int) -> list:
    out = _read_json(path)
    freqs = np.array(out["frequencies"], dtype=float)
    ns = np.array([lv["n"] for lv in out["levels"]], dtype=int).reshape(-1, len(freqs))
    energies = np.array([lv["energy"] for lv in out["levels"]], dtype=float)
    d = len(freqs)
    ref = _positive_frequencies(_reduced(cfg)[2] if _is_degenerate(cfg) else _flow(cfg))
    grid = np.stack(np.meshgrid(*[np.arange(nmax + 1)] * d, indexing="ij"), -1).reshape(-1, d)
    seen = {tuple(r) for r in ns.tolist()}
    return [
        _count("levels", len(energies), (nmax + 1) ** d),
        _count("quantum-numbers", len(seen & {tuple(r) for r in grid.tolist()}), len(grid)),
        _count("sorted", int(np.count_nonzero(np.diff(energies) < 0)), 0),
        Check("frequencies-vs-flow-spectrum", _rel(np.sort(freqs), ref)),
        Check("energies", _rel(energies, out["hbar"] * (ns + 0.5) @ freqs)),
    ]


def check_limit_scan(path: str, points: int, eps_min: float, eps_max: float) -> list:
    header, data = _read_csv(path)
    return [
        _count("header", int(header != ["epsilon", "omega_plus", "omega_minus",
                                        "omega_r_target", "fast_amplitude"]), 0),
        _count("rows", data.shape[0], points),
        _count("nonfinite", int(np.count_nonzero(~np.isfinite(data))), 0),
        Check("epsilon-grid", _rel(data[:, 0], np.geomspace(eps_max, eps_min, points))
              if data.shape[0] == points else float("inf")),
    ]


def check(op, path: str) -> list:
    """All checks of one op's output; a file that cannot be parsed fails."""
    args = dict(zip(op.args[::2], op.args[1::2]))
    try:
        if op.command == "simulate":
            return check_simulate(op.config, path)
        if op.command == "brackets":
            return check_brackets(op.config, path)
        if op.command == "darboux":
            return check_darboux(op.config, path)
        if op.command == "reduce":
            return check_reduce(op.config, path, op.meta["C"])
        if op.command == "spectrum":
            return check_spectrum(op.config, path, int(args["--nmax"]))
        if op.command == "limit-scan":
            return check_limit_scan(path, int(args["--points"]),
                                    float(args.get("--eps-min", LIMIT_EPS_MIN)),
                                    float(args.get("--eps-max", LIMIT_EPS_MAX)))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [Check(f"parse: {type(exc).__name__}: {exc}", float("inf"))]
    raise ValueError(f"no oracle for {op.command!r}")
