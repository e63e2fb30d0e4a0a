"""Seeded inputs for the benchmark workloads.

A workload is a list of ops.  Each op is one ``ncphase`` CLI invocation:
a subcommand, the generated config it reads and any extra arguments.  The
program sees only the config files; the dictionaries here also carry what
the oracles need to check each output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
MODEL = {"m": 1.0, "kappa": 1.0}

# Fixed configs named in the roadmap; they do not depend on the seed.
PLANAR = {
    "schema_version": 1, "N": 2,
    "field": {"B": 1.0, "C": 0.5},
    "model": MODEL,
    "state": [1.0, 0.0, 0.0, 1.0],
    "time": {"t_final": 1000.0, "dt": 0.01, "method": "exact"},
}
AXIAL = {
    "schema_version": 1, "N": 3,
    "field": {"Bvec": [0.0, 0.0, 1.0], "Cvec": [0.0, 0.0, 0.5]},
    "model": MODEL,
    "state": [1.0, 0.0, 0.5, 0.0, 1.0, 0.2],
    "time": {"t_final": 100.0, "dt": 0.01, "method": "exact"},
}
# chi = 1 + CB = 0; z0 satisfies the secondary constraint p/m + i C kappa q = 0.
CHI0 = {
    "schema_version": 1, "N": 2,
    "field": {"B": -1.0, "C": 1.0},
    "model": MODEL,
    "state": [1.0, 0.0, 0.0, -1.0],
    "time": {"t_final": 100.0, "dt": 0.01, "method": "exact"},
}

GENERIC_SIZES = (6, 20, 50)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``ncphase <command> --config <cfg> [args] --out <out>``."""

    name: str
    command: str
    config: dict
    args: tuple = ()
    out_ext: str = ".json"
    meta: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_path: str) -> list:
        return [self.command, "--config", config_path, *self.args, "--out", out_path]


def _with_time(cfg: dict, **time) -> dict:
    return dict(cfg, time=dict(cfg["time"], **time))


def _antisymmetric(rng, n: int, scale: float) -> np.ndarray:
    upper = np.triu(rng.normal(0.0, scale, (n, n)), 1)
    return upper - upper.T


def generic_fields(rng, n: int) -> tuple:
    """Random antisymmetric eF, rG with det Psi of order one.

    Entries have standard deviation 0.3/sqrt(N), which keeps Psi = I - rG eF
    near the identity; a draw outside 0.5 <= det Psi <= 2 is replaced by the
    next one from the same generator, so the seed still fixes the result.
    """
    scale = 0.3 / np.sqrt(n)
    while True:
        eF = _antisymmetric(rng, n, scale)
        rG = _antisymmetric(rng, n, scale)
        det_psi = np.linalg.det(np.eye(n) - rG @ eF)
        if 0.5 <= det_psi <= 2.0:
            return eF, rG


def degenerate_n4(rng) -> tuple:
    """N = 4 fields with Psi = 0: two planar chi = 0 blocks under one rotation.

    Returns (eF, rG, (C1, C2)); block k has B_k = -1/C_k.
    """
    cs = rng.uniform(0.5, 2.0, 2)
    e0 = np.zeros((4, 4))
    r0 = np.zeros((4, 4))
    for k, c in enumerate(cs):
        e0[2 * k:2 * k + 2, 2 * k:2 * k + 2] = (-1.0 / c) * EPS2
        r0[2 * k:2 * k + 2, 2 * k:2 * k + 2] = c * EPS2
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    eF = q @ e0 @ q.T
    rG = q @ r0 @ q.T
    return 0.5 * (eF - eF.T), 0.5 * (rG - rG.T), tuple(float(c) for c in cs)


def _trajectories(rng) -> list:
    return [
        Op("planar-exact", "simulate", PLANAR, out_ext=".csv"),
        Op("planar-midpoint", "simulate", _with_time(PLANAR, method="midpoint"), out_ext=".csv"),
        Op("axial-exact", "simulate", AXIAL, out_ext=".csv"),
    ]


def _generic(rng) -> list:
    ops = []
    for n in GENERIC_SIZES:
        eF, rG = generic_fields(rng, n)
        z0 = rng.uniform(-1.0, 1.0, 2 * n)
        cfg = {
            "schema_version": 1, "N": n,
            "field": {"eF": eF.tolist(), "rG": rG.tolist()},
            "model": MODEL,
            "state": z0.tolist(),
            "time": {"t_final": 10.0, "dt": 0.01, "method": "exact"},
        }
        ops += [
            Op(f"brackets-n{n}", "brackets", cfg),
            Op(f"darboux-n{n}", "darboux", cfg),
            Op(f"simulate-n{n}", "simulate", cfg, out_ext=".csv"),
        ]
    return ops


def _degenerate(rng) -> list:
    eF, rG, cs = degenerate_n4(rng)
    n4 = {
        "schema_version": 1, "N": 4,
        "field": {"eF": eF.tolist(), "rG": rG.tolist()},
        "model": MODEL,
    }
    scan = dict(PLANAR)
    del scan["time"], scan["state"]
    return [
        Op("reduce-chi0", "reduce", CHI0, meta={"C": [CHI0["field"]["C"]]}),
        Op("reduce-n4", "reduce", n4, meta={"C": list(cs)}),
        Op("simulate-chi0", "simulate", CHI0, out_ext=".csv"),
        Op("spectrum-axial", "spectrum", AXIAL, args=("--nmax", "30")),
        Op("spectrum-chi0", "spectrum", CHI0, args=("--nmax", "30")),
        Op("limit-scan", "limit-scan", scan, args=("--points", "1000"), out_ext=".csv"),
    ]


WORKLOADS = {
    # Stepping loop, per-sample H and CSV formatting; almost no structure work.
    "trajectories": _trajectories,
    # Poisson matrix, Gram-Schmidt and expm at 2N+1 = 101; little stepping.
    "generic-fields": _generic,
    # The only workload reaching constrained and spectrum; JSON-heavy output.
    "degenerate-spectra": _degenerate,
}


def build(name: str, seed: int) -> list:
    """Ops of workload `name`; the same seed gives the same inputs."""
    return WORKLOADS[name](np.random.default_rng(seed))


def write_configs(ops: list, directory: str) -> dict:
    """Write one config file per distinct config; map op name -> path."""
    paths, written = {}, {}
    for op in ops:
        text = json.dumps(op.config, sort_keys=True)
        if text not in written:
            path = os.path.join(directory, f"config-{len(written)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written[text] = path
        paths[op.name] = written[text]
    return paths
