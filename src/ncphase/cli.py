"""Command-line surface: config ingestion, subcommands, deterministic outputs.

Exit codes: 0 ok, 1 config error, 2 singular structure, numerical failure
or non-finite result, 3 integrator step rejection, 4 inconsistent
constraint system.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import constrained, darboux, dynamics, g17, spectrum, structure
from .errors import (
    DegenerateChi,
    InconsistentSystem,
    NcphaseError,
    NegativeChi,
    OffConstraint,
    SingularOmega,
    StepRejected,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SINGULAR = 2
EXIT_STEP_REJECTED = 3
EXIT_INCONSISTENT = 4
ENV_TOL = "NCPHASE_TOL_SINGULAR"
# Largest simulate state table, rows (t_final/dt + 1) times 2N, refused
# with exit 1 before anything is allocated: 400 MB of float64 states.
MAX_STATE_VALUES = 50_000_000
# Largest limit-scan grid, refused with exit 1 before it is allocated: each
# point costs about 40 us and one CSV row.
MAX_SCAN_POINTS = 100_000


class ConfigError(NcphaseError):
    """Schema violation in a run configuration."""


@dataclass
class RunConfig:
    N: int
    cfg: structure.FieldConfig | None
    n2: tuple | None             # (B, C) when the field section was planar scalars
    n3: tuple | None             # (Bvec, Cvec) when it was spatial vectors
    model: dynamics.OscillatorModel | None
    state: np.ndarray | None
    t_final: float | None
    dt: float | None
    method: str
    tol_singular: float
    problem: dict | None         # raw {omega, hessian, gradient} for `reduce`


_TOP_KEYS = {
    "schema_version", "N", "field", "model", "state", "time", "tolerances", "problem",
}
_FIELD_FORMS = (
    {"B", "C"},
    {"Bvec", "Cvec"},
    {"eF", "rG"},
)


def _fail(msg: str) -> ConfigError:
    return ConfigError(msg)


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise _fail(f"{where}: unknown keys {sorted(unknown)} (fail-closed schema)")


def _check_finite(value, where: str):
    # json accepts NaN, Infinity and overflowing literals such as 1e400.
    # List entries are checked inline: a call per matrix entry would cost
    # milliseconds on an N = 50 config.
    if isinstance(value, float) and not math.isfinite(value):
        raise _fail(f"{where} must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, (list, dict)) or (
                    isinstance(item, float) and not math.isfinite(item)):
                _check_finite(item, f"{where}[{i}]")


def _tolerance(value, where: str) -> float:
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise _fail(f"{where}={value!r} is not a number") from None
    if not (math.isfinite(tol) and tol > 0):
        raise _fail(f"{where} must be positive and finite, got {tol!r}")
    return tol


def _matrix(value, name: str) -> np.ndarray:
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _fail(f"field {name!r} is not a numeric matrix: {exc}") from None
    if m.ndim != 2:
        raise _fail(f"field {name!r} must be a 2d matrix")
    return m


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration (fail-closed)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise _fail(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise _fail(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise _fail(f"{path}: top level must be an object")
    _check_keys(raw, _TOP_KEYS, path)

    if raw.get("schema_version") != SCHEMA_VERSION:
        raise _fail(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    if "N" not in raw or not isinstance(raw["N"], int) or raw["N"] < 1:
        raise _fail(f"{path}: 'N' must be a positive integer")
    N = raw["N"]

    has_field = "field" in raw
    has_problem = "problem" in raw
    if has_field == has_problem:
        raise _fail(f"{path}: exactly one of 'field' or 'problem' must be present")

    for key, section in raw.items():
        _check_finite(section, f"{path}: {key}")

    tol = structure.TOL_SINGULAR
    env = os.environ.get(ENV_TOL)
    if env is not None:
        tol = _tolerance(env, f"environment {ENV_TOL}")
    if "tolerances" in raw:
        _check_keys(raw["tolerances"], {"singular"}, f"{path}: tolerances")
        if "singular" not in raw["tolerances"]:
            raise _fail(f"{path}: tolerances requires 'singular'")
        tol = _tolerance(raw["tolerances"]["singular"], f"{path}: tolerances.singular")

    cfg = n2 = n3 = None
    if has_field:
        field_sec = raw["field"]
        if not isinstance(field_sec, dict):
            raise _fail(f"{path}: 'field' must be an object")
        keys = set(field_sec)
        if keys not in [set(f) for f in _FIELD_FORMS]:
            raise _fail(
                f"{path}: 'field' must be exactly one of B/C, Bvec/Cvec or eF/rG, got {sorted(keys)}"
            )
        try:
            if keys == {"B", "C"}:
                if N != 2:
                    raise _fail(f"{path}: scalar B/C field form requires N = 2")
                n2 = (float(field_sec["B"]), float(field_sec["C"]))
                cfg = structure.field_config_n2(*n2)
            elif keys == {"Bvec", "Cvec"}:
                if N != 3:
                    raise _fail(f"{path}: vector field form requires N = 3")
                n3 = (np.array(field_sec["Bvec"], dtype=float),
                      np.array(field_sec["Cvec"], dtype=float))
                if n3[0].shape != (3,) or n3[1].shape != (3,):
                    raise _fail(f"{path}: Bvec and Cvec must have length 3")
                cfg = structure.field_config_n3(*n3)
            else:
                cfg = structure.FieldConfig(
                    N, _matrix(field_sec["eF"], "eF"), _matrix(field_sec["rG"], "rG")
                )
                n2 = structure.n2_scalars(cfg)
                n3 = structure.n3_vectors(cfg)
        except ValueError as exc:
            raise _fail(f"{path}: invalid field section: {exc}") from None

    problem = None
    if has_problem:
        sec = raw["problem"]
        _check_keys(sec, {"omega", "hessian", "gradient"}, f"{path}: problem")
        for key in ("omega", "hessian", "gradient"):
            if key not in sec:
                raise _fail(f"{path}: problem requires {key!r}")
        problem = {
            "omega": _matrix(sec["omega"], "omega"),
            "hessian": _matrix(sec["hessian"], "hessian"),
            "gradient": np.array(sec["gradient"], dtype=float),
        }

    model = None
    if "model" in raw:
        sec = raw["model"]
        _check_keys(sec, {"m", "kappa", "Evec", "hbar"}, f"{path}: model")
        if "m" not in sec:
            raise _fail(f"{path}: model requires 'm'")
        if ("kappa" in sec) == ("Evec" in sec):
            raise _fail(f"{path}: model requires exactly one of 'kappa' or 'Evec'")
        try:
            if "kappa" in sec:
                model = dynamics.OscillatorModel(
                    m=float(sec["m"]), kappa=float(sec["kappa"]),
                    hbar=float(sec.get("hbar", 1.0)),
                )
            else:
                evec = tuple(float(e) for e in sec["Evec"])
                if len(evec) != N:
                    raise _fail(f"{path}: Evec must have length N = {N}")
                model = dynamics.OscillatorModel(
                    m=float(sec["m"]), potential=dynamics.LINEAR,
                    Evec=evec, hbar=float(sec.get("hbar", 1.0)),
                )
        except ValueError as exc:
            raise _fail(f"{path}: invalid model: {exc}") from None

    state = None
    if "state" in raw:
        state = np.array(raw["state"], dtype=float)
        if state.shape != (2 * N,):
            raise _fail(f"{path}: 'state' must have length 2N = {2 * N}")

    t_final = dt = None
    method = "exact"
    if "time" in raw:
        sec = raw["time"]
        _check_keys(sec, {"t_final", "dt", "method"}, f"{path}: time")
        if "t_final" not in sec or "dt" not in sec:
            raise _fail(f"{path}: time requires 't_final' and 'dt'")
        t_final = float(sec["t_final"])
        dt = float(sec["dt"])
        if dt <= 0 or t_final <= 0:
            raise _fail(f"{path}: time values must be positive")
        method = sec.get("method", "exact")
        if method not in ("exact", "midpoint"):
            raise _fail(f"{path}: time method must be 'exact' or 'midpoint'")

    return RunConfig(
        N=N, cfg=cfg, n2=n2, n3=n3, model=model, state=state,
        t_final=t_final, dt=dt, method=method, tol_singular=tol, problem=problem,
    )


def _listify(arr: np.ndarray):
    return np.asarray(arr).tolist()


def _write_atomic(path: str | None, chunks):
    """Write the strings of ``chunks`` in order, to stdout or to ``path``.

    A file is written to a temp file and renamed, so a failure, also one
    raised while ``chunks`` is being produced, leaves no partial file.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ncphase-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class _Encoded:
    """JSON text already laid out for its place in the document."""

    text: str


def _json_text(obj, indent: str = "") -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.

    With an indent set, CPython's json module encodes in pure Python; this
    writer builds the same layout from joined strings.  Floats are written
    by ``float.__repr__``, ints by ``int.__repr__`` and strings by json's C
    ASCII escaper.  A non-finite float raises ArithmeticError, where json
    would write NaN or Infinity.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ArithmeticError(f"non-finite number {obj!r} in the JSON output")
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            # A matrix row: float.__repr__ refuses anything but floats.
            items = list(map(float.__repr__, obj))
        except TypeError:
            items = None
        if items is None or not all(map(math.isfinite, obj)):
            items = [_json_text(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _json_text(value, inner)
                 for key, value in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, _Encoded):
        return obj.text
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj, out_path: str | None):
    _write_atomic(out_path, [_json_text(obj), "\n"])


def _require(value, what: str):
    if value is None:
        raise _fail(f"this subcommand requires {what} in the config")
    return value


def cmd_brackets(rc: RunConfig, out_path: str | None) -> int:
    cfg = _require(rc.cfg, "a field section")
    omega = structure.build_omega(cfg)
    try:
        lam = structure.poisson_matrix(cfg, rc.tol_singular)
    except SingularOmega:
        kernel_dim = constrained.kernel(omega).shape[1]
        _emit_json(
            {
                "status": "singular",
                "det_psi": structure.regularity(cfg),
                "kernel_dimension": int(kernel_dim),
                "omega": _listify(omega),
            },
            out_path,
        )
        return EXIT_SINGULAR
    N = cfg.N
    _emit_json(
        {
            "status": "ok",
            "omega": _listify(omega),
            "poisson": _listify(lam),
            "brackets": {
                "qq": _listify(lam[:N, :N]),
                "qp": _listify(lam[:N, N:]),
                "pq": _listify(lam[N:, :N]),
                "pp": _listify(lam[N:, N:]),
            },
            "det_psi": structure.regularity(cfg),
        },
        out_path,
    )
    return EXIT_OK


def cmd_darboux(rc: RunConfig, out_path: str | None) -> int:
    cfg = _require(rc.cfg, "a field section")
    omega = structure.build_omega(cfg)
    note = None
    try:
        if rc.n2 is not None:
            dmap = darboux.darboux_n2(*rc.n2, tol=rc.tol_singular)
            route = "closed-n2"
        elif rc.n3 is not None:
            dmap = darboux.darboux_n3(*rc.n3, tol=rc.tol_singular)
            route = "closed-n3"
        else:
            dmap = darboux.symplectic_gram_schmidt(omega, rc.tol_singular)
            route = "generic"
    except NegativeChi:
        dmap = darboux.symplectic_gram_schmidt(omega, rc.tol_singular)
        route = "generic"
        note = "chi < 0: routed to the generic orthogonalization"
    except DegenerateChi as exc:
        sys.stderr.write(f"ncphase darboux: {exc}\n")
        return EXIT_SINGULAR

    # The generic map is deterministic: on the generic route it is dmap.
    generic = dmap if route == "generic" else darboux.symplectic_gram_schmidt(
        omega, rc.tol_singular)
    sp_residual = darboux.symplectic_deviation(dmap.T @ generic.Tinv)
    report = {
        "route": route,
        "T": _listify(dmap.T),
        "Tinv": _listify(dmap.Tinv),
        "residual": dmap.residual,
        "cond": dmap.cond,
        "sp_equivalence_residual": sp_residual,
    }
    if note:
        report["note"] = note
    _emit_json(report, out_path)
    return EXIT_OK


def _simulate_rows(rc: RunConfig):
    cfg, model = _require(rc.cfg, "a field section"), _require(rc.model, "a model")
    z0 = _require(rc.state, "an initial state")
    if (rc.t_final / rc.dt + 1) * 2 * cfg.N > MAX_STATE_VALUES:
        raise _fail(
            f"t_final/dt = {rc.t_final / rc.dt:.3g} steps at N = {cfg.N} exceeds "
            f"the cap of {MAX_STATE_VALUES} state values (rows x 2N)"
        )
    steps = int(round(rc.t_final / rc.dt))
    det_psi = structure.regularity(cfg)
    if abs(det_psi) < rc.tol_singular:
        if rc.n2 is None:
            raise _fail("degenerate simulation is only available for planar scalar fields")
        _, C = rc.n2
        times = rc.dt * np.arange(steps + 1)
        states = constrained.degenerate_flow_n2(model, C, z0, times)
        lc = constrained.secondary_constraints(cfg, model)
        header = ["t", "q1", "q2", "p1", "p2", "H", "constraint_residual"]
        table = np.column_stack(
            [times, states, model.hamiltonian(states), lc.residual(states)]
        )
        return header, table
    traj = dynamics.integrate(cfg, model, z0, rc.dt, steps, rc.method, rc.tol_singular)
    N = cfg.N
    header = ["t"] + [f"q{i+1}" for i in range(N)] + [f"p{i+1}" for i in range(N)] + ["H"]
    columns = [traj.times, traj.states, traj.energies]
    if traj.lambda3 is not None:
        header.append("Lambda3")
        columns.append(traj.lambda3)
    return header, np.column_stack(columns)


def cmd_simulate(rc: RunConfig, out_path: str | None) -> int:
    _require(rc.dt, "a time grid")
    header, table = _simulate_rows(rc)
    if not np.isfinite(table).all():
        sys.stderr.write("ncphase simulate: non-finite trajectory (overflow or "
                         "invalid arithmetic in the flow); no output written\n")
        return EXIT_SINGULAR
    _write_atomic(out_path, itertools.chain([",".join(header) + "\n"], g17.csv_rows(table)))
    return EXIT_OK


def cmd_spectrum(rc: RunConfig, out_path: str | None, nmax: int) -> int:
    cfg, model = _require(rc.cfg, "a field section"), _require(rc.model, "a model")
    det_psi = structure.regularity(cfg)
    if cfg.N == 2:
        if rc.n2 is None:
            raise _fail("spectrum requires the scalar B/C field form for N = 2")
        B, C = rc.n2
        if abs(det_psi) < rc.tol_singular:
            table = spectrum.spectrum_degenerate_n2(model, C, nmax)
            kind = "degenerate-ladder"
        else:
            table = spectrum.spectrum_n2(model, B, C, nmax)
            kind = "planar"
    elif cfg.N == 3:
        if rc.n3 is None:
            raise _fail("spectrum requires the vector field form for N = 3")
        bvec, cvec = rc.n3
        if abs(bvec[0]) + abs(bvec[1]) + abs(cvec[0]) + abs(cvec[1]) != 0.0:
            raise _fail("N = 3 spectra require both field vectors along the z-axis")
        table = spectrum.spectrum_n3_parallel(model, bvec[2], cvec[2], nmax)
        kind = "axial"
    else:
        raise _fail(f"spectra are implemented for N = 2 and N = 3, not N = {cfg.N}")
    _emit_json(
        {
            "kind": kind,
            "hbar": table.hbar,
            "frequencies": list(table.frequencies),
            "levels": _level_records(table),
        },
        out_path,
    )
    return EXIT_OK


def _level_records(table: spectrum.SpectrumTable) -> _Encoded:
    """The report's ``levels`` list, ``[{"energy": e, "n": [...]}, ...]``,
    laid out as ``_json_text`` lays out a list under a top-level key, with
    one %-template per record."""
    if not np.isfinite(table.energies).all():
        raise ArithmeticError("non-finite level energy in the JSON output")
    d = table.quanta.shape[1]
    record = ('{\n      "energy": %r,\n      "n": [\n        '
              + ",\n        ".join(["%d"] * d) + "\n      ]\n    }")
    rows = zip(table.energies.tolist(), *table.quanta.T.tolist())
    return _Encoded("[\n    " + ",\n    ".join([record % row for row in rows]) + "\n  ]")


def cmd_limit_scan(rc: RunConfig, out_path: str | None,
                   eps_min: float, eps_max: float, points: int) -> int:
    model = _require(rc.model, "a model")
    if rc.n2 is None:
        raise _fail("the limit scan requires the scalar B/C field form")
    B, _ = rc.n2
    if not (0 < eps_min <= eps_max < math.inf) or points < 1:
        raise _fail("scan requires finite 0 < eps_min <= eps_max and points >= 1")
    if points > MAX_SCAN_POINTS:
        raise _fail(f"--points {points} exceeds the cap of {MAX_SCAN_POINTS} scan points")
    grid = np.geomspace(eps_max, eps_min, points)
    rows = spectrum.chi_limit_scan(model, B, grid)
    lines = ["epsilon,omega_plus,omega_minus,omega_r_target,fast_amplitude"]
    for r in rows:
        lines.append(",".join(
            repr(v) for v in
            (r.epsilon, r.omega_plus, r.omega_minus, r.omega_r_target, r.fast_amplitude)
        ))
    _write_atomic(out_path, ["\n".join(lines), "\n"])
    return EXIT_OK


def cmd_reduce(rc: RunConfig, out_path: str | None) -> int:
    if rc.problem is not None:
        omega = rc.problem["omega"]
        hess = rc.problem["hessian"]
        grad = rc.problem["gradient"]
    else:
        cfg, model = _require(rc.cfg, "a field section"), _require(rc.model, "a model")
        omega = structure.build_omega(cfg)
        hess = model.hessian(cfg.N)
        grad = model.gradient_offset(cfg.N)

    try:
        chain = constrained.gnh_chain(omega, hess, grad)
        code = EXIT_OK
    except InconsistentSystem as exc:
        chain = exc.chain
        code = EXIT_INCONSISTENT

    eigen = chain.terminal_eigenvalues() if chain.reduced_flow is not None else np.array([])
    report = {
        "status": chain.status,
        "dimensions": chain.dimensions,
        "constraints": {
            "matrix": _listify(chain.constraints.matrix) if chain.constraints else [],
            "offset": _listify(chain.constraints.offset) if chain.constraints else [],
        },
        "terminal_flow": _listify(chain.reduced_flow) if chain.reduced_flow is not None else None,
        "flow_offset": _listify(chain.flow_offset) if chain.flow_offset is not None else None,
        "eigenvalues": {
            "real": [float(v.real) for v in eigen],
            "imag": [float(v.imag) for v in eigen],
        },
        "gauge_dimension": int(chain.gauge_basis.shape[1]) if chain.gauge_basis is not None else None,
    }
    _emit_json(report, out_path)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncphase",
        description="Brackets, Darboux maps, flows, spectra and constraint "
                    "reductions for noncommutative phase spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("brackets", "darboux", "simulate", "spectrum", "limit-scan", "reduce"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name == "spectrum":
            p.add_argument("--nmax", type=int, default=4)
        if name == "limit-scan":
            p.add_argument("--eps-min", type=float, default=1e-3)
            p.add_argument("--eps-max", type=float, default=1e-1)
            p.add_argument("--points", type=int, default=9)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = load_config(args.config)
        if args.command == "brackets":
            return cmd_brackets(rc, args.out)
        if args.command == "darboux":
            return cmd_darboux(rc, args.out)
        if args.command == "simulate":
            return cmd_simulate(rc, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(rc, args.out, args.nmax)
        if args.command == "limit-scan":
            return cmd_limit_scan(rc, args.out, args.eps_min, args.eps_max, args.points)
        return cmd_reduce(rc, args.out)
    except ConfigError as exc:
        sys.stderr.write(f"ncphase: config error: {exc}\n")
        return EXIT_CONFIG
    # LinAlgError subclasses ValueError, so it must be caught first; the
    # contract checks of poisson_matrix and the Darboux maps raise
    # ArithmeticError.
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        sys.stderr.write(f"ncphase: numerical failure: {exc}\n")
        return EXIT_SINGULAR
    except ValueError as exc:
        sys.stderr.write(f"ncphase: config error: {exc}\n")
        return EXIT_CONFIG
    except StepRejected as exc:
        hint = f" (try dt <= {exc.suggested_dt:.3e})" if exc.suggested_dt else ""
        sys.stderr.write(f"ncphase: step rejected: {exc}{hint}\n")
        return EXIT_STEP_REJECTED
    except (SingularOmega, DegenerateChi) as exc:
        sys.stderr.write(f"ncphase: singular structure: {exc}\n")
        return EXIT_SINGULAR
    except OffConstraint as exc:
        sys.stderr.write(f"ncphase: config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
