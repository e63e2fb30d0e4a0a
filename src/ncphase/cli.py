"""Command-line surface: config ingestion, subcommands, deterministic outputs.

Exit codes: 0 ok, 1 config error, 2 singular structure, numerical failure
or non-finite result, 3 integrator step rejection, 4 inconsistent
constraint system.
"""

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

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
# point costs about 30 us and one CSV row.
MAX_SCAN_POINTS = 100_000
# Largest constraint residual of a degenerate simulate's initial state,
# relative to max(1, max |z0|), before it is refused with exit 1.
OFF_CONSTRAINT_TOL = 1e-8


class ConfigError(NcphaseError):
    """Schema violation in a run configuration."""


class RunConfig:
    """A validated run configuration, as `load_config` returns it."""

    __slots__ = ("N", "cfg", "n2", "n3", "model", "state", "t_final", "dt",
                 "method", "tol_singular", "problem")

    def __init__(self, N: int, cfg, n2, n3, model, state, t_final, dt,
                 method: str, tol_singular: float, problem):
        self.N = N
        self.cfg = cfg                 # structure.FieldConfig, or None
        self.n2 = n2                   # (B, C) when the field section was planar scalars
        self.n3 = n3                   # (Bvec, Cvec) when it was spatial vectors
        self.model = model             # dynamics.OscillatorModel, or None
        self.state = state
        self.t_final = t_final
        self.dt = dt
        self.method = method
        self.tol_singular = tol_singular
        self.problem = problem         # raw {omega, hessian, gradient} for `reduce`


_TOP_KEYS = {
    "schema_version", "N", "field", "model", "state", "time", "tolerances", "problem",
}
_FIELD_FORMS = (
    {"B", "C"},
    {"Bvec", "Cvec"},
    {"eF", "rG"},
)
# Keys whose values are JSON numbers or lists of them, by section.
_NUMERIC_KEYS = {
    "field": ("B", "C", "Bvec", "Cvec", "eF", "rG"),
    "model": ("m", "kappa", "Evec", "hbar"),
    "time": ("t_final", "dt"),
    "tolerances": ("singular",),
    "problem": ("omega", "hessian", "gradient"),
}


def _fail(msg: str) -> ConfigError:
    return ConfigError(msg)


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise _fail(f"{where}: unknown keys {sorted(unknown)} (fail-closed schema)")


def _finite(value) -> bool:
    """Whether a parsed JSON value holds no NaN or infinite float.

    json accepts NaN, Infinity and overflowing literals such as 1e400.  A
    numeric list is tested as one array, without a Python call per entry.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        try:
            return bool(np.isfinite(np.array(value, dtype=float)).all())
        except (TypeError, ValueError, OverflowError):
            return all(map(_finite, value))
    return True


def _check_numbers(value, where: str):
    """Refuse anything but a JSON number, or nested lists of them, at
    ``where``: numpy's float conversion would take "1.5", "nan", null and
    true.  A list of numbers costs one call, not one per entry."""
    if type(value) in (int, float):  # bool is a subclass of int, not int
        return
    if type(value) is list:
        if not all(type(item) in (int, float) for item in value):
            for i, item in enumerate(value):
                _check_numbers(item, f"{where}[{i}]")
        return
    raise _fail(f"{where} must be a JSON number, got {json.dumps(value)}")


def _check_finite(value, where: str):
    """Name the first non-finite float of a value that `_finite` refused."""
    if isinstance(value, float) and not math.isfinite(value):
        raise _fail(f"{where} must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
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

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise _fail(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if "N" not in raw or type(raw["N"]) is not int or raw["N"] < 1:
        raise _fail(f"{path}: 'N' must be a positive integer")
    N = raw["N"]

    has_field = "field" in raw
    has_problem = "problem" in raw
    if has_field == has_problem:
        raise _fail(f"{path}: exactly one of 'field' or 'problem' must be present")

    for key, names in _NUMERIC_KEYS.items():
        section = raw.get(key)
        if isinstance(section, dict):
            for name in names:
                if name in section:
                    _check_numbers(section[name], f"{path}: {key}.{name}")
    if "state" in raw:
        _check_numbers(raw["state"], f"{path}: state")
    for key, section in raw.items():
        if not _finite(section):
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


class _Encoded(NamedTuple):
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
    if isinstance(obj, _Encoded):  # a NamedTuple: test it before tuple
        return obj.text
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
    N = cfg.N
    header = ["t"] + [f"q{i+1}" for i in range(N)] + [f"p{i+1}" for i in range(N)] + ["H"]
    if abs(structure.regularity(cfg)) < rc.tol_singular:
        # Presymplectic: the flow of the terminal constraint stage.
        chain = constrained.gnh_from_model(cfg, model)
        residual = chain.constraints.residual(z0)
        if residual > OFF_CONSTRAINT_TOL * max(1.0, np.abs(z0).max()):
            raise OffConstraint(
                f"initial state violates the constraints (residual {residual:.3e})")
        states = dynamics.affine_flow(chain.reduced_flow, chain.flow_offset, z0,
                                      rc.dt, steps, rc.method)
        times, energies = rc.dt * np.arange(steps + 1), model.hamiltonian(states)
        last, column = "constraint_residual", chain.constraints.residual(states)
    else:
        traj = dynamics.integrate(cfg, model, z0, rc.dt, steps, rc.method, rc.tol_singular)
        times, states, energies = traj.times, traj.states, traj.energies
        last, column = "Lambda3", traj.lambda3
    columns = [times, states, energies]
    if column is not None:
        header.append(last)
        columns.append(column)
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
    r = spectrum.hessian_factor(model.hessian(cfg.N))
    omega = structure.build_omega(cfg)
    if abs(structure.regularity(cfg)) < rc.tol_singular:
        # Presymplectic: the modes of the terminal constraint stage.
        freqs = spectrum.mode_frequencies(spectrum.terminal_form(omega, r))
        kind = "degenerate-ladder"
    else:
        lam = structure.poisson_matrix(cfg, rc.tol_singular)
        freqs, kind = spectrum.mode_frequencies(omega, r, lam), "normal-modes"
    table = spectrum.ladder(freqs, model.hbar, nmax)
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
    finite = np.isfinite(np.array(rows)).all(axis=1)
    if not finite.all():
        raise ArithmeticError(
            f"non-finite limit-scan row at epsilon = {rows[finite.argmin()].epsilon!r}")
    lines = ["epsilon,omega_plus,omega_minus,omega_r_target,fast_amplitude"]
    lines += [",".join(map(repr, r)) for r in rows]
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
