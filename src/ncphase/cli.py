"""Command-line surface: config ingestion, subcommands, deterministic outputs.

Exit codes: 0 ok (or --help), 1 config error, 2 singular structure,
numerical failure, non-finite result or usage error (argparse's), 3
integrator step rejection, 4 inconsistent constraint system, 141 stdout
closed by its reader (128 + SIGPIPE).
"""

import functools
import gc
import itertools
import json
import math
import os
import sys
import tempfile
import types
from typing import NamedTuple

import numpy as np

from . import constrained, darboux, dynamics, g17, spectrum, structure
from .errors import InconsistentSystem, NcphaseError, SingularOmega, StepRejected

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SINGULAR = 2
EXIT_STEP_REJECTED = 3
EXIT_INCONSISTENT = 4
EXIT_BROKEN_PIPE = 141
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


class NonFiniteOutput(ArithmeticError):
    """A subcommand's result holds NaN or inf, so nothing is written."""


class RunConfig(NamedTuple):
    """A validated run configuration, as `load_config` returns it."""

    N: int
    cfg: structure.FieldConfig | None
    model: dynamics.OscillatorModel | None
    state: np.ndarray | None
    t_final: float | None
    dt: float | None
    method: str
    tol_singular: float
    problem: dict | None           # {omega, hessian, gradient} arrays for `reduce`


# What each key of a config holds.  A section is (its keys, its required
# keys); a value is JSON numbers of a rank (NUMBER, VECTOR or MATRIX), a
# positive integer (int) or one of a frozenset of JSON values.  The rules
# that tie keys together are in `load_config`.
NUMBER, VECTOR, MATRIX = 0, 1, 2
_SCHEMA = ({
    "schema_version": frozenset({SCHEMA_VERSION}),
    "N": int,
    "field": ({"B": NUMBER, "C": NUMBER, "Bvec": VECTOR, "Cvec": VECTOR,
               "eF": MATRIX, "rG": MATRIX}, ()),
    "model": ({"m": NUMBER, "kappa": NUMBER, "Evec": VECTOR, "hbar": NUMBER}, ("m",)),
    "state": VECTOR,
    "time": ({"t_final": NUMBER, "dt": NUMBER, "method": frozenset({"exact", "midpoint"})},
             ("t_final", "dt")),
    "tolerances": ({"singular": NUMBER}, ("singular",)),
    "problem": ({"omega": MATRIX, "hessian": MATRIX, "gradient": VECTOR},
                ("omega", "hessian", "gradient")),
}, ("schema_version", "N"))
_RANKS = ("a number", "a vector", "a matrix")
# The field forms, keys sorted: the N each requires (None: any) and its
# constructor, called with the values of the keys.
_FIELD_FORMS = {
    ("B", "C"): (2, structure.field_config_n2),
    ("Bvec", "Cvec"): (3, structure.field_config_n3),
    ("eF", "rG"): (None, lambda eF, rG: structure.FieldConfig(len(eF), eF, rG)),
}


def _check_numbers(value, where: str):
    """Refuse anything but a JSON number, or nested lists of them, at
    ``where``: numpy's float conversion would take "1.5", "nan", null and
    true.  A flat list of numbers costs one scan of its item types, not a
    call per entry."""
    if type(value) in (int, float):  # bool is a subclass of int, not int
        return
    if type(value) is list:
        if not set(map(type, value)) <= {int, float}:
            for i, item in enumerate(value):
                _check_numbers(item, f"{where}[{i}]")
        return
    raise ConfigError(f"{where} must be a JSON number, got {json.dumps(value)}")


def _check_finite(value, where: str):
    """Name the first number of ``value`` outside the float range.

    json accepts NaN, Infinity and overflowing literals such as 1e400, and
    an integer literal may not fit a float at all.
    """
    if type(value) is list:
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")
    elif not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite, got {value!r}")


def _numbers(value, rank: int, where: str):
    """``value`` as a float array of ``rank``, a float for rank 0."""
    _check_numbers(value, where)
    try:
        arr = np.array(value, dtype=float)
        finite = np.isfinite(arr).all()
    except (ValueError, OverflowError):  # a ragged list, or a huge integer
        arr, finite = None, False
    if not finite:  # walk the entries only to name the one at fault
        _check_finite(value, where)
    if arr is None or arr.ndim != rank:
        raise ConfigError(f"{where} must be {_RANKS[rank]}")
    return float(arr) if rank == NUMBER else arr


def _walk(value, section, path: str, where: str = "") -> dict:
    """Check ``value`` against a section of `_SCHEMA`; return its items,
    numbers converted."""
    keys, required = section
    name = where or "top level"
    if type(value) is not dict:
        raise ConfigError(f"{path}: {name} must be a JSON object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: {name}: unknown keys {sorted(unknown)} (fail-closed schema)")
    for key in required:
        if key not in value:
            raise ConfigError(f"{path}: {name} requires {key!r}")
    out = {}
    for key, item in value.items():
        kind, at = keys[key], f"{where}.{key}" if where else key
        if type(kind) is tuple:
            out[key] = _walk(item, kind, path, at)
        elif kind is int:
            if type(item) is not int or item < 1:
                raise ConfigError(f"{path}: {at} must be a positive integer")
            out[key] = item
        elif type(kind) is frozenset:
            if type(item) not in (int, str) or item not in kind:
                raise ConfigError(
                    f"{path}: {at} must be one of {sorted(kind)}, got {json.dumps(item)}")
            out[key] = item
        else:
            out[key] = _numbers(item, kind, f"{path}: {at}")
    return out


def _sized(arr, n: int, where: str):
    """``arr`` when each of its axes has length ``n``."""
    want = (n,) * np.ndim(arr)
    if np.shape(arr) != want:
        raise ConfigError(f"{where} must have shape {want}, got {np.shape(arr)}")
    return arr


def _positive(value: float, where: str) -> float:
    """``value``, when it is positive and finite."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{where} must be positive and finite, got {value!r}")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration (fail-closed)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, or a file it may not read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    top = _walk(raw, _SCHEMA, path)
    N = top["N"]
    if ("field" in top) == ("problem" in top):
        raise ConfigError(f"{path}: exactly one of 'field' or 'problem' must be present")
    tol = _positive(top.get("tolerances", {"singular": structure.TOL_SINGULAR})["singular"],
                    f"{path}: tolerances.singular")

    cfg = None
    if "field" in top:
        sec = top["field"]
        form = tuple(sorted(sec))
        if form not in _FIELD_FORMS:
            raise ConfigError(f"{path}: 'field' must be exactly one of B/C, Bvec/Cvec "
                              f"or eF/rG, got {list(form)}")
        n, make = _FIELD_FORMS[form]
        if n not in (None, N):
            raise ConfigError(f"{path}: the {'/'.join(form)} field form requires N = {n}")
        try:
            cfg = make(*(_sized(sec[key], N, f"{path}: field.{key}") for key in form))
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid field section: {exc}") from None

    problem = top.get("problem")
    for key, arr in (problem or {}).items():
        _sized(arr, 2 * N, f"{path}: problem.{key}")
    if problem and not (np.array_equal(problem["omega"], -problem["omega"].T)
                        and np.array_equal(problem["hessian"], problem["hessian"].T)):
        raise ConfigError(f"{path}: problem.omega must be antisymmetric, problem.hessian symmetric")
    state = top.get("state")
    if state is not None:
        _sized(state, 2 * N, f"{path}: state")

    model = None
    if "model" in top:
        sec = top["model"]
        if ("kappa" in sec) == ("Evec" in sec):
            raise ConfigError(f"{path}: model requires exactly one of 'kappa' or 'Evec'")
        if "Evec" in sec:
            _sized(sec["Evec"], N, f"{path}: model.Evec")
        try:
            model = dynamics.OscillatorModel(**sec)
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid model: {exc}") from None

    t_final = dt = None
    method = "exact"
    if "time" in top:
        sec = top["time"]
        t_final = _positive(sec["t_final"], f"{path}: time.t_final")
        dt = _positive(sec["dt"], f"{path}: time.dt")
        method = sec.get("method", method)

    return RunConfig(N, cfg, model, state, t_final, dt, method, tol, problem)


def _write_atomic(path: str | None, chunks):
    """Write the bytes of ``chunks`` in order, to stdout or to ``path``.

    A file is written to a temp file and renamed, so a failure, also one
    raised while ``chunks`` is being produced, leaves no partial file; a
    path that cannot be written is a config error.  A stdout without a
    binary ``buffer`` gets the same text as ASCII str.
    """
    if path is None:
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:  # a text stream, such as an io.StringIO
            stream, chunks = sys.stdout, (chunk.decode("ascii") for chunk in chunks)
        stream.writelines(chunks)
        stream.flush()  # a closed pipe raises here, inside `main`
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".ncphase-")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:  # a missing directory, or a directory at ``path``
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _json_text(obj) -> bytes:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, with a
    float64 ndarray written as its ``tolist()`` would be.  json lays out the
    document with a placeholder string for each nonempty finite vector or
    matrix, whose values `g17` encodes in one call.  A non-finite float
    raises ArithmeticError, where json would write NaN or Infinity."""
    arrays = []

    def slot(value):
        if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if value.size and value.ndim in (1, 2) and np.isfinite(value).all():
            arrays.append(value)
            return "\0"
        return value.tolist()

    dump = functools.partial(json.dumps, indent=2, sort_keys=True, allow_nan=False)
    try:
        parts = dump(obj, default=slot).encode("ascii").split(b'"\\u0000"')
        if len(parts) != len(arrays) + 1:  # a string of the document holds the placeholder
            arrays, parts = [], [dump(obj, default=np.ndarray.tolist).encode("ascii")]
    except ValueError as exc:  # json's message ends in the repr of the number
        raise ArithmeticError(f"non-finite number {str(exc).rpartition(' ')[2]} "
                              "in the JSON output") from None
    if not arrays:
        return parts[0]
    # The byte after each value: 1 in a row, 2 at the end of a matrix row,
    # 3 at the end of an array.
    ends = [np.ones(arr.shape, np.uint8) for arr in arrays]
    for end in ends:
        end[..., -1] = 2
        end.reshape(-1)[-1] = 3
    texts = g17.repr_text(np.concatenate([arr.reshape(-1) for arr in arrays]),
                          np.concatenate([end.reshape(-1) for end in ends])).split(b"\3")
    out = [parts[0]]
    for arr, text, before, part in zip(arrays, texts, parts, parts[1:]):
        line = before[before.rfind(b"\n") + 1:]
        indent = line[:len(line) - len(line.lstrip(b" "))]
        inner = indent + b"  "
        if arr.ndim == 2:  # a list of rows, each laid out one level in
            row = inner + b"  "
            text = (b"[\n" + row + text.replace(b"\1", b",\n" + row)
                    .replace(b"\2", b"\n" + inner + b"],\n" + inner + b"[\n" + row)
                    + b"\n" + inner + b"]")
        else:
            text = text.replace(b"\1", b",\n" + inner)
        out += [b"[\n" + inner + text + b"\n" + indent + b"]", part]
    return b"".join(out)


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"this subcommand requires {what} in the config")
    return value


def cmd_brackets(rc: RunConfig, args) -> tuple:
    cfg = _require(rc.cfg, "a field section")
    omega = structure.build_omega(cfg)
    try:
        det_psi = structure.regularity(cfg, rc.tol_singular)
    except SingularOmega as exc:
        return EXIT_SINGULAR, {
            "status": "singular",
            "det_psi": exc.det_psi,
            "kernel_dimension": constrained.kernel(omega).shape[1],
            "omega": omega,
        }
    if not math.isfinite(det_psi):
        raise NonFiniteOutput(f"det Psi = {det_psi!r} is not finite in double precision; "
                              "no output written")
    lam = structure.poisson_matrix(cfg)
    N = cfg.N
    return EXIT_OK, {
        "status": "ok",
        "omega": omega,
        "poisson": lam,
        "brackets": {
            "qq": lam[:N, :N],
            "qp": lam[:N, N:],
            "pq": lam[N:, :N],
            "pp": lam[N:, N:],
        },
        "det_psi": det_psi,
    }


def cmd_darboux(rc: RunConfig, args) -> tuple:
    cfg = _require(rc.cfg, "a field section")
    structure.regularity(cfg, rc.tol_singular)
    dmap = darboux.darboux_generic(structure.build_omega(cfg))
    return EXIT_OK, {
        "route": "generic",
        "T": dmap.T,
        "Tinv": dmap.Tinv,
        "residual": dmap.residual,
        # At |B| near 1e300 an oblique field's map has a cond beyond a double.
        "cond": dmap.cond if math.isfinite(dmap.cond) else None,
        "sp_equivalence_residual": darboux.symplectic_deviation(dmap.T @ dmap.Tinv),
    }


def _chain(rc: RunConfig) -> tuple:
    """(chain, form, Lambda) of a field config, by the one regularity decision:
    the one-stage chain of `dynamics.flow_matrix`, no form and the one Lambda
    of the run, or the model's `terminal_chain`, its form and no Lambda."""
    cfg, model = _require(rc.cfg, "a field section"), _require(rc.model, "a model")
    try:
        structure.regularity(cfg, rc.tol_singular)
    except SingularOmega:
        return (*spectrum.terminal_chain(structure.build_omega(cfg), model.hessian(cfg.N),
                                         model.gradient_offset(cfg.N)), None)
    lam = structure.poisson_matrix(cfg)
    return constrained.ConstraintChain(2 * cfg.N, *dynamics.flow_matrix(lam, model)), None, lam


def _simulate_rows(rc: RunConfig):
    z0, N = _require(rc.state, "an initial state"), rc.N
    if (rc.t_final / rc.dt + 1) * 2 * N > MAX_STATE_VALUES:
        raise ConfigError(
            f"t_final/dt = {rc.t_final / rc.dt:.3g} steps at N = {N} exceeds "
            f"the cap of {MAX_STATE_VALUES} state values (rows x 2N)"
        )
    steps = int(round(rc.t_final / rc.dt))
    header = ["t"] + [f"q{i+1}" for i in range(N)] + [f"p{i+1}" for i in range(N)] + ["H"]
    chain = _chain(rc)[0]
    if chain.constraints is None:
        last, observe = "Lambda3", lambda zs: darboux.lambda3(rc.cfg, zs)
    else:
        # Presymplectic: the flow of the terminal constraint stage.
        residual = chain.constraints.residual(z0)
        if residual > OFF_CONSTRAINT_TOL * max(1.0, np.abs(z0).max()):
            raise ConfigError(
                f"initial state violates the constraints (residual {residual:.3e})")
        last, observe = "constraint_residual", chain.constraints.residual
    states = dynamics.affine_flow(chain.reduced_flow, chain.flow_offset, z0, rc.dt, steps,
                                  rc.method)
    column = observe(states)
    columns = [rc.dt * np.arange(steps + 1), states, rc.model.hamiltonian(states)]
    if column is not None:
        header.append(last)
        columns.append(column)
    return header, np.column_stack(columns)


def cmd_simulate(rc: RunConfig, args) -> tuple:
    _require(rc.dt, "a time grid")
    header, table = _simulate_rows(rc)
    if not np.isfinite(table).all():
        raise NonFiniteOutput("non-finite trajectory (overflow or invalid arithmetic "
                              "in the flow); no output written")
    # Lazy: the CSV text is made chunk by chunk as it is written.
    return EXIT_OK, itertools.chain([(",".join(header) + "\n").encode("ascii")],
                                    g17.csv_rows(table))


def _frequencies(cfg, r, form, lam) -> np.ndarray:
    """The normal modes of `spectrum` and `reduce`, descending: those of the
    terminal form of `spectrum.terminal_chain` (none on an empty stage), or,
    with no form, those of the regular field ``cfg`` with its Lambda ``lam``."""
    if form is None:
        return spectrum.mode_frequencies(structure.build_omega(cfg), r, lam)
    return spectrum.mode_frequencies(form) if form.size else np.zeros(0)


def cmd_spectrum(rc: RunConfig, args) -> tuple:
    _require(rc.cfg, "a field section")
    r = spectrum.hessian_factor(_require(rc.model, "a model").hessian(rc.N))
    _, form, lam = _chain(rc)
    kind = "degenerate-ladder" if lam is None else "normal-modes"  # presymplectic: no Lambda
    table = spectrum.ladder(_frequencies(rc.cfg, r, form, lam), rc.model.hbar, args.nmax)
    levels = _level_records(table)
    head = _json_text({"kind": kind, "hbar": table.hbar, "frequencies": list(table.frequencies)})
    # "levels" sorts last: its text follows the other keys, chunk by chunk.
    return EXIT_OK, itertools.chain([head[:-2] + b',\n  "levels": [\n    '], levels,
                                    [b"\n  ]\n}\n"])


def _level_records(table: spectrum.SpectrumTable):
    """The chunks of the records of the report's ``levels`` list,
    ``{"energy": e, "n": [...]}``, as ``json.dumps`` lays them out under a
    top-level key: one `g17.records` table of the energies and the quanta."""
    if not np.isfinite(table.energies).all():
        raise ArithmeticError("non-finite level energy in the JSON output")
    pieces = (['{\n      "energy": ', ',\n      "n": [\n        ']
              + [",\n        "] * (table.quanta.shape[1] - 1) + ["\n      ]\n    }"])
    return g17.records(pieces, table.energies, table.quanta, sep=",\n    ")


def cmd_limit_scan(rc: RunConfig, args) -> tuple:
    model = _require(rc.model, "a model")
    n2 = structure.n2_scalars(rc.cfg) if rc.cfg is not None else None
    if n2 is None:
        raise ConfigError("the limit scan requires the scalar B/C field form")
    B, _ = n2
    eps_min, eps_max, points = args.eps_min, args.eps_max, args.points
    if not (0 < eps_min <= eps_max < math.inf) or points < 1:
        raise ConfigError("scan requires finite 0 < eps_min <= eps_max and points >= 1")
    if points > MAX_SCAN_POINTS:
        raise ConfigError(f"--points {points} exceeds the cap of {MAX_SCAN_POINTS} scan points")
    grid = np.geomspace(eps_max, eps_min, points)
    table = spectrum.chi_limit_scan(model, B, grid)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ArithmeticError(
            f"non-finite limit-scan row at epsilon = {float(table[finite.argmin(), 0])!r}")
    header = b"epsilon,omega_plus,omega_minus,omega_r_target,fast_amplitude\n"
    return EXIT_OK, itertools.chain([header], g17.csv_rows(table, shortest=True))


def cmd_reduce(rc: RunConfig, args) -> tuple:
    code, eigen = EXIT_OK, np.array([])
    try:
        if rc.problem is None:
            chain, form, lam = _chain(rc)
            hess = rc.model.hessian(rc.N)
        else:
            omega, hess, g = map(rc.problem.get, ("omega", "hessian", "gradient"))
            chain, form, lam = (*spectrum.terminal_chain(omega, hess, g), None)
    except InconsistentSystem as exc:
        chain, code = exc.chain, EXIT_INCONSISTENT
    if chain.reduced_flow is not None:
        try:
            r = spectrum.hessian_factor(hess)
        except ValueError:  # no ladder, but kappa = 0 still has a cyclotron pair
            eigen = chain.terminal_eigenvalues()
        else:
            w = _frequencies(rc.cfg, r, form, lam)
            # +-i w, ascending; + 0.0 turns the real part -0.0 of 1j * -w into 0.0.
            eigen = 1j * np.concatenate([-w, w[::-1]]) + 0.0
    matrix, offset = chain.constraints or ([], [])
    report = {
        "status": chain.status,
        "dimensions": chain.dimensions,
        "constraints": {"matrix": matrix, "offset": offset},
        "terminal_flow": chain.reduced_flow,
        "flow_offset": chain.flow_offset,
        "eigenvalues": {"real": eigen.real, "imag": eigen.imag},
        "gauge_dimension": int(chain.gauge_basis.shape[1]) if chain.gauge_basis is not None else None,
    }
    return code, report


# Each subcommand's own options, flag: (type, default).  Every subcommand
# also takes --config (required) and --out (default: stdout).
# `build_parser` makes its argparse tree from this table, and
# `_plain_args` reads a plain argv by it.
OPTIONS = {
    "brackets": {},
    "darboux": {},
    "simulate": {},
    "spectrum": {"--nmax": (int, 4)},
    "limit-scan": {"--eps-min": (float, 1e-3), "--eps-max": (float, 1e-1), "--points": (int, 9)},
    "reduce": {},
}


@functools.cache  # built once per process: later `main` calls only parse
def build_parser():
    import argparse  # only here: a plain argv is read without it

    parser = argparse.ArgumentParser(
        prog="ncphase",
        description="Brackets, Darboux maps, flows, spectra and constraint "
                    "reductions for noncommutative phase spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        for flag, (kind, default) in options.items():
            p.add_argument(flag, type=kind, default=default)
    return parser


def _plain_args(argv: list):
    """The options of a plain ``argv``, as argparse reads them: a subcommand,
    then ``--flag value`` pairs of --config, --out and the subcommand's own
    flags, with --config among them and no value that starts with "-".
    None for any other argv, which is argparse's to read, refuse or explain."""
    if len(argv) % 2 == 0 or not all(type(arg) is str for arg in argv) or argv[0] not in OPTIONS:
        return None
    kinds = {"--config": (str, None), "--out": (str, None)} | OPTIONS[argv[0]]
    values = {flag: default for flag, (_, default) in kinds.items() if flag != "--config"}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in kinds or value.startswith("-"):
            return None
        try:
            values[flag] = kinds[flag][0](value)
        except (TypeError, ValueError):  # argparse's error, with its usage line
            return None
    if "--config" not in values:
        return None
    return types.SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        rc = load_config(args.config)
        # Looked up when called, so that a wrapper bound to the name sees the call.
        code, payload = globals()["cmd_" + args.command.replace("-", "_")](rc, args)
        if isinstance(payload, dict):
            payload = [_json_text(payload), b"\n"]
        _write_atomic(args.out, payload)
        return code
    except BrokenPipeError:
        # The reader of stdout has gone: end as a SIGPIPE would, and point
        # stdout at /dev/null so that the flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except NonFiniteOutput as exc:
        sys.stderr.write(f"ncphase {args.command}: {exc}\n")
        return EXIT_SINGULAR
    # LinAlgError subclasses ValueError, so it must be caught first; the
    # contract checks of poisson_matrix and the Darboux maps raise
    # ArithmeticError.
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        sys.stderr.write(f"ncphase: numerical failure: {exc}\n")
        return EXIT_SINGULAR
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"ncphase: config error: {exc}\n")
        return EXIT_CONFIG
    except StepRejected as exc:
        hint = f" (try dt <= {exc.suggested_dt:.3e})" if exc.suggested_dt else ""
        sys.stderr.write(f"ncphase: step rejected: {exc}{hint}\n")
        return EXIT_STEP_REJECTED
    except SingularOmega as exc:
        sys.stderr.write(f"ncphase: singular structure: {exc}\n")
        return EXIT_SINGULAR


def run(argv=None) -> int:
    """The process entry of the `ncphase` command and of `python -m
    ncphase.cli`: `main` after `gc.freeze`.  The objects alive at this point,
    numpy's import among them, then stay out of every later collection,
    also the ones at interpreter exit.  Callers in a longer-lived process
    use `main`, which leaves their cyclic garbage collectable."""
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    raise SystemExit(run())
