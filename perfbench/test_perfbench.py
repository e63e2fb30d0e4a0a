"""Tests of the benchmark's tracer and oracles on small versions of its ops."""

import json
import subprocess
import sys
import types

import numpy as np
import pytest

import bench
import oracles
import spans
import workloads
from ncphase import cli


def _short(cfg, t_final=1.0, **time):
    return dict(cfg, time=dict(cfg["time"], t_final=t_final, **time))


def small_ops():
    rng = np.random.default_rng(7)
    eF, rG = workloads.generic_fields(rng, 6)
    generic = {
        "schema_version": 1, "N": 6, "field": {"eF": eF.tolist(), "rG": rG.tolist()},
        "model": workloads.MODEL, "state": rng.uniform(-1, 1, 12).tolist(),
        "time": {"t_final": 1.0, "dt": 0.01, "method": "exact"},
    }
    eF4, rG4, cs = workloads.degenerate_n4(rng)
    n4 = {"schema_version": 1, "N": 4, "field": {"eF": eF4.tolist(), "rG": rG4.tolist()},
          "model": workloads.MODEL}
    op = workloads.Op
    return [
        op("planar-exact", "simulate", _short(workloads.PLANAR), out_ext=".csv"),
        op("planar-midpoint", "simulate", _short(workloads.PLANAR, method="midpoint"),
           out_ext=".csv"),
        op("axial-exact", "simulate", _short(workloads.AXIAL), out_ext=".csv"),
        op("simulate-chi0", "simulate", _short(workloads.CHI0), out_ext=".csv"),
        op("simulate-n6", "simulate", generic, out_ext=".csv"),
        op("brackets-n6", "brackets", generic),
        op("darboux-n6", "darboux", generic),
        op("reduce-chi0", "reduce", workloads.CHI0, meta={"C": [1.0]}),
        op("reduce-n4", "reduce", n4, meta={"C": list(cs)}),
        op("spectrum-axial", "spectrum", workloads.AXIAL, args=("--nmax", "3")),
        op("spectrum-chi0", "spectrum", workloads.CHI0, args=("--nmax", "3")),
        op("limit-scan", "limit-scan", workloads.PLANAR, args=("--points", "10"),
           out_ext=".csv"),
    ]


def run_ops(ops, directory):
    configs = workloads.write_configs(ops, str(directory))
    paths = {}
    for op in ops:
        paths[op.name] = directory / f"{op.name}{op.out_ext}"
        assert cli.main(op.argv(configs[op.name], str(paths[op.name]))) == 0
    return paths


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    ops = small_ops()
    return {op.name: op for op in ops}, run_ops(ops, tmp_path_factory.mktemp("clean"))


# --- tracer -----------------------------------------------------------------

def _bindings():
    """Identity of every attribute of every ncphase module and class."""
    snap = {}
    for mod in spans._package_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("ncphase"):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, key, attr)] = member
    return snap


def test_self_times_sum_to_roots_and_wrappers_restored(tmp_path):
    ops = small_ops()
    configs = workloads.write_configs(ops, str(tmp_path))
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        for op in ops:
            out = tmp_path / f"{op.name}{op.out_ext}"
            assert cli.main(op.argv(configs[op.name], str(out))) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    recorded = tracer.take()
    roots = [(name, end - start) for name, start, end, parent in recorded if parent == -1]
    assert [name for name, _ in roots] == ["cli.main"] * len(ops)
    table = spans.self_times(recorded)
    assert set(table) <= {name for name, _, _ in spans.TARGETS}
    root = sum(d for _, d in roots)
    assert sum(t for t, _ in table.values()) == pytest.approx(root, rel=1e-9, abs=1e-12)
    assert all(t >= 0.0 for t, _ in table.values())


@pytest.fixture
def probe_modules(monkeypatch):
    """Two fake ncphase modules binding one function, one of them a class."""
    def f():
        return 1

    class Model:
        def energy(self):
            return 2

    a = types.ModuleType("ncphase._probe_a")
    b = types.ModuleType("ncphase._probe_b")
    a.f, a.Model, b.alias = f, Model, f
    for mod in (a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b


def test_every_binding_and_method_is_wrapped_then_restored(probe_modules):
    a, b = probe_modules
    f, energy = a.f, a.Model.__dict__["energy"]
    tracer = spans.Tracer()
    targets = (("probe.f", a.__name__, "f"), ("probe.energy", a.__name__, "Model.energy"))
    with tracer.installed(targets):
        assert a.f is b.alias and a.f is not f
        assert a.Model.__dict__["energy"] is not energy
        assert a.f() + b.alias() + a.Model().energy() == 4
    assert a.f is f and b.alias is f and a.Model.__dict__["energy"] is energy
    assert [name for name, *_ in tracer.take()] == ["probe.f", "probe.f", "probe.energy"]


def test_wrappers_restored_when_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_unbound_targets_are_skipped_and_named(probe_modules):
    a, _ = probe_modules
    f = a.f
    targets = (("probe.f", a.__name__, "f"),
               ("x", a.__name__, "no_such_function"),
               ("y", a.__name__, "NoClass.method"),
               ("z", "ncphase.no_such_module", "g"))
    tracer = spans.Tracer()
    with tracer.installed(targets):
        assert a.f is not f
        assert tracer.missing == [f"{a.__name__}.no_such_function",
                                  f"{a.__name__}.NoClass.method", "ncphase.no_such_module.g"]
    assert a.f is f


# --- oracles ----------------------------------------------------------------

def test_clean_outputs_pass(outputs):
    ops, paths = outputs
    for name, op in ops.items():
        checks = oracles.check(op, str(paths[name]))
        assert checks and all(c.ok for c in checks), (name, [c for c in checks if not c.ok])


def _csv(row, column, new):
    def edit(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[row + 1].split(",")
        j = header.index(column)
        cells[j] = new(cells[j])
        lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return edit


def _drop_last_row(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _json(mutate):
    def edit(path):
        obj = json.loads(path.read_text())
        mutate(obj)
        path.write_text(json.dumps(obj))
    return edit


def _bump(x, by=1e-6):
    return repr(float(x) + by)


def _set(keys, value):
    def mutate(obj):
        for k in keys[:-1]:
            obj = obj[k]
        obj[keys[-1]] = value(obj[keys[-1]]) if callable(value) else value
    return mutate


def _nudge(keys, by=1e-6):
    return _json(_set(keys, lambda v: v + by))


PERTURBATIONS = [
    ("planar-exact", _csv(50, "q1", _bump), "state-vs-modes"),
    ("planar-exact", _csv(50, "H", _bump), "H-column"),
    ("planar-exact", _csv(0, "H", _bump), "H-conserved"),
    ("planar-exact", _csv(50, "Lambda3", _bump), "Lambda3-conserved"),
    ("planar-exact", _csv(50, "t", _bump), "time-grid"),
    ("planar-exact", _drop_last_row, "rows"),
    ("planar-exact", _csv(3, "p2", lambda _: "nan"), "nonfinite"),
    ("planar-exact", lambda p: p.write_text(p.read_text().replace("Lambda3", "L3", 1)),
     "header"),
    ("planar-midpoint", _csv(50, "q2", _bump), "state-vs-midpoint-modes"),
    ("planar-midpoint", _csv(100, "q2", lambda x: _bump(x, 1e-3)), "second-order-bound"),
    ("axial-exact", _csv(50, "q3", _bump), "state-vs-modes"),
    ("simulate-chi0", _csv(50, "q1", _bump), "state-vs-reduced-modes"),
    ("simulate-chi0", _csv(7, "p2", _bump), "on-constraint"),
    ("simulate-chi0", _csv(7, "constraint_residual", lambda _: "1e-6"), "residual-column"),
    ("simulate-n6", _csv(50, "p6", _bump), "state-vs-modes"),
    ("brackets-n6", _json(_set(["status"], "singular")), "status"),
    ("brackets-n6", _nudge(["omega", 0, 1]), "omega"),
    ("brackets-n6", _nudge(["poisson", 0, 1]), "poisson-vs-dense-inverse"),
    ("brackets-n6", _nudge(["brackets", "qp", 2, 3]), "bracket-blocks"),
    ("brackets-n6", _nudge(["det_psi"]), "det-psi"),
    ("brackets-n6", lambda p: p.write_text("{"), "parse"),
    ("darboux-n6", _json(_set(["route"], "closed-n2")), "route"),
    ("darboux-n6", _nudge(["T", 1, 2]), "TtJT-vs-omega"),
    ("darboux-n6", _nudge(["Tinv", 1, 2]), "T-Tinv-identity"),
    ("reduce-n4", _json(_set(["status"], "empty")), "status"),
    ("reduce-n4", _json(_set(["dimensions"], [8, 5])), "dimensions"),
    ("reduce-n4", _nudge(["terminal_flow", 0, 4]), "flow-solves-omega-X=-dH"),
    ("reduce-n4", _nudge(["terminal_flow", 0, 4]), "flow-tangent"),
    ("reduce-n4", _nudge(["eigenvalues", "imag", 0]), "eigenvalues-vs-closed-form"),
    ("reduce-n4", _nudge(["eigenvalues", "real", 0]), "eigenvalues-real"),
    ("reduce-chi0", _nudge(["terminal_flow", 2, 0]), "eigenvalues-vs-flow"),
    ("spectrum-axial", _json(lambda o: o["levels"].pop()), "levels"),
    ("spectrum-axial", _json(_set(["levels", 5, "n"], [0, 0, 0])), "quantum-numbers"),
    ("spectrum-axial", _json(lambda o: o["levels"].reverse()), "sorted"),
    ("spectrum-axial", _nudge(["frequencies", 1]), "frequencies-vs-flow-spectrum"),
    ("spectrum-chi0", _nudge(["levels", 2, "energy"]), "energies"),
    ("limit-scan", _drop_last_row, "rows"),
    ("limit-scan", _csv(4, "fast_amplitude", lambda _: "inf"), "nonfinite"),
    ("limit-scan", _csv(4, "epsilon", _bump), "epsilon-grid"),
    ("limit-scan", lambda p: p.write_text(p.read_text().replace("epsilon", "eps", 1)),
     "header"),
]


@pytest.mark.parametrize("name,perturb,expected", PERTURBATIONS,
                         ids=[f"{n}:{e}" for n, _, e in PERTURBATIONS])
def test_perturbed_output_fails_its_check(outputs, tmp_path, name, perturb, expected):
    ops, paths = outputs
    path = tmp_path / paths[name].name
    path.write_bytes(paths[name].read_bytes())
    perturb(path)
    failed = [c.name for c in oracles.check(ops[name], str(path)) if not c.ok]
    assert any(f == expected or f.startswith(expected + ":") for f in failed), failed


def test_every_check_has_a_perturbation(outputs):
    ops, paths = outputs
    covered = {(n, e) for n, _, e in PERTURBATIONS}
    kinds = {}
    for name, op in ops.items():
        for c in oracles.check(op, str(paths[name])):
            kinds.setdefault((op.command, c.name), set()).add(name)
    missing = [k for k, names in kinds.items() if not any((n, k[1]) in covered for n in names)]
    assert not missing


# --- metrics helpers --------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    assert bench.tail(list(range(10))) is None
    samples = list(range(25))
    t = bench.tail(samples)
    assert sum(s > t for s in samples) == 10


def test_parse_importtime_attributes_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy._core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |        170 |   ncphase.structure",
        "import time:        30 |         30 |         numpy.testing",
        "import time:        40 |         70 |       scipy._lib",
        "import time:        60 |        130 |     scipy.linalg",
        "import time:        10 |        140 |   ncphase.dynamics",
        "import time:         5 |        315 | ncphase",
    ])
    got = bench.parse_importtime(text)
    assert got["numpy"] == pytest.approx(150e-6)
    assert got["scipy"] == pytest.approx(130e-6)
    assert got["ncphase"] == pytest.approx(35e-6)


def test_workload_inputs_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        a = [op.config for op in workloads.build(name, 3)]
        b = [op.config for op in workloads.build(name, 3)]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert (json.dumps(workloads.build("generic-fields", 3)[0].config)
            != json.dumps(workloads.build("generic-fields", 4)[0].config))


def test_run_refuses_a_tree_without_sources(tmp_path):
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text((bench.ROOT / "perfbench" / "run.py").read_text())
    proc = subprocess.run([sys.executable, str(script), "--workload", "trajectories",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
