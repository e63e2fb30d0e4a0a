"""The README's example runs as written and says what it computes."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    lam, states = ns["lam"], ns["states"]
    assert lam[0, 1] == 0.0 and lam[2, 3] == 1.0
    assert np.allclose(ns["freqs"], [(np.sqrt(5) + 1) / 2, (np.sqrt(5) - 1) / 2], rtol=1e-14)
    assert states.shape == (101, 4)
    assert np.ptp(ns["dx"].lambda3(ns["cfg"], states)) <= 1e-12
    assert ns["dmap"].residual <= 1e-12


def _ncphase_modules() -> set:
    import ncphase
    return {m.name for m in pkgutil.iter_modules(ncphase.__path__)}


def test_readme_names_resolve():
    # Every backticked dotted name whose head is `ncphase` or one of its
    # modules, such as `ncphase.structure` or `dynamics.expm_minus_identity`.
    modules = _ncphase_modules()
    names = []
    for span in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text(encoding="utf-8")):
        parts = span.split(".")
        if parts[0] == "ncphase":
            parts = parts[1:]
        if parts[0] in modules:
            names.append(span)
            obj = importlib.import_module(f"ncphase.{parts[0]}")
            for attr in parts[1:]:
                assert hasattr(obj, attr), f"README names `{span}`, which does not exist"
                obj = getattr(obj, attr)
    assert {"ncphase.structure", "dynamics.expm_minus_identity",
            "spectrum.MODE_ACCURACY"} <= set(names)


STATED = {
    "cli.MAX_STATE_VALUES": 50_000_000,
    "cli.MAX_SCAN_POINTS": 100_000,
    "spectrum.MAX_LEVELS": 2_000_000,
    "spectrum.AMPLITUDE_ACCURACY": 1e-5,
    "spectrum.MODE_ACCURACY": 1e-8,
}


def test_readme_stated_values_match_the_code():
    pattern = r"`(\w+\.[A-Z_]+)` = (\d[\d,]*(?:\.\d+)?(?:e[+-]?\d+)?)"
    stated = {name: float(value.rstrip(",").replace(",", ""))
              for name, value in re.findall(pattern, README.read_text(encoding="utf-8"))}
    assert stated == STATED
    for name, value in stated.items():
        module, attr = name.split(".")
        assert getattr(importlib.import_module(f"ncphase.{module}"), attr) == value, name
