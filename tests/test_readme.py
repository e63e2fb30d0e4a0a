"""The README's example runs as written and says what it computes."""

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
