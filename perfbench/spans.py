"""Span tracer that wraps ncphase functions from outside the package.

`Tracer.install` replaces each target function with a timing wrapper in
every ncphase module namespace that binds it (``from .structure import
poisson_matrix`` makes ``dynamics.poisson_matrix`` a second binding), or on
its class for a method.  `Tracer.restore` puts the originals back.  Spans
stay in memory until `Tracer.take` hands them over as ``(name, start, end,
parent)``; a span's self time is its duration minus that of its direct
children, so the self times of all spans sum to the durations of the root
spans (``cli.main`` calls).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute); "Class.method" names a method.
TARGETS = (
    ("cli.main", "ncphase.cli", "main"),
    ("cli.load_config", "ncphase.cli", "load_config"),
    ("cli.cmd", "ncphase.cli", "cmd_brackets"),
    ("cli.cmd", "ncphase.cli", "cmd_darboux"),
    ("cli.cmd", "ncphase.cli", "cmd_simulate"),
    ("cli.cmd", "ncphase.cli", "cmd_spectrum"),
    ("cli.cmd", "ncphase.cli", "cmd_limit_scan"),
    ("cli.cmd", "ncphase.cli", "cmd_reduce"),
    ("structure.poisson_matrix", "ncphase.structure", "poisson_matrix"),
    ("structure.psi_phi", "ncphase.structure", "psi_phi"),
    ("darboux.symplectic_gram_schmidt", "ncphase.darboux", "symplectic_gram_schmidt"),
    ("darboux.closed_form", "ncphase.darboux", "darboux_n2"),
    ("darboux.closed_form", "ncphase.darboux", "darboux_n3"),
    ("dynamics.flow_matrix", "ncphase.dynamics", "flow_matrix"),
    ("dynamics.propagator", "ncphase.dynamics", "expm"),
    ("dynamics.propagator", "ncphase.dynamics", "midpoint_transfer"),
    ("dynamics.integrate", "ncphase.dynamics", "integrate"),
    ("dynamics.hamiltonian", "ncphase.dynamics", "OscillatorModel.hamiltonian"),
    ("constrained.gnh_chain", "ncphase.constrained", "gnh_chain"),
    ("constrained.degenerate_flow_n2", "ncphase.constrained", "degenerate_flow_n2"),
    ("constrained.kernel", "ncphase.constrained", "kernel"),
    ("constrained.residual", "ncphase.constrained", "LinearConstraints.residual"),
    ("spectrum.ladder", "ncphase.spectrum", "spectrum_n2"),
    ("spectrum.ladder", "ncphase.spectrum", "spectrum_degenerate_n2"),
    ("spectrum.ladder", "ncphase.spectrum", "spectrum_n3_parallel"),
    ("spectrum.chi_limit_scan", "ncphase.spectrum", "chi_limit_scan"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ncphase" or name.startswith("ncphase."))]


class Tracer:
    """Records nested spans around calls into ncphase while installed.

    Spans are stored column-wise in flat lists of numbers, so that holding
    hundreds of thousands of them adds no containers for the garbage
    collector to traverse, which would slow the traced program.
    """

    def __init__(self):
        self._names, self._starts, self._ends, self._parents = [], [], [], []
        self._stack = [-1]
        self._patched = []      # (owner, attribute, original)
        self.missing = []       # targets the last install found unbound

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self._names, self._starts, self._ends, self._parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every binding of every target.

        A target that is not bound (its module, class or function is gone)
        is skipped and named in `missing`; its span then reads 0.
        """
        modules = _package_modules()
        self.missing = []
        for name, module, path in targets:
            owner, attr = sys.modules.get(module), path
            if owner is not None and "." in path:
                cls_name, attr = path.split(".")
                owner = vars(owner).get(cls_name)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the recorded spans as (name, start, end, parent) and clear them."""
        columns = (self._names, self._starts, self._ends, self._parents)
        spans = list(zip(*columns))
        for column in columns:
            column.clear()
        return spans

    @contextmanager
    def installed(self, targets=TARGETS):
        try:
            self.install(targets)
            yield self
        finally:
            self.restore()


def self_times(spans: list) -> dict:
    """Per span name: [total self time in s, number of spans]."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, [0.0, 0])
        agg[0] += end - start - child[i]
        agg[1] += 1
    return out
