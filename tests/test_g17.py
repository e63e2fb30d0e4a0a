import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncphase import cli, g17


def reference_csv(header, table):
    """The per-row ``%`` loop ``simulate`` used before ``g17``: the oracle
    for the bytes of the vectorized encoder."""
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    for start in range(0, len(table), 4096):
        lines += [template % tuple(row) for row in table[start:start + 4096].tolist()]
    lines.append("")
    return "\n".join(lines)


def encoded(table):
    header = [f"c{i}" for i in range(table.shape[1])]
    return ",".join(header) + "\n" + "".join(g17.csv_rows(table)), reference_csv(header, table)


def as_rows(values, cols):
    values = np.asarray(values, dtype=np.float64)
    cols = max(1, min(cols, values.size))
    return values[:values.size // cols * cols].reshape(-1, cols)


def bits_to_floats(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def near(x, steps=2):
    """x and its float neighbours, `steps` on each side."""
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


# Values at the edges of the fast range, of the fixed/exponent switch, of
# the 17-digit carry and of the log10 estimate; exact 18-digit ties with an
# even and an odd 17th digit; and the extremes of the float range.
EDGES = sorted(set(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     1e-5, 1e-4, 9.9999999999999991e-05, 0.1, 1e16, 99999999999999999.0, 1e17,
     1 + 2**-17, 0.5 + 2**-18, 3 + 2**-16, 1 + 3 * 2**-17, 0.25 + 3 * 2**-20]
    + near(g17.FAST_MIN) + near(g17.FAST_MAX)
    + [v for k in range(-101, 102) for v in near(10.0 ** k, 1)]
))


class TestEncoder:
    """g17.csv_rows writes exactly the bytes of the per-row "%.17g" loop."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
           st.integers(1, 8))
    @example([0.0, -0.0], 1)
    @example([5e-324, -5e-324], 2)
    @example([2.2250738585072014e-308], 1)
    @example([1.7976931348623157e308, -1.7976931348623157e308], 1)
    @example([1e-5, 1e-4, 9.9999999999999991e-05, 0.1], 4)
    @example([1e16, 99999999999999999.0, -99999999999999999.0], 3)
    @example([g17.FAST_MIN, float(np.nextafter(g17.FAST_MIN, 0)),
              g17.FAST_MAX, float(np.nextafter(g17.FAST_MAX, 0))], 2)
    @example([1 + 2**-17, 0.5 + 2**-18, 3 + 2**-16, 1 + 3 * 2**-17], 2)
    def test_matches_percent_g(self, values, cols):
        got, want = encoded(as_rows(values, cols))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 8))
    def test_random_bit_patterns(self, bits, cols):
        values = bits_to_floats(bits)
        if values.size:
            got, want = encoded(as_rows(values, cols))
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 2**53), st.integers(-80, 80)), min_size=1,
                    max_size=32))
    def test_short_binary_fractions(self, pairs):
        # k * 2**j has a short exact decimal expansion, which is where 17-digit
        # ties and trailing zeros live.
        values = [float(np.ldexp(float(k), j)) for k, j in pairs]
        got, want = encoded(as_rows(values + [-v for v in values], 2))
        assert got == want

    def test_edges(self):
        got, want = encoded(as_rows(EDGES + [-v for v in EDGES], 1))
        assert got == want

    def test_seeded_bulk(self):
        rng = np.random.default_rng(17)
        values = np.concatenate([
            bits_to_floats(rng.integers(0, 2**64, 20000, dtype=np.uint64)),
            rng.normal(size=20000) * 10.0 ** rng.integers(-110, 110, 20000),
            np.round(rng.normal(size=20000) * 1000, 3),
        ])
        got, want = encoded(as_rows(values, 6))
        assert got == want

    @pytest.mark.parametrize("chunk", [1, 5, 12, 13, 64])
    def test_chunks_are_whole_rows(self, monkeypatch, chunk):
        monkeypatch.setattr(g17, "CHUNK_VALUES", chunk)
        table = np.random.default_rng(chunk).normal(size=(41, 6))
        chunks = list(g17.csv_rows(table))
        rows_per_chunk = max(1, chunk // 6)
        assert len(chunks) == -(-41 // rows_per_chunk)
        assert all(c.endswith("\n") for c in chunks)
        assert [c.count("\n") for c in chunks[:-1]] == [rows_per_chunk] * (len(chunks) - 1)
        assert "".join(chunks) == reference_csv(["c"] * 6, table).split("\n", 1)[1]

    def test_flagged_rows_between_fast_rows(self):
        # One tie row and one out-of-range row inside a chunk of fast rows.
        table = np.random.default_rng(3).normal(size=(50, 3))
        table[7, 1] = 1 + 3 * 2**-17
        table[31, 2] = 1e-300
        got, want = encoded(table)
        assert got == want


def _generic_config(seed, N):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.normal(0.0, 0.3 / np.sqrt(N), (2, N, N)), 1)
    eF, rG = upper - upper.transpose(0, 2, 1)
    return {"schema_version": 1, "N": N,
            "field": {"eF": eF.tolist(), "rG": rG.tolist()},
            "model": {"m": 1.0, "kappa": 1.0},
            "state": rng.uniform(-1.0, 1.0, 2 * N).tolist(),
            "time": {"t_final": 10.0, "dt": 0.01, "method": "exact"}}


_PLANAR = {"schema_version": 1, "N": 2, "field": {"B": 1.0, "C": 0.5},
           "model": {"m": 1.0, "kappa": 1.0}, "state": [1.0, 0.0, 0.0, 1.0],
           "time": {"t_final": 30.0, "dt": 0.01, "method": "exact"}}
SIMULATE_CONFIGS = {
    # 3001 rows of 6 values: two chunks, the second one short.
    "planar-exact": _PLANAR,
    "planar-midpoint": dict(_PLANAR, time=dict(_PLANAR["time"], method="midpoint")),
    "axial": {"schema_version": 1, "N": 3,
              "field": {"Bvec": [0.0, 0.0, 1.0], "Cvec": [0.0, 0.0, 0.5]},
              "model": {"m": 1.0, "kappa": 1.0}, "state": [1.0, 0.0, 0.5, 0.0, 1.0, 0.2],
              "time": {"t_final": 10.0, "dt": 0.01, "method": "exact"}},
    "chi0": {"schema_version": 1, "N": 2, "field": {"B": -1.0, "C": 1.0},
             "model": {"m": 1.0, "kappa": 1.0}, "state": [1.0, 0.0, 0.0, -1.0],
             "time": {"t_final": 10.0, "dt": 0.01, "method": "exact"}},
    "generic-n6-seed7": _generic_config(7, 6),
    "generic-n6-seed901": _generic_config(901, 6),
}


class TestSimulateBytes:
    """simulate writes the reference bytes, to a file and to stdout."""

    @pytest.mark.parametrize("name", sorted(SIMULATE_CONFIGS))
    def test_simulate_matches_reference(self, tmp_path, capsys, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SIMULATE_CONFIGS[name]))
        header, table = cli._simulate_rows(cli.load_config(str(path)))
        want = reference_csv(header, table)
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        assert out.read_text() == want
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == want

    def test_failure_mid_stream_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_PLANAR))
        encode = g17._encode
        calls = []

        def fail_on_second_chunk(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("encoder failed")
            encode(*args)

        monkeypatch.setattr(g17, "_encode", fail_on_second_chunk)
        out = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="encoder failed"):
            cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert len(calls) == 2
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_write_atomic_failure_mid_stream(self, tmp_path):
        def chunks():
            yield "first\n"
            raise ArithmeticError("late failure")

        out = tmp_path / "out.txt"
        with pytest.raises(ArithmeticError, match="late failure"):
            cli._write_atomic(str(out), chunks())
        assert os.listdir(tmp_path) == []
