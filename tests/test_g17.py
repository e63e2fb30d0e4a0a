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
    return (",".join(header).encode() + b"\n" + b"".join(g17.csv_rows(table)),
            reference_csv(header, table).encode())


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
        assert all(c.endswith(b"\n") for c in chunks)
        assert [c.count(b"\n") for c in chunks[:-1]] == [rows_per_chunk] * (len(chunks) - 1)
        assert b"".join(chunks) == reference_csv(["c"] * 6, table).split("\n", 1)[1].encode()

    def test_flagged_rows_between_fast_rows(self):
        # One tie row and one out-of-range row inside a chunk of fast rows.
        table = np.random.default_rng(3).normal(size=(50, 3))
        table[7, 1] = 1 + 3 * 2**-17
        table[31, 2] = 1e-300
        got, want = encoded(table)
        assert got == want


def shortest(table):
    """The CSV text of the repr encoder and of the per-value repr oracle."""
    got = b"".join(g17.csv_rows(table, shortest=True))
    return got, "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def powers_of_ten():
    """10**k, correctly rounded, and its two float neighbours for every k
    whose power is a nonzero finite double."""
    out = []
    for k in range(-324, 309):
        x = float(f"1e{k}")
        out += [x, float(np.nextafter(x, 0)), float(np.nextafter(x, np.inf))]
    return [x for x in out if x > 0]


# repr's switch points and integral values, where ".0" and the exponent
# form start: 1e16 is the first exponent-form integer, 9999999999999998.0
# the last fixed one; 2**53 and its neighbours end the exact integers.
SWITCHES = sorted(set(
    [0.0, -0.0, 1e-4, 1e-5, 1e16, 9999999999999998.0, 9007199254740992.0,
     0.5, 1.0, 2.0, 100.0, 123456789012345.0, 1234567890123456.0]
    + near(1e-4) + near(1e-5) + near(1e16) + near(9007199254740992.0)
    + [v for k in (15, 16) for v in near(10.0 ** k, 3)]
    + [float(k) for k in range(10**15 - 5, 10**15 + 5)]
    + [float(k) for k in range(10**16 - 10, 10**16 + 10, 2)]
))


class TestShortest:
    """csv_rows(shortest=True) writes exactly the bytes of float.__repr__."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 8))
    def test_random_bit_patterns(self, bits, cols):
        values = bits_to_floats(bits)
        if values.size:
            got, want = shortest(as_rows(values, cols))
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2**52 - 1), min_size=1, max_size=32))
    def test_subnormals(self, mantissas):
        values = bits_to_floats(mantissas)
        got, want = shortest(as_rows(np.concatenate([values, -values]), 4))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 2**53), st.integers(-80, 80)), min_size=1,
                    max_size=32))
    def test_short_binary_fractions(self, pairs):
        # k * 2**j has a short exact decimal expansion: ties of the 15-, 16-
        # and 17-digit roundings, and values on a read-back boundary, live
        # here and inside the tie band.
        values = [float(np.ldexp(float(k), j)) for k, j in pairs]
        got, want = shortest(as_rows(values + [-v for v in values], 2))
        assert got == want

    def test_powers_of_ten(self):
        values = powers_of_ten()
        got, want = shortest(as_rows(values + [-v for v in values], 3))
        assert got == want

    def test_powers_of_two(self):
        # The gap below a power of two is half the gap above it.
        values = [2.0 ** k for k in range(-1074, 1024)]
        values += [float(np.nextafter(v, 0)) for v in values]
        got, want = shortest(as_rows(values, 1))
        assert got == want

    def test_switch_points(self):
        got, want = shortest(as_rows(SWITCHES + [-v for v in SWITCHES], 1))
        assert got == want

    def test_inside_the_tie_band(self):
        # Exact 16- and 17-digit ties, and decimals of 16 and 17 digits
        # whose neighbours straddle a read-back boundary.
        values = [1 + 2**-17, 0.5 + 2**-18, 3 + 2**-16, 1 + 3 * 2**-17, 0.25 + 3 * 2**-20,
                  5e-324, 2.5, 1000000000000000.5, 4503599627370497.5,
                  float("9007199254740993"), 0.30000000000000004, 2 / 3, 1 / 3]
        rng = np.random.default_rng(16)
        digits = rng.integers(10**15, 10**17, 2000)
        values += [float(f"{d}e{x}") for d, x in zip(digits, rng.integers(-110, 110, 2000))]
        got, want = shortest(as_rows(values + [-v for v in values], 5))
        assert got == want

    def test_seeded_bulk(self):
        rng = np.random.default_rng(18)
        values = np.concatenate([
            bits_to_floats(rng.integers(0, 2**64, 20000, dtype=np.uint64)),
            rng.normal(size=20000) * 10.0 ** rng.integers(-110, 110, 20000),
            np.round(rng.normal(size=20000) * 1000, 3),
        ])
        got, want = shortest(as_rows(values, 5))
        assert got == want


class TestFallback:
    """CPython writes only the values the encoder cannot decide."""

    @pytest.mark.parametrize("shortest", [False, True])
    def test_only_ties_and_out_of_range_values(self, shortest):
        # Below 1e11 a double's exact decimal has more than 18 digits, so
        # no 17-digit rounding is a tie.
        rng = np.random.default_rng(21)
        block = rng.normal(size=4000) * 10.0 ** rng.integers(-90, 10, 4000)
        words = np.zeros((4000, 4), np.uint64)
        assert g17._encode(block, words, shortest).size == 0
        edge = np.array([0.1, 1 + 2**-17, 1e-300, 0.0, 1e300, 2.5])
        assert g17._encode(edge, words[:6], shortest).tolist() == [1, 2, 4]

    def test_ties_of_unwritten_digits_stay_on_the_fast_path(self):
        # n + j/8 (j odd) in [6e14, 1e15) has 18 exact digits, a tie of the
        # 17-digit rounding, but its gap is 1/8, so repr writes 16 digits,
        # which are decided.
        rng = np.random.default_rng(22)
        block = (rng.integers(6 * 10**14, 10**15, 500) + rng.integers(0, 4, 500) / 4 + 0.125)
        words = np.zeros((500, 4), np.uint64)
        assert g17._encode(block, words, True).size == 0
        assert g17._encode(block, words, False).size == 500


def through_every_writer(values, cols=3):
    """Check the text of ``values`` through `csv_rows` in both styles, in
    one column and in ``cols``, through `repr_text` and through `records`."""
    values = np.asarray(values, dtype=np.float64)
    for table in (values[:, None], as_rows(values, cols)):
        got, want = encoded(table)
        assert got == want
        got, want = shortest(table)
        assert got == want
    reprs = list(map(repr, values.tolist()))
    assert g17.repr_text(values, [44] * values.size) == "".join(r + "," for r in reprs).encode()
    ints = np.arange(values.size)[:, None]
    got = b"".join(g17.records(["(", "|", ")"], values, ints, sep=";"))
    assert got == ";".join(f"({r}|{i})" for i, r in enumerate(reprs)).encode()


class TestLayout:
    """Slots of four words: digits 1-16 contiguous, a point inserted after
    digit 1-15 on the values that take one, and CPython's text before the
    separator."""

    @pytest.mark.parametrize("p", range(1, 16))
    def test_point_after_each_digit(self, p):
        # 17 digits for %.17g, a short form for repr; X = p either way.
        values = [1.2345678901234567 * 10.0 ** p, float("1" + "2" * p + ".5"),
                  float("1" + "0" * p + ".25")]
        values += [-v for v in values]
        for v in values:
            assert ("%.17g" % v).index(".") == repr(v).index(".") == p + 1 + (v < 0)
        through_every_writer(values)

    def test_repr_point_zero_on_integral_values(self):
        values = [10.0 ** k for k in range(1, 16)] + [12.0, 123456789012345.0, 999999999999999.0,
                                                       4503599627370497.0, 9007199254740990.0]
        values += [-v for v in values]
        assert all(repr(v).endswith(".0") for v in values)
        through_every_writer(values)

    def test_switch_points_at_x_15_16_17(self):
        values = [v for k in (15, 16, 17) for v in near(10.0 ** k, 3)]
        values += [1.2345678901234567 * 10.0 ** k for k in (15, 16, 17)]
        values += [1234567890123456.8, 12345678901234568.0, 9999999999999998.0, 99999999999999984.0]
        through_every_writer(values + [-v for v in values])

    @pytest.mark.parametrize("repr_style", [False, True])
    def test_chunk_where_every_value_is_inserted(self, repr_style):
        table = np.random.default_rng(26).uniform(10, 1e6, (g17.CHUNK_VALUES // 4, 4))
        chunks = list(g17.csv_rows(table, repr_style))
        assert len(chunks) == 1
        texts = chunks[0].replace(b"\n", b",").split(b",")[:-1]
        assert all(2 <= text.index(b".") <= 16 for text in texts)
        got, want = shortest(table) if repr_style else encoded(table)
        assert got == want

    def test_inserted_value_sent_to_the_fallback(self):
        # 16 + 2**-16 is 16.0000152587890625: its 17-digit rounding is a tie.
        tie = 16 + 2**-16
        values = np.array([1.5, tie, 123.25, -tie, 10.0])
        for repr_style in (False, True):
            words = np.zeros((values.size, g17._WORDS), np.uint64)
            assert g17._encode(values, words, repr_style).tolist() == [1, 3]
        through_every_writer(values, cols=5)

    def test_longest_texts_fit_before_the_separator(self):
        values = [-2.2250738585072014e-308, -1.7976931348623157e308, -5e-324,
                  -1.2345678901234567e-100, -9.8765432109876543e99]
        assert max(len("%.17g" % v) for v in values) == max(map(len, map(repr, values))) == 24
        assert 24 <= g17._SEP_BYTE == g17._SLOT - 2
        through_every_writer(values + [-v for v in values])


class TestReprText:
    @pytest.mark.parametrize("chunk", [3, 8192])
    def test_each_value_followed_by_its_byte(self, monkeypatch, chunk):
        monkeypatch.setattr(g17, "CHUNK_VALUES", chunk)
        values = [0.1, -0.0, 1e16, 5e-324, 2.5, 1e-300, 123.0, -7e22, 1 + 2**-17, 0.3, 4.0]
        ends = [1, 2, 3, 1, 10, 44, 3, 2, 1, 1, 3]
        want = "".join(repr(v) + chr(e) for v, e in zip(values, ends)).encode()
        assert g17.repr_text(values, ends) == want


class TestRecords:
    """g17.records lays out its slots between the pieces, in whole records."""

    def test_pieces_floats_and_ints(self):
        floats = np.array([0.1, 1e300, 5e-324, -2.0, 1e16])
        ints = np.array([[0, 7], [12, 10**7], [99999999, 1], [5, 50], [3, 0]])
        text = b"".join(g17.records(["<", "|", "|long piece|", ">"], floats, ints, sep=" ; "))
        want = " ; ".join(f"<{a!r}|{i}|long piece|{j}>"
                          for a, (i, j) in zip(floats.tolist(), ints.tolist())).encode()
        assert text == want

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    def test_chunks_are_whole_records(self, monkeypatch, chunk):
        monkeypatch.setattr(g17, "CHUNK_VALUES", chunk)
        floats = np.random.default_rng(chunk).normal(size=11)
        ints = np.arange(11)[:, None]
        chunks = list(g17.records(["[", ",", "]"], floats, ints, sep="\n"))
        assert len(chunks) == -(-11 // chunk)
        assert b"".join(chunks) == "\n".join(
            f"[{a!r},{i}]" for i, a in enumerate(floats.tolist())).encode()

    def test_ints_out_of_range_refused(self):
        for ints in ([[-1]], [[10**8]]):
            with pytest.raises(ValueError):
                list(g17.records(["", "", ""], [1.0], np.array(ints), sep=""))


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
            yield b"first\n"
            raise ArithmeticError("late failure")

        out = tmp_path / "out.txt"
        with pytest.raises(ArithmeticError, match="late failure"):
            cli._write_atomic(str(out), chunks())
        assert os.listdir(tmp_path) == []
