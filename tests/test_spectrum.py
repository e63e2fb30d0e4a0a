import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ncphase import constrained as con
from ncphase import dynamics as dyn
from ncphase import spectrum as sp
from ncphase import structure as st
from ncphase.errors import InconsistentSystem

import closed_forms as cf

UNIT = dyn.OscillatorModel(m=1.0, kappa=1.0)


class TestPlanarSpectrum:
    def test_isotropic_levels(self):
        table = cf.spectrum_n2(UNIT, 0.0, 0.0, 2)
        assert table.energies[0] == pytest.approx(1.0)
        energies = dict(zip(map(tuple, table.quanta.tolist()), table.energies.tolist()))
        assert energies[(1, 0)] == pytest.approx(2.0)
        assert energies[(0, 1)] == pytest.approx(2.0)
        assert energies[(2, 2)] == pytest.approx(5.0)

    def test_worked_ground_state(self):
        table = cf.spectrum_n2(UNIT, 1.0, 0.0, 3)
        assert table.energies[0] == pytest.approx(np.sqrt(5) / 2, abs=1e-12)

    def test_additivity(self):
        table = cf.spectrum_n2(UNIT, 0.7, -0.3, 3)
        energies = dict(zip(map(tuple, table.quanta.tolist()), table.energies.tolist()))
        wp, wm = table.frequencies
        for (np_, nm), e in energies.items():
            if np_ < 3:
                assert energies[(np_ + 1, nm)] - e == pytest.approx(wp, abs=1e-12)
            if nm < 3:
                assert energies[(np_, nm + 1)] - e == pytest.approx(wm, abs=1e-12)

    def test_balanced_fields_degenerate_levels(self):
        table = cf.spectrum_n2(UNIT, 1.0, 1.0, 1)
        energies = dict(zip(map(tuple, table.quanta.tolist()), table.energies.tolist()))
        assert energies[(1, 0)] == pytest.approx(energies[(0, 1)], abs=1e-12)

    def test_hbar_scaling(self):
        scaled = dyn.OscillatorModel(m=1.0, kappa=1.0, hbar=3.0)
        t1 = cf.spectrum_n2(UNIT, 0.4, 0.1, 2)
        t3 = cf.spectrum_n2(scaled, 0.4, 0.1, 2)
        assert np.array_equal(t1.quanta, t3.quanta)
        assert t3.energies == pytest.approx(3.0 * t1.energies, rel=1e-14)

    def test_ground_is_half_frequency_sum(self):
        table = cf.spectrum_n2(UNIT, 0.9, -0.1, 2)
        assert table.energies[0] == pytest.approx(0.5 * sum(table.frequencies), rel=1e-14)


class TestDegenerateSpectrum:
    def test_worked_ladder(self):
        table = cf.spectrum_degenerate_n2(UNIT, -1.0, 3)
        assert table.energies == pytest.approx(0.5 * (table.quanta[:, 0] + 0.5), abs=1e-14)

    def test_ground_state(self):
        table = cf.spectrum_degenerate_n2(UNIT, -1.0, 0)
        assert table.energies[0] == pytest.approx(0.25)

    def test_mass_elasticity_rescaling(self):
        # Scaling m and kappa down by 2 keeps omega0 while doubling
        # b = B/sqrt(m kappa); the ladder follows omega_r = omega0 b/(1+b^2).
        light = dyn.OscillatorModel(m=0.5, kappa=0.5)
        b = 2.0  # B = -1/C = 1 against sqrt(m kappa) = 1/2
        expected = b / (1 + b * b)  # omega0 = sqrt(kappa / m) = 1
        table = cf.spectrum_degenerate_n2(light, -1.0, 1)
        assert table.frequencies[0] == pytest.approx(expected, rel=1e-12)

    def test_sign_recorded_separately(self):
        # Ladder frequency is |omega_r|; orientation lives with the reduced
        # structure.
        rs = cf.reduced_structure_n2(UNIT, 1.0)
        table = cf.spectrum_degenerate_n2(UNIT, 1.0, 1)
        assert rs.omega_r < 0
        assert table.frequencies[0] == pytest.approx(abs(rs.omega_r))


class TestAxialSpectrum:
    def test_isotropic(self):
        table = cf.spectrum_n3_parallel(UNIT, 0.0, 0.0, 1)
        assert table.energies[0] == pytest.approx(1.5)

    def test_worked_ground_state(self):
        table = cf.spectrum_n3_parallel(UNIT, 1.0, 0.0, 2)
        assert table.energies[0] == pytest.approx(np.sqrt(5) / 2 + 0.5, abs=1e-12)

    def test_balanced_fields_exchange_degeneracy(self):
        table = cf.spectrum_n3_parallel(UNIT, 1.0, 1.0, 1)
        energies = dict(zip(map(tuple, table.quanta.tolist()), table.energies.tolist()))
        assert energies[(1, 0, 0)] == pytest.approx(energies[(0, 1, 0)], abs=1e-12)

    def test_classical_quantum_consistency(self):
        table = cf.spectrum_n3_parallel(UNIT, 1.0, 0.5, 1)
        cfg = st.field_config_n3([0, 0, 1.0], [0, 0, 0.5])
        M, _ = dyn.flow_matrix(st.poisson_matrix(cfg), UNIT)
        eig = np.abs(np.linalg.eigvals(M).imag)
        for f in table.frequencies:
            assert np.min(np.abs(eig - f)) < 1e-9


def core(fields, model=UNIT):
    """`mode_frequencies` on the full pair, with the program's Lambda."""
    return sp.mode_frequencies(st.build_omega(fields), sp.hessian_factor(model.hessian(fields.N)),
                               st.poisson_matrix(fields))


def core_restricted(fields, model=UNIT):
    """`mode_frequencies` on the pair restricted to the terminal stage of
    the constraint chain, V^T Omega V and V^T Hess V."""
    v = cf.gnh_from_model(fields, model).subspaces[-1]
    return sp.mode_frequencies(v.T @ st.build_omega(fields) @ v,
                               sp.hessian_factor(v.T @ model.hessian(fields.N) @ v))


class TestTerminalChain:
    """`terminal_chain` builds the chain once where Hess H = I and maps it
    back to z: constraint rows orthonormal as rows of [A | b], a flow that
    solves Omega X = -grad H on the terminal stage and stays on it."""

    # (B, m, kappa) of chi = 0 fields: unit, mixed, the field whose chain
    # over-cuts on the raw data, and one whose whitened form is near 1e-10.
    FIELDS = [(1.0, 1.0, 1.0), (-2.0, 0.3, 7.0),
              (5074788.115583803, 1788489525.6778197, 7055.521709333194),
              (1.545773989453215, 2.8829074819845476e-09, 58558066872.5091)]

    @staticmethod
    def check_chain(chain, omega, hess, g, tol=1e-14):
        """Rows orthonormal in [A | b]; at a point on them the velocity
        solves Omega X = -grad H and keeps A z + b = 0, to ``tol`` relative."""
        a, b = chain.constraints
        aug = np.column_stack([a, b])
        assert np.abs(aug @ aug.T - np.eye(len(aug))).max() <= 1e-15
        # A start on the constraints, and the velocity there.
        v = chain.subspaces[-1]
        z = np.linalg.lstsq(a, -b, rcond=None)[0] + v @ np.arange(1.0, v.shape[1] + 1)
        assert np.abs(a @ z + b).max() <= 1e-14 * np.abs(a).max() * np.abs(z).max()
        x = chain.reduced_flow @ z + chain.flow_offset
        force = hess @ z + g
        scale = np.abs(omega).max() * np.abs(x).max() + np.abs(force).max()
        assert np.abs(omega @ x + force).max() <= tol * scale
        assert np.abs(a @ x).max() <= 1e-14 * np.abs(a).max() * np.abs(x).max()

    @pytest.mark.parametrize("B, m, kappa", FIELDS)
    def test_chi0_fields(self, B, m, kappa):
        fields, model = st.field_config_n2(B, -1.0 / B), dyn.OscillatorModel(m=m, kappa=kappa)
        omega, hess, g = st.build_omega(fields), model.hessian(2), model.gradient_offset(2)
        chain, form = sp.terminal_chain(omega, hess, g)
        assert (chain.status, chain.dimensions, chain.gauge_basis.shape) == (
            "consistent", [4, 2], (4, 0))
        self.check_chain(chain, omega, hess, g)
        # The rows span the secondary constraints of the closed form.
        oracle = cf.secondary_constraints(fields, model).matrix
        oracle /= np.linalg.norm(oracle, axis=1, keepdims=True)
        a = chain.constraints.matrix
        assert np.abs(oracle - oracle @ np.linalg.pinv(a) @ a).max() <= 1e-12
        want = abs(cf.degenerate_omega_r(model, -1.0 / B))
        assert rel_err(sp.mode_frequencies(form), [want]) <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_problem_blocks_with_a_gradient(self, seed):
        # A random Hess H = R^T R with columns over two decades, a two-form of
        # rank 2N - 2 and a gradient: affine constraint rows.  The flow is
        # mapped back through R, so its residual grows with cond(R).
        rng = np.random.default_rng(seed)
        n = 2 * rng.integers(2, 4)
        r = np.triu(rng.normal(size=(n, n))) * 10.0 ** rng.uniform(-1, 1, n)
        u = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :n - 2]
        core = rng.normal(size=(n - 2, n - 2))
        omega = u @ (core - core.T) @ u.T
        omega = 0.5 * (omega - omega.T)
        hess, g = r.T @ r, rng.normal(size=n)
        chain, form = sp.terminal_chain(omega, hess, g)
        assert chain.dimensions == [n, n - 2] and form.shape == (n - 2, n - 2)
        self.check_chain(chain, omega, hess, g, 1e-15 * np.linalg.cond(r))

    def test_without_a_ladder_the_chain_is_built_on_the_raw_data(self):
        fields, free = st.field_config_n2(1.0, -1.0), dyn.OscillatorModel(m=1.0, kappa=0.0)
        data = st.build_omega(fields), free.hessian(2), free.gradient_offset(2)
        chain, form = sp.terminal_chain(*data)
        raw = con.gnh_chain(*data)
        assert form is None
        assert np.array_equal(chain.reduced_flow, raw.reduced_flow)
        assert np.array_equal(chain.constraints.matrix, raw.constraints.matrix)

    def test_an_inconsistent_chain_is_mapped_back_too(self, monkeypatch):
        # Where Hess H = I the chain is consistent in exact arithmetic; a
        # chain that rounding made inconsistent still reaches the caller in z.
        def inconsistent(*data):
            raise InconsistentSystem("nowhere satisfied", chain=con.gnh_chain(*data))

        fields, model = st.field_config_n2(-2.0, 0.5), dyn.OscillatorModel(m=0.3, kappa=7.0)
        data = st.build_omega(fields), model.hessian(2), model.gradient_offset(2)
        want = sp.terminal_chain(*data)[0]
        monkeypatch.setattr(sp, "gnh_chain", inconsistent)
        with pytest.raises(InconsistentSystem) as err:
            sp.terminal_chain(*data)
        got = err.value.chain
        assert np.array_equal(got.constraints.matrix, want.constraints.matrix)
        assert np.array_equal(got.reduced_flow, want.reduced_flow)


def rel_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got, dtype=float) / np.asarray(want, dtype=float) - 1.0)))


def _mpmath_planar_frequencies(B, C, m=1.0, kappa=1.0):
    """Mode frequencies of the planar oscillator from a 60-digit mpmath
    eigensolve of -Omega^-1 Hess H, descending; no ncphase code."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        B, C, m, kappa = map(mp.mpf, (B, C, m, kappa))
        omega = mp.matrix([[0, -B, 1, 0], [B, 0, 0, 1], [-1, 0, 0, C], [0, -1, -C, 0]])
        hess = mp.diag([kappa, kappa, 1 / m, 1 / m])
        eigvals = mp.eig(-mp.inverse(omega) * hess, left=False, right=False)
        return [float(w) for w in sorted((mp.im(e) for e in eigvals), reverse=True)[:2]]


# Planar B and chi = 1 + B C of the accuracy table in notes/decisions.md.
TABLE = [(B, chi) for B in (1.0, 3.0, 0.3, -2.0) for chi in (1.0, 1e-2, 1e-4, 2e-5)]


class TestModeFrequencies:
    """The one spectrum core against the closed forms, dense eigensolves
    and high-precision arithmetic."""

    @pytest.mark.parametrize("B, C", [(0.0, 0.0), (1.0, 0.0), (0.7, -0.3), (1.0, 1.0),
                                      (3.0, -0.25), (-2.0, 0.4)])
    def test_planar_matches_closed_form(self, B, C):
        w = core(st.field_config_n2(B, C))
        assert rel_err(w, sorted(cf.spectrum_n2(UNIT, B, C, 0).frequencies, reverse=True)) <= 1e-12

    @pytest.mark.parametrize("B, C", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)])
    def test_axial_matches_closed_form(self, B, C):
        w = core(st.field_config_n3([0, 0, B], [0, 0, C]))
        want = sorted(cf.spectrum_n3_parallel(UNIT, B, C, 0).frequencies, reverse=True)
        assert rel_err(w, want) <= 1e-12

    @pytest.mark.parametrize("m, kappa, C", [(1.0, 1.0, -1.0), (0.5, 0.5, -1.0),
                                             (2.0, 0.5, 0.7), (1.0, 3.0, 1.6)])
    def test_chi0_terminal_pair_matches_closed_ladder(self, m, kappa, C):
        model = dyn.OscillatorModel(m=m, kappa=kappa)
        w = core_restricted(st.field_config_n2(-1.0 / C, C), model)
        assert rel_err(w, cf.spectrum_degenerate_n2(model, C, 0).frequencies) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(data=hst.data(), n=hst.integers(1, 6),
           m=hst.floats(0.1, 10.0), kappa=hst.floats(0.1, 10.0))
    def test_random_fields_match_dense_eigensolve(self, data, n, m, kappa):
        k = n * (n - 1) // 2
        entries = data.draw(hst.lists(hst.floats(-1.0, 1.0), min_size=2 * k, max_size=2 * k))
        blocks = []
        for values in (entries[:k], entries[k:]):
            a = np.zeros((n, n))
            a[np.triu_indices(n, 1)] = values
            blocks.append(a - a.T)
        fields = st.FieldConfig(n, *blocks)
        assume(abs(st.regularity(fields, 0.0)) >= 0.1)
        model = dyn.OscillatorModel(m=m, kappa=kappa)
        w = core(fields, model)
        dense = np.linalg.eigvals(st.poisson_matrix(fields) @ model.hessian(n))
        assert np.all(np.diff(w) <= 0)
        assert rel_err(w, np.sort(dense.imag)[::-1][:n]) <= 1e-10

    @pytest.mark.parametrize("B, chi", TABLE)
    def test_planar_table_against_mpmath(self, B, chi):
        C = (chi - 1.0) / B
        assert rel_err(core(st.field_config_n2(B, C)), _mpmath_planar_frequencies(B, C)) <= 2e-15

    def test_table_resolves_the_closed_form_rounding(self):
        # n2_frequencies rounds chi = 1 + B C before it divides by it.
        worst = max(rel_err(sorted(cf.spectrum_n2(UNIT, B, (chi - 1.0) / B, 0).frequencies,
                                   reverse=True),
                            _mpmath_planar_frequencies(B, (chi - 1.0) / B))
                    for B, chi in TABLE)
        assert worst > 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(halves=hst.lists(hst.integers(1, 3), min_size=1, max_size=4),
           seed=hst.integers(0, 2**32 - 1), factored=hst.booleans())
    def test_block_split_matches_the_unique_split(self, halves, seed, factored):
        # A block-diagonal pair under a random permutation of coordinates:
        # the frequencies equal those of the blocks split by `np.unique` of
        # the rows of the closure, the split the core used before.
        rng = np.random.default_rng(seed)
        dim = 2 * sum(halves)
        omega, hess = np.zeros((dim, dim)), np.zeros((dim, dim))
        at = 0
        for half in halves:
            size = 2 * half
            a = 0.3 * rng.normal(size=(size, size))
            b = rng.normal(size=(size, size))
            block = slice(at, at + size)
            omega[block, block] = st.canonical_j(half) + a - a.T
            hess[block, block] = b @ b.T + size * np.eye(size)
            at += size
        perm = rng.permutation(dim)
        omega, hess = omega[np.ix_(perm, perm)], hess[np.ix_(perm, perm)]
        lam = -np.linalg.inv(omega)
        r = sp.hessian_factor(hess) if factored else None
        white = omega if r is None else sp.whiten(omega, r)
        flow = lam if r is None else r @ lam @ r.T
        reach = np.eye(dim, dtype=bool)
        for a in (omega, lam, white, flow) + (() if r is None else (r,)):
            reach |= (a != 0) | (a.T != 0)
        for _ in range(dim.bit_length()):
            reach = (reach.astype(float) @ reach) > 0
        blocks = np.unique(reach, axis=0)
        assert len(blocks) == len(halves)
        want = np.sort(np.concatenate([
            sp._two_sided(*(a[np.ix_(b, b)] for a in (omega, lam, white, flow)))
            for b in map(np.flatnonzero, blocks)]))[::-1]
        assert np.array_equal(sp.mode_frequencies(omega, r, lam), want)

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_empty_or_odd_phase_space_refused(self, dim):
        # The CLI passes 2N coordinates, and a terminal form only when it is
        # not empty: only a direct caller meets this refusal.
        with pytest.raises(ArithmeticError, match=f"^a {dim}-dimensional phase space has no "
                                                  "normal-mode pairs$"):
            sp.mode_frequencies(np.eye(dim))

    @pytest.mark.parametrize("model", [dyn.OscillatorModel(m=1.0, kappa=0.0),
                                       dyn.OscillatorModel(m=1.0, Evec=(1.0, 0.0))])
    def test_hessian_not_positive_definite_refused(self, model):
        with pytest.raises(ValueError, match="not positive definite"):
            sp.hessian_factor(model.hessian(2))


def _off_constraint_rows(model, B, eps):
    """Columns (omega_plus, omega_minus, fast_amplitude) of `_scan_rows` at
    each eps, on the Omega stack of `chi_limit_scan` but from a start off
    the limiting constraint, whose O(1) fast amplitude no row refuses."""
    eps = np.asarray(eps, dtype=float)
    omega = np.repeat(st.build_omega(st.field_config_n2(B, 0.0))[None], eps.size, axis=0)
    c = (eps * eps - 1.0) / B
    omega[:, 2, 3], omega[:, 3, 2] = c, -c
    return sp._scan_rows(omega, sp.hessian_factor(model.hessian(2)),
                         np.array([1.0, 0.0, 0.3, 0.8]))


class TestLimitScan:
    def test_rows_strictly_decreasing(self):
        rows = sp.chi_limit_scan(UNIT, 1.0, [1e-2, 1e-1, 1e-3])
        assert rows.shape == (3, 5) and rows.dtype == np.float64
        assert rows[:, 0].tolist() == [1e-1, 1e-2, 1e-3]

    def test_single_row_at_unit_epsilon_matches_direct_call(self):
        rows = sp.chi_limit_scan(UNIT, 1.0, [1.0])
        fr = cf.n2_frequencies(UNIT, 1.0, 0.0)  # C = (1 - 1)/B = 0
        assert rows[0, 1] == pytest.approx(fr.omega_plus, rel=1e-14)
        assert rows[0, 2] == pytest.approx(fr.omega_minus, rel=1e-14)

    def test_slow_frequency_limit(self):
        rows = sp.chi_limit_scan(UNIT, 1.0, [1e-3])
        assert abs(rows[0, 2] - 0.5) <= 5e-6

    def test_slow_frequency_quadratic_order(self):
        eps = np.geomspace(1e-1, 1e-3, 9)
        rows = sp.chi_limit_scan(UNIT, 1.0, eps)
        errors = np.abs(rows[:, 2] - rows[:, 3])
        assert cf.loglog_slope(eps, errors) == pytest.approx(2.0, abs=0.1)

    def test_error_shrinks_fourfold_under_halving(self):
        rows = sp.chi_limit_scan(UNIT, 1.0, [2e-2, 1e-2])
        e_big, e_small = np.abs(rows[:, 2] - 0.5)
        assert e_big / e_small == pytest.approx(4.0, rel=0.2)

    def test_extrapolated_intercept(self):
        eps = np.geomspace(1e-2, 1e-3, 5)
        rows = sp.chi_limit_scan(UNIT, 1.0, eps)
        coeffs = np.polyfit(rows[:, 0] ** 2, rows[:, 2], 1)
        assert abs(coeffs[1] - 0.5) <= 1e-6

    def test_fast_frequency_scaling(self):
        rows = sp.chi_limit_scan(UNIT, 1.0, np.geomspace(1e-2, 1e-3, 5))
        values = rows[:, 1] * rows[:, 0] ** 2
        assert (max(values) - min(values)) / np.mean(values) < 0.01
        # Constant is omega0 (1 + c0^2)/|c0| with c0 = -1.
        assert values[-1] == pytest.approx(2.0, rel=1e-4)

    def test_fast_amplitude_true_quadratic_order(self):
        # On-constraint initial data cancels the O(eps) fast-mode content
        # that an O(eps) offset from the constraint would excite, so the
        # amplitude is (m kappa)^2 / (B^2 + m kappa)^2 eps^2 + O(eps^4);
        # see notes/decisions.md.  TestLimitScanOracle checks the value
        # against an independent mpmath eigendecomposition.
        eps = np.geomspace(1e-1, 1e-3, 9)
        rows = sp.chi_limit_scan(UNIT, 1.0, eps)
        assert cf.loglog_slope(eps, rows[:, 4]) == pytest.approx(2.0, abs=0.05)

    def test_off_constraint_amplitude_is_order_one(self):
        eps = np.geomspace(1e-1, 1e-3, 5)
        rows = _off_constraint_rows(UNIT, 1.0, eps)
        assert abs(cf.loglog_slope(eps, rows[:, 2])) < 0.05

    def test_requires_positive_orientation(self):
        with pytest.raises(ValueError):
            sp.chi_limit_scan(UNIT, -1.0, [0.1])

    def test_batched_rows_equal_single_row_scans(self):
        model = dyn.OscillatorModel(m=0.7, kappa=1.3)
        rows = sp.chi_limit_scan(model, 2.0, np.geomspace(1e-1, 1e-3, 1000))
        for row in rows[::7]:
            assert np.array_equal(sp.chi_limit_scan(model, 2.0, [row[0]]), row[None])

    @settings(max_examples=100, deadline=None)
    @given(m=hst.floats(0.1, 10.0), kappa=hst.floats(0.1, 10.0), B=hst.floats(0.1, 10.0),
           eps=hst.floats(1e-3, 1.0))
    def test_frequencies_match_mpmath_at_the_rows_c(self, m, kappa, B, eps):
        row, = _off_constraint_rows(dyn.OscillatorModel(m=m, kappa=kappa), B, [eps])
        want = _mpmath_planar_frequencies(B, (eps * eps - 1.0) / B, m, kappa)
        assert rel_err(row[:2], want) <= 1e-14

    def test_lambda_keeps_the_rounding_of_chi_out(self):
        # A dense float64 inverse of Omega carries the rounding of 1 + B C:
        # 3.0e-11 in omega_plus at eps = 1e-3 and 3.3e-8 at 3e-5 here.
        model = dyn.OscillatorModel(m=2.0, kappa=2.0)
        eps = [1e-3, 1.7e-4, 3e-5]
        for e, row in zip(eps, _off_constraint_rows(model, 0.3, eps)):
            want = _mpmath_planar_frequencies(0.3, (e ** 2 - 1.0) / 0.3, 2.0, 2.0)
            assert rel_err(row[:2], want) <= 1e-14

    def test_first_failing_row_is_named(self):
        # The batched pass fails as a whole; the error names the largest
        # epsilon whose own single-row scan fails.
        eps = np.geomspace(1e-1, 1e-9, 200).tolist()
        for first in eps:
            try:
                sp.chi_limit_scan(UNIT, 1.0, [first])
            except ArithmeticError:
                break
        with pytest.raises(ArithmeticError) as info:
            sp.chi_limit_scan(UNIT, 1.0, eps)
        assert str(info.value).startswith(f"limit scan at epsilon = {first!r}: ")

    def test_meeting_modes_refused(self):
        # eps^2 = 1 + B^2 / (m kappa) exactly: omega_plus = omega_minus, and
        # the fast plane is not defined.
        with pytest.raises(ArithmeticError, match=r"^limit scan at epsilon = 3\.0: the fast "
                                                  "amplitude's error estimate "):
            sp.chi_limit_scan(dyn.OscillatorModel(m=0.5, kappa=1.0), 2.0, [3.0])

    def test_no_stacked_eigensolve(self, monkeypatch):
        # The frequencies and the projector are closed forms on the whole
        # stack; only the omega_r target solves one matrix.
        stacked = []

        def counted(solve):
            def wrapper(a, *args, **kwargs):
                if np.ndim(a) > 2:
                    stacked.append(solve.__name__)
                return solve(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        rows = sp.chi_limit_scan(UNIT, 1.0, np.geomspace(1e-1, 1e-3, 1000))
        assert rows.shape == (1000, 5) and stacked == []

    def test_singular_omega_refused(self):
        # eps = 1e-9: C B rounds to -1, so chi = 0 and Omega is singular.
        assert 1.0 + 1.0 * ((1e-9 * 1e-9 - 1.0) / 1.0) == 0.0
        with pytest.raises(ArithmeticError, match="^limit scan at epsilon = 1e-09: Omega "
                                                  "is singular in double precision$"):
            sp.chi_limit_scan(UNIT, 1.0, [1e-9])


# The (m, kappa, B) triples checked against the 60-digit oracle.
ORACLE_TRIPLES = [(1.0, 1.0, 1.0), (0.7, 1.3, 2.0), (2.0, 2.0, 0.3)]


def _oracle_error(m, kappa, B, row):
    """Relative error of a row's fast amplitude against the oracle at the
    float C = (eps^2 - 1)/B that the scan itself uses."""
    eps, amplitude = row[0], row[4]
    C = (eps * eps - 1.0) / B
    want, counter = cf.fast_q_coeffs_mpmath(m, kappa, B, eps, C)
    assert counter <= 1e-40 * want
    return abs(amplitude - float(want)) / float(want)


class TestLimitScanOracle:
    @pytest.mark.parametrize("m, kappa, B", ORACLE_TRIPLES)
    def test_fast_amplitude_matches_mpmath_eigendecomposition(self, m, kappa, B):
        eps = np.geomspace(1e-1, 1e-3, 9)
        rows = sp.chi_limit_scan(dyn.OscillatorModel(m=m, kappa=kappa), B, eps)
        assert max(_oracle_error(m, kappa, B, r) for r in rows) <= 1e-8

    @pytest.mark.parametrize("m, kappa, B", ORACLE_TRIPLES)
    def test_fast_amplitude_at_eps_1e_4(self, m, kappa, B):
        # The projector's relative error grows like eps_mach / eps^2; that
        # of the closed form it replaced grew like eps_mach / eps^3.
        row, = sp.chi_limit_scan(dyn.OscillatorModel(m=m, kappa=kappa), B, [1e-4])
        assert _oracle_error(m, kappa, B, row) <= 1e-6

    @pytest.mark.parametrize("m, kappa, B", ORACLE_TRIPLES)
    def test_small_eps_rows_accurate_or_refused(self, m, kappa, B):
        model = dyn.OscillatorModel(m=m, kappa=kappa)
        for eps in np.geomspace(1e-1, 1e-5, 9).tolist():
            try:
                row, = sp.chi_limit_scan(model, B, [eps])
            except ArithmeticError as exc:
                assert str(exc).startswith(f"limit scan at epsilon = {eps!r}: the fast "
                                           "amplitude's error estimate ")
                continue
            assert _oracle_error(m, kappa, B, row) <= sp.AMPLITUDE_ACCURACY

    def test_benchmark_scan_rows_against_mpmath(self):
        # The 1000-point scan of the benchmark, at 60 rows spread over it.
        # The eigenvector projection this replaced was within 6.7e-10 of the
        # oracle here; the polynomial projector is within 7.8e-11.
        rows = sp.chi_limit_scan(UNIT, 1.0, np.geomspace(1e-1, 1e-3, 1000))
        sample = rows[np.linspace(0, len(rows) - 1, 60).astype(int)]
        assert max(_oracle_error(1.0, 1.0, 1.0, row) for row in sample) <= 2e-10
        for row in sample:
            want = _mpmath_planar_frequencies(1.0, row[0] * row[0] - 1.0)
            assert rel_err(row[1:3], want) <= 1e-14

    @pytest.mark.parametrize("m, kappa, B", [(1.0, 1.0, 1.0), (1.0, 3.0, 0.5),
                                             (0.7, 1.3, 2.0), (2.0, 2.0, 0.3)])
    def test_oracle_limit_is_closed_form_prefactor(self, m, kappa, B):
        amp, _ = cf.fast_q_coeffs_mpmath(m, kappa, B, "1e-8")
        want = (m * kappa) ** 2 / (B**2 + m * kappa) ** 2
        assert abs(float(amp) / 1e-8**2 - want) <= 1e-12 * want


# An entry of a random antisymmetric matrix, spread over 2^+-60.
_ENTRY = hst.tuples(hst.floats(-1.0, 1.0), hst.integers(-60, 60)).map(lambda t: math.ldexp(*t))


class TestPlanarRoots:
    """The so(4) closed form against LAPACK's Hermitian eigenvalues."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hst.lists(hst.tuples(hst.lists(_ENTRY, min_size=6, max_size=6),
                                hst.integers(-900, 900)), min_size=1, max_size=8))
    def test_match_eigvalsh(self, matrices):
        a = np.zeros((len(matrices), 4, 4))
        for block, (entries, scale) in zip(a, matrices):
            block[np.triu_indices(4, 1)] = np.ldexp(entries, scale)
        a -= a.swapaxes(-1, -2)
        roots = sp.planar_roots(a)
        want = np.linalg.eigvalsh(1j * a)[..., 2:][..., ::-1]
        assert np.isfinite(roots).all()
        size = np.abs(a).max((-2, -1), keepdims=True)[..., 0]
        assert (np.abs(roots - want) <= 16 * np.finfo(float).eps * size).all()

    def test_block_diagonal(self):
        # Two planes rotating at 3 and 2^-30: the roots are exact.
        a = np.zeros((4, 4))
        a[0, 1], a[2, 3] = 3.0, 2.0**-30
        assert sp.planar_roots(a - a.T).tolist() == [3.0, 2.0**-30]


def _sorted_ladder(freqs, hbar, nmax):
    """Reference order: Python's sorted() on (energy, n) over the same energies."""
    ns = list(itertools.product(range(nmax + 1), repeat=len(freqs)))
    energies = hbar * (np.array(ns) + 0.5) @ np.asarray(freqs)
    return tuple(sorted(((n, float(e)) for n, e in zip(ns, energies)),
                        key=lambda item: (item[1], item[0])))


class TestLadderOrderAtTies:
    """The numpy lexsort must break exact energy ties by n, as sorted() does."""

    @pytest.mark.parametrize("nmax", [0, 1, 7])
    @pytest.mark.parametrize("freqs", [
        (1.0,), (1.0, 1.0), (1.0, 1.0, 1.0),  # isotropic: exact ties
        (0.5, 1.0), (0.5, 1.0, 1.5),          # commensurate: exact ties across modes
    ])
    def test_ladder_matches_sorted(self, freqs, nmax):
        table = sp.ladder(freqs, 1.0, nmax)
        assert tuple(zip(map(tuple, table.quanta.tolist()), table.energies.tolist())) == _sorted_ladder(freqs, 1.0, nmax)
        assert len(table.energies) == (nmax + 1) ** len(freqs)

    @pytest.mark.parametrize("nmax", [0, 1, 7])
    @pytest.mark.parametrize("build", [
        lambda nmax: cf.spectrum_degenerate_n2(UNIT, -1.0, nmax),
        lambda nmax: cf.spectrum_n2(UNIT, 0.0, 0.0, nmax),     # isotropic
        lambda nmax: cf.spectrum_n2(UNIT, 1.0, 1.0, nmax),     # balanced: 1 ulp apart
        lambda nmax: cf.spectrum_n3_parallel(UNIT, 0.0, 0.0, nmax),
        lambda nmax: cf.spectrum_n3_parallel(UNIT, 1.0, 1.0, nmax),
        lambda nmax: sp.ladder(core(st.field_config_n2(1.0, 1.0)), 1.0, nmax),
        lambda nmax: sp.ladder(core(st.field_config_n3([0, 0, 0.0], [0, 0, 0.0])), 1.0, nmax),
    ], ids=["degenerate", "planar-isotropic", "planar-balanced", "axial-isotropic",
            "axial-balanced", "core-planar-balanced", "core-axial-isotropic"])
    def test_spectra_match_sorted(self, build, nmax):
        table = build(nmax)
        levels = tuple(zip(map(tuple, table.quanta.tolist()), table.energies.tolist()))
        assert levels == _sorted_ladder(table.frequencies, table.hbar, nmax)
        assert all(type(e) is float and all(type(k) is int for k in n) for n, e in levels)
