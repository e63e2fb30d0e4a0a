import json

import numpy as np
import pytest
from scipy.linalg import expm

from ncphase import cli
from ncphase import darboux as dx
from ncphase import dynamics as dyn
from ncphase import structure as st
from ncphase.errors import SingularOmega, StepRejected

import closed_forms as cf

UNIT = dyn.OscillatorModel(m=1.0, kappa=1.0)
GOLDEN_PLUS = (np.sqrt(5) + 1) / 2
GOLDEN_MINUS = (np.sqrt(5) - 1) / 2


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            dyn.OscillatorModel(m=0.0, kappa=1.0)
        with pytest.raises(ValueError):
            dyn.OscillatorModel(m=1.0, kappa=-1.0)
        with pytest.raises(ValueError):
            dyn.OscillatorModel(m=1.0, potential="linear")
        with pytest.raises(ValueError):
            dyn.OscillatorModel(m=1.0, kappa=1.0, hbar=0.0)

    def test_hamiltonian_and_gradient(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        assert UNIT.hamiltonian(z) == pytest.approx(0.5 * (1 + 4) + 0.5 * (9 + 16))
        assert np.allclose(UNIT.hessian(2) @ z + UNIT.gradient_offset(2), z)
        lin = dyn.OscillatorModel(m=2.0, potential="linear", Evec=(1.0, 0.0))
        assert lin.hamiltonian(z) == pytest.approx((9 + 16) / 4 - 1.0)
        assert np.allclose(lin.hessian(2) @ z + lin.gradient_offset(2), [-1.0, 0.0, 1.5, 2.0])


class TestEquationsOfMotion:
    """`flow_matrix` against the Psi/Phi solve of the closed-form oracle."""

    def test_plain_oscillator(self):
        cfg = st.field_config_n2(0.0, 0.0)
        z = np.array([1.0, 0.0, 0.0, 0.0])
        M, k = dyn.flow_matrix(cfg, UNIT)
        assert np.allclose(M @ z + k, [0, 0, -1, 0], atol=1e-15)
        assert np.allclose(cf.hamiltonian_vector_field(cfg, UNIT.hessian(2) @ z),
                           [0, 0, -1, 0], atol=1e-15)

    def test_matches_poisson_product(self):
        cfg = st.field_config_n2(1.0, 1.0)
        z = np.array([1.0, 0.0, 0.0, 1.0])
        M, k = dyn.flow_matrix(cfg, UNIT)
        closed = cf.hamiltonian_vector_field(cfg, UNIT.hessian(2) @ z)
        assert np.abs(closed - (M @ z + k)).max() < 1e-10

    def test_linear_potential_against_poisson_product(self):
        model = dyn.OscillatorModel(m=1.0, potential="linear", Evec=(1.0, 0.0))
        cfg = st.field_config_n2(0.6, 0.4)
        z = np.array([0.2, -0.1, 0.0, 0.0])
        M, k = dyn.flow_matrix(cfg, model)
        closed = cf.hamiltonian_vector_field(cfg, model.hessian(2) @ z + model.gradient_offset(2))
        assert np.abs(closed - (M @ z + k)).max() < 1e-12

    def test_singular_raises(self):
        # `simulate` asks `regularity` before it builds the flow.
        with pytest.raises(SingularOmega):
            st.regularity(st.field_config_n2(1.0, -1.0), st.TOL_SINGULAR)


class TestFrequencies:
    def test_commutative_isotropic(self):
        fr = cf.n2_frequencies(UNIT, 0.0, 0.0)
        assert fr.omega0_prime == pytest.approx(1.0)
        assert fr.omegaL_prime == 0.0
        assert fr.omega_plus == pytest.approx(1.0)
        assert fr.omega_minus == pytest.approx(1.0)

    def test_balanced_fields_cancel_rotation(self):
        fr = cf.n2_frequencies(UNIT, 1.0, 1.0)
        assert fr.omegaL_prime == 0.0
        assert fr.omega0_prime == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_worked_point(self):
        fr = cf.n2_frequencies(UNIT, 1.0, 0.0)
        assert fr.omegaL_prime == pytest.approx(0.5, abs=1e-15)
        assert fr.omega0_prime == pytest.approx(np.sqrt(5) / 2, abs=1e-15)
        assert fr.omega_plus == pytest.approx(GOLDEN_PLUS, abs=1e-12)
        assert fr.omega_minus == pytest.approx(GOLDEN_MINUS, abs=1e-12)

    def test_renormalized_product_identity(self):
        rng = np.random.RandomState(12)
        for _ in range(100):
            m, k = rng.uniform(0.5, 2.0, 2)
            B, C = rng.uniform(-2, 2, 2)
            if 1 + B * C <= 1e-3:
                continue
            model = dyn.OscillatorModel(m=float(m), kappa=float(k))
            fr = cf.n2_frequencies(model, B, C)
            # m' w0' = sqrt(m' k') equals the closed form in b, c and u.
            closed = np.sqrt(m * k) * np.sqrt(
                (1 + fr.b**2 / (4 * fr.u**2)) / (1 + fr.c**2 / (4 * fr.u**2))
            )
            assert fr.m_prime_omega0_prime == pytest.approx(closed, rel=1e-12)
            assert fr.omega_plus > 0 and fr.omega_minus > 0

    def test_mode_frequencies_positive(self):
        rng = np.random.RandomState(16)
        produced = 0
        while produced < 1000:
            m, k = rng.uniform(0.5, 2.0, 2)
            B, C = rng.uniform(-2, 2, 2)
            if 1 + B * C <= 1e-4:
                continue
            produced += 1
            fr = cf.n2_frequencies(dyn.OscillatorModel(m=float(m), kappa=float(k)), B, C)
            assert fr.omega_plus > 0
            assert fr.omega_minus > 0

    def test_spectral_cross_check(self):
        rng = np.random.RandomState(13)
        produced = 0
        while produced < 100:
            m, k = rng.uniform(0.5, 2.0, 2)
            B, C = rng.uniform(-2, 2, 2)
            if 1 + B * C <= 1e-4:
                continue
            produced += 1
            model = dyn.OscillatorModel(m=float(m), kappa=float(k))
            fr = cf.n2_frequencies(model, B, C)
            M, _ = dyn.flow_matrix(st.field_config_n2(B, C), model)
            got = np.sort(np.abs(np.linalg.eigvals(M).imag))
            want = np.sort([fr.omega_minus, fr.omega_minus, fr.omega_plus, fr.omega_plus])
            assert np.abs(got - want).max() < 1e-9


class TestClosedFormSolution:
    def test_time_zero_roundtrip(self):
        rng = np.random.RandomState(14)
        for _ in range(20):
            B, C = rng.uniform(-1.5, 1.5, 2)
            if 1 + B * C <= 0.05:
                continue
            z0 = rng.uniform(-1, 1, 4)
            assert np.abs(cf.closed_form_solution_n2(UNIT, B, C, z0, 0.0) - z0).max() < 1e-10

    def test_quarter_period_plain_oscillator(self):
        z = cf.closed_form_solution_n2(UNIT, 0.0, 0.0, [1.0, 0, 0, 0], np.pi / 2)
        assert np.allclose(z, [0.0, 0.0, -1.0, 0.0], atol=1e-14)

    def test_matches_matrix_exponential(self):
        rng = np.random.RandomState(15)
        produced = 0
        while produced < 40:
            m, k = rng.uniform(0.5, 2.0, 2)
            B, C = rng.uniform(-1.5, 1.5, 2)
            if 1 + B * C <= 1e-2:
                continue
            produced += 1
            model = dyn.OscillatorModel(m=float(m), kappa=float(k))
            cfg = st.field_config_n2(B, C)
            M, _ = dyn.flow_matrix(cfg, model)
            z0 = rng.uniform(-1, 1, 4)
            horizon = 20 * 2 * np.pi / np.sqrt(model.kappa / model.m)
            for t in np.linspace(0.0, horizon, 7):
                za = cf.closed_form_solution_n2(model, B, C, z0, t)
                zb = expm(M * t) @ z0
                assert np.abs(za - zb).max() < 1e-8

    def test_vectorized_times(self):
        ts = np.linspace(0, 5, 11)
        out = cf.closed_form_solution_n2(UNIT, 0.5, -0.2, [1, 0, 0, 1], ts)
        assert out.shape == (11, 4)


class TestAngularMomentum:
    """`darboux.lambda3`; with zero fields the moment map is the bilinear
    q^1 p_2 - q^2 p_1 of the state itself."""

    def test_unit_pair(self):
        assert dx.lambda3(st.field_config_n2(0.0, 0.0), [1.0, 0.0, 0.0, 1.0]) == 1.0

    def test_radial_configuration(self):
        assert dx.lambda3(st.field_config_n2(0.0, 0.0), [1.0, 0.0, 1.0, 0.0]) == 0.0

    def test_conserved_along_flow(self):
        cfg = st.field_config_n2(1.0, 0.5)
        z0 = np.array([1.0, -0.3, 0.4, 0.8])
        period = 2 * np.pi  # omega0 = 1
        values = []
        for t in np.linspace(0, 10 * period, 400):
            z = cf.closed_form_solution_n2(UNIT, 1.0, 0.5, z0, t)
            values.append(dx.lambda3(cfg, z))
        assert np.ptp(values) <= 1e-9


class TestN3Parallel:
    """Axis-aligned fields: the transverse sector is the planar case and the
    axial sector keeps the bare frequency omega0."""

    def test_zero_fields(self):
        fr = cf.n2_frequencies(UNIT, 0.0, 0.0)
        assert fr.m_prime == pytest.approx(1.0)
        assert fr.kappa_prime == pytest.approx(1.0)
        assert fr.omega0_prime == pytest.approx(1.0)
        assert fr.omega0 == pytest.approx(1.0)
        assert fr.omegaL_prime == 0.0

    def test_transverse_sector_is_planar_case(self):
        # The N = 3 flow is the planar flow on (q1, q2, p1, p2) and the bare
        # oscillator on (q3, p3), with no coupling between the two.
        M3, _ = dyn.flow_matrix(st.field_config_n3([0, 0, 1.0], [0, 0, 0.5]), UNIT)
        M2, _ = dyn.flow_matrix(st.field_config_n2(1.0, 0.5), UNIT)
        transverse, axial = [0, 1, 3, 4], [2, 5]
        assert np.abs(M3[np.ix_(transverse, transverse)] - M2).max() <= 1e-15
        assert np.array_equal(M3[np.ix_(axial, axial)], [[0.0, 1.0], [-1.0, 0.0]])
        assert not M3[np.ix_(transverse, axial)].any()
        assert not M3[np.ix_(axial, transverse)].any()

    def test_balanced_fields(self):
        fr = cf.n2_frequencies(UNIT, 1.0, 1.0)
        assert fr.omegaL_prime == 0.0
        assert fr.omega0_prime == pytest.approx(1 / np.sqrt(2))

    def test_flow_spectrum_decomposes(self):
        fr = cf.n2_frequencies(UNIT, 1.0, 0.0)
        cfg = st.field_config_n3([0, 0, 1.0], [0, 0, 0.0])
        M, _ = dyn.flow_matrix(cfg, UNIT)
        got = np.sort(np.abs(np.linalg.eigvals(M).imag))
        want = np.sort([fr.omega_minus, fr.omega_minus, fr.omega_plus, fr.omega_plus,
                        fr.omega0, fr.omega0])
        assert np.abs(got - want).max() < 1e-9

    def test_axial_angular_momentum_conserved(self):
        cfg = st.field_config_n3([0, 0, 1.0], [0, 0, 0.5])
        z0 = np.array([1.0, 0.0, 0.3, 0.0, 0.7, -0.2])
        states = dyn.affine_flow(*dyn.flow_matrix(cfg, UNIT), z0, 0.02, 4000, "exact")
        lam3 = dx.lambda3(cfg, states)
        assert lam3 is not None
        assert np.ptp(lam3) <= 1e-9


class TestLambda3Chart:
    """The Lambda3 column needs no chart: it is the rotation's moment map
    wherever the fields commute with the rotation."""

    @pytest.mark.parametrize("cfg", [
        st.field_config_n2(1e150, 1e300),           # chi = +inf
        st.field_config_n2(-1e300, 1e150),          # chi = -inf
        st.field_config_n3([0, 0, 1e300], [0, 0, 1e300]),
    ], ids=["planar-plus-inf", "planar-minus-inf", "axial"])
    def test_no_chart_without_finite_coefficients(self, cfg):
        # chi = 1 + C.B is +-inf: the paper's chart has no finite
        # coefficients, but the moment map is finite and agrees with
        # mpmath.  RuntimeWarnings are errors under pytest.
        assert cf.closed_form_chart(cfg) is None
        states = np.ones((1, 2 * cfg.N))
        got = dx.lambda3(cfg, states)
        assert (np.abs(got - cf.moment_map_mpmath(cfg, states))
                <= 8 * np.finfo(float).eps * cf.moment_map_scale(cfg, states)).all()

    def test_chart_of_finite_coefficients_kept(self):
        def has_column(cfg):
            return dx.lambda3(cfg, np.ones(2 * cfg.N)) is not None

        assert has_column(st.field_config_n2(1e100, 1e100))
        assert has_column(st.field_config_n3([0, 0, 2.0], [0, 0, 0.5]))
        assert not has_column(st.field_config_n3([1.0, 0, 0], [0, 0, 0.5]))
        # Beyond N = 3 there is no closed-form chart, but zero fields
        # commute with the rotation.
        assert has_column(st.FieldConfig(6, np.zeros((6, 6)), np.zeros((6, 6))))


class TestIntegrate:
    """The regular flow through the core calls,
    `affine_flow(*flow_matrix(cfg, model), z0, dt, steps, method)`."""

    def test_exact_energy_conservation(self):
        cfg = st.field_config_n2(1.0, 1.0)
        states = dyn.affine_flow(*dyn.flow_matrix(cfg, UNIT), [1.0, 0.0, 0.0, 1.0],
                                 0.05, 10000, "exact")
        energies = UNIT.hamiltonian(states)
        drift = np.abs(energies - energies[0]).max()
        assert drift <= 1e-10 * abs(energies[0])

    def test_midpoint_second_order(self):
        cfg = st.field_config_n2(1.0, 0.5)
        M, k = dyn.flow_matrix(cfg, UNIT)
        z0 = [1.0, 0.0, 0.0, 0.0]
        ref = dyn.affine_flow(M, k, z0, 0.01, 200, "exact")[-1]
        e1 = np.abs(dyn.affine_flow(M, k, z0, 0.01, 200, "midpoint")[-1] - ref).max()
        e2 = np.abs(dyn.affine_flow(M, k, z0, 0.005, 400, "midpoint")[-1] - ref).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.1)

    def test_free_particle_exact_drift(self):
        free = dyn.OscillatorModel(m=2.0, kappa=0.0)
        cfg = st.field_config_n2(0.0, 0.0)
        for method in ("exact", "midpoint"):
            states = dyn.affine_flow(*dyn.flow_matrix(cfg, free), [0.0, 0.0, 1.0, 0.0],
                                     0.1, 10, method)
            assert np.allclose(states[-1], [0.5, 0.0, 1.0, 0.0], atol=1e-14)

    def test_midpoint_long_energy_drift(self):
        cfg = st.field_config_n2(0.7, -0.2)
        states = dyn.affine_flow(*dyn.flow_matrix(cfg, UNIT), [1.0, 0.2, -0.3, 0.4],
                                 0.05, 100000, "midpoint")
        energies = UNIT.hamiltonian(states)
        rel = np.abs(energies - energies[0]).max() / abs(energies[0])
        assert rel <= 1e-9

    def test_constant_force_drift(self):
        # Affine part of the generator: exact propagation conserves H and
        # the midpoint rule converges to it at second order.
        model = dyn.OscillatorModel(m=1.0, potential="linear", Evec=(1.0, 0.0))
        cfg = st.field_config_n2(0.8, 0.3)
        z0 = [0.1, -0.2, 0.4, 0.0]
        M, k = dyn.flow_matrix(cfg, model)
        exact = dyn.affine_flow(M, k, z0, 0.02, 500, "exact")
        energies = model.hamiltonian(exact)
        drift = np.abs(energies - energies[0]).max()
        assert drift <= 1e-10
        ref = exact[-1]
        e1 = np.abs(dyn.affine_flow(M, k, z0, 0.02, 500, "midpoint")[-1] - ref).max()
        e2 = np.abs(dyn.affine_flow(M, k, z0, 0.01, 1000, "midpoint")[-1] - ref).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.1)

    def test_times_strictly_increasing(self, tmp_path):
        # The t column that `simulate` writes next to the flow's rows.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema_version": 1, "N": 2, "field": {"B": 0.0, "C": 0.0},
            "model": {"m": 1.0, "kappa": 1.0}, "state": [1.0, 0, 0, 0],
            "time": {"t_final": 0.5, "dt": 0.1}}))
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        times = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        assert times.size == 6
        assert np.all(np.diff(times) > 0)

    def test_step_rejection_on_real_spectrum(self):
        # The in-scope flows have purely imaginary spectra, so the midpoint
        # resolvent never degenerates for them; the guard is exercised on a
        # crafted generator with a real eigenvalue pair.
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(StepRejected) as err:
            dyn.midpoint_transfer(M, np.zeros(2), 2.0)
        assert err.value.suggested_dt == pytest.approx(1.0)

    def test_bad_arguments(self):
        cfg = st.field_config_n2(0.0, 0.0)
        M, k = dyn.flow_matrix(cfg, UNIT)
        with pytest.raises(ValueError):
            dyn.affine_flow(M, k, [1, 0, 0, 0], -0.1, 10)
        with pytest.raises(ValueError):
            dyn.affine_flow(M, k, [1, 0, 0, 0], 0.1, 10, "verlet")


def _block_size(steps):
    return 1 << ((steps + 1).bit_length() // 2)


def _one_step_e(cfg, model, dt, method):
    """E = [[P - I, d], [0, 0]] of the one-step map, as `affine_flow` builds it."""
    M, k = dyn.flow_matrix(cfg, model)
    if method == "midpoint":
        return dyn.midpoint_transfer(M, k, dt)
    n = M.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = M * dt
    aug[:n, n] = k * dt
    return dyn.expm_minus_identity(aug)


def _sequential(e, z0, steps):
    # The plain loop z <- P z + d that the blocked stepping replaces.
    n = e.shape[0] - 1
    f = e + np.eye(n + 1)
    p, d = f[:n, :n], f[:n, n]
    out = np.empty((steps + 1, n))
    z = out[0] = np.asarray(z0, dtype=float)
    for i in range(steps):
        z = p @ z + d
        out[i + 1] = z
    return out


LINEAR = dyn.OscillatorModel(m=1.3, potential="linear", Evec=(0.4, -0.7))
BLOCK_CASES = [
    (st.field_config_n2(1.0, 0.5), UNIT, [1.0, 0.0, 0.0, 1.0]),
    (st.field_config_n2(0.8, 0.3), LINEAR, [0.1, -0.2, 0.4, 0.0]),
    (st.field_config_n3(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.5])), UNIT,
     [1.0, 0.0, 0.5, 0.0, 1.0, 0.2]),
]


class TestBlockedStepping:
    """`affine_rows` steps rows 0..b-1 one at a time and later blocks of b
    rows by the b-step map, b = 2^floor(bitlen(steps + 1) / 2)."""

    def test_exact_e_form_is_expm_minus_identity(self):
        cfg, model, _ = BLOCK_CASES[1]
        e = _one_step_e(cfg, model, 0.01, "exact")
        M, k = dyn.flow_matrix(cfg, model)
        aug = np.zeros((5, 5))
        aug[:4, :4], aug[:4, 4] = M * 0.01, k * 0.01
        assert np.array_equal(e, dyn.expm_minus_identity(aug))

    @pytest.mark.parametrize("method", ["exact", "midpoint"])
    @pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
    def test_first_block_is_the_sequential_loop(self, case, method):
        cfg, model, z0 = BLOCK_CASES[case]
        steps = 5000
        b = _block_size(steps)
        states = dyn.affine_flow(*dyn.flow_matrix(cfg, model), z0, 0.01, steps, method)
        seq = _sequential(_one_step_e(cfg, model, 0.01, method), z0, b - 1)
        assert np.array_equal(states[:b], seq)

    @pytest.mark.parametrize("method", ["exact", "midpoint"])
    def test_edge_step_counts(self, method):
        cfg, model, z0 = BLOCK_CASES[1]
        e = _one_step_e(cfg, model, 0.05, method)
        b = _block_size(200)
        counts = sorted({0, 1, 2, 3, b - 1, b, b + 1, 63, 64, 65, 200})
        # Some counts leave a partial last block.
        assert any((s + 1) % _block_size(s) for s in counts)
        for steps in counts:
            got = dyn.affine_rows(e, z0, steps)
            seq = _sequential(e, z0, steps)
            assert got.shape == (steps + 1, 4)
            assert np.array_equal(got[0], z0)
            first = min(_block_size(steps), steps + 1)
            assert np.array_equal(got[:first], seq[:first]), steps
            assert np.abs(got - seq).max() <= 1e-13 * np.abs(seq).max(), steps

    def test_planar_exact_100k_steps_against_closed_form(self):
        # The benchmark's planar config.  The plain step loop, 10^5
        # roundings to the last row, was 2.9e-12 away; blocked stepping
        # takes at most 645 and is about 1.3e-13 away.
        z0 = [1.0, 0.0, 0.0, 1.0]
        states = dyn.affine_flow(*dyn.flow_matrix(st.field_config_n2(1.0, 0.5), UNIT),
                                 z0, 0.01, 100_000)
        ref = cf.closed_form_solution_n2(UNIT, 1.0, 0.5, z0, 0.01 * np.arange(100_001))
        assert np.abs(states - ref).max() <= 1e-12

    @pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
    def test_blocked_midpoint_matches_sequential_loop(self, case):
        cfg, model, z0 = BLOCK_CASES[case]
        steps = 10_000
        states = dyn.affine_flow(*dyn.flow_matrix(cfg, model), z0, 0.01, steps, "midpoint")
        seq = _sequential(_one_step_e(cfg, model, 0.01, "midpoint"), z0, steps)
        assert np.abs(states - seq).max() <= 1e-12 * max(1.0, np.abs(seq).max())
