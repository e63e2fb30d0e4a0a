import numpy as np
import pytest

from ncphase import constrained as con
from ncphase import dynamics as dyn
from ncphase import structure as st
from ncphase.errors import InconsistentSystem, OffConstraint

import closed_forms as cf

UNIT = dyn.OscillatorModel(m=1.0, kappa=1.0)
DEGENERATE = st.field_config_n2(1.0, -1.0)  # chi = 0
ON_M2 = np.array([1.0, 0.0, 0.0, 1.0])       # p = i q in complex form


class TestKernel:
    def test_nondegenerate_empty(self):
        z = con.kernel(st.build_omega(st.field_config_n2(0.0, 0.0)))
        assert z.shape == (4, 0)

    def test_planar_degenerate_dimension_two(self):
        omega = st.build_omega(DEGENERATE)
        z = con.kernel(omega)
        assert z.shape[1] == 2
        assert np.abs(omega @ z).max() <= 1e-12
        # Complex characterization U0 + i C V0 = 0 with C = -1.
        for j in range(2):
            u0 = complex(z[0, j], z[1, j])
            v0 = complex(z[2, j], z[3, j])
            assert abs(u0 - 1j * v0) <= 1e-12

    def test_n3_transverse_kernel(self):
        omega = st.build_omega(st.field_config_n3([0, 0, 2.0], [0, 0, -0.5]))
        z = con.kernel(omega)
        assert z.shape[1] == 2
        # Kernel directions avoid the axial coordinates q3, p3.
        assert np.abs(z[[2, 5], :]).max() <= 1e-12

    def test_orthonormal_basis(self):
        z = con.kernel(st.build_omega(DEGENERATE))
        assert np.allclose(z.T @ z, np.eye(2), atol=1e-12)


class TestSecondaryConstraints:
    def test_planar_harmonic_rows(self):
        lc = cf.secondary_constraints(DEGENERATE, UNIT)
        assert lc.matrix.shape == (2, 4)
        assert np.abs(lc.offset).max() == 0.0
        # Row space equals span{q1 - p2, q2 + p1} (fixed by the kernel).
        target = np.array([[1.0, 0, 0, -1], [0, 1.0, 1.0, 0]])
        p_rows = np.linalg.pinv(lc.matrix) @ lc.matrix
        p_target = np.linalg.pinv(target) @ target
        assert np.abs(p_rows - p_target).max() <= 1e-12

    def test_on_constraint_state_has_zero_residual(self):
        lc = cf.secondary_constraints(DEGENERATE, UNIT)
        assert lc.residual(ON_M2) <= 1e-12

    def test_linear_potential_offsets(self):
        model = dyn.OscillatorModel(m=1.0, potential="linear", Evec=(1.0, 0.0))
        lc = cf.secondary_constraints(DEGENERATE, model)
        # Gradient offset feeds a state-independent part; momentum block
        # still carries the z-dependence.
        assert np.abs(lc.offset).max() > 0.1
        assert np.abs(lc.matrix[:, :2]).max() == 0.0
        assert np.abs(lc.matrix[:, 2:]).max() > 0.1

    def test_nondegenerate_raises(self):
        with pytest.raises(cf.NoKernel):
            cf.secondary_constraints(st.field_config_n2(1.0, 1.0), UNIT)


class TestGnhChain:
    def test_nondegenerate_single_link(self):
        cfg = st.field_config_n2(1.0, 1.0)
        chain = cf.gnh_from_model(cfg, UNIT)
        assert chain.dimensions == [4]
        assert chain.status == "consistent"
        M, _ = dyn.flow_matrix(cfg, UNIT)
        assert np.abs(chain.reduced_flow - M).max() <= 1e-10

    def test_planar_degenerate_harmonic(self):
        chain = cf.gnh_from_model(DEGENERATE, UNIT)
        assert chain.dimensions == [4, 2]
        eig = chain.terminal_eigenvalues()
        assert np.abs(np.sort(eig.imag) - np.array([-0.5, 0.5])).max() <= 1e-10
        assert np.abs(eig.real).max() <= 1e-10

    def test_terminal_flow_tangent(self):
        chain = cf.gnh_from_model(DEGENERATE, UNIT)
        v = chain.subspaces[-1]
        off_block = (np.eye(4) - v @ v.T) @ (chain.reduced_flow @ v)
        assert np.abs(off_block).max() <= 1e-10

    def test_terminal_matches_secondary_constraints(self):
        chain = cf.gnh_from_model(DEGENERATE, UNIT)
        lc = cf.secondary_constraints(DEGENERATE, UNIT)
        v = chain.subspaces[-1]
        assert np.abs(lc.matrix @ v).max() <= 1e-10

    def test_free_particle_chain(self):
        free = dyn.OscillatorModel(m=1.0, kappa=0.0)
        chain = cf.gnh_from_model(DEGENERATE, free)
        assert chain.dimensions == [4, 2]
        v = chain.subspaces[-1]
        # Terminal stage is {p = 0} with vanishing flow.
        assert np.abs(v[2:, :]).max() <= 1e-12
        assert np.abs(chain.reduced_flow @ v).max() <= 1e-12

    def test_restricted_form_nondegenerate_on_terminal(self):
        chain = cf.gnh_from_model(DEGENERATE, UNIT)
        v = chain.subspaces[-1]
        restricted = v.T @ st.build_omega(DEGENERATE) @ v
        assert np.linalg.matrix_rank(restricted) == 2

    def test_inconsistent_system(self):
        omega = st.build_omega(DEGENERATE)
        # H with zero Hessian but a gradient that pairs with the kernel:
        # the solvability rows become 0 = const != 0.
        with pytest.raises(InconsistentSystem) as err:
            con.gnh_chain(omega, np.zeros((4, 4)), np.array([1.0, 0.0, 0.0, 0.0]))
        assert err.value.chain.status == "inconsistent"

    def test_rank_loss_in_chain_exits_instead_of_looping(self):
        # The relative SVD cutoff dropped rows of the accumulated constraints
        # once the new rows reached ~1e184, so the chain alternated between
        # row counts and never closed, growing without bound.  The Omega and
        # Hessian are those of B = 1e200, C = 1, kappa = 1e200, a regular
        # field, on the raw data (the program builds its chains where
        # Hess H = I, where they are of one scale).
        model = dyn.OscillatorModel(m=1.0, kappa=1e200)
        omega = st.build_omega(st.field_config_n2(1e200, 1.0))
        with pytest.raises(ArithmeticError, match=r"^constraint rows lost rank \(2 -> 1\)"):
            con.gnh_chain(omega, model.hessian(2), np.zeros(4))

    def test_gauge_basis_reported(self):
        free = dyn.OscillatorModel(m=1.0, kappa=0.0)
        chain = cf.gnh_from_model(DEGENERATE, free)
        # On {p = 0} the solution field is unique (gauge fixed by tangency).
        assert chain.gauge_basis.shape[1] == 0

    def test_gauge_freedom_is_the_kernel(self):
        # H = 0 gives no constraint rows: the chain closes on its first
        # pass, and any kernel direction of Omega can be added to X.
        omega = st.build_omega(DEGENERATE)
        chain = con.gnh_chain(omega, np.zeros((4, 4)), np.zeros(4))
        gauge = chain.gauge_basis
        assert chain.dimensions == [4]
        assert gauge.shape == (4, 2)
        assert np.abs(gauge.T @ gauge - np.eye(2)).max() <= 1e-12
        assert np.abs(omega @ gauge).max() <= 1e-12


class TestDegenerateFlow:
    def test_time_zero(self):
        assert np.allclose(cf.degenerate_flow_n2(UNIT, -1.0, ON_M2, 0.0), ON_M2)

    def test_reduced_frequency_value(self):
        assert cf.degenerate_omega_r(UNIT, -1.0) == pytest.approx(0.5, abs=1e-15)

    def test_full_period_return(self):
        period = 2 * np.pi / 0.5
        z = cf.degenerate_flow_n2(UNIT, -1.0, ON_M2, period)
        assert np.abs(z - ON_M2).max() <= 1e-9

    def test_constraints_preserved(self):
        lc = cf.secondary_constraints(DEGENERATE, UNIT)
        times = np.linspace(0.0, 10 / 0.5, 500)
        states = cf.degenerate_flow_n2(UNIT, -1.0, ON_M2, times)
        residuals = [lc.residual(z) for z in states]
        assert max(residuals) <= 1e-9

    def test_off_constraint_rejected(self):
        with pytest.raises(OffConstraint):
            cf.degenerate_flow_n2(UNIT, -1.0, [1.0, 0.0, 0.0, 0.0], 1.0)

    def test_matches_gnh_terminal_flow(self):
        chain = cf.gnh_from_model(DEGENERATE, UNIT)
        dt = 1e-6
        z_plus = cf.degenerate_flow_n2(UNIT, -1.0, ON_M2, dt)
        numeric = (z_plus - ON_M2) / dt
        assert np.abs(numeric - chain.reduced_flow @ ON_M2).max() <= 1e-5


class TestReducedStructure:
    def test_worked_bracket_value(self):
        rs = cf.reduced_structure_n2(UNIT, -1.0)
        assert rs.bracket_qqdag == pytest.approx(0.5j, abs=1e-15)
        assert rs.h_r_coeff == pytest.approx(1.0)
        assert rs.omega_r == pytest.approx(0.5)
        assert rs.B == pytest.approx(1.0)

    def test_bracket_flow_equals_rotation(self):
        # dq/dt = {q, H_r} = bracket_qqdag * h_r_coeff * q = i omega_r q.
        for m, k, C in [(1.0, 1.0, -1.0), (2.0, 0.5, -0.7), (1.0, 1.0, 0.8)]:
            model = dyn.OscillatorModel(m=m, kappa=k)
            rs = cf.reduced_structure_n2(model, C)
            assert rs.bracket_qqdag * rs.h_r_coeff == pytest.approx(rs.rotation_rate, abs=1e-14)

    def test_ladder_normalization(self):
        # {a, a*} = a_scale^2 {q*, q} = -a_scale^2 {q, q*} = -i.
        for C in (-1.0, -0.4, -2.5):
            rs = cf.reduced_structure_n2(UNIT, C)
            assert -rs.a_scale**2 * rs.bracket_qqdag == pytest.approx(-1j, abs=1e-12)

    def test_sign_flip_symmetry(self):
        plus = cf.reduced_structure_n2(UNIT, -1.0)
        minus = cf.reduced_structure_n2(UNIT, 1.0)
        assert minus.omega_r == pytest.approx(-plus.omega_r)
        assert abs(minus.omega_r) == pytest.approx(abs(plus.omega_r))

    def test_restricted_form_coefficient(self):
        # Pulled back to (q1, q2) on the constraint stage, the two-form has
        # the single coefficient (1 + m kappa C^2)^2 / C (= -4 here).
        omega = st.build_omega(DEGENERATE)
        v1 = np.array([1.0, 0.0, 0.0, 1.0])   # d/dq1 along M2
        v2 = np.array([0.0, 1.0, -1.0, 0.0])  # d/dq2 along M2
        assert v1 @ omega @ v2 == pytest.approx(-4.0)
