import numpy as np
import pytest

from ncphase import darboux as dx
from ncphase import dynamics as dyn
from ncphase import structure as st
from ncphase import symmetry as sym
from ncphase.errors import NotARotation

import closed_forms as cf

UNIT = dyn.OscillatorModel(m=1.0, kappa=1.0)


class TestGenerators:
    def test_planar_single_generator(self):
        gens = sym.generators(2)
        assert len(gens) == 1
        assert np.array_equal(gens[0].matrix, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_count(self):
        for n in (2, 3, 4, 5):
            assert len(sym.generators(n)) == n * (n - 1) // 2

    def test_antisymmetry_and_self_commutator(self):
        for g in sym.generators(4):
            assert np.array_equal(g.matrix, -g.matrix.T)
            comm = g.matrix @ g.matrix - g.matrix @ g.matrix
            assert np.array_equal(comm, np.zeros((4, 4)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_structure_constants_exact(self, n):
        gens = sym.generators(n)
        for g1 in gens:
            for g2 in gens:
                comm = g1.matrix @ g2.matrix - g2.matrix @ g1.matrix
                rhs = sym.commutator_expansion(n, g1.alpha, g1.beta, g2.alpha, g2.beta)
                assert np.array_equal(comm, rhs)

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            sym.generators(1)


class TestCanonicalMomentum:
    def test_planar_value_and_sign(self):
        val = sym.momentum_canonical([1.0, 0.0], [0.0, 1.0])
        # J_01 = p_1 q^2 - p_2 q^1 = -(q^1 p_2 - q^2 p_1)
        assert val[(0, 1)] == -1.0
        assert val[(1, 0)] == 1.0

    def test_parallel_vectors_vanish(self):
        val = sym.momentum_canonical([2.0, 3.0], [2.0, 3.0])
        assert val[(0, 1)] == 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_brackets_reproduce_structure_constants(self, n):
        # Canonical-bracket oracle on integer states: every value is an
        # integer, so the comparison is exact.
        lam0 = st.poisson_matrix(st.FieldConfig(n, np.zeros((n, n)), np.zeros((n, n))))
        rng = np.random.RandomState(21)
        gens = sym.generators(n)
        for _ in range(3):
            z = rng.randint(-3, 4, 2 * n).astype(float)
            val = sym.momentum_canonical(z[:n], z[n:])
            for g1 in gens:
                for g2 in gens:
                    a, b = g1.alpha, g1.beta
                    mu, nu = g2.alpha, g2.beta
                    lhs = st.bracket(
                        sym.momentum_gradient(z, a, b),
                        sym.momentum_gradient(z, mu, nu),
                        lam0,
                    )
                    def d(i, j):
                        return 1.0 if i == j else 0.0
                    rhs = (-d(a, mu) * val[(b, nu)] + d(a, nu) * val[(b, mu)]
                           - d(b, nu) * val[(a, mu)] + d(b, mu) * val[(a, nu)])
                    assert lhs == rhs


class TestInvariance:
    def test_identity_always_symplectic(self):
        cfg = st.field_config_n3([0.3, -0.2, 1.0], [0.5, 0.0, -1.0])
        rep = sym.invariance_check(cfg, np.eye(3))
        assert rep.symplectic
        assert rep.residual_f == 0.0
        assert rep.residual_g == 0.0
        assert rep.residual_omega == 0.0

    def test_axial_rotation_preserves_parallel_fields(self):
        cfg = st.field_config_n3([0, 0, 1.0], [0, 0, 0.5])
        rot = sym.finite_rotation(3, {(0, 1): 0.7})
        rep = sym.invariance_check(cfg, rot)
        assert rep.symplectic
        assert rep.residual_f <= 1e-12
        assert rep.residual_g <= 1e-12
        assert rep.residual_omega <= 1e-10

    def test_crossed_fields_break_invariance(self):
        cfg = st.field_config_n3([0, 0, 1.0], [1.0, 0, 0])
        rot = sym.finite_rotation(3, {(0, 1): 0.7})
        rep = sym.invariance_check(cfg, rot)
        assert not rep.symplectic
        assert rep.residual_g > 0.1

    def test_non_orthogonal_rejected(self):
        cfg = st.field_config_n2(0.0, 0.0)
        with pytest.raises(NotARotation):
            sym.invariance_check(cfg, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_finite_rotation_is_orthogonal(self):
        rot = sym.finite_rotation(4, {(0, 1): 0.3, (2, 3): -1.1})
        assert np.abs(rot.T @ rot - np.eye(4)).max() <= 1e-12


class TestDarbouxMomentum:
    def test_matches_angular_momentum_bilinear(self):
        zeta = np.array([1.0, 0.0, 0.0, 1.0])
        val = sym.momentum_canonical(zeta[:2], zeta[2:])
        # Zero fields: the closed-form chart is T = I.
        assert val[(0, 1)] == -dx.lambda3(st.field_config_n2(0.0, 0.0), zeta)

    def test_canonical_so_n_brackets(self):
        lam0 = st.poisson_matrix(st.FieldConfig(3, np.zeros((3, 3)), np.zeros((3, 3))))
        z = np.array([1.0, -2.0, 0.0, 3.0, 1.0, 2.0])
        val = sym.momentum_canonical(z[:3], z[3:])
        lhs = st.bracket(
            sym.momentum_gradient(z, 0, 1), sym.momentum_gradient(z, 1, 2), lam0
        )
        # Only the shared middle index survives: {J_01, J_12} = J_02.
        assert lhs == val[(0, 2)]

    def test_hamiltonian_commutes_with_rotation_charge(self):
        # In Darboux variables the diagonalized planar Hamiltonian is a
        # function of pi^2, xi^2 and the angular momentum alone.
        fr = cf.n2_frequencies(UNIT, 1.0, 0.0)
        j_can = st.canonical_j(2)
        bilinear = np.zeros((4, 4))
        bilinear[0, 3] = bilinear[3, 0] = 1.0
        bilinear[1, 2] = bilinear[2, 1] = -1.0
        quad = np.diag([fr.kappa_prime, fr.kappa_prime, 1 / fr.m_prime, 1 / fr.m_prime])
        quad -= fr.omegaL_prime * bilinear
        rng = np.random.RandomState(22)
        for _ in range(10):
            zeta = rng.uniform(-2, 2, 4)
            val = st.bracket(quad @ zeta, bilinear @ zeta, j_can)
            assert abs(val) <= 1e-10

    def test_mixed_variable_hamiltonian_not_invariant(self):
        # In the original (q, p) variables the isotropic-looking H fails to
        # commute with the canonical rotation charge once B != C.
        cfg = st.field_config_n2(1.0, 0.0)
        lam = st.poisson_matrix(cfg)
        z = np.array([1.0, 0.0, 1.0, 0.0])
        val = st.bracket(UNIT.gradient(z), sym.momentum_gradient(z, 0, 1), lam)
        assert val == pytest.approx(-1.0, abs=1e-12)
        assert abs(val) > 0.1
