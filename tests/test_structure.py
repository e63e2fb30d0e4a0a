import numpy as np
import pytest

from ncphase import structure as st
from ncphase.errors import SingularOmega

import closed_forms as cf


def random_config(rng, N):
    eF = rng.uniform(-2, 2, (N, N))
    rG = rng.uniform(-2, 2, (N, N))
    return st.FieldConfig(N, 0.5 * (eF - eF.T), 0.5 * (rG - rG.T))


class TestFieldConfig:
    def test_rejects_nonantisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            st.FieldConfig(2, np.eye(2), np.zeros((2, 2)))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            st.FieldConfig(0, np.zeros((0, 0)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="2x2"):
            st.FieldConfig(2, np.zeros((3, 3)), np.zeros((2, 2)))

    def test_n1_fields_are_zero(self):
        cfg = st.FieldConfig(1, np.zeros((1, 1)), np.zeros((1, 1)))
        assert np.array_equal(st.build_omega(cfg), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_scalar_and_vector_roundtrip(self):
        cfg = st.field_config_n2(1.25, -0.5)
        assert st.n2_scalars(cfg) == (1.25, -0.5)
        cfg3 = st.field_config_n3([1.0, -2.0, 0.5], [0.0, 3.0, 1.0])
        bvec, cvec = st.n3_vectors(cfg3)
        assert np.allclose(bvec, [1.0, -2.0, 0.5])
        assert np.allclose(cvec, [0.0, 3.0, 1.0])

    @pytest.mark.parametrize("b, c", [(1.25, -0.5), (1e6, -3e-7), (0.0, 4e3)])
    def test_n2_scalars_of_blocks_at_the_antisymmetry_bound(self, b, c):
        # FieldConfig admits |m + m^T| up to 1e-14 max(1, max|m|); every
        # such 2x2 block is a pseudoscalar, read from its [0, 1] entry.
        def perturbed(x):
            tol = 0.9e-14 * max(1.0, abs(x))
            return [[0.45 * tol, x], [-x + 0.9 * tol, -0.45 * tol]]
        cfg = st.FieldConfig(2, perturbed(b), perturbed(c))
        assert np.abs(cfg.eF - b * st.EPS2).max() > 0.0
        assert st.n2_scalars(cfg) == (cfg.eF[0, 1], cfg.rG[0, 1])


class TestTwoProduct:
    def test_product_and_error_are_exact(self):
        from fractions import Fraction
        rng = np.random.default_rng(13)
        a = rng.normal(size=2000) * 10.0 ** rng.integers(-100, 100, 2000)
        b = rng.normal(size=2000) * 10.0 ** rng.integers(-100, 100, 2000)
        p, err = st.two_product(a, b)
        for x, y, hi, lo in zip(a.tolist(), b.tolist(), p.tolist(), err.tolist()):
            assert Fraction(hi) + Fraction(lo) == Fraction(x) * Fraction(y)
            assert hi == x * y


class TestBuildOmega:
    def test_canonical(self):
        omega = st.build_omega(st.field_config_n2(0.0, 0.0))
        expected = np.array([
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ], dtype=float)
        assert np.array_equal(omega, expected)

    def test_magnetic_block(self):
        omega = st.build_omega(st.field_config_n2(1.0, 0.0))
        assert np.array_equal(omega[:2, :2], np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.array_equal(omega[2:, 2:], np.zeros((2, 2)))

    def test_n3_pseudovector_entry(self):
        omega = st.build_omega(st.field_config_n3([0, 0, 2.0], [0, 0, 0]))
        assert omega[0, 1] == -2.0
        assert omega[1, 0] == 2.0

    def test_exactly_antisymmetric(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            cfg = random_config(rng, rng.randint(1, 7))
            omega = st.build_omega(cfg)
            assert np.array_equal(omega, -omega.T)


class TestPsiPhi:
    """`regularity` is det Psi, Psi = I - rG eF."""

    def test_planar_is_chi_identity(self):
        # Psi = chi I.
        b, c = 0.7, -0.3
        assert st.regularity(st.field_config_n2(b, c)) == pytest.approx((1 + c * b) ** 2,
                                                                        abs=1e-15)

    def test_n3_parallel_unit_fields(self):
        # Psi = diag(2, 2, 1).
        cfg = st.field_config_n3([0, 0, 1.0], [0, 0, 1.0])
        assert st.regularity(cfg) == pytest.approx(4.0, abs=1e-14)

    def test_single_charge_is_identity(self):
        cfg = st.FieldConfig(3, st.cross_matrix([1.0, 2.0, 3.0]), np.zeros((3, 3)))
        assert st.regularity(cfg) == 1.0

    def test_transpose_relation(self):
        # Phi = I - eF rG is Psi^T for antisymmetric fields.
        rng = np.random.RandomState(1)
        for _ in range(50):
            cfg = random_config(rng, rng.randint(1, 7))
            det_psi = st.regularity(cfg)
            det_phi = np.linalg.det(np.eye(cfg.N) - cfg.eF @ cfg.rG)
            assert abs(det_phi - det_psi) <= 1e-12 * max(1.0, abs(det_psi))


class TestRegularity:
    def test_worked_values(self):
        assert st.regularity(st.field_config_n2(1.0, 1.0)) == pytest.approx(4.0, abs=1e-12)
        assert st.regularity(st.field_config_n2(2.0, -0.5)) == pytest.approx(0.0, abs=1e-14)
        # theta = C.B = 3 gives det Psi = chi^2 = 16
        det = st.regularity(st.field_config_n3([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]))
        assert det == pytest.approx(16.0, rel=1e-12)


class TestPoissonMatrix:
    def test_canonical(self):
        lam = st.poisson_matrix(st.field_config_n2(0.0, 0.0))
        expected = np.array([
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ], dtype=float)
        assert np.allclose(lam, expected, atol=1e-15)

    def test_planar_bracket_entries(self):
        lam = st.poisson_matrix(st.field_config_n2(1.0, 1.0))
        assert lam[0, 1] == pytest.approx(-0.5, abs=1e-14)   # {q1, q2} = -C/chi
        assert lam[2, 3] == pytest.approx(0.5, abs=1e-14)    # {p1, p2} = B/chi
        assert lam[0, 2] == pytest.approx(0.5, abs=1e-14)    # {q1, p1} = 1/chi
        assert lam[1, 3] == pytest.approx(0.5, abs=1e-14)

    def test_n3_bracket_entries(self):
        lam = st.poisson_matrix(st.field_config_n3([0, 0, 1.0], [0, 0, 1.0]))
        assert lam[0, 3] == pytest.approx(0.5, abs=1e-14)    # {q1, p1} = (1 + B1 C1)/chi
        assert lam[2, 5] == pytest.approx(1.0, abs=1e-14)    # {q3, p3} = (1 + B3 C3)/chi

    def test_singular_raises_naming_det_psi(self):
        with pytest.raises(SingularOmega,
                           match="det Psi = .* below tolerance .*; use the constrained module"):
            st.poisson_matrix(st.field_config_n2(2.0, -0.5))

    def test_random_sweep_inverse_and_closed_form(self):
        rng = np.random.RandomState(2)
        produced = 0
        while produced < 300:
            cfg = random_config(rng, rng.randint(1, 7))
            if abs(st.regularity(cfg)) <= 1e-6:
                continue
            produced += 1
            omega = st.build_omega(cfg)
            lam = st.poisson_matrix(cfg)
            assert np.abs(lam @ omega + np.eye(2 * cfg.N)).max() < 1e-10
            assert np.abs(lam + cf.refined_inv(omega)).max() < 1e-10
            assert np.array_equal(lam, -lam.T)

    def test_mixed_blocks_antisymmetric(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            cfg = random_config(rng, rng.randint(1, 7))
            if abs(st.regularity(cfg)) <= 1e-6:
                continue
            a = np.linalg.solve(np.eye(cfg.N) - cfg.rG @ cfg.eF, cfg.rG)
            b = np.linalg.solve(np.eye(cfg.N) - cfg.eF @ cfg.rG, cfg.eF)
            assert np.abs(a + a.T).max() < 1e-10
            assert np.abs(b + b.T).max() < 1e-10


class TestLambdaOracle:
    """`poisson_matrix` against a 60-digit mpmath -Omega^{-1}.

    A float64 dense inverse is off by 5.6e-12 relative at planar
    chi = 1e-5, so the 2e-15 bound fails if the extended precision is lost.
    """

    BOUND = 2e-15

    @staticmethod
    def rel_error(cfg, **kw):
        ref = cf.lambda_mpmath(cfg)
        return np.abs(st.poisson_matrix(cfg, **kw) - ref).max() / np.abs(ref).max()

    @pytest.mark.parametrize("chi", [1e-2, 1e-3, 1e-4, 3e-5, 1e-5])
    @pytest.mark.parametrize("b", [0.3, 1.0, 3.0, -2.0])
    def test_planar_near_the_singularity(self, chi, b):
        # det Psi = chi^2 is 1e-10 at chi = 1e-5, at the default tolerance.
        cfg = st.field_config_n2(b, (chi - 1.0) / b)
        assert self.rel_error(cfg, tol_singular=1e-12) <= self.BOUND

    def test_random_fields(self):
        rng = np.random.RandomState(15)
        produced = 0
        while produced < 40:
            cfg = random_config(rng, rng.randint(2, 9))
            if abs(st.regularity(cfg)) < 1e-8:
                continue
            produced += 1
            assert self.rel_error(cfg) <= self.BOUND


class TestBracket:
    """{f, g} = grad f . Lambda . grad g for linear f and g."""

    def test_canonical_pair(self):
        lam = st.poisson_matrix(st.field_config_n2(0.0, 0.0))
        e_q1 = np.array([1.0, 0, 0, 0])
        e_p1 = np.array([0, 0, 1.0, 0])
        assert e_q1 @ lam @ e_p1 == 1.0

    def test_antisymmetry(self):
        rng = np.random.RandomState(4)
        lam = st.poisson_matrix(st.field_config_n2(1.0, 1.0))
        for _ in range(20):
            u, v = rng.uniform(-1, 1, (2, 4))
            assert u @ lam @ v == pytest.approx(-(v @ lam @ u), abs=1e-15)
            assert u @ lam @ u == pytest.approx(0.0, abs=1e-15)

    def test_momentum_pair_entry(self):
        lam = st.poisson_matrix(st.field_config_n2(1.0, 1.0))
        e_p1 = np.array([0, 0, 1.0, 0])
        e_p2 = np.array([0, 0, 0, 1.0])
        assert e_p1 @ lam @ e_p2 == pytest.approx(0.5, abs=1e-14)

    def test_bilinearity(self):
        rng = np.random.RandomState(5)
        lam = st.poisson_matrix(st.field_config_n2(0.8, -0.4))
        u, v, w = rng.uniform(-1, 1, (3, 4))
        a, b = 1.7, -2.3
        lhs = (a * u + b * v) @ lam @ w
        rhs = a * (u @ lam @ w) + b * (v @ lam @ w)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_jacobi_cyclic_sum_is_exactly_zero(self):
        # Constant Poisson matrix: inner brackets of coordinates are
        # constants, whose gradients vanish identically, so every term of
        # the cyclic sum is exactly 0.0.
        lam = st.poisson_matrix(st.field_config_n2(1.0, -0.3))
        zero_grad = np.zeros(4)
        basis = np.eye(4)
        total = 0.0
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    total += basis[a] @ lam @ zero_grad
                    total += basis[b] @ lam @ zero_grad
                    total += basis[c] @ lam @ zero_grad
        assert total == 0.0


class TestHamiltonianVectorField:
    """Lambda . grad f from `poisson_matrix` against the Psi/Phi solve of
    the closed-form oracle."""

    def test_free_motion(self):
        cfg = st.field_config_n2(0.0, 0.0)
        grad = np.array([0.0, 0.0, 1.0, 0.0])  # grad of p^2/2 at p = (1, 0)
        assert np.allclose(cf.hamiltonian_vector_field(cfg, grad), [1, 0, 0, 0], atol=1e-15)
        assert np.allclose(st.poisson_matrix(cfg) @ grad, [1, 0, 0, 0], atol=1e-15)

    def test_matches_poisson_product(self):
        cfg = st.field_config_n2(1.0, 1.0)
        lam = st.poisson_matrix(cfg)
        grad = np.array([1.0, 0.0, 0.0, 1.0])  # grad H, m = kappa = 1 at q=(1,0), p=(0,1)
        x = cf.hamiltonian_vector_field(cfg, grad)
        assert np.abs(x - lam @ grad).max() < 1e-10
        rng = np.random.RandomState(6)
        for _ in range(30):
            cfg = random_config(rng, rng.randint(1, 7))
            if abs(st.regularity(cfg)) <= 1e-6:
                continue
            lam = st.poisson_matrix(cfg)
            grad = rng.uniform(-1, 1, 2 * cfg.N)
            x = cf.hamiltonian_vector_field(cfg, grad)
            assert np.abs(x - lam @ grad).max() < 1e-10

    def test_constants_generate_no_flow(self):
        cfg = st.field_config_n2(0.4, 0.2)
        assert np.array_equal(cf.hamiltonian_vector_field(cfg, np.zeros(4)), np.zeros(4))
        assert np.array_equal(st.poisson_matrix(cfg) @ np.zeros(4), np.zeros(4))

    def test_singular_raises(self):
        with pytest.raises(SingularOmega):
            st.poisson_matrix(st.field_config_n2(1.0, -1.0))
