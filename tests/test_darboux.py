import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from ncphase import darboux as dx
from ncphase import dynamics as dyn
from ncphase import structure as st
from ncphase.errors import SingularOmega

import closed_forms as cf


def random_config(rng, N):
    eF = rng.uniform(-2, 2, (N, N))
    rG = rng.uniform(-2, 2, (N, N))
    return st.FieldConfig(N, 0.5 * (eF - eF.T), 0.5 * (rG - rG.T))


def reference_gram_schmidt(omega, tol_singular=st.TOL_SINGULAR):
    """Symplectic Gram-Schmidt over a Python list of candidate vectors,
    one Omega(x, y) product per candidate and projection: a generic
    Darboux map independent of ``darboux.darboux_generic``'s elimination."""
    omega = np.asarray(omega, dtype=float)
    n2 = omega.shape[0]
    N = n2 // 2
    scale = max(1.0, np.abs(omega).max())
    sigma = lambda x, y: float(x @ omega @ y)

    cand = [np.eye(n2)[:, k] for k in range(n2)]
    vs, ws = [], []
    for k in range(N):
        v = max(cand, key=np.linalg.norm)
        v = v / np.linalg.norm(v)
        pivots = [abs(sigma(v, u)) for u in cand]
        jmax = int(np.argmax(pivots))
        if pivots[jmax] < tol_singular * scale:
            raise SingularOmega(
                f"pivot {pivots[jmax]:.3e} below tolerance at pair {k}: Omega is rank deficient"
            )
        w = cand[jmax] / sigma(v, cand[jmax])
        s = np.sqrt(np.linalg.norm(w) / np.linalg.norm(v))
        v, w = v * s, w / s
        vs.append(v)
        ws.append(w)
        for _ in range(2):
            cand = [u - sigma(u, w) * v + sigma(u, v) * w for u in cand]
        cand = sorted(cand, key=np.linalg.norm, reverse=True)[: n2 - 2 * (k + 1)]

    S = np.column_stack(vs + ws)
    T = np.linalg.inv(S)
    return dx._finish(T, S, omega, 1e-8)


def antisymmetric(rng, n, scale):
    upper = np.triu(rng.normal(0.0, scale, (n, n)), 1)
    return upper - upper.T


def generic_fields(rng, n):
    """Antisymmetric eF, rG with entries of standard deviation 0.3/sqrt(N),
    redrawn until 0.5 <= det Psi <= 2: the generic-fields benchmark inputs."""
    scale = 0.3 / np.sqrt(n)
    while True:
        eF = antisymmetric(rng, n, scale)
        rG = antisymmetric(rng, n, scale)
        if 0.5 <= np.linalg.det(np.eye(n) - rG @ eF) <= 2.0:
            return eF, rG


class TestDarbouxN2:
    """The paper's planar map, a test oracle in `closed_forms`."""

    def test_identity_for_zero_fields(self):
        dmap = cf.darboux_n2(0.0, 0.0)
        assert np.allclose(dmap.T, np.eye(4), atol=1e-15)
        assert dmap.residual <= 1e-12

    def test_worked_point(self):
        co = cf.n2_coefficients(3.0, 1.0)
        assert co.chi == pytest.approx(4.0)
        assert co.u == pytest.approx(1.5)
        dmap = cf.darboux_n2(3.0, 1.0)
        ru = np.sqrt(1.5)
        # xi^1 = sqrt(u) (q^1 - (C/2u) p_2)
        assert dmap.T[0, 0] == pytest.approx(ru, abs=1e-14)
        assert dmap.T[0, 3] == pytest.approx(-ru / 3.0, abs=1e-14)
        assert dmap.residual <= 1e-12
        assert np.abs(dmap.T @ dmap.Tinv - np.eye(4)).max() < 1e-12

    def test_negative_chi_raises_distinct_type(self):
        # chi <= 0 is outside the closed-form branch at any size: chi = -1,
        # 0 and -2e-12.  It is not a singular structure: the generic map
        # applies where `regularity` passes.
        for C in (-1.0, -0.5, -0.5 - 1e-12):
            with pytest.raises(cf.NegativeChi):
                cf.darboux_n2(2.0, C)
        assert not issubclass(cf.NegativeChi, SingularOmega)

    def test_reduces_to_single_charge_shears(self):
        # One field: pi = p - (1/2) eF q, or xi = q - (1/2) rG p.
        for B in (0.5, 1.0, -2.0):
            shear = np.block([[np.eye(2), np.zeros((2, 2))], [-0.5 * B * st.EPS2, np.eye(2)]])
            assert np.abs(cf.darboux_n2(B, 0.0).T - shear).max() <= 1e-12
        for C in (0.5, -1.3):
            shear = np.block([[np.eye(2), -0.5 * C * st.EPS2], [np.zeros((2, 2)), np.eye(2)]])
            assert np.abs(cf.darboux_n2(0.0, C).T - shear).max() <= 1e-12

    def test_random_residual_sweep(self):
        rng = np.random.RandomState(7)
        produced = 0
        while produced < 200:
            B, C = rng.uniform(-2, 2, 2)
            if 1 + B * C <= 1e-3:
                continue
            produced += 1
            dmap = cf.darboux_n2(B, C)
            assert dmap.residual <= 1e-12
            assert np.isfinite(dmap.cond)


class TestDarbouxN3:
    """The paper's spatial map, a test oracle in `closed_forms`."""

    def test_identity_for_zero_fields(self):
        dmap = cf.darboux_n3([0, 0, 0], [0, 0, 0])
        assert np.allclose(dmap.T, np.eye(6), atol=1e-15)

    def test_parallel_unit_fields(self):
        dmap = cf.darboux_n3([0, 0, 1.0], [0, 0, 1.0])
        assert dmap.residual <= 1e-10
        # Axial pair is untouched: q3 = xi3 and p3 = pi3.
        assert np.abs(dmap.T[2] - np.eye(6)[2]).max() <= 1e-12
        assert np.abs(dmap.T[5] - np.eye(6)[5]).max() <= 1e-12

    def test_mixing_scalar_limits(self):
        # theta = 1e-8 realized with both vectors along z.
        co = cf.n3_coefficients([0, 0, 1.0], [0, 0, 1e-8])
        assert co.theta == pytest.approx(1e-8, rel=1e-12)
        assert co.gamma == pytest.approx(-0.125, abs=1e-6)
        # The finite-limit root of the inverse-map quadratic is 3/8, and the
        # round trip T @ Tinv = I (checked on construction) pins it there.
        assert co.gamma_prime == pytest.approx(0.375, abs=1e-6)

    def test_mixing_scalars_match_direct_evaluation(self):
        # At theta = 1e-4 the raw 0/0 forms are still accurate enough to
        # cross-check the cancellation-free rewrites.
        theta = 1e-4
        co = cf.n3_coefficients([0, 0, 1.0], [0, 0, theta])
        u = 0.5 * (1 + np.sqrt(1 + theta))
        ru = np.sqrt(u)
        assert co.gamma == pytest.approx((1 - ru) / (theta * ru), abs=1e-9)
        assert co.gamma_prime == pytest.approx(
            (np.sqrt(1 + theta) - ru) / (theta * ru), abs=1e-9
        )

    def test_random_residual_sweep(self):
        rng = np.random.RandomState(8)
        produced = 0
        while produced < 200:
            bvec = rng.uniform(-2, 2, 3)
            cvec = rng.uniform(-2, 2, 3)
            if 1 + np.dot(cvec, bvec) <= 1e-3:
                continue
            produced += 1
            dmap = cf.darboux_n3(bvec, cvec)
            assert dmap.residual <= 1e-9
            assert np.abs(dmap.T @ dmap.Tinv - np.eye(6)).max() < 1e-10


class TestDarbouxGeneric:
    """`darboux_generic`, Bunch's skew factorization, against its contract
    and the closed forms."""

    def test_canonical_omega_gets_a_symplectic_permutation(self):
        for n in (1, 2, 3):
            dmap = dx.darboux_generic(st.canonical_j(n))
            assert dmap.residual == 0.0
            assert dx.symplectic_deviation(dmap.T) == 0.0
            assert sorted(np.abs(dmap.T).ravel()) == [0.0] * (4 * n * n - 2 * n) + [1.0] * (2 * n)

    def test_closed_forms_differ_by_symplectic(self):
        rng = np.random.RandomState(12)
        produced = 0
        while produced < 100:
            B, C = rng.uniform(-2, 2, 2)
            bvec, cvec = rng.uniform(-2, 2, (2, 3))
            if min(1 + B * C, 1 + bvec @ cvec) <= 1e-3:
                continue
            produced += 1
            for closed, cfg in ((cf.darboux_n2(B, C), st.field_config_n2(B, C)),
                                (cf.darboux_n3(bvec, cvec), st.field_config_n3(bvec, cvec))):
                generic = dx.darboux_generic(st.build_omega(cfg))
                assert dx.symplectic_deviation(closed.T @ generic.Tinv) <= 1e-13

    @pytest.mark.parametrize("seed", [7, 901])
    def test_generic_fields_inputs(self, seed):
        # The benchmark's darboux-n6/n20/n50 inputs: the contract to
        # rounding, and the same map as the reference up to a symplectic.
        rng = np.random.default_rng(seed)
        for n in (6, 20, 50):
            eF, rG = generic_fields(rng, n)
            omega = st.build_omega(st.FieldConfig(n, eF, rG))
            new = dx.darboux_generic(omega)
            assert new.residual <= 2e-15, n
            assert np.abs(new.T @ new.Tinv - np.eye(2 * n)).max() <= 1e-14, n
            ref = reference_gram_schmidt(omega)
            assert dx.symplectic_deviation(new.T @ ref.Tinv) <= 1e-12, n

    @pytest.mark.parametrize("B, C", [(1e300, 1e-300), (1e200, 1.0), (1e-300, 1e300)])
    def test_extreme_scales_without_warnings(self, B, C):
        # Regular fields far apart in scale: the pivots are 1e300 and
        # 2e-300 (chi = 2), or 1e200 and 1 + 1e-200.
        omega = st.build_omega(st.field_config_n2(B, C))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dmap = dx.darboux_generic(omega)
        assert dmap.residual <= 1e-15 * np.abs(omega).max()
        assert np.isfinite(dmap.cond)

    def test_overflow_raises_naming_the_pair(self):
        # The second pair's pivot is 1.5e308 + 1.5e308 after the Schur update.
        omega = np.zeros((4, 4))
        omega[0, 1] = omega[0, 2] = omega[2, 3] = 1.5e308
        omega[1, 3] = -1.5e308
        omega = omega - omega.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="pivot inf at pair 1"):
                dx.darboux_generic(omega)


class TestSymplecticGramSchmidt:
    """The generic map on the inputs the earlier symplectic Gram-Schmidt
    was held to: random regular fields, and a rank-deficient Omega."""

    def test_random_nondegenerate_sweep(self):
        rng = np.random.RandomState(9)
        produced = 0
        while produced < 100:
            cfg = random_config(rng, 4)
            if abs(st.regularity(cfg, 0.0)) <= 0.1:
                continue
            produced += 1
            dmap = dx.darboux_generic(st.build_omega(cfg))
            assert dmap.residual <= 1e-8

    def test_rank_deficient_raises(self):
        omega = st.build_omega(st.field_config_n2(1.0, -1.0))
        with pytest.raises(ArithmeticError, match="no Darboux map"):
            dx.darboux_generic(omega)


class TestGramSchmidtAgainstReference:
    """`darboux_generic` against the list-based Gram-Schmidt reference: the
    two maps differ by a symplectic matrix, and fail on the same Omega."""

    @settings(max_examples=150, deadline=None)
    @given(n=hst.integers(1, 12), scale=hst.floats(0.1, 3.0), seed=hst.integers(0, 2**32 - 1))
    def test_random_fields(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        cfg = st.FieldConfig(n, antisymmetric(rng, n, scale), antisymmetric(rng, n, scale))
        assume(abs(st.regularity(cfg, 0.0)) >= st.TOL_SINGULAR)
        omega = st.build_omega(cfg)
        new = dx.darboux_generic(omega)
        bound = max(1.0, np.abs(omega).max())
        assert dx.verify_darboux(new, omega) <= 1e-14 * bound
        assert np.abs(new.T @ new.Tinv - np.eye(2 * n)).max() <= 1e-10 * bound
        ref = reference_gram_schmidt(omega)
        assert dx.symplectic_deviation(new.T @ ref.Tinv) <= 1e-8

    def test_planar_chi0_raises_at_pair_1(self):
        # Without the pivot check this Omega would get a singular T.
        omega = st.build_omega(st.field_config_n2(1.0, -1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="pivot 0.0 at pair 1"):
                dx.darboux_generic(omega)
        with pytest.raises(SingularOmega, match="below tolerance at pair 1"):
            reference_gram_schmidt(omega)


class TestVerifyDarboux:
    def test_identity_against_canonical(self):
        omega = st.build_omega(st.field_config_n2(0.0, 0.0))
        ident = dx.DarbouxMap(np.eye(4), np.eye(4), 0.0, 1.0)
        assert dx.verify_darboux(ident, omega) == 0.0

    def test_constructed_map_residual(self):
        dmap = cf.darboux_n2(3.0, 1.0)
        omega = st.build_omega(st.field_config_n2(3.0, 1.0))
        assert dx.verify_darboux(dmap, omega) <= 1e-12

    def test_identity_against_magnetic_omega(self):
        omega = st.build_omega(st.field_config_n2(1.0, 0.0))
        ident = dx.DarbouxMap(np.eye(4), np.eye(4), 0.0, 1.0)
        assert dx.verify_darboux(ident, omega) == pytest.approx(1.0)


class TestMapProperties:
    def test_two_maps_differ_by_symplectic(self):
        rng = np.random.RandomState(10)
        for _ in range(20):
            B, C = rng.uniform(-1.5, 1.5, 2)
            if 1 + B * C <= 0.05:
                continue
            t1 = cf.darboux_n2(B, C)
            t2 = dx.darboux_generic(st.build_omega(st.field_config_n2(B, C)))
            assert dx.symplectic_deviation(t1.T @ t2.Tinv) <= 1e-8

    def test_bracket_pullback_preservation(self):
        # For linear observables f = a.z, g = b.z the modified bracket
        # a^T Lambda b equals the canonical bracket of the transformed
        # gradients T^{-T} a, T^{-T} b.
        rng = np.random.RandomState(11)
        j = st.canonical_j(2)
        for _ in range(20):
            B, C = rng.uniform(-1.5, 1.5, 2)
            if 1 + B * C <= 0.05:
                continue
            cfg = st.field_config_n2(B, C)
            lam = st.poisson_matrix(cfg)
            dmap = cf.darboux_n2(B, C)
            a, b = rng.uniform(-1, 1, (2, 4))
            at = np.linalg.solve(dmap.T.T, a)
            bt = np.linalg.solve(dmap.T.T, b)
            assert a @ lam @ b == pytest.approx(at @ j @ bt, abs=1e-9)


# A field component: a sign and a mantissa in [1, 10) times 10^e, e in
# [-300, 300], or zero; chi = 1 + C.B then spans < 0, 0 < chi < inf and
# beyond the double range.
_COMPONENT = hst.one_of(
    hst.just(0.0),
    hst.builds(lambda sign, m, e: sign * m * 10.0 ** e, hst.sampled_from([-1.0, 1.0]),
               hst.floats(1.0, 10.0, exclude_max=True), hst.integers(-300, 300)))


class TestMomentMap:
    """`darboux.lambda3`, the moment map -1/2 z^T (Omega A) z of the
    rotation of (q^1, q^2) and (p_1, p_2), against the paper's closed-form
    chart and against 50-digit mpmath."""

    EPS = np.finfo(float).eps

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(axial=hst.booleans(), B=_COMPONENT, C=_COMPONENT, seed=hst.integers(0, 2**32 - 1))
    @example(axial=False, B=2.0, C=-1.0, seed=0)          # chi = -1
    @example(axial=False, B=1e150, C=1e300, seed=1)       # chi = +inf
    @example(axial=True, B=-1e300, C=1e150, seed=2)       # chi = -inf
    @example(axial=True, B=1e300, C=1e-300, seed=3)       # chi = 2
    def test_planar_and_axial_fields(self, axial, B, C, seed):
        cfg = (st.field_config_n3([0.0, 0.0, B], [0.0, 0.0, C]) if axial
               else st.field_config_n2(B, C))
        states = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, 2 * cfg.N))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dx.lambda3(cfg, states)
        assert got is not None and got.shape == (3,)
        scale = cf.moment_map_scale(cfg, states)
        assert np.isfinite(scale).all()
        assert (np.abs(got - cf.moment_map_mpmath(cfg, states)) <= 8 * self.EPS * scale).all()
        chart = cf.closed_form_chart(cfg)
        if chart is not None:
            # Both round at the size of their terms: the chart's products
            # xi^1 pi_2 and xi^2 pi_1, and the moment map's scale.
            zeta = states @ chart.T.T
            n = cfg.N
            terms = np.abs(zeta[:, 0] * zeta[:, n + 1]) + np.abs(zeta[:, 1] * zeta[:, n])
            want = cf.chart_lambda3(chart, states)
            assert (np.abs(got - want) <= 16 * self.EPS * (scale + terms)).all()

    def test_presence_rule(self):
        # A column exactly where Omega A is symmetric (the oracle's exact
        # product): fields that commute with the (1, 2) rotation.
        rng = np.random.default_rng(28)
        cases = {
            "planar": (st.field_config_n2(1.0, 0.5), True),
            "planar-chi-negative": (st.field_config_n2(2.0, -1.0), True),
            "axial": (st.field_config_n3([0, 0, 2.0], [0, 0, 0.5]), True),
            "oblique": (st.field_config_n3([1.0, 0, 0], [0, 0, 0.5]), False),
            "random-n6": (random_config(rng, 6), False),
            "zero-n6": (st.FieldConfig(6, np.zeros((6, 6)), np.zeros((6, 6))), True),
            "n1": (st.FieldConfig(1, np.zeros((1, 1)), np.zeros((1, 1))), False),
        }
        for name, (cfg, present) in cases.items():
            assert cf.commutes_with_rotation(cfg) == present, name
            assert (dx.lambda3(cfg, np.ones(2 * cfg.N)) is not None) == present, name

    def test_conserved_at_negative_chi(self):
        # chi = -1: no closed-form chart, and the moment map is conserved
        # by the exact flow over 1,000 steps (3.0e-15 relative measured).
        cfg = st.field_config_n2(2.0, -1.0)
        model = dyn.OscillatorModel(m=1.0, kappa=1.0)
        z0 = [1.0, 0.0, 0.0, 1.0]
        states = dyn.affine_flow(*dyn.flow_matrix(st.poisson_matrix(cfg), model),
                                 z0, 0.01, 1000, "exact")
        lam3 = dx.lambda3(cfg, states)
        want = cf.moment_map_mpmath(cfg, z0)[0]
        assert np.abs(lam3 - want).max() <= 1e-14 * abs(want)
