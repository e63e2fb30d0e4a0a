"""Whole-trajectory observables and CSV rows are byte-identical to the
per-sample scalar evaluation they replace.

The reference functions below are the one-state formulas: BLAS dot
products of 1-d vectors, then per-value format(v, ".17g").  Equality is
exact (np.array_equal or string equality), never approximate, except
against the paper's chart bilinear xi^1 pi_2 - xi^2 pi_1, which the
moment map `darboux.lambda3` meets to rounding.
"""

import json

import numpy as np
import pytest

from ncphase import cli, constrained, darboux, dynamics, spectrum, structure

import closed_forms as cf


def scalar_hamiltonian(model, z):
    N = z.size // 2
    q, p = z[:N], z[N:]
    if model.potential == dynamics.HARMONIC:
        v = 0.5 * model.kappa * float(q @ q)
    else:
        v = -float(np.dot(model.Evec, q))
    return float(p @ p) / (2.0 * model.m) + v


def scalar_residual(lc, z):
    return float(np.abs(lc.matrix @ z + lc.offset).max())


def scalar_angular_momentum(zeta):
    N = zeta.size // 2
    return float(zeta[0] * zeta[N + 1] - zeta[1] * zeta[N])


def random_states(rng, N, rows=2000):
    # Spread the magnitudes so that rounding, not just the leading digits, is compared.
    scale = 10.0 ** rng.uniform(-4, 4, size=(rows, 1))
    return rng.normal(size=(rows, 2 * N)) * scale


def models(rng, N):
    return [
        dynamics.OscillatorModel(m=1.7, kappa=0.3),
        dynamics.OscillatorModel(m=0.4, potential=dynamics.LINEAR,
                                 Evec=tuple(rng.normal(size=N))),
    ]


@pytest.mark.parametrize("N", [2, 3, 6])
def test_hamiltonian_rows_match_scalar_calls(N):
    rng = np.random.default_rng(N)
    states = random_states(rng, N)
    for model in models(rng, N):
        want = np.array([scalar_hamiltonian(model, z) for z in states])
        assert np.array_equal(model.hamiltonian(states), want), model.potential
        one = model.hamiltonian(states[7])
        assert type(one) is float
        assert one == want[7]
        # Leading axes broadcast: a (2, rows/2, 2N) stack gives (2, rows/2).
        stacked = model.hamiltonian(states.reshape(2, -1, 2 * N))
        assert np.array_equal(stacked, want.reshape(2, -1))


@pytest.mark.parametrize("N", [2, 3, 6])
def test_residual_rows_match_scalar_calls(N):
    rng = np.random.default_rng(10 + N)
    states = random_states(rng, N)
    for k in (1, N, 2 * N - 1):
        lc = constrained.LinearConstraints(rng.normal(size=(k, 2 * N)), rng.normal(size=k))
        want = np.array([scalar_residual(lc, z) for z in states])
        assert np.array_equal(lc.residual(states), want), k
        one = lc.residual(states[3])
        assert type(one) is float
        assert one == want[3]


def test_secondary_constraint_residual_rows_match_scalar_calls():
    lc = cf.secondary_constraints(structure.field_config_n2(1.0, -1.0),
                                  dynamics.OscillatorModel(m=1.0, kappa=1.0))
    states = random_states(np.random.default_rng(5), 2)
    want = np.array([scalar_residual(lc, z) for z in states])
    assert np.array_equal(lc.residual(states), want)


# Zero fields: the moment map is the bilinear q^1 p_2 - q^2 p_1 of the
# state itself.
ZERO_FIELDS = {2: structure.field_config_n2(0.0, 0.0),
               3: structure.field_config_n3([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])}


@pytest.mark.parametrize("N", [2, 3])
def test_angular_momentum_rows_match_scalar_calls(N):
    zeta = random_states(np.random.default_rng(20 + N), N)
    want = np.array([scalar_angular_momentum(z) for z in zeta])
    assert np.array_equal(darboux.lambda3(ZERO_FIELDS[N], zeta), want)
    assert type(darboux.lambda3(ZERO_FIELDS[N], zeta[0])) is float


def test_integrate_lambda3_is_the_darboux_bilinear():
    # The moment map is the paper's chart bilinear xi^1 pi_2 - xi^2 pi_1
    # to rounding: within 16 eps of the size of either's terms.
    cfg = structure.field_config_n3([0, 0, 1.0], [0, 0, 0.5])
    model = dynamics.OscillatorModel(m=1.0, kappa=1.0)
    states = dynamics.affine_flow(*dynamics.flow_matrix(cfg, model),
                                  [1.0, 0.0, 0.3, 0.0, 0.7, -0.2], 0.05, 200)
    zeta = states @ cf.darboux_n3([0, 0, 1.0], [0, 0, 0.5]).T.T
    want = zeta[:, 0] * zeta[:, 4] - zeta[:, 1] * zeta[:, 3]
    terms = np.abs(zeta[:, 0] * zeta[:, 4]) + np.abs(zeta[:, 1] * zeta[:, 3])
    scale = cf.moment_map_scale(cfg, states) + terms
    assert (np.abs(darboux.lambda3(cfg, states) - want) <= 16 * np.finfo(float).eps * scale).all()
    assert np.array_equal(model.hamiltonian(states),
                          [scalar_hamiltonian(model, z) for z in states])


def csv_text(header, rows):
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def simulate_csv(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    return out.read_text()


@pytest.mark.parametrize("method", ["exact", "midpoint"])
def test_simulate_csv_matches_per_value_format(tmp_path, method):
    B, C = 0.7, -0.2
    model = dynamics.OscillatorModel(m=1.3, kappa=0.8)
    z0 = [-0.0, 1e-300, 3e-300, -2.5e-300]
    config = {"schema_version": 1, "N": 2, "field": {"B": B, "C": C},
              "model": {"m": 1.3, "kappa": 0.8}, "state": z0,
              "time": {"t_final": 0.5, "dt": 0.01, "method": method}}
    got = simulate_csv(tmp_path, config)

    cfg = structure.field_config_n2(B, C)
    states = dynamics.affine_flow(*dynamics.flow_matrix(cfg, model), z0, 0.01, 50, method)
    lam3 = darboux.lambda3(cfg, states)
    rows = [[t, *z, scalar_hamiltonian(model, z), x]
            for t, z, x in zip(0.01 * np.arange(51), states, lam3)]
    assert got == csv_text(["t", "q1", "q2", "p1", "p2", "H", "Lambda3"], rows)
    assert got.splitlines()[1] == "0,-0,1e-300,3.0000000000000002e-300,-2.5e-300,0,-0"
    # The column is the paper's chart bilinear to rounding; at 1e-300 both
    # underflow to zero.
    assert np.array_equal(lam3, cf.chart_lambda3(cf.darboux_n2(B, C), states))


def test_degenerate_simulate_csv_matches_per_value_format(tmp_path):
    model = dynamics.OscillatorModel(m=1.0, kappa=1.0)
    z0 = [1e-300, -0.0, -0.0, 1e-300]     # on the chi = 0 constraint subspace
    config = {"schema_version": 1, "N": 2, "field": {"B": 1.0, "C": -1.0},
              "model": {"m": 1.0, "kappa": 1.0}, "state": z0,
              "time": {"t_final": 0.5, "dt": 0.01}}
    got = simulate_csv(tmp_path, config)

    times = 0.01 * np.arange(51)
    chain, _ = spectrum.terminal_chain(structure.build_omega(structure.field_config_n2(1.0, -1.0)),
                                       model.hessian(2), model.gradient_offset(2))
    states = dynamics.affine_flow(chain.reduced_flow, chain.flow_offset, z0, 0.01, 50)
    rows = [[t, *z, scalar_hamiltonian(model, z), scalar_residual(chain.constraints, z)]
            for t, z in zip(times, states)]
    header = ["t", "q1", "q2", "p1", "p2", "H", "constraint_residual"]
    assert got == csv_text(header, rows)
    # Row 0 is z0 itself; its residual is a subnormal that depends on the
    # SVD that built the constraint rows.
    assert got.splitlines()[1].startswith("0,1e-300,-0,-0,1e-300,0,")


def test_long_simulate_csv_matches_per_value_format(tmp_path):
    # 10,001 rows: cmd_simulate converts the table in chunks of 4096 rows.
    config = {"schema_version": 1, "N": 2, "field": {"B": 1.0, "C": 0.5},
              "model": {"m": 1.0, "kappa": 1.0}, "state": [1.0, 0.0, 0.0, 1.0],
              "time": {"t_final": 100.0, "dt": 0.01}}
    got = simulate_csv(tmp_path, config)

    model = dynamics.OscillatorModel(m=1.0, kappa=1.0)
    cfg = structure.field_config_n2(1.0, 0.5)
    states = dynamics.affine_flow(*dynamics.flow_matrix(cfg, model),
                                  [1.0, 0.0, 0.0, 1.0], 0.01, 10_000)
    rows = np.column_stack([0.01 * np.arange(10_001), states, model.hamiltonian(states),
                            darboux.lambda3(cfg, states)])
    assert got == csv_text(["t", "q1", "q2", "p1", "p2", "H", "Lambda3"], rows)
    assert len(got.splitlines()) == 10_002
