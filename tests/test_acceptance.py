"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -v -s tests/test_acceptance.py`).

Every tolerance is pinned here to its contractual value; nothing is
calibrated at runtime.
"""

import json
import time

import numpy as np
from scipy.linalg import expm

from ncphase import cli, darboux as dx, dynamics as dyn
from ncphase import spectrum as sp, structure as st

import closed_forms as cf

UNIT = dyn.OscillatorModel(m=1.0, kappa=1.0)


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def random_config(rng, N):
    eF = rng.uniform(-2, 2, (N, N))
    rG = rng.uniform(-2, 2, (N, N))
    return st.FieldConfig(N, 0.5 * (eF - eF.T), 0.5 * (rG - rG.T))


def test_poisson_structure_correctness():
    rng = np.random.RandomState(101)
    start = time.time()
    worst = 0.0
    produced = 0
    while produced < 1000:
        cfg = random_config(rng, rng.randint(1, 7))
        if abs(st.regularity(cfg, 0.0)) <= 1e-6:
            continue
        produced += 1
        lam = st.poisson_matrix(cfg)
        dense = -cf.refined_inv(st.build_omega(cfg))
        worst = max(worst, float(np.abs(lam - dense).max()))
    elapsed = time.time() - start
    report(
        "poisson-structure-correctness",
        worst <= 1e-10 and elapsed < 5.0,
        f"(max dev {worst:.2e}, {elapsed:.2f}s over 1000 configs)",
    )


def test_darboux_residuals():
    rng = np.random.RandomState(102)
    start = time.time()

    worst_n2 = 0.0
    produced = 0
    while produced < 500:
        B, C = rng.uniform(-2, 2, 2)
        if 1 + B * C <= 1e-3:
            continue
        produced += 1
        worst_n2 = max(worst_n2, cf.darboux_n2(B, C).residual)

    worst_n3 = 0.0
    produced = 0
    while produced < 500:
        bvec, cvec = rng.uniform(-2, 2, (2, 3))
        if 1 + np.dot(cvec, bvec) <= 1e-3:
            continue
        produced += 1
        worst_n3 = max(worst_n3, cf.darboux_n3(bvec, cvec).residual)

    worst_generic = 0.0
    for N in range(1, 7):
        produced = 0
        while produced < 10:
            cfg = random_config(rng, N)
            if abs(st.regularity(cfg, 0.0)) <= 0.1:
                continue
            produced += 1
            worst_generic = max(worst_generic, dx.darboux_generic(st.build_omega(cfg)).residual)

    worst_equiv = 0.0
    produced = 0
    while produced < 50:
        B, C = rng.uniform(-1.5, 1.5, 2)
        if 1 + B * C <= 0.05:
            continue
        produced += 1
        closed = cf.darboux_n2(B, C)
        generic = dx.darboux_generic(st.build_omega(st.field_config_n2(B, C)))
        worst_equiv = max(worst_equiv, dx.symplectic_deviation(closed.T @ generic.Tinv))

    elapsed = time.time() - start
    ok = worst_n2 <= 1e-9 and worst_n3 <= 1e-9 and worst_generic <= 1e-8 and worst_equiv <= 1e-8
    report(
        "darboux-residuals",
        ok and elapsed < 10.0,
        f"(n2 {worst_n2:.2e}, n3 {worst_n3:.2e}, generic {worst_generic:.2e}, "
        f"equivalence {worst_equiv:.2e}, {elapsed:.2f}s)",
    )


def test_frequency_identities():
    rng = np.random.RandomState(103)
    worst = 0.0
    produced = 0
    while produced < 500:
        m, k = rng.uniform(0.5, 2.0, 2)
        B, C = rng.uniform(-2, 2, 2)
        if 1 + B * C <= 1e-4:
            continue
        produced += 1
        model = dyn.OscillatorModel(m=float(m), kappa=float(k))
        fr = cf.n2_frequencies(model, B, C)
        assert fr.omega_plus > 0 and fr.omega_minus > 0
        M, _ = dyn.flow_matrix(st.field_config_n2(B, C), model)
        got = np.sort(np.abs(np.linalg.eigvals(M).imag))
        want = np.sort([fr.omega_minus, fr.omega_minus, fr.omega_plus, fr.omega_plus])
        worst = max(worst, float(np.abs(got - want).max()))

    fr = cf.n2_frequencies(UNIT, 1.0, 0.0)
    point_err = max(
        abs(fr.omega_plus - (np.sqrt(5) + 1) / 2),
        abs(fr.omega_minus - (np.sqrt(5) - 1) / 2),
    )
    report(
        "frequency-identities",
        worst <= 1e-9 and point_err <= 1e-12,
        f"(eigenvalue dev {worst:.2e}, worked point {point_err:.2e})",
    )


def test_closed_form_vs_numeric_flow():
    rng = np.random.RandomState(104)
    worst = 0.0
    produced = 0
    while produced < 100:
        m, k = rng.uniform(0.5, 2.0, 2)
        B, C = rng.uniform(-1.5, 1.5, 2)
        if 1 + B * C <= 1e-2:
            continue
        produced += 1
        model = dyn.OscillatorModel(m=float(m), kappa=float(k))
        cfg = st.field_config_n2(B, C)
        M, _ = dyn.flow_matrix(cfg, model)
        z0 = rng.uniform(-1, 1, 4)
        for t in np.linspace(0.0, 20 * 2 * np.pi / np.sqrt(model.kappa / model.m), 9):
            za = cf.closed_form_solution_n2(model, B, C, z0, t)
            zb = expm(M * t) @ z0
            worst = max(worst, float(np.abs(za - zb).max()))

    cfg = st.field_config_n2(1.0, 0.5)
    z0 = [1.0, 0.0, 0.0, 0.0]
    M, k = dyn.flow_matrix(cfg, UNIT)
    ref = dyn.affine_flow(M, k, z0, 0.01, 200, "exact")[-1]
    e1 = np.abs(dyn.affine_flow(M, k, z0, 0.01, 200, "midpoint")[-1] - ref).max()
    e2 = np.abs(dyn.affine_flow(M, k, z0, 0.005, 400, "midpoint")[-1] - ref).max()
    ratio = e1 / e2

    energies = UNIT.hamiltonian(dyn.affine_flow(
        *dyn.flow_matrix(st.field_config_n2(0.7, -0.2), UNIT),
        [1.0, 0.2, -0.3, 0.4], 0.05, 100000, "midpoint"))
    drift = float(np.abs(energies - energies[0]).max() / abs(energies[0]))

    ok = worst <= 1e-8 and abs(ratio - 4.0) <= 0.4 and drift <= 1e-9
    report(
        "closed-form-vs-numeric-flow",
        ok,
        f"(flow dev {worst:.2e}, midpoint ratio {ratio:.3f}, drift {drift:.2e})",
    )


def test_degenerate_regime():
    cfg = st.field_config_n2(1.0, -1.0)
    chain = cf.gnh_from_model(cfg, UNIT)
    dims_ok = chain.dimensions == [4, 2]
    eig = chain.terminal_eigenvalues()
    eig_err = float(
        max(np.abs(np.sort(eig.imag) - np.array([-0.5, 0.5])).max(), np.abs(eig.real).max())
    )

    lc = cf.secondary_constraints(cfg, UNIT)
    z0 = np.array([1.0, 0.0, 0.0, 1.0])
    times = np.linspace(0.0, 10 * 2 * np.pi / 0.5, 2000)
    states = dyn.affine_flow(chain.reduced_flow, chain.flow_offset, z0, times[1], 1999)
    flow_residual = float(lc.residual(states).max())
    flow_err = float(np.abs(states - cf.degenerate_flow_n2(UNIT, -1.0, z0, times)).max())

    rs = cf.reduced_structure_n2(UNIT, -1.0)
    bracket_err = abs(rs.bracket_qqdag - 0.5j)

    ok = (dims_ok and eig_err <= 1e-10 and flow_residual <= 1e-9 and flow_err <= 1e-10
          and bracket_err <= 1e-12)
    report(
        "degenerate-regime",
        ok,
        f"(dims {chain.dimensions}, eig dev {eig_err:.2e}, "
        f"constraint residual {flow_residual:.2e}, flow dev {flow_err:.2e}, "
        f"bracket dev {bracket_err:.2e})",
    )


SCAN_EPS = np.geomspace(1e-1, 1e-3, 9)


def test_limit_study_slow_frequency_order():
    rows = sp.chi_limit_scan(UNIT, 1.0, SCAN_EPS)
    defects = np.abs(rows[:, 2] - 0.5)
    slope = cf.loglog_slope(SCAN_EPS, defects)
    report(
        "limit-study-slow-frequency",
        abs(slope - 2.0) <= 0.1,
        f"(|omega_minus - omega_r| log-log slope {slope:.3f})",
    )


def test_limit_study_fast_frequency_constant():
    rows = sp.chi_limit_scan(UNIT, 1.0, SCAN_EPS)
    last = rows[rows[:, 0] <= 1e-2]
    values = last[:, 1] * last[:, 0] ** 2
    variation = (max(values) - min(values)) / np.mean(values)
    report(
        "limit-study-fast-frequency",
        variation < 0.01,
        f"(omega_plus * eps^2 variation {variation:.2e} over the last decade)",
    )


def test_limit_study_fast_amplitude_order():
    # On-constraint initial data has fast-mode amplitude
    # (m kappa)^2 / (B^2 + m kappa)^2 eps^2 + O(eps^4): log-log slope 2,
    # prefactor 1/4 here.  Slope 1 is the order for a start O(eps) off
    # the constraint; see notes/decisions.md for the series and the
    # high-precision oracle.
    B = 1.0
    rows = sp.chi_limit_scan(UNIT, B, SCAN_EPS)
    slope = cf.loglog_slope(SCAN_EPS, rows[:, 4])
    mk = UNIT.m * UNIT.kappa
    prefactor = mk**2 / (B**2 + mk) ** 2
    last = rows[rows[:, 0] <= 1e-2]
    prefactor_dev = (np.abs(last[:, 4] / last[:, 0] ** 2 - prefactor) / prefactor).max()
    report(
        "limit-study-fast-amplitude",
        abs(slope - 2.0) <= 0.2 and prefactor_dev <= 1e-3,
        f"(log-log slope {slope:.3f}, amplitude / eps^2 deviates {prefactor_dev:.2e} "
        f"from {prefactor:g} over the last decade)",
    )


def test_spectra(tmp_path):
    table = cf.spectrum_n2(UNIT, 0.7, -0.3, 3)
    energies = dict(zip(map(tuple, table.quanta.tolist()), table.energies.tolist()))
    wp, wm = table.frequencies
    additivity = max(
        max(abs(energies[(i + 1, j)] - energies[(i, j)] - wp) for i in range(3) for j in range(4)),
        max(abs(energies[(i, j + 1)] - energies[(i, j)] - wm) for i in range(4) for j in range(3)),
    )
    ground_ok = (
        abs(table.energies[0] - 0.5 * (wp + wm)) <= 1e-14
        and abs(cf.spectrum_n2(UNIT, 0.0, 0.0, 1).energies[0] - 1.0) <= 1e-14
    )

    ladder = cf.spectrum_degenerate_n2(UNIT, -1.0, 4)
    ladder_err = np.abs(ladder.energies - 0.5 * (ladder.quanta[:, 0] + 0.5)).max()

    axial = cf.spectrum_n3_parallel(UNIT, 1.0, 0.0, 2)
    axial_err = abs(axial.energies[0] - (np.sqrt(5) / 2 + 0.5))

    # The program's one spectrum core against the three closed forms.
    core_err = 0.0
    for N, field, oracle in [(2, {"B": 0.7, "C": -0.3}, table), (2, {"B": 1.0, "C": -1.0}, ladder),
                             (3, {"Bvec": [0, 0, 1.0], "Cvec": [0, 0, 0.0]}, axial)]:
        path, out = tmp_path / "spectrum.json", tmp_path / "levels.json"
        path.write_text(json.dumps({"schema_version": 1, "N": N, "field": field,
                                    "model": {"m": 1.0, "kappa": 1.0}}))
        assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        got = json.loads(out.read_text())["frequencies"]
        want = sorted(oracle.frequencies, reverse=True)
        core_err = max(core_err, max(abs(g / w - 1.0) for g, w in zip(got, want)))

    ok = (additivity <= 1e-12 and ground_ok and ladder_err <= 1e-12 and axial_err <= 1e-12
          and core_err <= 1e-12)
    report(
        "spectra",
        ok,
        f"(additivity {additivity:.2e}, ladder dev {ladder_err:.2e}, axial dev {axial_err:.2e}, "
        f"core vs closed forms {core_err:.2e})",
    )


def test_symmetry(tmp_path):
    # A rotation R of the field lifts to the symplectic D = diag(R, R): the
    # rotated config has the Poisson matrix D Lambda D^T and the same
    # normal-mode frequencies.
    rng = np.random.RandomState(105)
    cfg = random_config(rng, 3)
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    lift = np.kron(np.eye(2), rot)
    runs = {}
    for name, (eF, rG) in {"plain": (cfg.eF, cfg.rG),
                           "rotated": (rot @ cfg.eF @ rot.T, rot @ cfg.rG @ rot.T)}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema_version": 1, "N": 3,
                                    "field": {"eF": eF.tolist(), "rG": rG.tolist()},
                                    "model": {"m": 1.0, "kappa": 1.0}}))
        for cmd in ("brackets", "spectrum"):
            out = tmp_path / f"{name}-{cmd}.json"
            assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
            runs[name, cmd] = json.loads(out.read_text())
    lam = np.array(runs["plain", "brackets"]["poisson"])
    lam_rot = np.array(runs["rotated", "brackets"]["poisson"])
    rot_err = np.abs(lam_rot - lift @ lam @ lift.T).max() / np.abs(lam).max()
    freqs, freqs_rot = (np.array(runs[name, "spectrum"]["frequencies"])
                        for name in ("plain", "rotated"))
    freq_err = np.abs(freqs_rot / freqs - 1.0).max()

    # The planar field is invariant under rotations about the third axis,
    # so the Lambda3 column of `simulate` is conserved.
    path = tmp_path / "planar.json"
    path.write_text(json.dumps({"schema_version": 1, "N": 2, "field": {"B": 1.0, "C": 0.5},
                                "model": {"m": 1.0, "kappa": 1.0},
                                "state": [1.0, -0.3, 0.4, 0.8],
                                "time": {"t_final": 20.0, "dt": 0.01}}))
    out = tmp_path / "planar.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert out.read_text().partition("\n")[0].endswith(",Lambda3")
    drift = np.ptp(np.loadtxt(out, delimiter=",", skiprows=1)[:, -1])

    report(
        "symmetry",
        rot_err <= 1e-12 and freq_err <= 1e-12 and drift <= 1e-10,
        f"(rotated Lambda {rot_err:.2e}, rotated frequencies {freq_err:.2e}, "
        f"Lambda3 drift {drift:.2e})",
    )


def test_cli_determinism(tmp_path):
    base = {
        "schema_version": 1,
        "N": 2,
        "field": {"B": 1.0, "C": 1.0},
        "model": {"m": 1.0, "kappa": 1.0},
    }
    jobs = [
        (["brackets"], base, cli.EXIT_OK),
        (["darboux"], dict(base, field={"B": 3.0, "C": 1.0}), cli.EXIT_OK),
        (["simulate"], dict(base, state=[1.0, 0.0, 0.0, 1.0],
                            time={"t_final": 2.0, "dt": 0.05, "method": "exact"}), cli.EXIT_OK),
        (["spectrum", "--nmax", "3"], dict(base, field={"B": 1.0, "C": 0.0}), cli.EXIT_OK),
        (["limit-scan", "--points", "5"], base, cli.EXIT_OK),
        (["reduce"], dict(base, field={"B": 1.0, "C": -1.0}), cli.EXIT_OK),
    ]
    identical = True
    for argv, cfg, want in jobs:
        path = tmp_path / f"{argv[0]}.json"
        path.write_text(json.dumps(cfg))
        out_a = tmp_path / f"{argv[0]}-a.out"
        out_b = tmp_path / f"{argv[0]}-b.out"
        code_a = cli.main([argv[0], "--config", str(path), "--out", str(out_a)] + argv[1:])
        code_b = cli.main([argv[0], "--config", str(path), "--out", str(out_b)] + argv[1:])
        identical &= code_a == code_b == want and out_a.read_bytes() == out_b.read_bytes()

    # Exit-code contract on fixture configs.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(base, schema_version=7)))
    codes_ok = cli.main(["brackets", "--config", str(bad)]) == cli.EXIT_CONFIG
    sing = tmp_path / "sing.json"
    sing.write_text(json.dumps(dict(base, field={"B": 1.0, "C": -1.0})))
    codes_ok &= cli.main(["brackets", "--config", str(sing), "--out",
                          str(tmp_path / "s.json")]) == cli.EXIT_SINGULAR
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "schema_version": 1, "N": 2,
        "problem": {
            "omega": [[0, -1, 1, 0], [1, 0, 0, 1], [-1, 0, 0, -1], [0, -1, 1, 0]],
            "hessian": [[0] * 4] * 4,
            "gradient": [1.0, 0.0, 0.0, 0.0],
        },
    }))
    codes_ok &= cli.main(["reduce", "--config", str(prob), "--out",
                          str(tmp_path / "p.json")]) == cli.EXIT_INCONSISTENT

    report("cli-determinism", identical and codes_ok,
           "(byte-identical reruns, exit-code contract)")
