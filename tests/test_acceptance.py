"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from avgrec.averaging import AveragingCondition, Variant, observe
from avgrec.cli import parse_config, run_experiment
from avgrec.evolution import TimeGrid, evolution_series
from avgrec.models import LinearTestModel, NonlocalRDModel
from avgrec.solver import (
    RecoveryConfig,
    Trajectory,
    contraction_probe,
    fixed_point_recover,
    forward_solve,
    operator_path,
    self_convergence_error,
    smallness_scan,
    weighted_distance,
)
from avgrec.spatial import (
    BoundaryKind,
    assemble_laplacian,
    band_stack,
    build_grid,
)

from conftest import sqrt_holder_path
from oracles import (
    DensePath,
    apply_psi,
    assemble_phi,
    banded_path,
    dense_generator,
    evolution_stepper,
    phi_lipschitz_probe,
    rebuilt_column,
    semigroup_perturbation_check,
    volterra_resolvent,
)


def report_line(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({title}): {status}{suffix}")
    assert ok, f"criterion {num} ({title}) failed: {detail}"


def test_criterion_1_evolution_cross_validation(series_family):
    diffs = {}
    for K in (32, 64, 128):
        entry = series_family[K]
        u_s = entry["series"].op(K, 0)
        u_c = entry["stepper"].op(K, 0)
        diffs[K] = np.linalg.norm(u_s - u_c, 2) / np.linalg.norm(u_c, 2)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8))
    a = 0.5 * (a + a.T) - 3 * np.eye(8)
    grid_t = TimeGrid(T=1.0, K=16)
    const_path = DensePath(grid=grid_t, matrices=np.repeat(a[None], 17, axis=0), holder_rho=0.5)
    u_const = rebuilt_column(evolution_series(const_path), grid_t, 8)[16]
    exact = expm(a)
    const_err = np.linalg.norm(u_const - exact) / np.linalg.norm(exact)
    ok = (
        diffs[128] <= 0.02
        and diffs[32] > diffs[64] > diffs[128]
        and const_err <= 1e-12
    )
    report_line(
        1,
        "evolution operator cross-validation",
        ok,
        f"diffs={diffs[32]:.2e}>{diffs[64]:.2e}>{diffs[128]:.2e}, "
        f"constant-path err={const_err:.2e}",
    )


def test_criterion_2_phi_spectral_oracle():
    # n = 32 Neumann Laplacian at unit spacing (the criterion leaves the
    # domain length free; unit spacing keeps every mode resolved by the
    # trapezoid rule in time, see the decisions ledger).
    base = assemble_laplacian(build_grid(32, 32.0, BoundaryKind.NEUMANN))
    lam = np.sort(base.eigenvalues)
    oracle = np.where(np.abs(lam) < 1e-13, 1.0, np.expm1(lam) / np.where(np.abs(lam) < 1e-13, 1.0, lam))
    errors = {}
    positive = True
    for K in (64, 128, 256):
        grid_t = TimeGrid(T=1.0, K=K)
        path = banded_path(grid_t, np.repeat(band_stack(*base.bands)[None], K + 1, 0), 0.5)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        phi = assemble_phi(evolution_series(path), cond)
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (phi.matrix + phi.matrix.T)))
        errors[K] = np.max(np.abs(eigs - oracle) / oracle)
        positive = positive and bool(np.min(eigs) > 0)
    orders = [np.log2(errors[64] / errors[128]), np.log2(errors[128] / errors[256])]
    ok = errors[256] <= 1e-4 and min(orders) >= 2.0 - 0.1 and positive
    report_line(
        2,
        "Phi spectral oracle",
        ok,
        f"err(K=256)={errors[256]:.2e}, orders={orders[0]:.2f},{orders[1]:.2f}, "
        f"positive={positive}",
    )


def test_criterion_3_linear_recovery_exactness():
    model = LinearTestModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))
    grid_t = TimeGrid(T=0.5, K=64)
    rng = np.random.default_rng(7)
    x0 = 0.3 * rng.standard_normal(16)
    zero_path = banded_path(grid_t, np.repeat(band_stack(*model.bands)[None], 65, 0), 0.5)
    table = evolution_stepper(zero_path)
    worst = 0.0
    for variant in Variant:
        cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=0.5)
        if variant is Variant.TIME_AVERAGE:
            M = assemble_phi(table, cond).matrix @ x0
        elif variant is Variant.INITIAL_PLUS_AVERAGE:
            M = x0 + assemble_phi(table, cond).matrix @ x0
        else:
            M = x0 - cond.w0 * table.op(grid_t.K, 0) @ x0
        u0, _, _ = fixed_point_recover(model, cond, M)
        worst = max(worst, np.linalg.norm(u0 - x0) / np.linalg.norm(x0))
    ok = worst <= 1e-6
    report_line(3, "linear recovery exactness", ok, f"worst rel err={worst:.2e}")


def test_criterion_4_manufactured_round_trip(manufactured):
    worst = 0.0
    detail = []
    for (name, K), run in sorted(manufactured.items()):
        for variant, data in run["variants"].items():
            err = np.linalg.norm(data["u0"] - run["u0_true"]) / np.linalg.norm(run["u0_true"])
            ratio = err / run["E"]
            worst = max(worst, ratio)
            if K == 128:
                detail.append(f"{name[:5]}/{variant.value[:4]}={ratio:.2f}")
    ok = worst <= 3.0
    report_line(
        4,
        "manufactured quasilinear round trip",
        ok,
        f"worst error/E(h)={worst:.2f} across models, variants, resolutions",
    )


def test_reaction_diffusion_round_trip_where_the_coefficient_acts(rd32, monkeypatch):
    # Criterion 4's set-up with a truth of nonzero mass: l(u) is about 5e-3,
    # so a = 1 + l(u)^2 differs from 1, and the forcing moves l(u) from node
    # to node, so some sweep's generator path is not constant.  From a truth
    # of zero mass a is 1.0 exactly and every path is constant.
    import avgrec.solver

    distinct = []

    def counted(*args, **kwargs):
        path, f_states = operator_path(*args, **kwargs)
        distinct.extend(
            len(np.unique(np.concatenate(row.bands, axis=-1), axis=0)) for row in path.rows
        )
        return path, f_states

    monkeypatch.setattr(avgrec.solver, "operator_path", counted)
    u0_true = 1e-2 * np.cos(np.pi * rd32.base.grid.nodes) + 5e-3
    ratios = {}
    for K in (64, 128, 256):
        tg = TimeGrid(T=0.5, K=K)
        truth = forward_solve(rd32, u0_true, tg)
        e_h = self_convergence_error(rd32, u0_true, tg)
        for variant in Variant:
            cond = AveragingCondition.from_preset(tg, variant, "constant", w0=0.5)
            M = observe(cond, truth.states)
            u0, _, _ = fixed_point_recover(rd32, cond, M, RecoveryConfig())
            err = np.linalg.norm(u0 - u0_true) / np.linalg.norm(u0_true)
            ratios[variant.value, K] = err / e_h
    assert max(ratios.values()) <= 3.0, ratios
    assert max(distinct) > 1, distinct


def test_criterion_5_uniqueness_contraction(manufactured):
    tol = RecoveryConfig().tol_fixed_point
    worst_spread = 0.0
    ratios_ok = True
    for name in ("chemotaxis", "reaction_diffusion"):
        run = manufactured[name, 128]
        for variant, data in run["variants"].items():
            probe = contraction_probe(
                run["model"], data["cond"], data["M"], RecoveryConfig(), trials=5, seed=0
            )
            assert probe.all_converged, probe.failures
            worst_spread = max(worst_spread, probe.limit_spread)
            for seq in probe.per_run_ratios:
                ratios_ok = ratios_ok and all(r < 1.0 for r in seq[-3:])
    ok = worst_spread <= 10 * tol and ratios_ok
    report_line(
        5,
        "uniqueness and contraction",
        ok,
        f"max pairwise limit spread={worst_spread:.2e} (allowed {10 * tol:.0e}), "
        f"last-3 contraction ratios < 1: {ratios_ok}",
    )


def test_criterion_6_smallness_threshold(chemo16):
    grid_t = TimeGrid(T=0.5, K=64)
    cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
    direction = np.cos(np.pi * chemo16.base.grid.nodes)
    direction /= np.linalg.norm(direction)
    amplitudes = list(np.geomspace(1e-2, 30.0, 8))
    result = smallness_scan(
        chemo16, cond, direction, amplitudes, RecoveryConfig(max_iters=40)
    )
    flags = [row.converged for row in result.rows]
    monotone = all(not (a and not b) for a, b in zip(flags[1:] + [flags[-1]], flags))
    u0_zero, traj_zero, _ = fixed_point_recover(chemo16, cond, np.zeros(16))
    zero_exact = np.all(u0_zero == 0.0) and np.all(traj_zero.states == 0.0)
    transition = flags[0] and not flags[-1]
    # no re-entrant convergence: flags sorted descending equals flags
    no_reentry = flags == sorted(flags, reverse=True)
    ok = transition and no_reentry and zero_exact
    report_line(
        6,
        "smallness threshold scan",
        ok,
        f"flags={''.join('C' if f else 'x' for f in flags)}, "
        f"m0 lower bound={result.m0_lower_bound:.3g}, zero data exact={zero_exact}",
    )


def test_criterion_7_kernel_bound_analogue():
    bounds = {}
    for K in (32, 64, 128, 256):
        path = sqrt_holder_path(K)
        bounds[K] = volterra_resolvent(path).weighted_bound
    spread = max(bounds.values()) / min(bounds.values())
    ok = spread < 2.0
    report_line(
        7,
        "weighted resolvent kernel bound",
        ok,
        f"max/min={spread:.3f} over K=32..256 (values "
        + ", ".join(f"{bounds[k]:.4f}" for k in sorted(bounds)) + ")",
    )


def test_criterion_8_lipschitz_probes():
    base = assemble_laplacian(build_grid(8, 1.0, BoundaryKind.NEUMANN))
    smoother = np.eye(8) - band_stack(*base.bands)  # discrete (shift - Laplacian), shift = 1
    grid_t = TimeGrid(T=0.5, K=32)
    cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
    ratios = []
    for eps in (1e-3, 1e-4, 1e-5):
        a = banded_path(grid_t, np.repeat(0.5 * band_stack(*base.bands)[None], 33, 0), 0.5)
        b = banded_path(grid_t, a.generators() + eps * np.eye(8), 0.5)
        ratios.append(phi_lipschitz_probe(a, b, cond, smoother=smoother))
    stable_phi = max(ratios) <= 2.0 * min(ratios)
    rng = np.random.default_rng(8)
    m1 = rng.standard_normal((8, 8))
    m1 = 0.5 * (m1 + m1.T) - 2 * np.eye(8)
    m2 = m1 + 1e-4 * rng.standard_normal((8, 8))
    pert = semigroup_perturbation_check(m1, m2, list(np.linspace(0.05, 1.0, 12)), smoother=smoother)
    ok = stable_phi and pert.stable_plain and pert.stable_smoothed
    report_line(
        8,
        "Lipschitz probes",
        ok,
        f"phi ratios={ratios[0]:.3e},{ratios[1]:.3e},{ratios[2]:.3e}, "
        f"semigroup stable={pert.stable_plain and pert.stable_smoothed}",
    )


def test_criterion_9_invariant_bundle(series_family, chemo16, rd32, tmp_path):
    checks = {}
    # cocycle: exact composition for the stepper, small for the series
    table = series_family[64]["stepper"]
    lhs = table.op(64, 32) @ table.op(32, 0)
    rhs = table.op(64, 0)
    checks["stepper cocycle"] = (
        np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)
    )
    ser = series_family[128]["series"]
    u = ser.op(128, 0)
    defect = np.linalg.norm(ser.op(128, 64) @ ser.op(64, 0) - u, 2) / np.linalg.norm(u, 2)
    checks["series cocycle defect"] = defect <= 1e-2
    # forcing vanishes at zero for every shipped model
    checks["f(0) = 0"] = (
        np.all(chemo16.linearise(np.zeros(16))[1] == 0.0)
        and np.all(rd32.linearise(np.zeros(32))[1] == 0.0)
    )
    # divergence-form no-flux mass conservation: row sums vanish
    rng = np.random.default_rng(9)
    row_sums = max(
        np.abs(dense_generator(rd32, 0.3 * rng.standard_normal(32)).sum(axis=1)).max()
        for _ in range(5)
    )
    checks["rd_A row sums"] = row_sums <= 1e-8
    # Psi of the zero trajectory is exactly zero
    grid_t = series_family[32]["path"].grid
    cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
    zero = Trajectory(grid_t, np.zeros((grid_t.K + 1, 16)))
    psi_zero = apply_psi(zero, series_family[32]["stepper"], cond)
    checks["Psi(0) = 0"] = np.all(psi_zero == 0.0)
    # weighted-distance homogeneity
    u_t = Trajectory(grid=grid_t, states=rng.standard_normal((33, 16)))
    v_t = Trajectory(grid=grid_t, states=rng.standard_normal((33, 16)))
    d1 = weighted_distance(u_t.states, v_t.states, chemo16, grid_t)
    d3 = weighted_distance(3.0 * u_t.states, 3.0 * v_t.states, chemo16, grid_t)
    checks["distance homogeneity"] = abs(d3 - 3.0 * d1) <= 1e-10 * d1
    # CSV round trip is lossless
    from avgrec.artifacts import emit_trajectory_csv
    from oracles import read_trajectory_csv

    csv_path = tmp_path / "traj.csv"
    emit_trajectory_csv(u_t, csv_path)
    _, back = read_trajectory_csv(csv_path)
    checks["csv round trip"] = np.array_equal(back, u_t.states)
    # determinism: identical config + seed gives byte-identical artifacts
    text = (
        "[model]\nkind = linear_test\n[grid]\nn = 8\n[time]\nhorizon = 0.25\nsteps = 8\n"
        "[data]\namplitude = 0.05\n"
    )
    cfg = parse_config(text)
    run_a = run_experiment(replace(cfg, out=str(tmp_path / "a")))
    run_b = run_experiment(replace(cfg, out=str(tmp_path / "b")))
    tables = ("trajectory.csv", "recovered_u0.csv")
    bytes_a = b"".join((run_a / name).read_bytes() for name in tables)
    bytes_b = b"".join((run_b / name).read_bytes() for name in tables)
    checks["determinism"] = bytes_a == bytes_b
    ok = all(checks.values())
    report_line(
        9,
        "module invariant bundle",
        ok,
        ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()),
    )
