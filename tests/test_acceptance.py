"""Acceptance gate.

Runs every acceptance criterion at its stated tolerance on seeded
instances at the standard experiment scale (20 agents, arc probability
0.7), printing one PASS/FAIL line per criterion (run pytest with -s to
see them).  The legacy-threshold scaling criterion is expected to fail
and is marked xfail(strict): uniform cost scaling moves the threshold by
exactly one inverse power of the scale factor, not two; see the test
body for the measured exponent.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest

import lemma_checks
from conftest import induced_pi_norm_oracle, perron_oracle, svd_norm_oracle
from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import harness as hz
from pushopt import network as nw
from pushopt import operators as op
from pushopt.linalg import pi_norm

CASE1_SEEDS = (1, 2, 3, 4, 5)
CASE2_SEEDS = (1, 2, 3, 4, 5)
FIG1_SEEDS = tuple(range(10))

# wide coarse tuning grid: reaches each instance's stability boundary in
# tens of runs instead of thousands
TUNE = dict(grid_start=5e-4, grid_step=2.5e-4, budget=60, iters=400)

# the stepsizes the one-run-per-candidate tuner selected on FIG1_SEEDS with
# TUNE; the stacked tuner must select the same values, bit for bit
FIG1_TUNED = (0.009000000000000001, 0.013250000000000001, 0.01375,
              0.013250000000000001, 0.0125, 0.013000000000000001, 0.01375,
              0.013500000000000002, 0.011250000000000001, 0.0115)


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {label}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class Instance:
    net: object
    ensemble: object
    eps: float
    alpha0: float
    rate: float


def _make_instance(seed, case):
    net = nw.build_mixing_matrix(nw.generate_digraph(20, 0.7, seed))
    if case == "case1":
        ens = co.make_case1_ensemble(20, 3, 4, 2.0, seed + hz.COST_SEED_OFFSET)
        eps = None
    else:
        ens = co.make_case2_ensemble(20, 10, 4, seed + hz.COST_SEED_OFFSET)
        eps = 0.01
    alpha0, rate = op.contraction_constant(net, ens, eps)
    return Instance(net=net, ensemble=ens, eps=eps, alpha0=alpha0, rate=rate)


@pytest.fixture(scope="module")
def case1_instances():
    return [_make_instance(s, "case1") for s in CASE1_SEEDS]


@pytest.fixture(scope="module")
def case2_instances():
    return [_make_instance(s, "case2") for s in CASE2_SEEDS]


@pytest.fixture(scope="module")
def scenario_instances():
    """The instances the bundled fixed-point scenarios run on (default seed).

    The run-length-sensitive criteria (reaching the fixed-point floor in
    1000 rounds, plateau formation) are figure analogs: they hold on the
    scenario instances with wide margins but are instance-relative, since
    the case-2 contraction margin 1 - C alpha0 varies with the draw.
    """
    out = []
    for scenario in ("fig3_case1", "fig5_case2"):
        cfg = hz.resolve_config({"scenario": scenario})
        net = hz.build_network(cfg)
        ens = hz.build_ensemble(cfg)
        eps = cfg.eps if ens.case_tag == "case2" else None
        alpha0, rate = op.contraction_constant(net, ens, eps)
        out.append(Instance(net=net, ensemble=ens, eps=eps, alpha0=alpha0, rate=rate))
    return out


@pytest.fixture(scope="module")
def fig1_instances():
    out = []
    for seed in FIG1_SEEDS:
        net = nw.build_mixing_matrix(nw.generate_digraph(20, 0.7, seed))
        ens = co.make_case1_ensemble(20, 10, 10, 0.1, seed + hz.COST_SEED_OFFSET)
        alpha0, _ = op.contraction_constant(net, ens)
        tuned = hz.tune_pd_stepsize(net, ens, **TUNE)
        out.append((net, ens, alpha0, tuned))
    return out


def test_criterion_01_contraction_certificates(case1_instances, case2_instances):
    """Measured operator Lipschitz under 1 - C alpha on 200 grid points."""
    worst = -np.inf
    for inst in case1_instances + case2_instances:
        alphas = inst.alpha0 * np.arange(1, 201) / 200
        lips = op.lipschitz_sweep(inst.net, inst.ensemble, alphas)
        worst = max(worst, float(np.max(lips - (1.0 - inst.rate * alphas))))
    ok = worst <= 1e-9
    _report(1, "contraction certificate on 10 instances",
            ok, f"max Lipschitz excess {worst:.3e}")
    assert ok


def test_criterion_02_fixed_point_convergence(scenario_instances, case1_instances,
                                              case2_instances):
    """Runs at the stepsize ceiling reach the fixed point within 1000
    rounds on the scenario instances, and every instance's trace stays
    under the certified envelope."""
    ok_all = True
    details = []
    tagged = [(inst, True) for inst in scenario_instances]
    tagged += [(inst, False) for inst in case1_instances + case2_instances]
    for inst, scenario in tagged:
        cert = op.certify(inst.net, inst.ensemble, eps=inst.eps)
        fp = op.solve_fixed_point(
            op.OperatorContext(inst.net, inst.ensemble, inst.alpha0), tol=1e-12
        )
        refs = alg.RunRefs(x_star=None, w_fixed=fp.w)
        trace = alg.gp_run(inst.net, inst.ensemble, inst.alpha0,
                           np.zeros((inst.net.n, inst.ensemble.d)), 1000, refs)
        errors = trace.w_fp_err
        dominated, detail2 = hz.check_envelope_domination(cert, errors)
        ok = dominated
        if scenario:
            reached, detail1 = hz.check_fp_convergence(errors)
            ok &= reached
            details.append(f"{inst.ensemble.case_tag}: {detail1}")
        ok_all &= ok
        if not ok:
            details.append(f"{inst.ensemble.case_tag}: {detail2}")
    _report(2, "fixed-point convergence and envelope domination",
            ok_all, "; ".join(details))
    assert ok_all


def test_criterion_03_linear_neighborhood(scenario_instances):
    """Fixed-point-to-optimum gap below the bound, slope close to one."""
    ok_all = True
    details = []
    for inst in scenario_instances:
        cert = op.certify(inst.net, inst.ensemble, eps=inst.eps)
        x_star = co.ensemble_minimizer(inst.ensemble)
        alphas = [inst.alpha0 * i / 40 for i in range(1, 41)]
        errors, bounds = [], []
        for a in alphas:
            fp = op.solve_fixed_point(op.OperatorContext(inst.net, inst.ensemble, a),
                                      tol=1e-12)
            errors.append(pi_norm(fp.w - np.outer(inst.net.n * inst.net.pi, x_star),
                                  inst.net.pi))
            bounds.append(op.optimality_gap_bound(inst.net, inst.ensemble, cert, a))
        dominated, d1 = hz.check_rowwise_bound(errors, bounds)
        sloped, d2 = hz.check_slope(alphas, errors)
        ok_all &= dominated and sloped
        details.append(f"{inst.ensemble.case_tag}: {d2}")
    _report(3, "gap linear in stepsize over 40-point sweep", ok_all, "; ".join(details))
    assert ok_all


def test_criterion_04_plateau_ordering(scenario_instances):
    """Run plateaus ordered in the stepsize and under the gap bound."""
    ok_all = True
    details = []
    for inst in scenario_instances:
        cert = op.certify(inst.net, inst.ensemble, eps=inst.eps)
        x_star = co.ensemble_minimizer(inst.ensemble)
        refs = alg.RunRefs(x_star=x_star)
        plateaus, bounds = [], []
        for mult in (0.2, 0.5, 1.0):
            trace = alg.gp_run(inst.net, inst.ensemble, mult * inst.alpha0,
                               np.zeros((inst.net.n, inst.ensemble.d)), 1000, refs)
            plateaus.append(hz.plateau_level(trace.w_opt_err))
            bounds.append(op.optimality_gap_bound(inst.net, inst.ensemble, cert,
                                                  mult * inst.alpha0) + 1e-12)
        ordered, d1 = hz.check_plateau_ordering(plateaus)
        under, d2 = hz.check_rowwise_bound(plateaus, bounds)
        ok_all &= ordered and under
        details.append(f"{inst.ensemble.case_tag}: {d1}")
    _report(4, "plateau ordering at multipliers 0.2/0.5/1.0", ok_all, "; ".join(details))
    assert ok_all


def test_criterion_05a_stepsize_ceiling_scaling(case1_instances):
    """Doubling every cost exactly halves the stepsize ceiling."""
    inst = case1_instances[0]
    worst = 0.0
    for c in (2.0, 4.0, 8.0):
        scaled = co.scale_ensemble(inst.ensemble, c)
        a_scaled = op.stepsize_ceiling(inst.net, scaled)
        worst = max(worst, abs(a_scaled * c / inst.alpha0 - 1.0))
    ok = worst <= 1e-12
    _report(5, "stepsize ceiling scales as 1/c", ok, f"max relative error {worst:.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the legacy threshold scales as 1/c under uniform cost scaling: "
    "beta and L scale together, so gamma gains one factor c, q is scale-free, "
    "and only the explicit 1/L contributes; the expected 1/c^2 needs the "
    "strong-convexity constant held fixed while L grows, which uniform "
    "scaling cannot do",
)
def test_criterion_05b_legacy_threshold_scaling(case1_instances):
    """Expected-fail: legacy threshold asserted to scale as 1/c^2."""
    inst = case1_instances[0]
    _, inv_y_max = op.estimate_consensus_constants(inst.net)
    base = op.legacy_stepsize_threshold(inst.net, inst.ensemble, inv_y_max)
    ratios = []
    for c in (2.0, 4.0, 8.0):
        scaled_ens = co.scale_ensemble(inst.ensemble, c)
        q_scaled = op.legacy_stepsize_threshold(inst.net, scaled_ens, inv_y_max)
        ratios.append(q_scaled * c * c / base)
    worst = max(abs(r - 1.0) for r in ratios)
    exponent = -hz.fit_loglog_slope(
        [2.0, 4.0, 8.0],
        [op.legacy_stepsize_threshold(inst.net, co.scale_ensemble(inst.ensemble, c),
                                      inv_y_max) for c in (2.0, 4.0, 8.0)],
    )
    _report(5, "legacy threshold scales as 1/c^2 (expected fail)", worst <= 0.05,
            f"deviation {worst:.2f} from 1/c^2; measured exponent {exponent:.3f}")
    assert worst <= 0.05


def test_criterion_06_push_diging_exact_convergence(fig1_instances):
    """Tuned Push-DIGing reaches 1e-8 within 5000 rounds on every seed."""
    ok_all = True
    finals = []
    for net, ens, _, tuned in fig1_instances:
        x_star = co.ensemble_minimizer(ens)
        trace = alg.pd_run(net, ens, tuned,
                           alg.init_pd_state(net, ens, np.zeros((net.n, ens.d))),
                           5000, alg.RunRefs(x_star=x_star))
        best = min(trace.sum_z_err.tolist())
        finals.append(best)
        ok_all &= best <= 1e-8
    _report(6, "Push-DIGing below 1e-8 within 5000 rounds", ok_all,
            f"worst {max(finals):.2e}")
    assert ok_all


def test_criterion_07_hybrid_superiority(fig1_instances):
    """Warm-started hybrid beats pure Push-DIGing on at least 9 of 10 seeds."""
    wins = 0
    pairs = []
    for net, ens, alpha0, tuned in fig1_instances:
        x_star = co.ensemble_minimizer(ens)
        refs = alg.RunRefs(x_star=x_star)
        x0 = np.zeros((net.n, ens.d))
        pd = alg.pd_run(net, ens, tuned, alg.init_pd_state(net, ens, x0), 500, refs)
        hybrid = alg.hybrid_run(net, ens, alpha0, tuned, 100, 500, x0, refs)
        pairs.append((hybrid.sum_z_err[-1], pd.sum_z_err[-1]))
        wins += bool(hybrid.sum_z_err[-1] <= pd.sum_z_err[-1])
    ok = wins >= 9
    _report(7, "hybrid final error at most Push-DIGing's", ok, f"{wins}/10 seeds")
    assert ok


def test_tuned_stepsizes_match_the_sequential_walk(fig1_instances):
    assert tuple(tuned for *_, tuned in fig1_instances) == FIG1_TUNED


def test_criterion_08_lemma_suite():
    """Every analytic property holds on 100 random draws."""
    results = lemma_checks.run_all()
    ok_all = True
    for name, violations in sorted(results.items()):
        ok_all &= not violations
        print(f"  lemma-suite {name}: "
              + ("ok" if not violations else f"{len(violations)} violations"))
    _report(8, "lemma property suite (9 families x 100 draws)", ok_all)
    assert ok_all


def test_criterion_09_oracle_agreement(case1_instances):
    """Independent oracles agree with the production paths."""
    inst = case1_instances[0]
    net, ens = inst.net, inst.ensemble
    rng = np.random.default_rng(90)

    # finite-difference gradients
    fd_ok = True
    for cost in ens.costs[:5]:
        x = rng.standard_normal(ens.d)
        g = cost.gradient(x)
        fd = np.zeros_like(x)
        for i in range(ens.d):
            e = np.zeros(ens.d)
            e[i] = 1e-5
            r_plus = cost.A @ (x + e) - cost.b
            r_minus = cost.A @ (x - e) - cost.b
            f_plus = 0.5 * (r_plus @ r_plus + cost.delta_reg * (x + e) @ (x + e))
            f_minus = 0.5 * (r_minus @ r_minus + cost.delta_reg * (x - e) @ (x - e))
            fd[i] = (f_plus - f_minus) / 2e-5
        fd_ok &= np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    # dense eigensolver and SVD against the iterative kernels
    pi_gap = float(np.max(np.abs(net.pi - perron_oracle(net.W))))
    rho_oracle = induced_pi_norm_oracle(net.W - np.outer(net.pi, np.ones(net.n)), net.pi)
    rho_gap = abs(net.rho - rho_oracle) / rho_oracle
    M = rng.standard_normal((12, 12))
    from pushopt.linalg import spectral_norm
    sv_gap = abs(spectral_norm(M) - svd_norm_oracle(M)) / svd_norm_oracle(M)
    dense_ok = pi_gap <= 1e-8 and rho_gap <= 1e-8 and sv_gap <= 1e-8

    # four-variable trace against the mixed-state-only recursion
    x0 = rng.standard_normal((net.n, ens.d))
    alpha = 0.5 * inst.alpha0
    state = alg.init_gp_state(net, ens, x0)
    w_ref = net.W @ x0
    y_ref = net.W @ np.ones(net.n)
    trace_ok = True
    for _ in range(100):
        state = alg.gp_step(net, ens, alpha, state)
        trace_ok &= np.max(np.abs(state.w - w_ref)) <= 1e-12
        w_ref = net.W @ (w_ref - alpha * co.grad_stack(ens, w_ref / y_ref[:, None]))
        y_ref = net.W @ y_ref

    # minimizer residual
    x_star = co.ensemble_minimizer(ens)
    total = sum(c.gradient(x_star) for c in ens.costs)
    min_ok = np.linalg.norm(total) <= 1e-9 * (1 + np.linalg.norm(x_star))

    ok = fd_ok and dense_ok and trace_ok and min_ok
    _report(9, "oracle agreement (gradients, eigensolver, traces, minimizer)", ok,
            f"pi {pi_gap:.1e}, rho rel {rho_gap:.1e}, svd rel {sv_gap:.1e}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    """Reproduce scenarios twice; artifacts must match byte for byte.
    Each scenario must also finish well inside its time budget."""
    import time

    ok = True
    for figure, scenario in (("fig1", "fig1_hybrid"), ("fig2", "fig2_contraction"),
                             ("fig3", "fig3_case1"), ("fig5", "fig5_case2"),
                             ("fig6", "fig6_case2_sweep")):
        payload = {"scenario": scenario, "seed": 7}
        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"{figure}_{run}"
            cfg = hz.resolve_config({**payload, "out_dir": str(out)})
            started = time.perf_counter()
            reports.append(hz.run_scenario(cfg))
            ok &= time.perf_counter() - started < 60.0
        out_a, out_b = tmp_path / f"{figure}_a", tmp_path / f"{figure}_b"
        names = reports[0].manifest + ["report.json"]
        for name in names:
            ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # the reports must also parse and carry their manifests
        data = json.loads((out_a / "report.json").read_text())
        ok &= set(data["manifest"]) == set(reports[0].manifest)
    _report(10, "byte-identical artifacts on repeated runs", ok)
    assert ok
