import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pushopt import costs as co
from pushopt import harness as hz
from pushopt import network as nw
from pushopt import operators as op
from pushopt.errors import (
    DegenerateMixingError,
    InvalidRateError,
    NoConvergenceError,
    NonpositiveYError,
    NotContractiveError,
    NumericError,
    ValidationError,
)
from pushopt.linalg import flatten_block_operator, pi_norm


def identical_cost_ensemble(n, case="case1"):
    P = np.diag([2.0, 5.0])
    q = np.array([1.0, -1.0])
    return co.cost_ensemble([co.quadratic_cost(P, q) for _ in range(n)], case)


def test_mixing_keeps_pi_profiles_fixed(net20):
    rng = np.random.default_rng(20)
    zeta = rng.standard_normal(3)
    w = np.outer(net20.pi, zeta)
    assert np.max(np.abs(op.mix_stack(net20, w) - w)) <= 1e-12


def test_mixing_nonexpansive(net20):
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = rng.standard_normal((net20.n, 4))
        assert pi_norm(op.mix_stack(net20, w), net20.pi) <= pi_norm(w, net20.pi) + 1e-12


def test_single_agent_mixing_is_identity(single_agent):
    w = np.array([[2.0, -3.0]])
    assert np.array_equal(op.mix_stack(single_agent, w), w)


def test_operator_at_zero_stepsize_raises_and_limits(net20, ens_case1):
    with pytest.raises(InvalidRateError):
        op.OperatorContext(net20, ens_case1, 0.0)
    # at vanishing stepsize the operator approaches plain mixing
    rng = np.random.default_rng(22)
    w = rng.standard_normal((net20.n, ens_case1.d))
    tiny = op.gradient_push_operator(op.OperatorContext(net20, ens_case1, 1e-12), w)
    assert np.max(np.abs(tiny - op.mix_stack(net20, w))) <= 1e-9


def test_operator_fixes_replicated_minimizer(complete4):
    ens = identical_cost_ensemble(4)
    x_star = co.ensemble_minimizer(ens)
    # doubly stochastic mixing: n pi_j = 1, so blocks sit exactly at x_star
    w = np.tile(x_star, (4, 1))
    out = op.gradient_push_operator(op.OperatorContext(complete4, ens, 0.1), w)
    assert np.max(np.abs(out - w)) <= 1e-12


def test_perturbation_vanishes_at_limit_weights(net20, ens_case1):
    ctx = op.OperatorContext(net20, ens_case1, 0.05)
    y = net20.n * net20.pi
    rng = np.random.default_rng(23)
    w = rng.standard_normal((net20.n, ens_case1.d))
    assert np.max(np.abs(op.push_sum_perturbation(ctx, y, w))) <= 1e-12
    assert np.max(np.abs(op.push_sum_perturbation(ctx, np.ones(net20.n), np.zeros_like(w)))) <= 1e-15
    with pytest.raises(NonpositiveYError):
        op.push_sum_perturbation(ctx, np.zeros(net20.n), w)


def test_perturbation_decays_with_mixing(net20, ens_case1):
    coeff, _ = op.estimate_consensus_constants(net20)
    b = coeff * ens_case1.L_max
    ctx = op.OperatorContext(net20, ens_case1, 0.05)
    y = np.ones(net20.n)
    rng = np.random.default_rng(24)
    for t in range(41):
        if t:
            y = net20.W @ y
        w = rng.standard_normal((net20.n, ens_case1.d))
        lhs = pi_norm(op.push_sum_perturbation(ctx, y, w), net20.pi)
        scale = pi_norm(w, net20.pi)
        assert lhs <= b * net20.rho**t * scale + 1e-12 * (1.0 + scale)


def test_stepsize_ceiling_formulas(complete4, net20, ens_case1, ens_case2):
    ens = identical_cost_ensemble(4)
    # uniform pi and identical constants collapse the minimum to 2/(L + mu)
    assert op.stepsize_ceiling(complete4, ens) == pytest.approx(2.0 / 7.0, rel=1e-12)
    L = np.array([c.L for c in ens_case1.costs])
    mu = np.array([c.mu for c in ens_case1.costs])
    brute = min(2 * net20.n * net20.pi[k] / (L[k] + mu[k]) for k in range(net20.n))
    assert op.stepsize_ceiling(net20, ens_case1) == pytest.approx(brute, rel=1e-14)
    L2 = np.array([c.L for c in ens_case2.costs])
    brute2 = min(2 * net20.n * net20.pi[k] / (L2[k] + 0.01) for k in range(net20.n))
    assert op.stepsize_ceiling(net20, ens_case2, eps=0.01) == pytest.approx(brute2, rel=1e-14)


def test_contraction_constant_case1(complete4, net20, ens_case1):
    ens = identical_cost_ensemble(4)
    alpha0, C = op.contraction_constant(complete4, ens)
    assert C == pytest.approx(2.0 * 5.0 / 7.0, rel=1e-12)
    alpha0, C = op.contraction_constant(net20, ens_case1)
    for i in range(1, 51):
        a = alpha0 * i / 50
        lip = op.operator_lipschitz(op.OperatorContext(net20, ens_case1, a))
        assert lip <= 1.0 - C * a + 1e-9


def test_contraction_constant_case2(net20, ens_case2):
    alpha0, C = op.contraction_constant(net20, ens_case2, eps=0.01)
    eta = op.operator_lipschitz(op.OperatorContext(net20, ens_case2, alpha0))
    assert eta < 1.0
    assert C == pytest.approx((1.0 - eta) / alpha0, rel=1e-12)


def test_certify_measures_the_ceiling_lipschitz_once(net20, ens_case2, monkeypatch):
    alpha0, C = op.contraction_constant(net20, ens_case2, eps=0.01)
    eta = op.operator_lipschitz(op.OperatorContext(net20, ens_case2, alpha0))
    measured = []
    real = op.operator_lipschitz

    def counting(ctx, *args, **kwargs):
        measured.append(ctx.alpha)
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(op, "operator_lipschitz", counting)
    cert = op.certify(net20, ens_case2, eps=0.01, alpha=alpha0)
    assert measured == [alpha0]
    assert cert.contraction_rate == C
    assert cert.lipschitz_at_ceiling == cert.eta_ceiling == cert.lipschitz_alpha == eta


@pytest.mark.parametrize("case, factor", [("case1", 2.0), ("case2", 1.001)])
def test_certificate_checks_its_contraction_claim(request, net20, monkeypatch, case, factor):
    ens = request.getfixturevalue(f"ens_{case}")
    eps = 0.01 if case == "case2" else None
    cert = op.certify(net20, ens, eps=eps)
    assert cert.lipschitz_alpha <= 1.0 - cert.contraction_rate * cert.alpha + op.CONTRACTION_SLACK
    real = op._contraction

    def inflated(net, ensemble, eps):
        alpha0, C, eta = real(net, ensemble, eps)
        return alpha0, factor * C, eta

    monkeypatch.setattr(op, "_contraction", inflated)
    with pytest.raises(NumericError, match="exceeds 1 - C alpha"):
        op.certify(net20, ens, eps=eps)


def test_not_contractive_signalled():
    # two flat quadratics: aggregate has a kernel, no contraction possible
    flat = co.quadratic_cost(np.diag([1.0, 0.0]), np.zeros(2))
    net = nw.build_mixing_matrix(nw.make_digraph(2, [(1, 2), (2, 1)]))
    ens = co.CostEnsemble(
        case_tag="case2", costs=(flat, flat), n=2, d=2, L_max=1.0, L_bar=1.0,
        mu_agg=0.0, agg_hess=np.diag([1.0, 0.0]),
        hess_stack=np.stack([flat.hess, flat.hess]),
        lin_stack=np.zeros((2, 2)),
    )
    with pytest.raises(NotContractiveError):
        op.contraction_constant(net, ens, eps=0.01)


def test_operator_lipschitz_one_at_zero_stepsize(net20, ens_case1):
    lip = op.operator_lipschitz(op.OperatorContext(net20, ens_case1, 1e-15))
    assert lip == pytest.approx(1.0, abs=1e-9)


def test_operator_contraction_on_random_pairs(net20, ens_case1, ens_case2):
    rng = np.random.default_rng(25)
    for ens, eps in ((ens_case1, None), (ens_case2, 0.01)):
        alpha0, C = op.contraction_constant(net20, ens, eps)
        for _ in range(25):
            a = alpha0 * rng.uniform(0.01, 1.0)
            ctx = op.OperatorContext(net20, ens, a)
            w = rng.standard_normal((net20.n, ens.d))
            v = rng.standard_normal((net20.n, ens.d))
            lhs = pi_norm(op.gradient_push_operator(ctx, w)
                          - op.gradient_push_operator(ctx, v), net20.pi)
            assert lhs <= (1.0 - C * a) * pi_norm(w - v, net20.pi) + 1e-9


def test_fixed_point_replicated_minimizer(complete4):
    ens = identical_cost_ensemble(4)
    x_star = co.ensemble_minimizer(ens)
    fp = op.solve_fixed_point(op.OperatorContext(complete4, ens, 0.2), tol=1e-13)
    assert np.max(np.abs(fp.w - np.tile(x_star, (4, 1)))) <= 1e-11
    assert fp.consensus_error <= 1e-11


def test_fixed_point_zero_for_zero_gradients(net20):
    costs = [co.quadratic_cost(np.diag([1.0, 2.0]), np.zeros(2)) for _ in range(net20.n)]
    ens = co.cost_ensemble(costs, "case2")
    fp = op.solve_fixed_point(op.OperatorContext(net20, ens, 0.05), tol=1e-13)
    assert np.max(np.abs(fp.w)) <= 1e-13


def test_fixed_point_residual_radius_and_dense_oracle(net20, ens_case1):
    cert = op.certify(net20, ens_case1)
    ctx = op.OperatorContext(net20, ens_case1, cert.alpha0)
    fp = op.solve_fixed_point(ctx, tol=1e-12)
    assert fp.residual <= 1e-12
    assert pi_norm(fp.w, net20.pi) <= cert.radius + 1e-12
    # independent oracle: the fixed point solves a dense linear system
    nd = net20.n * ens_case1.d
    M = flatten_block_operator(op.operator_matrix(ctx))
    offset = (net20.W @ (-cert.alpha0 * ens_case1.lin_stack)).ravel()
    w_dense = np.linalg.solve(np.eye(nd) - M, offset).reshape(net20.n, ens_case1.d)
    assert np.max(np.abs(w_dense - fp.w)) <= 1e-10


def picard_from_zero(ctx, tol):
    """Oracle: plain Picard iteration from zero with the a-posteriori stop."""
    lip = op.operator_lipschitz(ctx)
    factor = lip / (1.0 - lip)
    w = np.zeros((ctx.net.n, ctx.ensemble.d))
    for iterations in itertools.count(1):
        w_next = op.gradient_push_operator(ctx, w)
        step = pi_norm(w_next - w, ctx.net.pi)
        w = w_next
        if step * factor <= tol:
            return w, iterations


def fig5_instance(**overrides):
    cfg = hz.resolve_config({"scenario": "fig5_case2", **overrides})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    return net, ens, op.stepsize_ceiling(net, ens, cfg.eps)


def test_fixed_point_polish_stays_within_tol_of_the_dense_solution():
    # the fig5 solves: the ceiling plus the 40-point sweep over (0, alpha0]
    net, ens, alpha0 = fig5_instance()
    nd = net.n * ens.d
    for a in [alpha0] + [alpha0 * (i + 1) / 40 for i in range(40)]:
        ctx = op.OperatorContext(net, ens, a)
        fp = op.solve_fixed_point(ctx, tol=1e-12)
        M = flatten_block_operator(op.operator_matrix(ctx))
        offset = (net.W @ (-a * ens.lin_stack)).ravel()
        w_dense = np.linalg.solve(np.eye(nd) - M, offset).reshape(net.n, ens.d)
        assert pi_norm(fp.w - w_dense, net.pi) <= 1e-12
        assert fp.iterations <= 100


def test_fixed_point_rounding_cycle_falls_back_to_picard_from_zero():
    # on fig5's network draw 3 at alpha0/40 the polish from the dense
    # solution revisits a state before the stop rule fires; the rerun from
    # zero must then reproduce plain Picard iteration bit for bit (its tens
    # of thousands of steps also show that the polish did not stop)
    net, ens, alpha0 = fig5_instance(net_seed=3)
    ctx = op.OperatorContext(net, ens, alpha0 * 1 / 40)
    fp = op.solve_fixed_point(ctx, tol=1e-12)
    w, iterations = picard_from_zero(ctx, 1e-12)
    assert iterations > 1000
    assert fp.iterations == iterations
    assert np.array_equal(fp.w, w)


def test_fixed_point_cycle_from_zero_too_raises_at_once(monkeypatch, complete4):
    ctx = op.OperatorContext(complete4, identical_cost_ensemble(4), 0.1)
    calls = []

    def flip(ctx, w):  # every orbit has period two and never settles
        calls.append(w)
        return 1.0 - w

    monkeypatch.setattr(op, "gradient_push_operator", flip)
    with pytest.raises(NoConvergenceError, match="cycles"):
        op.solve_fixed_point(ctx, lipschitz=0.5)
    assert len(calls) < 20


def test_fixed_point_raises_at_the_picard_cap(monkeypatch, complete4):
    ctx = op.OperatorContext(complete4, identical_cost_ensemble(4), 0.1)
    monkeypatch.setattr(op, "_PICARD_MAX_ITER", 5)
    # every orbit drifts by a constant step, so it neither settles nor cycles
    monkeypatch.setattr(op, "gradient_push_operator", lambda ctx, w: w + 1.0)
    with pytest.raises(NoConvergenceError, match="not reached in 5 iterations"):
        op.solve_fixed_point(ctx, lipschitz=0.5)


def test_fixed_point_rejects_a_negative_tolerance(net20, ens_case1):
    ctx = op.OperatorContext(net20, ens_case1, 0.01)
    for tol in (-1e-12, float("nan")):
        with pytest.raises(ValidationError, match="tolerance"):
            op.solve_fixed_point(ctx, tol=tol)


def test_fixed_point_bits_do_not_depend_on_blas_threads():
    script = (
        "import hashlib; from pushopt import harness as hz, operators as op; "
        "cfg = hz.resolve_config({'scenario': 'fig5_case2'}); "
        "net, ens = hz.build_network(cfg), hz.build_ensemble(cfg); "
        "a = op.stepsize_ceiling(net, ens, cfg.eps) / 40; "
        "fp = op.solve_fixed_point(op.OperatorContext(net, ens, a)); "
        "print(hashlib.sha256(fp.w.tobytes()).hexdigest())"
    )
    src = str(Path(op.__file__).parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_certify_rejects_a_stepsize_above_the_ceiling(net20, ens_case1):
    alpha0, _ = op.contraction_constant(net20, ens_case1)
    with pytest.raises(InvalidRateError, match="alpha0"):
        op.certify(net20, ens_case1, alpha=1.9 * alpha0)
    assert op.certify(net20, ens_case1, alpha=alpha0).alpha == alpha0


def test_consensus_constants_trivial(complete4, single_agent):
    assert op.estimate_consensus_constants(complete4) == (0.0, 1.0)
    assert op.estimate_consensus_constants(single_agent) == (0.0, 1.0)


def test_consensus_constants_bound_holds(net20):
    coeff, inv_y_max = op.estimate_consensus_constants(net20)
    assert coeff > 0.0
    assert inv_y_max >= 1.0
    y = np.ones(net20.n)
    target = 1.0 / (net20.n * net20.pi)
    for t in range(81):
        if t:
            y = net20.W @ y
        gap = np.max(np.abs(1.0 / y - target))
        assert gap <= coeff * net20.rho**t + 1e-12
        assert np.max(1.0 / y) <= inv_y_max + 1e-15


def fixed_horizon_consensus_constants(net, horizon=500, noise_floor=1e-14):
    """Reference: the push-sum constants over a fixed horizon and noise floor,
    refusing a horizon whose last ten gaps are not all below the floor."""
    n, pi, rho = net.n, net.pi, net.rho
    inv_target = 1.0 / (n * pi)
    y = np.ones(n)
    coeff = 0.0
    inv_y_max = 0.0
    rho_pow = 1.0
    tail = []
    for t in range(horizon + 1):
        if t > 0:
            y = net.W @ y
        dev = np.abs(1.0 / y - inv_target)
        inv_y_max = max(inv_y_max, float(np.max(1.0 / y)))
        if t > horizon - 10:
            tail.append(float(dev.max()))
        live = dev[dev >= noise_floor]
        if live.size and rho_pow > 0.0:
            coeff = max(coeff, float(live.max() / rho_pow))
        rho_pow *= rho
    if max(tail) >= noise_floor:
        raise NoConvergenceError(f"push-sum gap still {max(tail):.3e} near t={horizon}")
    return coeff, inv_y_max


@pytest.mark.parametrize("n, seeds", [(20, range(40)), (400, range(3))], ids=["n20", "n400"])
def test_consensus_constants_match_the_fixed_horizon_reference(n, seeds):
    for seed in seeds:
        net = nw.build_mixing_matrix(nw.generate_digraph(n, 0.7, seed))
        assert op.estimate_consensus_constants(net) == fixed_horizon_consensus_constants(net)


# sparse draws on which the gap plateaus above 1e-14, so a fixed noise floor
# of 1e-14 never sees the tail settle
@pytest.mark.parametrize("n, p, seed", [(30, 0.15, 3), (20, 0.3, 8), (50, 0.07, 0)])
@pytest.mark.parametrize("case", ["case1", "case2"])
def test_sparse_networks_certify_within_their_inverse_weight_bound(n, p, seed, case):
    cfg = hz.resolve_config({"scenario": "custom", "n": n, "p": p, "seed": seed, "case": case})
    net = hz.build_network(cfg)
    with pytest.raises(NoConvergenceError):
        fixed_horizon_consensus_constants(net)
    cert = hz.certify_config(cfg, net, hz.build_ensemble(cfg))
    y = np.ones(n)
    target = 1.0 / (n * net.pi)
    for t in range(501):
        if t:
            y = net.W @ y
        gap = np.max(np.abs(1.0 / y - target))
        assert gap <= cert.consensus_coeff * net.rho**t + 1e-12
        assert np.max(1.0 / y) <= cert.inv_y_max + 1e-15


def test_perturbation_product_values():
    assert op.perturbation_product(0.1, 0.0, 1.0, 0.5) == 1.0
    single = op.perturbation_product(0.1, 2.0, 1.0, 0.0)
    assert single == pytest.approx(1.0 + 0.1 * 2.0 / 0.9, rel=1e-14)
    with pytest.raises(InvalidRateError):
        op.perturbation_product(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(InvalidRateError):
        op.perturbation_product(0.1, 1.0, 1.0, 1.0)


def test_perturbation_product_under_cap(net20, ens_case1):
    rng = np.random.default_rng(26)
    alpha0, C = op.contraction_constant(net20, ens_case1)
    for _ in range(20):
        a = alpha0 * rng.uniform(0.05, 1.0)
        b = rng.uniform(0.0, 5.0)
        value = op.perturbation_product(a, b, C, net20.rho)
        cap = np.exp(alpha0 * b / ((1 - C * alpha0) * (1 - net20.rho)))
        assert 1.0 <= value <= cap * (1 + 1e-12)


def test_envelope_structure(net20, ens_case1):
    cert = op.certify(net20, ens_case1)
    pure = type(cert)(**{**cert.__dict__, "perturbation_coeff": 0.0,
                         "perturbation_product": 1.0})
    t = 7
    decay = (1 - pure.contraction_rate * pure.alpha) ** (t + 1)
    assert op.convergence_envelope(pure, 2.0, t) == pytest.approx(2.0 * decay, rel=1e-12)
    values = [op.convergence_envelope(cert, 2.0, t) for t in (10, 100, 1000, 5000)]
    assert values[-1] <= 1e-12  # geometric decay in both branches
    assert all(v >= 0 for v in values)


def test_gap_bound_linear_in_stepsize(net20, ens_case1):
    cert = op.certify(net20, ens_case1)
    one = op.optimality_gap_bound(net20, ens_case1, cert, 0.01)
    two = op.optimality_gap_bound(net20, ens_case1, cert, 0.02)
    assert two == pytest.approx(2.0 * one, rel=1e-12)
    assert op.consensus_gap_bound(net20, ens_case1, cert, 0.02) == pytest.approx(
        2.0 * op.consensus_gap_bound(net20, ens_case1, cert, 0.01), rel=1e-12
    )


def test_gap_bound_zero_when_gradients_vanish_at_origin(net20):
    costs = [co.quadratic_cost(np.diag([1.0, 2.0]), np.zeros(2)) for _ in range(net20.n)]
    ens = co.cost_ensemble(costs, "case2")
    cert = op.certify(net20, ens, eps=0.01)
    assert cert.grad0_norm == 0.0
    assert cert.radius == 0.0
    assert op.optimality_gap_bound(net20, ens, cert, cert.alpha0) == 0.0
    fp = op.solve_fixed_point(op.OperatorContext(net20, ens, cert.alpha0), tol=1e-13)
    x_star = co.ensemble_minimizer(ens)
    assert np.max(np.abs(fp.w - np.outer(net20.n * net20.pi, x_star))) <= 1e-12


def test_legacy_threshold_against_coarser_cap(net20, ens_case1, ens_case2):
    for ens in (ens_case1, ens_case2):
        _, inv_y_max = op.estimate_consensus_constants(net20)
        Q = op.legacy_stepsize_threshold(net20, ens, inv_y_max)
        beta, L = ens.mu_agg, ens.L_max
        coarse = (net20.n * beta * (1 - net20.rho)
                  / (4 * L**2 * net20.rho * inv_y_max * np.sqrt(np.sum(1 / net20.pi))))
        assert 0.0 < Q < coarse


def test_legacy_threshold_below_certified_ceiling(net20, ens_case1):
    cert = op.certify(net20, ens_case1)
    # observed on every sampled instance; motivates the larger certified range
    assert cert.legacy_threshold < cert.alpha0


def test_legacy_threshold_degenerate_mixing(complete4):
    ens = identical_cost_ensemble(4)
    with pytest.raises(DegenerateMixingError):
        op.legacy_stepsize_threshold(complete4, ens, 1.0)


def test_legacy_threshold_scales_inversely_with_cost_size(net20, ens_case1):
    # uniform cost scaling moves beta and L together, so gamma scales
    # linearly, q is scale-free, and the threshold picks up exactly one
    # inverse power of the scale
    _, inv_y_max = op.estimate_consensus_constants(net20)
    base = op.legacy_stepsize_threshold(net20, ens_case1, inv_y_max)
    for c in (2.0, 4.0, 8.0):
        scaled = op.legacy_stepsize_threshold(net20, co.scale_ensemble(ens_case1, c),
                                              inv_y_max)
        assert scaled == pytest.approx(base / c, rel=1e-9)


def test_certificate_serialization(net20, ens_case2):
    cert = op.certify(net20, ens_case2, eps=0.01)
    payload = op.certificate_to_dict(cert)
    assert payload["case_tag"] == "case2"
    assert 0.0 < payload["eta_ceiling"] < 1.0
    assert payload["contraction_rate"] == pytest.approx(
        (1.0 - payload["eta_ceiling"]) / payload["alpha0"], rel=1e-12
    )
    fp = op.solve_fixed_point(op.OperatorContext(net20, ens_case2, cert.alpha0), tol=1e-10)
    dumped = op.fixed_point_to_dict(fp)
    assert len(dumped["w"]) == net20.n
    assert dumped["residual"] <= 1e-10
