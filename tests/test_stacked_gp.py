"""The stacked gradient-push sweep against one run per stepsize.

``legacy_gp_run`` is the per-stepsize round loop ``gp_run`` had before it
became the one-stepsize call of ``gp_sweep``, ``legacy_recorder`` the
metrics of one (n, d) state per call that every run recorded before the
recorder measured a whole stack, and ``own_grad_stack`` the library's
``grad_stack`` called on each (n, d) state alone.  ``broadcast_gp_step``
and ``broadcast_pd_step`` are the round steps as they were before they
divided (K, n*d) rows by y.  All are the library code as it was, or as it
runs one state; the stacked paths must match them row for row and bit for
bit.  A legacy run returns a ``Legacy`` trace: a table of its rows, in
``alg.TRACE_FIELDS`` order, and its final state.
"""

import warnings
from typing import NamedTuple

import numpy as np
import pytest

from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import harness as hz
from pushopt import operators as op
from pushopt.errors import ValidationError


def own_grad_stack(ensemble, u):
    u = np.asarray(u, dtype=float)
    states = u.reshape(-1, ensemble.n, ensemble.d)
    return np.stack([co.grad_stack(ensemble, s) for s in states]).reshape(u.shape)


def legacy_pi_norm(w, pi):
    return float(np.sqrt(((w * w).sum(axis=1) / pi).sum()))


class Legacy(NamedTuple):
    table: list
    final_state: object

    def rows(self):
        return self.table

    @property
    def diverged(self):
        return self.table[-1][-1]


def legacy_recorder(rows, net, refs, phase):
    target = None if refs.x_star is None else np.outer(net.n * net.pi, refs.x_star)

    def record(mixed, z, t, diverged):
        sum_z = fp = opt = None
        with np.errstate(over="ignore", invalid="ignore"):
            if refs.x_star is not None:
                diff = z - refs.x_star[None, :]
                sum_z = float(np.sqrt((diff * diff).sum(axis=1)).sum())
                opt = legacy_pi_norm(mixed - target, net.pi)
            if refs.w_fixed is not None:
                fp = legacy_pi_norm(mixed - refs.w_fixed, net.pi)
        rows.append((t, phase, sum_z, fp, opt, bool(diverged)))

    return record


def legacy_gp_run(net, ensemble, alpha, x0, iters, refs=None):
    state = alg.init_gp_state(net, ensemble, x0)
    rows = []
    record = legacy_recorder(rows, net, refs or alg.RunRefs(), "gp")
    record(state.w, state.z, 0, alg.gp_diverged(state))
    for _ in range(iters):
        if rows[-1][-1]:
            break
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = net.W @ state.x
            y = net.W @ state.y
            z = w / y[:, None]
            x = w - alpha * own_grad_stack(ensemble, z)
        state = alg.GradientPushState(t=state.t + 1, x=x, w=w, z=z, y=y)
        record(state.w, state.z, state.t, alg.gp_diverged(state))
    return Legacy(rows, state)


def legacy_pd_run(net, ensemble, alpha, init, iters, refs):
    state = init
    rows = []
    record = legacy_recorder(rows, net, alg.RunRefs(x_star=refs.x_star), "pd")
    record(state.x, state.z, state.t, alg.pd_diverged(state))
    for _ in range(iters):
        if rows[-1][-1]:
            break
        state = alg.pd_step(net, ensemble, alpha, state)
        record(state.x, state.z, state.t, alg.pd_diverged(state))
    return Legacy(rows, state)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def row_bits(row):
    t, phase, *metrics, diverged = row
    return (t, phase, diverged, *(None if v is None else np.float64(v).tobytes() for v in metrics))


def assert_same_trace(mine, ref):
    """Two traces, ``Legacy`` or not: rows, their bits and the final state."""
    assert [row_bits(r) for r in mine.rows()] == [row_bits(r) for r in ref.rows()]
    assert type(mine.final_state) is type(ref.final_state)
    assert mine.final_state.t == ref.final_state.t
    for name in ("x", "z", "y") + (("w",) if hasattr(ref.final_state, "w") else ("v", "g")):
        assert same_bits(getattr(mine.final_state, name), getattr(ref.final_state, name)), name


def _scenario(scenario, **overrides):
    cfg = hz.resolve_config({"scenario": scenario, **overrides})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    alpha0 = op.stepsize_ceiling(net, ens, hz.case_eps(cfg, ens))
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens))
    return cfg, net, ens, alpha0, refs


def _check_sweep(net, ens, alphas, iters, refs):
    x0 = np.zeros((net.n, ens.d))
    traces = alg.gp_sweep(net, ens, alphas, x0, iters, refs)
    assert len(traces) == len(alphas)
    for alpha, trace in zip(alphas, traces):
        assert_same_trace(trace, legacy_gp_run(net, ens, alpha, x0, iters, refs))
    return traces


@pytest.mark.parametrize("scenario, overrides", [
    ("fig4_case1_sweep", {}),
    ("fig4_case1_sweep", {"n": 400, "p": 0.7}),
    ("fig6_case2_sweep", {}),
], ids=["fig4_n20", "fig4_n400", "fig6"])
def test_fig46_sweep_matches_one_run_per_multiplier(scenario, overrides):
    cfg, net, ens, alpha0, refs = _scenario(scenario, **overrides)
    mults = list(cfg.multipliers) + [cfg.supercritical_mult]
    _check_sweep(net, ens, [m * alpha0 for m in mults], cfg.run_iters, refs)


def test_slices_leave_the_stack_at_their_flagged_round():
    cfg, net, ens, alpha0, refs = _scenario("fig4_case1_sweep")
    mults = [0.2, 3.0, 1.0, 8.0, 1.3]
    traces = _check_sweep(net, ens, [m * alpha0 for m in mults], cfg.run_iters, refs)
    ends = [(t.final_state.t, t.diverged) for t in traces]
    assert ends == [(1000, False), (50, True), (1000, False), (16, True), (1000, False)]
    for trace in traces:
        assert [flag for (flag,) in trace.rows(("diverged",))][:-1] == [False] * (len(trace) - 1)


def test_one_stepsize_sweep_is_gp_run(net20, ens_case1):
    x0 = np.random.default_rng(3).standard_normal((net20.n, ens_case1.d))
    alpha0 = op.stepsize_ceiling(net20, ens_case1)
    w_fixed = op.solve_fixed_point(op.OperatorContext(net20, ens_case1, alpha0)).w
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1), w_fixed=w_fixed)
    for alpha, iters in ((alpha0, 300), (6.0 * alpha0, 300), (alpha0, 0)):
        (swept,) = alg.gp_sweep(net20, ens_case1, [alpha], x0, iters, refs)
        run = alg.gp_run(net20, ens_case1, alpha, x0, iters, refs)
        legacy = legacy_gp_run(net20, ens_case1, alpha, x0, iters, refs)
        assert_same_trace(swept, legacy)
        assert_same_trace(run, legacy)
    with pytest.raises(ValidationError, match="at least one stepsize"):
        alg.gp_sweep(net20, ens_case1, [], x0, 5)
    with pytest.raises(ValidationError, match=">= 0"):
        alg.gp_sweep(net20, ens_case1, [alpha0], x0, -1)


@pytest.mark.parametrize("alpha_mult", [1.0, 20.0])
def test_hybrid_handoff_matches_the_per_run_warm_start(net20, ens_case1, alpha_mult):
    alpha0 = op.stepsize_ceiling(net20, ens_case1)
    x0 = np.zeros((net20.n, ens_case1.d))
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1))
    hybrid = alg.hybrid_run(net20, ens_case1, alpha_mult * alpha0, 0.01, 60, 200, x0, refs)
    head = legacy_gp_run(net20, ens_case1, alpha_mult * alpha0, x0, 60, refs)
    if head.diverged:
        ref = head
    else:
        gp = head.final_state
        g = own_grad_stack(ens_case1, gp.z)
        handoff = alg.PushDigingState(t=gp.t, x=gp.w.copy(), z=gp.z.copy(), v=g, g=g,
                                      y=gp.y.copy())
        tail = legacy_pd_run(net20, ens_case1, 0.01, handoff, 140, refs)
        ref = Legacy(head.table + tail.table[1:], tail.final_state)
    assert hybrid.diverged == (alpha_mult > 1.0)
    assert_same_trace(hybrid, ref)


@pytest.mark.parametrize("alpha", [0.002, 0.2])
def test_pd_run_records_match_the_per_state_recorder(net20, ens_case1, alpha):
    init = alg.init_pd_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1))
    trace = alg.pd_run(net20, ens_case1, alpha, init, 300, refs)
    assert trace.diverged == (alpha > 0.1)
    assert_same_trace(trace, legacy_pd_run(net20, ens_case1, alpha, init, 300, refs))


def _stacks():
    rng = np.random.default_rng(11)
    fig1 = co.make_case1_ensemble(20, 10, 10, 0.1, 8)
    n400 = co.make_case1_ensemble(400, 3, 4, 2.0, 8)
    case2 = co.make_case2_ensemble(20, 10, 4, 8)
    wide = rng.standard_normal((3, 400, 5))
    return [
        ("tuner_200x20x10", fig1, rng.standard_normal((200, 20, 10))),
        ("fig4_4x400x3", n400, rng.standard_normal((4, 400, 3))),
        ("case2_7x20x10", case2, rng.standard_normal((7, 20, 10))),
        ("stepped_view", fig1, rng.standard_normal((9, 20, 10))[::2]),
        ("column_view", n400, wide[:, :, 1:4]),
        ("four_d_2x3", case2, rng.standard_normal((2, 3, 20, 10))),
        ("single_2d", n400, rng.standard_normal((400, 3))),
    ]


STACKS = _stacks()


def assert_within_rounding(ens, u, g):
    """Each row of g lies within gamma_d |H_j| |u_j| (the d-term dot products,
    in any order, Higham ch. 3) plus gamma_1 |g| (adding the ``lin`` row) of
    H_j u_j + b_j, measured against a long-double reference whose own
    rounding is added."""
    ld = np.longdouble
    u = np.asarray(u, dtype=float)
    ref = np.einsum("jab,...jb->...ja", ens.hess_stack.astype(ld), u.astype(ld)) + ens.lin_stack
    mag = np.einsum("jab,...jb->...ja", np.abs(ens.hess_stack), np.abs(u).astype(ld))

    def gamma(k, unit):
        return k * unit / (1 - k * unit)

    unit_ld = float(np.finfo(ld).eps) / 2
    bound = (gamma(ens.d, 2.0 ** -53) * mag + gamma(1, 2.0 ** -53) * np.abs(g)
             + gamma(ens.d + 1, unit_ld) * (mag + np.abs(ens.lin_stack)))
    assert g.shape == u.shape and np.all(np.abs(g - ref) <= bound)


@pytest.mark.parametrize("name, ens, u", STACKS, ids=[s[0] for s in STACKS])
def test_grad_stack_rows_match_the_leading_axis_einsum(name, ens, u):
    """Rows and the leading-axis einsum agree to within rounding: both lie
    within the rounding bound of the exact rows."""
    assert_within_rounding(ens, u, co.grad_stack(ens, u))
    assert_within_rounding(ens, u, np.einsum("jab,...jb->...ja", ens.hess_stack, u)
                           + ens.lin_stack)
    if u.ndim > 2:
        flat = u.reshape(-1, ens.n, ens.d)
        mine = co.grad_stack(ens, u).reshape(flat.shape)
        assert all(same_bits(mine[k], co.grad_stack(ens, flat[k])) for k in range(len(flat)))


# An (n, d) grid for the 4-slice gemm blocks.  At d = 17 and 33 one gemm of
# K rows per agent rounds its rows differently from a one-slice call.
GRID = [(n, d) for n in (1, 20, 400) for d in (1, 3, 10, 17, 33)]


@pytest.mark.parametrize("n, d", GRID, ids=[f"n{n}_d{d}" for n, d in GRID])
def test_grad_stack_slices_round_like_their_own_call(n, d):
    """Every slice of a stack, padded or not, at any position in its block,
    has the bits of its own (n, d) call."""
    ens = co.make_case1_ensemble(n, d, d + 2, 0.1, 8)
    rng = np.random.default_rng(n * 100 + d)
    for k in (1, 2, 3, 4, 5, 7, 9) + (() if n == 400 else (17, 64, 200)):
        u = rng.standard_normal((k, n, d)) * rng.uniform(0.1, 10.0, (k, 1, 1))
        g = co.grad_stack(ens, u)
        assert same_bits(g, own_grad_stack(ens, u)), k
        assert_within_rounding(ens, u, g)


@pytest.mark.parametrize("name, ens, u", STACKS[:3], ids=[s[0] for s in STACKS[:3]])
def test_grad_stack_rows_lie_within_the_rounding_bound(name, ens, u):
    """Far from unit scale too, and on a case2 ensemble scaled by 2^-20."""
    for scale in (2.0 ** -40, 1.0, 2.0 ** 40):
        assert_within_rounding(ens, scale * u, co.grad_stack(ens, scale * u))
    tiny = co.scale_ensemble(ens, 2.0 ** -20)
    assert_within_rounding(tiny, u, co.grad_stack(tiny, u))


def test_grad_stack_is_silent_on_overflow():
    ens = STACKS[0][1]
    u = np.full((5, ens.n, ens.d), 1e308)
    u[1] = -u[1]
    u[2, 3, 4], u[3, 0, 0] = np.inf, np.nan
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        g = co.grad_stack(ens, u)
        single = co.grad_stack(ens, u[2])
    assert np.isposinf(g[0]).all() and np.isneginf(g[1]).all()
    assert np.isnan(g[3, 0]).all() and same_bits(single, g[2])


def broadcast_gp_step(net, ensemble, alpha, x, y):
    w = net.W @ x
    y = net.W @ y
    z = w / y[:, None]
    return w - alpha * co.grad_stack(ensemble, z), w, z, y


def broadcast_pd_step(net, ensemble, alpha, x, v, g, y):
    x = net.W @ x - alpha * v
    y = net.W @ y
    z = x / y[:, None]
    g_new = co.grad_stack(ensemble, z)
    return x, z, net.W @ v + g_new - g, g_new, y


@pytest.mark.parametrize("k", [None, 5], ids=["scalar_alpha_n_d", "per_slice_alphas_k_n_d"])
def test_flat_steps_match_the_broadcast_formulas(net20, ens_case1, ens_case2, k):
    rng = np.random.default_rng(5)
    for ens in (ens_case1, ens_case2):
        shape = (net20.n, ens.d) if k is None else (k, net20.n, ens.d)
        alpha = 0.03 if k is None else rng.uniform(0.001, 0.1, k)[:, None, None]
        x, z, v = (rng.standard_normal(shape) for _ in range(3))
        y = rng.uniform(0.5, 2.0, net20.n)
        gp = alg.gp_step(net20, ens, alpha, alg.GradientPushState(t=3, x=x, w=None, z=None, y=y))
        assert gp.t == 4
        for mine, ref in zip((gp.x, gp.w, gp.z, gp.y), broadcast_gp_step(net20, ens, alpha, x, y)):
            assert same_bits(mine, ref)
        g = co.grad_stack(ens, z)
        pd = alg.pd_step(net20, ens, alpha, alg.PushDigingState(t=3, x=x, z=z, v=v, g=g, y=y))
        for mine, ref in zip((pd.x, pd.z, pd.v, pd.g, pd.y),
                             broadcast_pd_step(net20, ens, alpha, x, v, g, y)):
            assert same_bits(mine, ref)


def test_fig4_sweep_makes_one_gradient_call_per_round(monkeypatch, tmp_path):
    cfg = hz.resolve_config({"scenario": "fig4_case1_sweep"})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    calls = []
    real = alg._grad_into

    def counting(ensemble, u, out, pad):
        calls.append(np.shape(u))
        real(ensemble, u, out, pad)

    monkeypatch.setattr(alg, "_grad_into", counting)
    hz._run_fig46(cfg, net, ens, tmp_path)
    k = len(cfg.multipliers) + 1
    assert len(calls) == cfg.run_iters == 1000
    assert calls == [(k, net.n, ens.d)] * cfg.run_iters


# Rounds per divergence check.  In fig4's sweep below, the slices at 3.0 and
# 8.0 alpha0 are flagged at rounds 50 and 16: mid-block at 2, 7 and 64
# rounds per block, and at 17 on the last round of the first block (0-16).
ROUND_BLOCKS = [1, 2, 7, 17, 64]


def _round_blocks(monkeypatch, rounds, fields, k, net, ens):
    """Check a stack of ``k`` slices of ``fields`` (n, d) arrays ``rounds`` rounds at a time."""
    monkeypatch.setattr(alg, "_ROUND_BLOCK_FLOATS", rounds * fields * k * net.n * ens.d)


@pytest.mark.parametrize("rounds", ROUND_BLOCKS)
def test_round_blocks_do_not_change_gradient_push_bits(monkeypatch, rounds):
    cfg, net, ens, alpha0, refs = _scenario("fig4_case1_sweep")
    mults = list(cfg.multipliers) + [cfg.supercritical_mult, 3.0, 8.0]
    _round_blocks(monkeypatch, rounds, 3, len(mults), net, ens)
    traces = _check_sweep(net, ens, [m * alpha0 for m in mults], cfg.run_iters, refs)
    assert [(t.final_state.t, t.diverged) for t in traces[-3:]] == [(1000, False), (50, True),
                                                                    (16, True)]
    # flagged at t = 0: every slice leaves with its initial record
    x0 = np.full((net.n, ens.d), 1e12)
    alphas = [m * alpha0 for m in mults]
    for alpha, trace in zip(alphas, alg.gp_sweep(net, ens, alphas, x0, 20, refs)):
        assert len(trace) == 1
        assert_same_trace(trace, legacy_gp_run(net, ens, alpha, x0, 20, refs))


@pytest.mark.parametrize("rounds", ROUND_BLOCKS)
def test_round_blocks_do_not_change_push_diging_bits(monkeypatch, net20, ens_case1, rounds):
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1))
    _round_blocks(monkeypatch, rounds, 4, 1, net20, ens_case1)
    for alpha, x0 in ((0.002, 0.0), (0.2, 0.0), (0.002, 1e12)):  # flagged at 0.2 and at t = 0
        init = alg.init_pd_state(net20, ens_case1, np.full((net20.n, ens_case1.d), x0))
        trace = alg.pd_run(net20, ens_case1, alpha, init, 300, refs)
        assert trace.diverged == (alpha > 0.1 or x0 > 0.0)
        assert_same_trace(trace, legacy_pd_run(net20, ens_case1, alpha, init, 300, refs))


@pytest.mark.parametrize("rounds", ROUND_BLOCKS)
def test_round_blocks_do_not_change_hybrid_bits(monkeypatch, net20, ens_case1, rounds):
    alpha0 = op.stepsize_ceiling(net20, ens_case1)
    x0 = np.zeros((net20.n, ens_case1.d))
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1))
    for mult in (1.0, 20.0):  # the warm start at 20 alpha0 is flagged
        monkeypatch.setattr(alg, "_ROUND_BLOCK_FLOATS", 1)
        ref = alg.hybrid_run(net20, ens_case1, mult * alpha0, 0.01, 60, 200, x0, refs)
        _round_blocks(monkeypatch, rounds, 4, 1, net20, ens_case1)
        assert_same_trace(alg.hybrid_run(net20, ens_case1, mult * alpha0, 0.01, 60, 200, x0,
                                         refs), ref)


@pytest.mark.parametrize("rounds", ROUND_BLOCKS)
def test_round_blocks_do_not_change_tuner_candidates(monkeypatch, rounds):
    cfg = hz.resolve_config({"scenario": "fig1_hybrid", "net_seed": 7})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    alphas = [0.01 + 0.005 * k for k in range(20)]  # some of them are flagged
    args = (net, ens, alphas, np.zeros((net.n, ens.d)), cfg.tune_iters,
            co.ensemble_minimizer(ens))
    monkeypatch.setattr(alg, "_ROUND_BLOCK_FLOATS", 1)
    diverged, first, lasts = hz._pd_candidates(*args)
    _round_blocks(monkeypatch, rounds, 4, len(alphas), net, ens)
    mine = hz._pd_candidates(*args)
    assert 0 < sum(diverged) < len(alphas)
    assert mine[:2] == (diverged, first)
    assert same_bits(mine[2], lasts)


@pytest.mark.parametrize("rounds", ROUND_BLOCKS)
def test_round_blocks_check_and_record_once_per_block(monkeypatch, net20, ens_case1, rounds):
    alpha0 = op.stepsize_ceiling(net20, ens_case1)
    init = alg.init_gp_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    _round_blocks(monkeypatch, rounds, 3, 1, net20, ens_case1)
    checks, recorded = [], []

    def flagged(state):
        checks.append(len(state.x))
        return alg.gp_diverged(state)

    def record(live, t, state):
        recorded.append(list(range(t, t + len(state.x))))

    iters = 300
    ((end, flag),) = alg._sweep(net20, ens_case1, alg._gp_round, flagged, ("x", "w", "z"),
                                [alpha0], init, iters, record)
    assert len(checks) == len(recorded) == -(-(iters + 1) // rounds)
    assert sum(checks) == iters + 1 and sum(recorded, []) == list(range(iters + 1))
    assert not flag and end.t == iters
