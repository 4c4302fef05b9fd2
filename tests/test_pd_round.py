"""The Push-DIGing round that carries grad F(z) against the two-gradient round.

``legacy_pd_step`` recomputes the previous round's gradient, and
``legacy_blocks_exceeded`` is the divergence test without the entry screen;
both are the library code as it was before the round carried ``g``.  They
are the oracle for ``pd_step`` and ``_blocks_exceeded``, which must match
them bit for bit and flag for flag.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import harness as hz
from pushopt import operators as op
from pushopt.errors import DimensionMismatchError, ValidationError

LegacyState = namedtuple("LegacyState", "t x z v y")


def legacy_pd_step(net, ensemble, alpha, state):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = net.W @ state.x - alpha * state.v
        y = net.W @ state.y
        z = x / y[:, None]
        v = net.W @ state.v + co.grad_stack(ensemble, z) - co.grad_stack(ensemble, state.z)
    return LegacyState(t=state.t + 1, x=x, z=z, v=v, y=y)


def legacy_blocks_exceeded(arrays):
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.logical_and.reduce(
            [np.sqrt((a * a).sum(axis=-1)) <= alg.DIVERGENCE_THRESHOLD for a in arrays]
        ).all(axis=-1)
    return ~ok if ok.ndim else not ok


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_flags(arrays):
    mine, ref = alg._blocks_exceeded(arrays), legacy_blocks_exceeded(arrays)
    if np.ndim(ref):
        assert mine.dtype == bool and mine.tolist() == ref.tolist()
    else:
        assert type(mine) is bool and mine == ref
    return mine


def _fig1_problem(**overrides):
    cfg = hz.resolve_config({"scenario": "fig1_hybrid", **overrides})
    return cfg, hz.build_network(cfg), hz.build_ensemble(cfg)


def _stacked(state, alphas):
    """The state repeated once per stepsize, and the stepsizes as a (K, 1, 1) array."""
    k = len(alphas)
    fields = {name: np.repeat(getattr(state, name)[None], k, axis=0) for name in ("x", "z", "v", "g")}
    return replace(state, **fields), np.array(alphas)[:, None, None]


def _starts(setting):
    """(net, ensemble, alpha, new start, legacy start) of one comparison."""
    cfg, net, ens = _fig1_problem(**({"net_seed": 7} if setting == "crossing_divergence_k20" else {}))
    init = alg.init_pd_state(net, ens, np.zeros((net.n, ens.d)))
    alpha = 0.0019950000000000002
    if setting == "default_grid_k200":
        init, alpha = _stacked(init, [cfg.tune_grid_start + cfg.tune_grid_step * j for j in range(200)])
    elif setting == "crossing_divergence_k20":
        init, alpha = _stacked(init, [0.01 + 0.005 * j for j in range(20)])
    elif setting == "hybrid_handoff":
        alpha0, _ = op.contraction_constant(net, ens)
        gp = alg.gp_run(net, ens, alpha0, np.zeros((net.n, ens.d)), cfg.gp_iters).final_state
        g = co.grad_stack(ens, gp.z)
        init = alg.PushDigingState(t=gp.t, x=gp.w, z=gp.z, v=g, g=g, y=gp.y)
    return net, ens, alpha, init, LegacyState(init.t, init.x, init.z, init.v, init.y)


@pytest.mark.parametrize("setting", ["fig1_unstacked", "default_grid_k200",
                                     "crossing_divergence_k20", "hybrid_handoff"])
def test_carried_gradient_round_matches_two_gradient_round(setting):
    net, ens, alpha, state, ref = _starts(setting)
    for _ in range(500):
        state = alg.pd_step(net, ens, alpha, state)
        ref = legacy_pd_step(net, ens, alpha, ref)
        assert state.t == ref.t
        for name in ("x", "z", "v", "y"):
            assert same_bits(getattr(state, name), getattr(ref, name)), (state.t, name)
        assert same_bits(state.g, co.grad_stack(ens, state.z))
        assert_same_flags((state.x, state.z, state.v))
    if setting == "crossing_divergence_k20":
        flags = alg.pd_diverged(state)
        assert 0 < flags.sum() < len(flags)


def test_hybrid_run_handoff_matches_two_gradient_round():
    cfg, net, ens = _fig1_problem()
    alpha0, _ = op.contraction_constant(net, ens)
    x0 = np.zeros((net.n, ens.d))
    alpha_pd = 0.0019950000000000002
    trace = alg.hybrid_run(net, ens, alpha0, alpha_pd, cfg.gp_iters, cfg.run_iters, x0)
    gp = alg.gp_run(net, ens, alpha0, x0, cfg.gp_iters).final_state
    ref = LegacyState(gp.t, gp.w, gp.z, co.grad_stack(ens, gp.z), gp.y)
    for _ in range(cfg.run_iters - cfg.gp_iters):
        ref = legacy_pd_step(net, ens, alpha_pd, ref)
    final = trace.final_state
    assert final.t == ref.t == cfg.run_iters == 500
    assert all(same_bits(getattr(final, name), getattr(ref, name)) for name in ("x", "z", "v", "y"))


D = 10
LIMIT = alg.DIVERGENCE_THRESHOLD / (2.0 * np.sqrt(D))
T = alg.DIVERGENCE_THRESHOLD


def _with_entry(value, shape=(20, D), index=(3, 4)):
    a = np.full(shape, 0.5)
    a[index] = value
    return a


@pytest.mark.parametrize("value", [
    LIMIT, np.nextafter(LIMIT, 0), np.nextafter(LIMIT, np.inf), -LIMIT,
    -np.nextafter(LIMIT, np.inf), 2.0 * LIMIT, -2.0 * LIMIT,
], ids=["at_limit", "below_limit", "above_limit", "at_minus_limit", "below_minus_limit",
        "twice_limit", "minus_twice_limit"])
def test_flags_on_either_side_of_the_screen(value):
    small = np.full((20, D), 0.5)
    assert assert_same_flags((small, _with_entry(value), small)) is False


def test_full_block_just_past_the_screen_is_not_flagged():
    """Every entry of one block above the screen limit: the norm is still
    about half the threshold, found by the exact test."""
    a = np.full((20, D), 0.5)
    a[7] = np.nextafter(LIMIT, np.inf)
    assert assert_same_flags((a, a, a)) is False
    a[7] = T / np.sqrt(D) * 1.001
    assert assert_same_flags((a, a, a)) is True


# a block with one nonzero entry has a computed norm equal to that entry
@pytest.mark.parametrize("value, flagged", [
    (np.nextafter(T, 0), False), (T, False), (np.nextafter(T, np.inf), True),
    (-T, False), (-np.nextafter(T, np.inf), True),
], ids=["below", "at", "above", "minus_at", "minus_above"])
def test_flags_at_the_threshold(value, flagged):
    a = np.zeros((20, D))
    a[5, 2] = value
    assert np.sqrt((a[5] * a[5]).sum()) == abs(value)
    small = np.zeros((20, D))
    assert assert_same_flags((small, small, a)) is flagged


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_non_finite_entries_are_flagged(value):
    small = np.full((20, D), 0.5)
    for position in range(3):
        arrays = [small, small, small]
        arrays[position] = _with_entry(value)
        assert assert_same_flags(tuple(arrays)) is True


def test_stack_with_one_flagged_candidate():
    stack = np.full((5, 20, D), 0.5)
    stack[1, 4] = np.nextafter(LIMIT, np.inf)  # past the screen, not flagged
    stack[3, 19, 9] = np.nextafter(T, np.inf)
    flags = assert_same_flags((stack, stack.copy(), stack.copy()))
    assert flags.tolist() == [False, False, False, True, False]
    clean = np.full((5, 20, D), 0.5)
    assert assert_same_flags((clean, clean, clean)).tolist() == [False] * 5
    for value in (np.nan, np.inf, -np.inf):
        bad = clean.copy()
        bad[0, 0, 0] = value
        assert assert_same_flags((clean, bad, clean)).tolist() == [True] + [False] * 4


def test_gp_diverged_shares_the_screen(net20, ens_case1):
    state = alg.init_gp_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    limit = T / (2.0 * np.sqrt(ens_case1.d))
    for value, flagged in ((limit, False), (np.nextafter(limit, np.inf), False),
                           (np.nextafter(T, np.inf), True), (np.nan, True)):
        w = state.w.copy()
        w[0, 0] = value
        probe = alg.GradientPushState(t=0, x=state.x, w=w, z=state.z, y=state.y)
        assert alg.gp_diverged(probe) is flagged
        assert legacy_blocks_exceeded((probe.x, probe.w, probe.z)) is flagged


def test_pd_run_rejects_malformed_initial_states(net20, ens_case1):
    good = alg.init_pd_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    wrong = np.zeros((net20.n, ens_case1.d + 1))
    for name, value in (("x", wrong), ("z", wrong), ("v", wrong), ("g", wrong),
                        ("y", np.ones(net20.n + 1)), ("y", np.ones((net20.n, 1))),
                        ("x", np.zeros((2, net20.n, ens_case1.d)))):
        bad = alg.PushDigingState(**{**good.__dict__, name: value})
        with pytest.raises(DimensionMismatchError, match=f"initial {name}"):
            alg.pd_run(net20, ens_case1, 0.001, bad, 5)
    one_ulp = good.g.copy()
    one_ulp[4, 1] = np.nextafter(one_ulp[4, 1], np.inf)
    stale = alg.PushDigingState(**{**good.__dict__, "z": np.ones_like(good.z)})
    for bad in (alg.PushDigingState(**{**good.__dict__, "g": one_ulp}), stale):
        with pytest.raises(ValidationError, match="bit for bit"):
            alg.pd_run(net20, ens_case1, 0.001, bad, 5)
    assert len(alg.pd_run(net20, ens_case1, 0.001, good, 5)) == 6


def _count_gradients(monkeypatch):
    """Count the gradient evaluations of ``algorithms``: its ``grad_stack``
    calls and the in-place ones of its round kernels."""
    calls = []
    real, real_into = alg.grad_stack, alg._grad_into

    def counting(ensemble, u):
        calls.append(np.shape(u))
        return real(ensemble, u)

    def counting_into(ensemble, u, out, pad):
        calls.append(np.shape(u))
        real_into(ensemble, u, out, pad)

    monkeypatch.setattr(alg, "grad_stack", counting)
    monkeypatch.setattr(alg, "_grad_into", counting_into)
    return calls


def test_one_gradient_per_round(monkeypatch):
    cfg, net, ens = _fig1_problem()
    x_star = co.ensemble_minimizer(ens)
    x0 = np.zeros((net.n, ens.d))
    calls = _count_gradients(monkeypatch)
    alphas = [cfg.tune_grid_start + cfg.tune_grid_step * k for k in range(4)]
    hz._pd_candidates(net, ens, alphas, x0, 30, x_star)
    assert len(calls) == 30 + 1
    assert calls[1:] == [(4, net.n, ens.d)] * 30

    init = alg.init_pd_state(net, ens, x0)
    calls.clear()
    trace = alg.pd_run(net, ens, 0.001, init, 40)
    assert trace.final_state.t == 40 and len(calls) == 40 + 1

    calls.clear()
    monkeypatch.setattr(hz, "_TUNE_BLOCK", 3)
    grid = dict(grid_start=0.005, grid_step=0.0025, budget=12, iters=300)
    hz.tune_pd_stepsize(*_fig1_problem(net_seed=7)[1:], **grid)
    assert len(calls) == 2 * (300 + 1)  # two blocks, as in test_tuner
