"""The stacked Push-DIGing tuner against the one-run-per-candidate walk.

``sequential_outcome`` and ``sequential_walk`` are the tuner as it was
before candidates were stacked: one ``pd_run`` per grid point, with the
selection and stop rules applied as each run ends; ``walk_rules`` holds
those rules, which also judge synthetic outcomes.  They are the oracle for
the stacked runs.
"""

import numpy as np
import pytest

from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import harness as hz
from pushopt.errors import AllDivergedError


def sequential_outcome(net, ensemble, a, iters, x_star):
    """(diverged, first, last) of one pd_run from zero; last is None when
    the run was flagged, since a flagged run stops early."""
    x0 = np.zeros((net.n, ensemble.d))
    trace = alg.pd_run(net, ensemble, a, alg.init_pd_state(net, ensemble, x0), iters,
                       alg.RunRefs(x_star=x_star))
    last = None if trace.diverged else float(trace.sum_z_err[-1])
    return trace.diverged, float(trace.sum_z_err[0]), last


def sequential_walk(net, ensemble, grid_start, grid_step, budget, iters=500):
    """The tuner's walk, one pd_run per candidate."""
    x_star = co.ensemble_minimizer(ensemble)
    grid = (grid_start + grid_step * k for k in range(budget))
    return walk_rules((a, *sequential_outcome(net, ensemble, a, iters, x_star)) for a in grid)


def walk_rules(candidates):
    """The selection and stop rules over (alpha, diverged, first, last) in
    grid order, drawn one at a time, as the one-run-per-candidate tuner
    wrote them."""
    best_alpha = None
    best_err = np.inf
    for a, diverged, first, last in candidates:
        if diverged:
            if best_alpha is not None:
                break
            raise AllDivergedError(f"first grid stepsize {a} already diverges")
        if not np.isfinite(last) or last >= first:
            if best_alpha is not None and (not np.isfinite(last) or last > 1e3 * max(best_err, 1e-300)):
                break
            continue
        if last <= best_err:
            best_alpha, best_err = a, last
        elif last > 1e3 * max(best_err, 1e-300):
            break
    if best_alpha is None:
        raise AllDivergedError("no grid stepsize made progress within the budget")
    return best_alpha


def _fig1_problem(**overrides):
    cfg = hz.resolve_config({"scenario": "fig1_hybrid", **overrides})
    return cfg, hz.build_network(cfg), hz.build_ensemble(cfg)


@pytest.mark.parametrize("overrides, start, step, count", [
    ({}, None, None, 20),
    ({"net_seed": 7}, 0.01, 0.005, 20),
], ids=["fig1_default_grid_head", "crossing_divergence"])
def test_stacked_candidates_match_sequential_runs(monkeypatch, overrides, start, step, count):
    """Each candidate keeps the outcome of its own run, and a flagged one
    leaves the stack: it is not stepped past its flagged round."""
    cfg, net, ens = _fig1_problem(**overrides)
    start = cfg.tune_grid_start if start is None else start
    step = cfg.tune_grid_step if step is None else step
    alphas = [start + step * k for k in range(count)]
    x_star = co.ensemble_minimizer(ens)
    stepped = []
    kernel = alg._pd_round

    def counted(net, alpha, grad, state, new, y):
        stepped.append(len(state.x))
        kernel(net, alpha, grad, state, new, y)

    monkeypatch.setattr(alg, "_pd_round", counted)
    diverged, first, lasts = hz._pd_candidates(net, ens, alphas, np.zeros((net.n, ens.d)),
                                               cfg.tune_iters, x_star)
    monkeypatch.setattr(alg, "_pd_round", kernel)
    stacked = [(bool(f), first, None if f else last) for f, last in zip(diverged, lasts)]
    oracle = [sequential_outcome(net, ens, a, cfg.tune_iters, x_star) for a in alphas]
    assert stacked == oracle
    assert len(stepped) == cfg.tune_iters == 500
    if overrides:
        assert 0 < sum(f for f, _, _ in oracle) < count
        assert sum(stepped) < count * cfg.tune_iters
    else:
        assert stepped == [count] * cfg.tune_iters


def test_candidates_on_the_agent_gradient_path_match_sequential_runs(monkeypatch):
    """100 candidates fill 25 whole 4-slice gradient blocks; once flagged
    candidates leave, at most 80 remain, most of them in padded blocks."""
    _, net, ens = _fig1_problem(net_seed=7)
    alphas = [0.005 + 0.0005 * k for k in range(100)]
    x_star = co.ensemble_minimizer(ens)
    slices = []
    grad_stack, grad_into = alg.grad_stack, alg._grad_into

    def counted(ensemble, u):
        slices.append(len(u) if np.ndim(u) == 3 else None)
        return grad_stack(ensemble, u)

    def counted_into(ensemble, u, out, pad):  # the round kernels' in-place gradients
        slices.append(len(u))
        grad_into(ensemble, u, out, pad)

    monkeypatch.setattr(alg, "grad_stack", counted)
    monkeypatch.setattr(alg, "_grad_into", counted_into)
    diverged, first, lasts = hz._pd_candidates(net, ens, alphas, np.zeros((net.n, ens.d)), 60, x_star)
    monkeypatch.undo()
    stacked = [(bool(f), first, None if f else last) for f, last in zip(diverged, lasts)]
    assert stacked == [sequential_outcome(net, ens, a, 60, x_star) for a in alphas]
    assert slices[1] == 100 and slices[-1] <= 80


def test_stacked_tuner_matches_sequential_walk_across_divergence():
    """The walk stops at the first flagged candidate after a qualifier."""
    _, net, ens = _fig1_problem(net_seed=7)
    grid = dict(grid_start=0.01, grid_step=0.005, budget=20, iters=500)
    assert hz.tune_pd_stepsize(net, ens, **grid) == sequential_walk(net, ens, **grid) == 0.01


def test_tuner_blocks_replay_the_walk_in_grid_order(monkeypatch):
    """With three candidates per block the walk stops, on the three-decades
    rule at the fifth grid point, in the second block and runs no third."""
    _, net, ens = _fig1_problem(net_seed=7)
    grid = dict(grid_start=0.005, grid_step=0.0025, budget=12, iters=300)
    whole = hz.tune_pd_stepsize(net, ens, **grid)
    blocks = []
    run_block = hz._pd_candidates

    def counted(net, ensemble, alphas, *rest):
        blocks.append(alphas)
        return run_block(net, ensemble, alphas, *rest)

    monkeypatch.setattr(hz, "_TUNE_BLOCK", 3)
    monkeypatch.setattr(hz, "_pd_candidates", counted)
    assert hz.tune_pd_stepsize(net, ens, **grid) == whole == sequential_walk(net, ens, **grid)
    assert [len(b) for b in blocks] == [3, 3]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("flags, lasts", [
    ([0, 0, 0], [0.5, NAN, 0.1]),
    ([0, 0, 0], [0.5, INF, 0.1]),
    ([0, 0, 0], [NAN, INF, 0.5]),
    ([0, 0, 0], [1.0, 0.5, 0.7]),
    ([0, 0, 0, 0], [0.5, 1.0, 0.4, 2.0]),
    ([0, 0, 0], [0.5, 0.5, 0.7]),
    ([0, 0, 0], [1e-4, 0.2, 1e-5]),
    ([0, 0, 0], [2.0**-12, 1e3 * 2.0**-12, 2.0**-13]),
    ([0, 0, 0], [0.0, 1e-298, 0.0]),
    ([0, 0, 0], [0.0, 1e-296, 0.0]),
    ([0, 1, 0], [0.5, NAN, 0.1]),
    ([1, 0, 0], [NAN, 0.5, 0.1]),
    ([0, 0, 0, 0], [1.0, 2.0, NAN, INF]),
    ([0, 0, 1], [1.0, NAN, NAN]),
], ids=["nan_stops", "inf_stops", "nonfinite_before_a_qualifier", "last_equals_first",
        "at_or_above_first_after_a_qualifier", "tie_prefers_larger", "three_decades_jump",
        "exactly_three_decades", "zero_best_floor", "zero_best_jump", "flag_after_a_qualifier",
        "flagged_first_point", "no_qualifier", "flag_without_a_qualifier"])
@pytest.mark.parametrize("block", [200, 2])
def test_tuner_walk_on_synthetic_outcomes(monkeypatch, net20, ens_case1, flags, lasts, block):
    """Outcomes no grid run reaches, fed to the tuner in place of its
    stacked runs, select what the one-run-per-candidate rules select."""
    first = 1.0

    def outcomes(net, ensemble, alphas, *rest):
        ks = [round(a) - 1 for a in alphas]  # grid_start = grid_step = 1
        return [bool(flags[k]) for k in ks], first, [lasts[k] for k in ks]

    monkeypatch.setattr(hz, "_TUNE_BLOCK", block)
    monkeypatch.setattr(hz, "_pd_candidates", outcomes)
    grid = [(k + 1.0, bool(f), first, last) for k, (f, last) in enumerate(zip(flags, lasts))]
    try:
        expected = walk_rules(iter(grid))
    except AllDivergedError as exc:
        expected = str(exc).split(" ")[:3]
    try:
        tuned = hz.tune_pd_stepsize(net20, ens_case1, 1.0, 1.0, len(lasts), iters=1)
    except AllDivergedError as exc:
        tuned = str(exc).split(" ")[:3]
    assert tuned == expected


def test_tuner_fig1_default_seed_value():
    """The value the one-run-per-candidate walk selected on the fig1 default."""
    cfg, net, ens = _fig1_problem()
    tuned = hz.tune_pd_stepsize(net, ens, cfg.tune_grid_start, cfg.tune_grid_step,
                                cfg.tune_budget, iters=cfg.tune_iters)
    assert tuned == 0.0019950000000000002
