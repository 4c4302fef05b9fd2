"""The stacked Push-DIGing tuner against the one-run-per-candidate walk.

``sequential_outcome`` and ``sequential_walk`` are the tuner as it was
before candidates were stacked: one ``pd_run`` per grid point, with the
selection and stop rules applied as each run ends.  They are the oracle
for the stacked runs.
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
    last = None if trace.diverged else trace.last().sum_z_err
    return trace.diverged, trace.records[0].sum_z_err, last


def sequential_walk(net, ensemble, grid_start, grid_step, budget, iters=500):
    """The tuner's walk, one pd_run per candidate."""
    x_star = co.ensemble_minimizer(ensemble)
    best_alpha = None
    best_err = np.inf
    for k in range(budget):
        a = grid_start + grid_step * k
        diverged, first, last = sequential_outcome(net, ensemble, a, iters, x_star)
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
    pd_step = alg.pd_step

    def counted(net, ensemble, alpha, state):
        stepped.append(len(state.x))
        return pd_step(net, ensemble, alpha, state)

    monkeypatch.setattr(alg, "pd_step", counted)
    diverged, first, lasts = hz._pd_candidates(net, ens, alphas, np.zeros((net.n, ens.d)),
                                               cfg.tune_iters, x_star)
    monkeypatch.setattr(alg, "pd_step", pd_step)
    stacked = [(bool(f), first, None if f else last) for f, last in zip(diverged, lasts)]
    oracle = [sequential_outcome(net, ens, a, cfg.tune_iters, x_star) for a in alphas]
    assert stacked == oracle
    assert len(stepped) == cfg.tune_iters == 500
    if overrides:
        assert 0 < sum(f for f, _, _ in oracle) < count
        assert sum(stepped) < count * cfg.tune_iters
    else:
        assert stepped == [count] * cfg.tune_iters


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


def test_tuner_fig1_default_seed_value():
    """The value the one-run-per-candidate walk selected on the fig1 default."""
    cfg, net, ens = _fig1_problem()
    tuned = hz.tune_pd_stepsize(net, ens, cfg.tune_grid_start, cfg.tune_grid_step,
                                cfg.tune_budget, iters=cfg.tune_iters)
    assert tuned == 0.0019950000000000002
