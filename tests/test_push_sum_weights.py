"""The push-sum weights stop being multiplied once they are stationary, and
no run changes a bit for it.

``every_round`` is the weight sequence as every run made it before: one
``W @ y`` a round, for as long as the run lasts.  Each run below is made
twice, once with the library's ``network._push_sum_weights`` and once with
``every_round`` in its place, and the two must agree bit for bit, trace
and final state, on run lengths below and above the round where the
weights settle.
"""

import numpy as np
import pytest

from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import harness as hz
from pushopt import network as nw
from pushopt import operators as op


def every_round(W, y):
    while True:
        yield y
        y = W @ y


def settling_round(W):
    """The first t with W y(t) == y(t) bit for bit, y(0) = 1."""
    y, t = np.ones(len(W)), 0
    while (W @ y).tobytes() != y.tobytes():
        y, t = W @ y, t + 1
    return t


def sparse_problem():
    """n = 200 at p = 1.5 ln n / n: its weights settle late."""
    net = nw.build_mixing_matrix(nw.generate_digraph(200, 0.0397, 3))
    return net, co.make_case1_ensemble(200, 3, 4, 2.0, 7)


def runs(net, ens, iters):
    """Every caller of the round loop, on runs of ``iters`` rounds: the
    traces and (final state, flag) pairs they return."""
    alpha0 = op.stepsize_ceiling(net, ens)
    x0 = np.zeros((net.n, ens.d))
    x_star = co.ensemble_minimizer(ens)
    refs = alg.RunRefs(x_star=x_star, w_fixed=np.ones((net.n, ens.d)))
    handoff = alg.gp_run(net, ens, alpha0, x0, iters // 2).final_state
    g = co.grad_stack(ens, handoff.z)
    warm = alg.PushDigingState(t=handoff.t, x=handoff.w, z=handoff.z, v=g, g=g, y=handoff.y)
    pd_alphas = [0.002, 0.004, 0.3]  # the last is flagged
    return {
        "gp_sweep K=1": alg.gp_sweep(net, ens, [alpha0], x0, iters, refs),
        "gp_sweep K=3": alg.gp_sweep(net, ens, [0.5 * alpha0, alpha0, 8.0 * alpha0], x0,
                                     iters, refs),
        "pd_run": [alg.pd_run(net, ens, 0.004, alg.init_pd_state(net, ens, x0), iters, refs)],
        "pd_run warm": [alg.pd_run(net, ens, 0.004, warm, iters, refs)],
        "hybrid_run": [alg.hybrid_run(net, ens, alpha0, 0.004, iters // 3, iters, x0, refs)],
        "_pd_candidates": hz._pd_candidates(net, ens, pd_alphas, x0, iters, x_star),
    }


def fingerprint(result):
    """The bits of a run's output: trace columns, final states and flags."""
    if isinstance(result, tuple):  # _pd_candidates: (flags, first, lasts)
        flags, first, lasts = result
        return flags, np.float64(first).tobytes(), np.array(lasts).tobytes()
    out = []
    for trace in result:
        state = trace.final_state
        out.append((len(trace), trace.diverged, state.t,
                    *(None if c is None else c.tobytes()
                      for c in (trace.sum_z_err, trace.w_fp_err, trace.w_opt_err)),
                    *(getattr(state, f).tobytes() for f in ("x", "z", "y"))))
    return out


@pytest.mark.parametrize("problem", ["net20", "sparse"])
def test_weight_rule_keeps_every_bit(monkeypatch, request, problem):
    if problem == "net20":
        net, ens = request.getfixturevalue("net20"), request.getfixturevalue("ens_case1")
    else:
        net, ens = sparse_problem()
    settle = settling_round(net.W)
    for iters in (settle // 2, settle + 1, 2 * settle + 40):
        mine = runs(net, ens, iters)
        with monkeypatch.context() as patched:
            patched.setattr(alg, "_push_sum_weights", every_round)
            ref = runs(net, ens, iters)
        for name in mine:
            assert fingerprint(mine[name]) == fingerprint(ref[name]), (problem, iters, name)
    assert (problem == "sparse") == (settle > 40)  # the sparse draw settles late


def test_weight_rule_matches_a_loop_of_public_steps(net20, ens_case1):
    # the public steps multiply W @ y every call
    x0 = np.zeros((net20.n, ens_case1.d))
    alpha0 = op.stepsize_ceiling(net20, ens_case1)
    gp, pd = alg.init_gp_state(net20, ens_case1, x0), alg.init_pd_state(net20, ens_case1, x0)
    for _ in range(100):
        gp = alg.gp_step(net20, ens_case1, alpha0, gp)
        pd = alg.pd_step(net20, ens_case1, 0.004, pd)
    swept = alg.gp_run(net20, ens_case1, alpha0, x0, 100).final_state
    run = alg.pd_run(net20, ens_case1, 0.004, alg.init_pd_state(net20, ens_case1, x0),
                     100).final_state
    for mine, ref, names in ((swept, gp, "xwzy"), (run, pd, "xzvgy")):
        for name in names:
            assert getattr(mine, name).tobytes() == getattr(ref, name).tobytes(), name


class CountingMatrix:
    """W, counting the products ``W @ y`` made through it."""

    def __init__(self, W):
        self.W, self.products = W, 0

    def __matmul__(self, y):
        self.products += 1
        return self.W @ y


def test_weight_rule_fires_in_a_long_run(monkeypatch, net20, ens_case1):
    counted = []
    real = alg._push_sum_weights

    def counting(W, y):
        counted.append(CountingMatrix(W))
        return real(counted[-1], y)

    monkeypatch.setattr(alg, "_push_sum_weights", counting)
    trace = alg.gp_run(net20, ens_case1, 0.01, np.zeros((net20.n, ens_case1.d)), 1000)
    assert len(trace) == 1001 and len(counted) == 1 and type(trace.final_state.t) is int
    assert counted[0].products == settling_round(net20.W) + 1 < 50


def test_consensus_constants_read_the_same_weights(monkeypatch):
    net, _ = sparse_problem()
    mine = op.estimate_consensus_constants(net)
    monkeypatch.setattr(op, "_push_sum_weights", every_round)
    assert np.array(op.estimate_consensus_constants(net)).tobytes() == np.array(mine).tobytes()
