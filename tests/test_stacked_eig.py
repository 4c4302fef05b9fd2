"""The stacked block power iteration against the one-matrix-at-a-time kernel.

``oracle_top_eig``, ``oracle_restarted`` and ``oracle_extremes`` are the
kernel as it was before matrices were stacked: one Python loop per matrix,
one restart loop per matrix.  They read the iteration settings from
``linalg`` at call time, as the kernel does.  The one edit is that
``oracle_extremes`` no longer clips the smallest eigenvalue at zero; that
clip now lives in the cost constructors.  Every stacked result must equal
the oracle's bit for bit.
"""

import numpy as np
import pytest

from pushopt import costs as co
from pushopt import harness as hz
from pushopt import linalg as la
from pushopt import operators as op
from pushopt.errors import DimensionMismatchError, NoConvergenceError, ValidationError


def oracle_top_eig(B, start_index=0, scale=None, steps=None):
    """Per-matrix block power iteration; appends its step count to ``steps``."""
    size = B.shape[0]
    b = max(1, min(la._EIG_BLOCK, size - 1)) if size > 1 else 1
    V = la._start_block(size, start_index, b)
    for it in range(la._EIG_MAX_ITER):
        U = B @ V
        if not np.any(U):
            if steps is not None:
                steps.append(it)
            return 0.0
        G = V.T @ U
        ritz, vecs = np.linalg.eigh(0.5 * (G + G.T))
        lam = float(ritz[-1])
        top = V @ vecs[:, -1]
        resid = np.linalg.norm(U @ vecs[:, -1] - lam * top)
        if resid <= la._EIG_TOL * max(lam, scale if scale is not None else 0.0, la._STOP_FLOOR):
            if steps is not None:
                steps.append(it)
            return max(lam, 0.0)
        V, _ = np.linalg.qr(U)
    raise NoConvergenceError("oracle did not converge")


def oracle_restarted(B, scale=None, steps=None):
    best = 0.0
    prev = None
    for r in range(la._EIG_RESTARTS):
        lam = oracle_top_eig(B, start_index=r, scale=scale, steps=steps)
        best = max(best, lam)
        stop = la._EIG_TOL * (scale if scale is not None else max(best, la._STOP_FLOOR))
        if prev is not None and abs(lam - prev) <= stop:
            break
        prev = lam
    return best


def oracle_extremes(H, steps=None):
    H = np.asarray(H, dtype=float)
    lam_max = oracle_restarted(H, steps=steps)
    if lam_max == 0.0:
        return 0.0, 0.0
    S = lam_max * np.eye(H.shape[0]) - H
    lam_min = lam_max - oracle_restarted(S, scale=lam_max, steps=steps)
    return float(lam_max), float(lam_min)


def assert_stack_matches_oracle(stack):
    L, mu = la.symmetric_extremes(stack)
    expected = np.array([oracle_extremes(H) for H in stack])
    assert L.shape == mu.shape == (len(stack),)
    assert np.array_equal(L, expected[:, 0])
    assert np.array_equal(mu, expected[:, 1])


@pytest.mark.parametrize("scenario", ["fig4_case1_sweep", "fig6_case2_sweep"])
def test_ensemble_constants_match_per_matrix_kernel(scenario):
    ens = hz.build_ensemble(hz.resolve_config({"scenario": scenario, "n": 400}))
    assert_stack_matches_oracle(ens.hess_stack)
    for cost in ens.costs:
        L, mu = oracle_extremes(cost.hess)
        assert (cost.L, cost.mu) == (L, max(mu, 0.0))
    assert la.symmetric_extremes(ens.agg_hess) == oracle_extremes(ens.agg_hess)
    assert ens.mu_agg == oracle_extremes(ens.agg_hess)[1]


def test_mixed_stack_matches_per_matrix_kernel():
    rng = np.random.default_rng(3)
    u = rng.random(3)
    stack = [np.zeros((3, 3)), np.outer(u, u), np.diag([2.0, 2.0, 1e-3])]
    for _ in range(8):
        G = rng.standard_normal((3, 3))
        stack.append(G @ G.T)
    stack = np.array(stack)
    # the slices leave the iteration at different steps and restarts
    steps, restarts = set(), set()
    for H in stack:
        log = []
        oracle_extremes(H, steps=log)
        steps.update(log)
        restarts.add(len(log))
    assert len(steps) > 2 and len(restarts) > 1
    assert_stack_matches_oracle(stack)
    assert_stack_matches_oracle(np.array([[[0.0]], [[2.5]], [[1e-3]]]))
    assert la.symmetric_extremes(stack[2]) == oracle_extremes(stack[2])


def test_spectral_norm_matches_per_matrix_kernel_on_fig5_operator():
    cfg = hz.resolve_config({"scenario": "fig5_case2"})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    alpha0 = op.stepsize_ceiling(net, ens, hz.case_eps(cfg, ens))
    s = np.sqrt(net.pi)
    for alpha in (alpha0 / 40, alpha0 / 2, alpha0):
        M = op.operator_matrix(op.OperatorContext(net, ens, alpha))
        T = la.flatten_block_operator(M * (s[None, :, None, None] / s[:, None, None, None]))
        assert la.spectral_norm(T) == float(np.sqrt(oracle_restarted(T.T @ T)))


def test_one_stuck_slice_raises(monkeypatch):
    monkeypatch.setattr(la, "_EIG_MAX_ITER", 5)
    easy = 2.0 * np.eye(4)
    stuck = np.diag([1.0, 1.0 - 1e-7, 1.0 - 2e-7, 1.0 - 3e-7])
    stuck = la._start_block(4, 0, 4) @ stuck @ la._start_block(4, 0, 4).T
    oracle_extremes(easy)
    with pytest.raises(NoConvergenceError):
        oracle_extremes(stuck)
    with pytest.raises(NoConvergenceError, match="after 5 power iterations"):
        la.symmetric_extremes(np.array([easy, stuck, easy]))


def test_symmetric_extremes_rejects_bad_input():
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 3, 4)), np.zeros((1, 1, 2, 2)),
                np.zeros((0, 0))):
        with pytest.raises(DimensionMismatchError, match="expected an"):
            la.symmetric_extremes(bad)
    for value in (np.nan, np.inf, -np.inf):
        H = np.eye(3)
        H[1, 2] = value
        with pytest.raises(DimensionMismatchError, match="finite"):
            la.symmetric_extremes(H)
    stack = np.array([np.eye(3)] * 4)
    stack[-1, 0, 0] = np.nan
    with pytest.raises(DimensionMismatchError, match="finite"):
        la.symmetric_extremes(stack)


def test_batched_constructors_keep_per_cost_errors(ens_case1, ens_case2):
    payload = co.ensemble_to_dict(ens_case2)
    P = np.diag(np.linspace(2.0, -0.5, ens_case2.d))
    payload["costs"][2]["P"] = P.ravel().tolist()
    with pytest.raises(ValidationError, match=r"quadratic matrix has negative eigenvalue -0\.4999"):
        co.ensemble_from_dict(payload)
    payload = co.ensemble_to_dict(ens_case1)
    payload["costs"][5]["L"] *= 1.5
    with pytest.raises(ValidationError, match=r"stored L=\S+ disagrees with recomputed"):
        co.ensemble_from_dict(payload)
    for ens in (ens_case1, ens_case2):
        scaled = co.scale_ensemble(ens, 2.0)
        for cost in scaled.costs:
            L, mu = oracle_extremes(cost.hess)
            assert (cost.L, cost.mu) == (L, max(mu, 0.0))
        assert scaled.mu_agg == oracle_extremes(scaled.agg_hess)[1]
