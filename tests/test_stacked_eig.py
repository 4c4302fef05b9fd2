"""Stacked spectral kernels against one-matrix-at-a-time references.

``oracle_top_eig``, ``oracle_restarted`` and ``oracle_extremes`` are the
block power iteration as it was before matrices were stacked: one Python
loop per matrix, one restart loop per matrix, the smallest eigenvalue from
the shifted problem ``lam_max I - H``.  They are reference implementations
and keep their own copies of its settings and start block; ``oracle_extremes``
does not clip the smallest eigenvalue at zero.  ``spectral_norm`` is
LAPACK's SVD: it must equal ``np.linalg.svd`` bit for bit, and the square
root of ``oracle_restarted`` on M^T M to 1e-12 relative.
``symmetric_extremes`` is LAPACK's symmetric eigensolver: each slice of a
stack must equal its own (m, m) call bit for bit, and the power-iteration
oracle to 1e-12 of the largest eigenvalue.  The Lanczos kernel behind the
Lipschitz sweep must raise at its step cap when one slice of a stack cannot
converge.
"""

import numpy as np
import pytest

from conftest import flatten_block_operator, operator_matrix
from pushopt import costs as co
from pushopt import harness as hz
from pushopt import linalg as la
from pushopt import operators as op
from pushopt.errors import DimensionMismatchError, NoConvergenceError, ValidationError

TOL, FLOOR = 1e-10, 1e-300  # relative eigen-residual that stops an iteration; zero-scale floor
MAX_ITER, RESTARTS, BLOCK = 20000, 3, 12  # iterations per start, starts, subspace columns


def start_block(size, index, block):
    if index == 0:
        V = np.hstack([np.ones((size, 1)),
                       np.random.default_rng(1).standard_normal((size, block - 1))])
    else:
        V = np.random.default_rng(1000 * index).standard_normal((size, block))
    return np.linalg.qr(V)[0]


def oracle_top_eig(B, start_index=0, scale=None):
    """Per-matrix block power iteration."""
    size = B.shape[0]
    b = max(1, min(BLOCK, size - 1)) if size > 1 else 1
    V = start_block(size, start_index, b)
    for _ in range(MAX_ITER):
        U = B @ V
        if not np.any(U):
            return 0.0
        G = V.T @ U
        ritz, vecs = np.linalg.eigh(0.5 * (G + G.T))
        lam = float(ritz[-1])
        top = V @ vecs[:, -1]
        resid = np.linalg.norm(U @ vecs[:, -1] - lam * top)
        if resid <= TOL * max(lam, scale if scale is not None else 0.0, FLOOR):
            return max(lam, 0.0)
        V, _ = np.linalg.qr(U)
    raise NoConvergenceError("oracle did not converge")


def oracle_restarted(B, scale=None):
    best = 0.0
    prev = None
    for r in range(RESTARTS):
        lam = oracle_top_eig(B, start_index=r, scale=scale)
        best = max(best, lam)
        stop = TOL * (scale if scale is not None else max(best, FLOOR))
        if prev is not None and abs(lam - prev) <= stop:
            break
        prev = lam
    return best


def oracle_extremes(H):
    H = np.asarray(H, dtype=float)
    lam_max = oracle_restarted(H)
    if lam_max == 0.0:
        return 0.0, 0.0
    S = lam_max * np.eye(H.shape[0]) - H
    lam_min = lam_max - oracle_restarted(S, scale=lam_max)
    return float(lam_max), float(lam_min)


def assert_slices_match_own_call(stack):
    """Each slice of a stacked call has the bits of its own (m, m) call."""
    L, mu = la.symmetric_extremes(stack)
    assert L.shape == mu.shape == (len(stack),)
    own = np.array([la.symmetric_extremes(H) for H in stack])
    assert L.tobytes() == own[:, 0].tobytes()
    assert mu.tobytes() == own[:, 1].tobytes()
    return L, mu


def assert_close_to_oracle(stack, L, mu):
    expected = np.array([oracle_extremes(H) for H in stack])
    assert np.all(np.abs(L - expected[:, 0]) <= 1e-12 * expected[:, 0])
    assert np.all(np.abs(mu - expected[:, 1]) <= 1e-12 * expected[:, 0])


@pytest.mark.parametrize("scenario", ["fig4_case1_sweep", "fig6_case2_sweep"])
def test_ensemble_constants_match_per_matrix_kernel(scenario):
    ens = hz.build_ensemble(hz.resolve_config({"scenario": scenario, "n": 400}))
    L, mu = assert_slices_match_own_call(ens.hess_stack)
    assert_close_to_oracle(ens.hess_stack, L, mu)
    assert [(c.L, c.mu) for c in ens.costs] == list(zip(L.tolist(), np.maximum(mu, 0.0).tolist()))
    agg_L, agg_mu = la.symmetric_extremes(ens.agg_hess)
    assert ens.mu_agg == agg_mu
    assert_close_to_oracle(ens.agg_hess[None], np.array([agg_L]), np.array([agg_mu]))


def test_mixed_stack_matches_per_matrix_kernel():
    rng = np.random.default_rng(3)
    u = rng.random(3)
    stack = [np.zeros((3, 3)), np.outer(u, u), np.diag([2.0, 2.0, 1e-3])]
    for _ in range(8):
        G = rng.standard_normal((3, 3))
        stack.append(G @ G.T)
    stack = np.array(stack)
    L, mu = assert_slices_match_own_call(stack)
    assert (L[0], mu[0]) == (0.0, 0.0)
    assert_close_to_oracle(stack, L, mu)
    L, mu = assert_slices_match_own_call(np.array([[[0.0]], [[2.5]], [[1e-3]]]))
    assert L.tolist() == mu.tolist() == [0.0, 2.5, 1e-3]


def test_spectral_norm_matches_per_matrix_kernel_on_fig5_operator():
    cfg = hz.resolve_config({"scenario": "fig5_case2"})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    alpha0 = op.stepsize_ceiling(net, ens, hz.case_eps(cfg, ens))
    s = np.sqrt(net.pi)
    for alpha in (alpha0 / 40, alpha0 / 2, alpha0):
        M = operator_matrix(op.OperatorContext(net, ens, alpha))
        T = flatten_block_operator(M * (s[None, :, None, None] / s[:, None, None, None]))
        norm = la.spectral_norm(T)
        assert norm == np.linalg.svd(T, compute_uv=False)[0]
        assert abs(norm - float(np.sqrt(oracle_restarted(T.T @ T)))) <= 1e-12 * norm


def test_one_stuck_slice_raises(monkeypatch):
    monkeypatch.setattr(la, "_EIG_MAX_ITER", 5)
    size = 10  # above the cap, so no slice can end by exhausting its Krylov space
    easy = 2.0 * np.eye(size)
    rotation = start_block(size, 0, size)
    stuck = rotation @ np.diag(1.0 - 1e-7 * np.arange(size)) @ rotation.T

    def top(stack):
        return la._lanczos_top_eig(lambda V, live: stack[live] @ V, len(stack), size)

    assert top(easy[None]).tolist() == [2.0]
    with pytest.raises(NoConvergenceError, match="after 5 steps"):
        top(stuck[None])
    with pytest.raises(NoConvergenceError, match="after 5 steps"):
        top(np.array([easy, stuck, easy]))


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


def test_symmetric_extremes_reports_a_lapack_failure(monkeypatch):
    def fail(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        la.symmetric_extremes(np.eye(3))


def test_batched_constructors_keep_per_cost_errors(ens_case1, ens_case2):
    payload = co.ensemble_to_dict(ens_case2)
    P = np.diag(np.linspace(2.0, -0.5, ens_case2.d))
    payload["costs"][2]["P"] = P.ravel().tolist()
    with pytest.raises(ValidationError, match=r"quadratic matrix has negative eigenvalue -0\.5$"):
        co.ensemble_from_dict(payload)
    payload = co.ensemble_to_dict(ens_case1)
    payload["costs"][5]["L"] *= 1.5
    with pytest.raises(ValidationError, match=r"stored L=\S+ disagrees with recomputed"):
        co.ensemble_from_dict(payload)
    for ens in (ens_case1, ens_case2):
        scaled = co.scale_ensemble(ens, 2.0)
        for cost, base in zip(scaled.costs, ens.costs):
            assert (cost.L, cost.mu) == (2.0 * base.L, 2.0 * base.mu)
        assert scaled.mu_agg == 2.0 * ens.mu_agg
