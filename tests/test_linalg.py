import numpy as np
import pytest

from conftest import apply_block_operator, induced_pi_norm_oracle, kron_block, svd_norm_oracle
from pushopt import linalg as la
from pushopt.errors import DimensionMismatchError, NoConvergenceError, NumericError


def test_pi_norm_trivial_values():
    pi = np.array([0.5, 0.5])
    assert la.pi_norm(np.zeros((2, 3)), pi) == 0.0
    assert la.pi_norm(np.array([[1.0], [1.0]]), pi) == pytest.approx(2.0, abs=1e-15)


def test_pi_norm_uniform_weights_scale_euclidean():
    rng = np.random.default_rng(1)
    for n, d in ((3, 2), (7, 5)):
        w = rng.standard_normal((n, d))
        assert la.pi_norm(w, np.full(n, 1.0 / n)) == pytest.approx(
            np.sqrt(n) * np.linalg.norm(w), rel=1e-13
        )


def test_pi_norm_matches_rescaled_euclidean():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, d = rng.integers(1, 10), rng.integers(1, 6)
        pi = rng.random(n) + 0.1
        pi /= pi.sum()
        w = rng.standard_normal((n, d))
        direct = la.pi_norm(w, pi)
        rescaled = np.linalg.norm(w / np.sqrt(pi)[:, None])
        assert abs(direct - rescaled) <= 1e-13 * max(direct, 1.0)


def test_pi_norm_of_a_stack_has_the_bits_of_each_state():
    rng = np.random.default_rng(4)
    for shape in ((4, 400, 3), (5, 20, 10), (2, 3, 7, 1), (1, 57, 17)):
        pi = rng.random(shape[-2]) + 0.1
        pi /= pi.sum()
        w = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape[:-2] + (1, 1))
        norms = la.pi_norm(w, pi)
        assert norms.shape == shape[:-2]
        flat = w.reshape((-1,) + shape[-2:])
        assert norms.ravel().tolist() == [la.pi_norm(state, pi) for state in flat]


def test_pi_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        la.pi_norm(np.zeros((3, 2)), np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        la.pi_norm(np.zeros((4, 3, 2)), np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        la.pi_norm(np.float64(1.0), np.array([1.0]))


def test_apply_block_operator_identity_and_oracle():
    rng = np.random.default_rng(3)
    n, d = 3, 4
    w = rng.standard_normal((n, d))
    ident = kron_block(np.eye(n), d)
    assert np.allclose(apply_block_operator(ident, w), w, atol=1e-15)
    M = rng.standard_normal((n, n, d, d))
    dense = la.flatten_block_operator(M) @ w.ravel()
    assert np.max(np.abs(apply_block_operator(M, w).ravel() - dense)) <= 1e-13


def test_apply_block_operator_matches_matrix_mixing(net20):
    rng = np.random.default_rng(4)
    d = 3
    w = rng.standard_normal((net20.n, d))
    lifted = apply_block_operator(kron_block(net20.W, d), w)
    assert np.allclose(lifted, net20.W @ w, atol=1e-13)


def test_spectral_norm_trivial():
    assert la.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)
    assert la.spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 14))
        M = rng.standard_normal((n, n))
        oracle = svd_norm_oracle(M)
        assert la.spectral_norm(M) == pytest.approx(oracle, rel=1e-8)


def test_spectral_norm_handles_clustered_top_values():
    # repeated singular values must not stall the block iteration
    M = np.diag([2.0, 2.0, 2.0 - 1e-13, 0.5])
    assert la.spectral_norm(M) == pytest.approx(2.0, rel=1e-10)


def test_induced_pi_norm_identity_and_mixing_gap(net20):
    assert la.induced_pi_norm(np.eye(net20.n), net20.pi) == pytest.approx(1.0, rel=1e-10)
    gap = net20.W - np.outer(net20.pi, np.ones(net20.n))
    assert la.induced_pi_norm(gap, net20.pi) == pytest.approx(net20.rho, rel=1e-10)


def test_induced_pi_norm_submultiplicative():
    rng = np.random.default_rng(6)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        pi = rng.random(n) + 0.1
        pi /= pi.sum()
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        ab = la.induced_pi_norm(A @ B, pi)
        bound = la.induced_pi_norm(A, pi) * la.induced_pi_norm(B, pi)
        assert ab <= bound + 1e-10 * max(bound, 1.0)


def test_kron_lift_preserves_induced_norm():
    rng = np.random.default_rng(7)
    for d in (1, 2, 5):
        n = 6
        pi = rng.random(n) + 0.1
        pi /= pi.sum()
        A = rng.standard_normal((n, n))
        plain = la.induced_pi_norm(A, pi)
        lifted = la.induced_pi_norm(kron_block(A, d), pi)
        assert lifted == pytest.approx(plain, rel=1e-10)


@pytest.mark.parametrize("shape", [
    (3, 2, 2, 2), (3, 4, 2, 2),  # (n, m, d, d) with m != n
    (3, 3, 2, 3),  # non-square blocks
    (2, 2, 2, 2), (3, 3, 2),  # n against 3 weights; ndim 3
])
def test_induced_pi_norm_rejects_a_malformed_operator(shape):
    with pytest.raises(DimensionMismatchError):
        la.induced_pi_norm(np.ones(shape), np.full(3, 1.0 / 3.0))


def test_symmetric_extremes_trivial_and_oracle():
    assert la.symmetric_extremes(np.diag([3.0, 1.0])) == pytest.approx((3.0, 1.0), rel=1e-9)
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        G = rng.standard_normal((d, d))
        H = G @ G.T + 0.3 * np.eye(d)
        lam = np.linalg.eigvalsh(H)
        mine = la.symmetric_extremes(H)
        assert mine[0] == pytest.approx(lam[-1], rel=1e-8)
        assert mine[1] == pytest.approx(lam[0], rel=1e-8)


def test_solve_refined_matches_lu_to_rounding():
    rng = np.random.default_rng(31)
    for size in (1, 7, 60):
        A = np.eye(size) + 0.3 * rng.standard_normal((size, size))
        b = rng.standard_normal(size)
        x = la.solve_refined(A, b)
        oracle = np.linalg.solve(A, b)
        scale = np.linalg.cond(A) * np.max(np.abs(oracle))
        assert np.max(np.abs(x - oracle)) <= 1e-14 * scale
        assert np.max(np.abs(A @ x - b)) <= 1e-14 * (1 + np.max(np.abs(b)))


def test_block_power_iteration_raises_at_its_cap(monkeypatch):
    monkeypatch.setattr(la, "_EIG_MAX_ITER", 1)
    M = np.random.default_rng(8).standard_normal((30, 30))
    with pytest.raises(NoConvergenceError, match="after 1 power iterations"):
        la.spectral_norm(M)


def test_block_power_iteration_at_the_edge_of_float_range():
    M = np.random.default_rng(8).standard_normal((30, 30))
    # the Gram product's residual squared overflows here; its norm does not
    assert la.spectral_norm(1e100 * M) == pytest.approx(1e100 * la.spectral_norm(M), rel=1e-9)
    with pytest.raises(NumericError, match="non-finite Ritz block"):
        la.spectral_norm(1e160 * M)
