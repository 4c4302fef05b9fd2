import numpy as np
import pytest

from pushopt import costs as co
from pushopt import network as nw
from pushopt import operators as op
from pushopt.errors import DimensionMismatchError
from pushopt.linalg import spectral_norm


@pytest.fixture(scope="session")
def net20():
    """The standard experiment network: 20 agents, arc probability 0.7."""
    return nw.build_mixing_matrix(nw.generate_digraph(20, 0.7, 42))


@pytest.fixture(scope="session")
def ens_case1():
    """Regularized least squares at the standard settings d=3, m=4, delta=2."""
    return co.make_case1_ensemble(20, 3, 4, 2.0, 7)


@pytest.fixture(scope="session")
def ens_case2():
    """Rank-deficient quadratics at the standard settings d=10, m_rank=4."""
    return co.make_case2_ensemble(20, 10, 4, 7)


@pytest.fixture(scope="session")
def complete4():
    """Complete digraph on 4 agents: doubly stochastic uniform mixing."""
    edges = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    return nw.build_mixing_matrix(nw.make_digraph(4, edges))


@pytest.fixture(scope="session")
def single_agent():
    return nw.build_mixing_matrix(nw.make_digraph(1, []))


def apply_block_operator(M, w):
    """Apply an (n, n, d, d) block operator: result_i = sum_j M[i, j] w_j."""
    return np.einsum("ijab,jb->ia", M, w)


def kron_block(A, d):
    """Lift an n x n matrix to the block operator with blocks A[i, j] * I_d."""
    return np.asarray(A, dtype=float)[:, :, None, None] * np.eye(d)


def flatten_block_operator(M):
    """Reinterpret an (n, n, d, d) block operator as a dense nd x nd matrix."""
    n, _, d, _ = M.shape
    return np.ascontiguousarray(M.transpose(0, 2, 1, 3)).reshape(n * d, n * d)


def operator_matrix(ctx):
    """Block matrix of the limit operator's linear part, the dense oracle for
    the matrix-free products: block (k, j) = W[k, j] * (I_d - alpha / (n pi_j) * H_j),
    the 1/(n pi_j) because the gradient is taken at w_j / (n pi_j)."""
    net, ens = ctx.net, ctx.ensemble
    scale = ctx.alpha / (net.n * net.pi)
    S = np.eye(ens.d)[None, :, :] - scale[:, None, None] * ens.hess_stack
    return net.W[:, :, None, None] * S[None, :, :, :]


def fixed_point_reference(ctx):
    """The limit operator's fixed point in np.longdouble, the oracle for
    ``solve_fixed_point``: LU corrections on the dense ``operator_matrix``,
    with residuals T(x) - x evaluated in long double, refined until x stops
    changing (at most 20 steps)."""
    net, ens = ctx.net, ctx.ensemble
    A = np.eye(net.n * ens.d) - flatten_block_operator(operator_matrix(ctx))
    scale = net.n * net.pi.astype(np.longdouble)
    x = np.zeros((net.n, ens.d), dtype=np.longdouble)
    for _ in range(20):
        grad = np.einsum("jab,jb->ja", ens.hess_stack, x / scale[:, None]) + ens.lin_stack
        r = net.W @ (x - ctx.alpha * grad) - x
        x_new = x + np.linalg.solve(A, r.astype(float).ravel()).reshape(x.shape)
        if np.array_equal(x_new, x):
            break
        x = x_new
    return x


def perron_oracle(W):
    """Dense eigendecomposition: eigenvector at the eigenvalue closest to 1."""
    vals, vecs = np.linalg.eig(W)
    k = np.argmin(np.abs(vals - 1.0))
    v = np.real(vecs[:, k])
    return v / v.sum()


def svd_norm_oracle(M):
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[0])


def induced_pi_norm_oracle(M, pi):
    s = np.sqrt(pi)
    return svd_norm_oracle(M * (s[None, :] / s[:, None]))


def induced_pi_norm(M, pi):
    """Operator norm in the pi-weighted metric, by the library's kernel.

    For an n x n matrix this is the spectral norm of D^-1 M D with
    D = diag(sqrt(pi)); for an (n, n, d, d) block operator, D is extended
    blockwise (each block (i, j) is scaled by sqrt(pi_j / pi_i)).
    """
    M = np.asarray(M, dtype=float)
    pi = np.asarray(pi, dtype=float)
    s = np.sqrt(pi)
    if M.ndim == 2:
        if M.shape[0] != M.shape[1] or M.shape[0] != pi.shape[0]:
            raise DimensionMismatchError(f"matrix {M.shape} vs {pi.shape[0]} weights")
        T = M * (s[None, :] / s[:, None])
    elif M.ndim == 4:
        n, m, d, e = M.shape
        if n != m or d != e or n != pi.shape[0]:
            raise DimensionMismatchError(
                f"operator {M.shape} vs {pi.shape[0]} weights: expected (n, n, d, d)"
            )
        T = flatten_block_operator(M * (s[None, :, None, None] / s[:, None, None, None]))
    else:
        raise DimensionMismatchError(f"expected a matrix or block operator, got ndim={M.ndim}")
    return spectral_norm(T)


def dense_lipschitz_oracle(ctx):
    """The operator Lipschitz constant by the dense path: the pi-weighted norm
    of the (n, n, d, d) operator, which forms three (nd)^2 arrays."""
    return induced_pi_norm(operator_matrix(ctx), ctx.net.pi)
