"""Weighted norms, spectral norms and symmetric eigenvalues.

Stacked states live in R^{n*d} and are represented as ndarrays of shape
(n, d) whose row j is the block of agent j.

Spectral norms of dense matrices (rho's n x n gap among them) come from
LAPACK's SVD, and the extreme eigenvalues of the d x d cost Hessians from
its symmetric eigensolver.  A stacked Lanczos kernel serves only the
operator Lipschitz sweep in ``operators``: it hands its ``apply(V, live)``
function the current Lanczos vector and the indices of the slices still
live, gets back their matrix-free products, and rounds each slice as if
alone.  Its top Ritz value is a lower bound on the top eigenvalue.
"""

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NumericError

# working-set floats of one chunk of any stacked kernel: a Lanczos or GMRES
# chunk, a block of rounds, one stacked array of a tuner block
_CHUNK_FLOATS = 1 << 17
_EIG_TOL = 1e-10  # relative Ritz residual that retires a slice of the Lanczos kernel
_EIG_MAX_ITER = 500  # its steps before NoConvergenceError
_EIG_CHECK = 4  # Lanczos steps per stop test


def pi_norm(w, pi):
    """Weighted norm (sum_j ||w_j||^2 / pi_j)^(1/2) of a stacked state.

    Accepts an (n, d) stacked state or a plain length-n vector (d = 1), and
    returns a float.  A (..., n, d) stack of states gives an array of their
    norms, each with the bits of its own (n, d) call.  Equals the Euclidean
    norm of the state rescaled blockwise by 1/sqrt(pi_j).
    """
    w = np.asarray(w, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.ndim < 2 or w.shape[-2] != pi.shape[0]:
        raise DimensionMismatchError(
            f"stacked state with {w.shape} blocks vs {pi.shape[0]} weights"
        )
    norms = np.sqrt((_sum_squares(w) / pi).sum(axis=-1))
    return float(norms) if w.ndim == 2 else norms


def _sum_squares(a):
    """``(a * a).sum(axis=-1)``, bit for bit.  Below 8 terms numpy's sum adds
    left to right, and strided column adds do the same faster."""
    sq = a * a
    d = sq.shape[-1]
    if not 1 < d < 8:
        return sq.sum(axis=-1)
    out = sq[..., 0] + sq[..., 1]
    for i in range(2, d):
        out += sq[..., i]
    return out


def spectral_norm(M):
    """Largest singular value of a dense matrix, from one LAPACK SVD call.

    Computes only the singular values (``gesdd``), which works on M itself
    rather than on M^T M: no condition number is squared, no product can
    overflow, and the value does not depend on the BLAS thread count.  An
    empty matrix gives 0.0.  Raises DimensionMismatchError for a NaN or
    infinite entry, and NoConvergenceError if LAPACK fails to converge.
    """
    M = _finite(M)
    if not M.size:
        return 0.0
    try:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"singular value decomposition failed: {exc}") from exc


def _finite(M):
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise DimensionMismatchError("matrix entries must be finite")
    return M


@np.errstate(over="ignore", invalid="ignore")
def _lanczos_top_eig(apply, count, size):
    """Top eigenvalue of ``count`` psd operators of order ``size``, each given
    by ``apply``, from the plain three-term Lanczos recurrence.

    ``apply(V, live)`` returns the products of the slices in ``live`` with
    V, a (size, 1) start vector shared by all slices on the first step and a
    (len(live), size, 1) stack after it; ``live`` is replaced by a new array
    whenever a slice retires.  Each slice keeps its own tridiagonal (alpha,
    beta) and no basis: without reorthogonalization the top Ritz value still
    converges to working accuracy (Paige, Linear Algebra Appl. 1980).  A
    slice retires once beta_k |s_k| <= ``_EIG_TOL`` theta, with theta its top
    Ritz value and s_k the last entry of that Ritz vector; beta_k = 0 passes.
    The test diagonalizes every live tridiagonal, so it runs every
    ``_EIG_CHECK`` steps, at the step cap, and at any step where a beta is 0
    (whose next vector could not be normalized).
    A non-finite coefficient, which only an operator whose products overflow
    float64 gives, raises NumericError at once; a beta whose square alone
    overflows is measured scaled instead.
    """
    q = np.random.default_rng(1).standard_normal((size, 1))
    q /= np.linalg.norm(q)
    out, live = np.zeros(count), np.arange(count)
    alphas, betas = np.empty((count, 0)), np.empty((count, 0))
    for k in range(1, _EIG_MAX_ITER + 1):
        u = apply(q, live)
        alpha = (q.swapaxes(-1, -2) @ u)[:, 0, 0]
        u -= alpha[:, None, None] * q
        if k > 1:
            u -= betas[:, -1, None, None] * q_prev
        # 1-D dot per slice, rounded as np.linalg.norm
        beta = np.sqrt((u.swapaxes(1, 2) @ u)[:, 0, 0])
        big = np.isinf(beta)  # u^T u overflowed: square u scaled by 2^-600 (exact) instead
        if big.any():
            beta[big] = np.sqrt(((u[big] * 2.0**-600) ** 2).sum(axis=(1, 2))) * 2.0**600
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise NumericError("Lanczos recurrence overflowed: non-finite coefficient "
                               "(operator entries too large for float64)")
        alphas = np.concatenate([alphas, alpha[:, None]], axis=1)
        if k % _EIG_CHECK == 0 or k == _EIG_MAX_ITER or not beta.all():
            T = np.zeros((len(live), k, k))
            flat = T.reshape(len(live), k * k)
            flat[:, ::k + 1], flat[:, k::k + 1] = alphas, betas  # eigh reads the lower triangle
            ritz, vecs = np.linalg.eigh(T)
            theta = np.maximum(ritz[:, -1], 0.0)  # psd: only rounding reads below 0
            done = beta * np.abs(vecs[:, -1, -1]) <= _EIG_TOL * theta
            if done.any():
                out[live[done]] = theta[done]
                if done.all():
                    return out
                keep = ~done
                live, u, beta, alphas, betas = (a[keep] for a in (live, u, beta, alphas, betas))
                q = q[keep] if q.ndim == 3 else q
        betas = np.concatenate([betas, beta[:, None]], axis=1)
        u /= beta[:, None, None]
        q_prev, q = q, u
    raise NoConvergenceError(
        f"Lanczos residual above tolerance {_EIG_TOL} after {_EIG_MAX_ITER} steps"
    )


def symmetric_extremes(H):
    """(largest, smallest) eigenvalue of a symmetric (m, m) matrix as two
    floats, or of each slice of a (K, m, m) stack as two length-K arrays.

    Both come from one ``np.linalg.eigvalsh`` call (LAPACK's symmetric
    tridiagonal QR, which reads the lower triangle); each slice of a stack
    has the bits of its own (m, m) call.  The smallest is not clipped at
    zero, so a matrix that is not psd shows as a negative value.  Another
    shape, m == 0 or a non-finite entry raises DimensionMismatchError, and
    a LAPACK failure to converge raises NoConvergenceError.
    """
    H = _finite(H)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2] or not H.shape[-1]:
        raise DimensionMismatchError(f"expected an (m, m) matrix or (K, m, m) stack, got {H.shape}")
    try:
        lam = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    lam_max, lam_min = lam[..., -1], lam[..., 0]
    return (float(lam_max), float(lam_min)) if H.ndim == 2 else (lam_max, lam_min)
