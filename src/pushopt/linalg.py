"""Weighted norms, spectral norms and symmetric eigenvalues.

Stacked states live in R^{n*d} and are represented as ndarrays of shape
(n, d) whose row j is the block of agent j.

Spectral norms of dense matrices (rho's n x n gap among them) come from
LAPACK's SVD, and the extreme eigenvalues of the d x d cost Hessians from
its symmetric eigensolver.  Block power iteration serves only the operator
Lipschitz sweep in ``operators``: the kernel hands its ``apply(V, live)``
function the iterated subspace and the indices of the slices still live,
gets back their matrix-free products, and rounds each slice as if alone.
"""

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NumericError

_STOP_FLOOR = 1e-300  # avoids a zero threshold when the true norm is zero
_EIG_TOL = 1e-10  # relative eigen-residual that stops the block power iteration
_EIG_MAX_ITER = 20000  # its iterations per start before NoConvergenceError
_EIG_RESTARTS = 3  # its deterministic starts
_EIG_BLOCK = 12  # columns of its iterated subspace


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
    norms = np.sqrt(((w * w).sum(axis=-1) / pi).sum(axis=-1))
    return float(norms) if w.ndim == 2 else norms


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


def _restarted_top_eig(apply, count, size):
    """The operator Lipschitz sweep's restart loop: top eigenvalue of ``count``
    psd operators of order ``size``, each given by ``apply`` (see ``_top_eig_psd``)."""
    best, live = np.zeros(count), np.arange(count)
    for r in range(_EIG_RESTARTS):
        if not len(live):
            break
        lam = _top_eig_psd(apply, live, size, start_index=r)
        best[live] = np.maximum(best[live], lam)
        if r:
            going = ~(np.abs(lam - prev) <= _EIG_TOL * np.maximum(best[live], _STOP_FLOOR))
            if not going.all():
                live, lam = live[going], lam[going]
        prev = lam
    return best


def _start_block(size, index, block):
    if index == 0:
        V = np.hstack([np.ones((size, 1)),
                       np.random.default_rng(1).standard_normal((size, block - 1))])
    else:
        V = np.random.default_rng(1000 * index).standard_normal((size, block))
    return np.linalg.qr(V)[0]


def _require_finite(values, name):
    if not np.isfinite(values).all():
        raise NumericError(f"block power iteration overflowed: non-finite {name} "
                           "(operator entries too large for float64)")
    return values


@np.errstate(over="ignore", invalid="ignore")
def _top_eig_psd(apply, live, size, start_index=0):
    """Top eigenvalue of each slice in ``live`` from one start, in that order.

    ``apply(V, live)`` returns the slices' products with V, a (size, b)
    block shared by all slices on the first step and a (len(live), size, b)
    stack after it; ``live`` is replaced by a new array whenever a slice
    leaves, which it does once its relative residual passes.  A non-finite
    Ritz block or residual, which only an operator whose products overflow
    float64 gives, raises NumericError at once; a residual whose square
    alone overflows is measured scaled instead.
    """
    # keep the subspace strictly smaller than the space so this stays a
    # genuine iteration rather than a one-shot dense diagonalization
    b = max(1, min(_EIG_BLOCK, size - 1)) if size > 1 else 1
    V = _start_block(size, start_index, b)
    out, pos = np.zeros(len(live)), np.arange(len(live))
    for _ in range(_EIG_MAX_ITER):
        U = apply(V, live)
        G = V.swapaxes(-1, -2) @ U
        _require_finite(G, "Ritz block")
        ritz, vecs = np.linalg.eigh(0.5 * (G + G.swapaxes(1, 2)))
        top = vecs[:, :, -1:]
        r = U @ top - ritz[:, -1:, None] * (V @ top)
        # 1-D dot per slice, rounded as np.linalg.norm; U == 0 passes with Ritz value 0
        res = np.sqrt((r.swapaxes(1, 2) @ r)[:, 0, 0])
        big = np.isinf(res)  # r^T r overflowed: square r scaled by 2^-600 (exact) instead
        if big.any():
            res[big] = np.sqrt(((r[big] * 2.0**-600) ** 2).sum(axis=(1, 2))) * 2.0**600
        done = (_require_finite(res, "eigen-residual")
                <= _EIG_TOL * np.maximum(ritz[:, -1], _STOP_FLOOR))
        if done.any():
            out[pos[done]] = np.maximum(ritz[done, -1], 0.0)
            if done.all():
                return out
            pos, live, U = pos[~done], live[~done], U[~done]
        del V  # neither the old subspace nor U outlives its use
        V, _ = np.linalg.qr(U)
        del U
    raise NoConvergenceError(
        f"eigen-residual above tolerance {_EIG_TOL} after {_EIG_MAX_ITER} power iterations"
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
