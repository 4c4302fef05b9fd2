"""Weighted norms, block operators, and power-iteration spectral norms.

Stacked states live in R^{n*d} and are represented as ndarrays of shape
(n, d) whose row j is the block of agent j.  Block operators are ndarrays
of shape (n, n, d, d); block (i, j) acts on block j of a stacked state.

All spectral norms and extreme eigenvalues come from one kernel, block power
iteration on a psd operator that is only ever applied, never read: the
kernel hands an ``apply(V, live)`` function its iterated subspace and the
indices of the slices still live, and gets back their products.  A dense
caller passes ``B[live] @ V``: ``spectral_norm`` (and through it the
pi-weighted norm of a matrix, D^-1 M D with D = diag(sqrt(pi))) on the Gram
product M^T M, and ``symmetric_extremes`` on an (m, m) matrix or a (K, m, m)
stack.  The operator Lipschitz sweep in ``operators`` passes a matrix-free
product instead.  Each slice of a stack is rounded as if alone.
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


def flatten_block_operator(M):
    """Reinterpret an (n, n, d, d) block operator as a dense nd x nd matrix."""
    n, _, d, _ = M.shape
    return np.ascontiguousarray(M.transpose(0, 2, 1, 3)).reshape(n * d, n * d)


def solve_refined(A, b):
    """Solve the square system A x = b with one extended-precision refinement.

    Householder QR of [A | b] yields R and Q^T b at once and back
    substitution gives x; one refinement step then adds the solution for
    the residual b - A x, formed in extended precision (``np.longdouble``;
    a plain refinement step where that is double).  An LU solve is faster
    but OpenBLAS's threaded LU rounds differently with the thread count;
    QR, back substitution and numpy's non-BLAS extended-precision product
    do not, so x does not depend on the machine's CPU count.
    """
    def qr_solve(rhs):
        R = np.linalg.qr(np.column_stack([A, rhs]), mode="r")
        x = R[:, -1].copy()
        for k in range(len(x) - 1, -1, -1):
            x[k] = (x[k] - R[k, k + 1:-1] @ x[k + 1:]) / R[k, k]
        return x

    x = qr_solve(b)
    wide = np.longdouble
    residual = b.astype(wide) - A.astype(wide) @ x.astype(wide)
    return x + qr_solve(residual.astype(float))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing Gram product fails in the kernel
def spectral_norm(M):
    """Largest singular value by block power iteration on M^T M.

    Iterates a small deterministic subspace (``_EIG_BLOCK`` columns) under
    M^T M with QR re-orthonormalization, so tight clusters of top singular
    values, which stall single-vector iteration, converge at the rate of
    the cluster-to-remainder gap instead.  Runs up to ``_EIG_RESTARTS``
    deterministic starts (ones plus Gaussian columns from generators
    seeded with the restart index) and returns the square root of the
    largest Ritz value found; two consecutive starts agreeing within
    ``_EIG_TOL`` end the search early.  Raises DimensionMismatchError for a
    NaN or infinite entry, and NoConvergenceError if any start exhausts
    ``_EIG_MAX_ITER`` iterations with the top Ritz residual above
    ``_EIG_TOL`` relative to the estimate.
    """
    M = _finite(M)
    return float(np.sqrt(_stack_top_eig((M.T @ M)[None])[0])) if M.size else 0.0


def _finite(M):
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise DimensionMismatchError("matrix entries must be finite")
    return M


def _live_rows(stack):
    """``rows(live)`` gives ``stack[live]``, indexing again only for a new
    ``live`` array (the kernel passes the same one while its live set holds)
    and never while every slice is live."""
    held = [None, stack]

    def rows(live):
        if live is not held[0]:
            held[:] = live, stack if len(live) == len(stack) else stack[live]
        return held[1]
    return rows


def _stack_top_eig(B, scale=None):
    """``_restarted_top_eig`` of each slice of a dense (K, m, m) stack."""
    rows = _live_rows(B)
    return _restarted_top_eig(lambda V, live: rows(live) @ V, len(B), B.shape[-1], scale)


def _restarted_top_eig(apply, count, size, scale=None):
    """``spectral_norm``'s restart loop for ``count`` psd operators of order
    ``size``, each given by ``apply`` (see ``_top_eig_psd``), with an
    optional per-slice absolute ``scale``."""
    best, live = np.zeros(count), np.arange(count)
    for r in range(_EIG_RESTARTS):
        if not len(live):
            break
        lam = _top_eig_psd(apply, live, size, start_index=r, scale=scale)
        best[live] = np.maximum(best[live], lam)
        if r:
            stop = _EIG_TOL * (scale if scale is not None else np.maximum(best[live], _STOP_FLOOR))
            going = ~(np.abs(lam - prev) <= stop)
            if not going.all():
                live, lam = live[going], lam[going]
                scale = None if scale is None else scale[going]
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
def _top_eig_psd(apply, live, size, start_index=0, scale=None):
    """Top eigenvalue of each slice in ``live`` from one start, in that order.

    ``apply(V, live)`` returns the slices' products with V, a (size, b)
    block shared by all slices on the first step and a (len(live), size, b)
    stack after it; ``live`` is replaced by a new array whenever a slice
    leaves, which it does once its residual passes, relative or at its
    ``scale``.  A non-finite Ritz block or residual, which only an operator
    whose products overflow float64 gives, raises NumericError at once; a
    residual whose square alone overflows is measured scaled instead.
    """
    # keep the subspace strictly smaller than the space so this stays a
    # genuine iteration rather than a one-shot dense diagonalization
    b = max(1, min(_EIG_BLOCK, size - 1)) if size > 1 else 1
    V = _start_block(size, start_index, b)
    floor = np.maximum(np.zeros(len(live)) if scale is None else scale, _STOP_FLOOR)
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
        done = _require_finite(res, "eigen-residual") <= _EIG_TOL * np.maximum(ritz[:, -1], floor)
        if done.any():
            out[pos[done]] = np.maximum(ritz[done, -1], 0.0)
            if done.all():
                return out
            pos, live, U, floor = pos[~done], live[~done], U[~done], floor[~done]
        V, _ = np.linalg.qr(U)
    raise NoConvergenceError(
        f"eigen-residual above tolerance {_EIG_TOL} after {_EIG_MAX_ITER} power iterations"
    )


def symmetric_extremes(H):
    """(largest, smallest) eigenvalue of a symmetric psd (m, m) matrix as two
    floats, or of each slice of a (K, m, m) stack as two length-K arrays.

    Both come from ``spectral_norm``'s iteration: the largest on H, the
    smallest on the psd shift ``lam_max I - H`` to ``_EIG_TOL`` relative to
    lam_max (skipped, giving 0, where lam_max == 0).  The smallest is not
    clipped at zero, so a matrix that is not psd shows as a negative value.
    Another shape, m == 0 or a non-finite entry raises DimensionMismatchError.
    """
    H = _finite(H)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2] or not H.shape[-1]:
        raise DimensionMismatchError(f"expected an (m, m) matrix or (K, m, m) stack, got {H.shape}")
    stack = H.reshape((-1,) + H.shape[-2:])
    lam_max = _stack_top_eig(stack)
    lam_min = np.zeros_like(lam_max)
    pos = lam_max != 0.0
    top = lam_max[pos]
    lam_min[pos] = top - _stack_top_eig(top[:, None, None] * np.eye(H.shape[-1]) - stack[pos],
                                        scale=top)
    return (float(lam_max[0]), float(lam_min[0])) if H.ndim == 2 else (lam_max, lam_min)


def induced_pi_norm(M, pi):
    """Operator norm in the pi-weighted metric.

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
