"""Fixed-point operator of gradient-push, its contraction data, and bounds.

Gradient-push in its mixed-state form updates a stacked state w by

    w(t+1) = W_mix( w(t) - alpha * grad F( w(t) / y(t) ) ),

where y(t) are the push-sum weights.  Replacing y_j(t) by its limit
n pi_j gives a time-invariant operator (``gradient_push_operator``); the
difference is a perturbation (``push_sum_perturbation``) that vanishes
geometrically with the mixing rate rho.  For admissible stepsizes the
operator is a contraction in the pi-weighted norm, with a unique fixed
point that sits within O(alpha) of the replicated minimizer.  This module
computes:

* the certified stepsize ceiling and contraction rate for both benchmark
  cost cases,
* the measured operator Lipschitz constant, from products with the
  operator and its transpose, never its nd x nd matrix, for a whole stack
  of stepsizes at once,
* the fixed point by restarted GMRES on products with the operator, refined
  with long-double residuals to a certified bound on its distance, for a
  whole stack of stepsizes at once,
* the empirical push-sum constants (coefficient of the 1/y gap and the
  largest inverse weight),
* the convergence envelope for runs, the fixed-point radius, the
  optimality-gap and consensus-error bounds, and the stricter stepsize
  threshold from earlier analyses kept for comparison.

Every cost has a constant Hessian (see ``costs``), so the operator is affine
and its kernels read only ``hess_stack`` and ``lin_stack``.  The input
checks live in ``OperatorContext``, which the sweeps call.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .costs import grad0_pi_norm, grad_stack
from .errors import (
    DegenerateMixingError,
    DimensionMismatchError,
    InvalidRateError,
    NoConvergenceError,
    NonpositiveYError,
    NotContractiveError,
    NumericError,
    ValidationError,
)
from .linalg import _CHUNK_FLOATS, _EIG_TOL, _lanczos_top_eig, pi_norm
from .network import _push_sum_weights

_KRYLOV_RESTART = 60  # Arnoldi vectors per restart cycle of the fixed-point solve
_MAX_CYCLES = 100  # restart cycles of the fixed-point solve before NoConvergenceError
_PRODUCT_TRUNCATION = 1e-16  # factor excess over one that ends the perturbation product
_BRANCH_TOL = 1e-12  # |1 - C alpha - rho| that selects the degenerate envelope branch
CONTRACTION_SLACK = 1e-9  # allowed excess of a measured Lipschitz value over 1 - C alpha
_NOISE_FLOOR = 1e-14  # smallest push-sum gap ever counted as signal
_TAIL_ROUNDS = 10  # push-sum rounds past the derived horizon, whose peaks are the noise plateau
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # the largest log whose exp is a float64


@dataclass(frozen=True)
class OperatorContext:
    """A mixing network, a cost ensemble, and a stepsize, checked for fit.

    ``alpha`` may also be a 1-D array of stepsizes: the context of a
    (k, n, d) stack whose slice i is taken at ``alpha[i]``.  Raises
    DimensionMismatchError if the network and the ensemble differ in n or
    ``alpha`` is 2-D or more, and InvalidRateError naming the first
    stepsize that is not positive and finite.
    """

    net: object
    ensemble: object
    alpha: float

    def __post_init__(self):
        if self.net.n != self.ensemble.n:
            raise DimensionMismatchError(
                f"network has {self.net.n} agents, ensemble {self.ensemble.n}"
            )
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim > 1:
            raise DimensionMismatchError(f"expected a 1-D sequence of stepsizes, got {alpha.shape}")
        bad = ~(np.isfinite(alpha) & (alpha > 0.0))
        if bad.any():
            raise InvalidRateError(f"stepsize must be positive and finite, got {alpha[bad][0]}")

    @cached_property
    def _limit_weights(self):
        """The limit weight n pi_j of each entry of an (n, d) state, formed once
        per context (a full array divides faster than a broadcast column)."""
        return np.repeat((self.net.n * self.net.pi)[:, None], self.ensemble.d, axis=1)


@dataclass(frozen=True)
class FixedPoint:
    """A solved fixed point with its accuracy diagnostics."""

    alpha: float
    w: np.ndarray
    w_bar: np.ndarray
    residual: float
    bound: float
    consensus_error: float
    iterations: int


@dataclass(frozen=True)
class ContractionCertificate:
    """Every constant needed to predict a gradient-push run, checked on construction.

    ``contraction_rate`` is the slope C of the certified Lipschitz bound
    1 - C * alpha; construction raises NumericError if the measured
    ``lipschitz_alpha`` exceeds that bound by more than ``CONTRACTION_SLACK``.
    ``lipschitz_at_ceiling``, the one stored ceiling constant, is the measured
    Lipschitz constant at the stepsize ceiling (the case2 rate is built from
    it; ``eta_ceiling`` returns it on case2 and None on case1).
    ``gamma_lmax`` and ``gamma_lbar`` are the harmonic rates mu*L/(mu+L) built
    from the largest resp. mean smoothness constant; they enter different
    bounds and are deliberately kept apart.  ``legacy_threshold`` is None
    when rho == 0 (no restriction), which a computed rho is only at n = 1; on
    the complete digraph rho is rounding noise (~3e-16), the threshold 1e11-1e13.
    """

    case_tag: str
    eps: float
    alpha0: float
    contraction_rate: float
    alpha: float
    lipschitz_alpha: float
    lipschitz_at_ceiling: float
    consensus_coeff: float
    perturbation_coeff: float
    inv_y_max: float
    perturbation_product: float
    radius: float
    grad0_norm: float
    gap_bound: float
    consensus_bound: float
    legacy_threshold: float
    gamma_lmax: float
    gamma_lbar: float
    rho: float
    pi_min: float
    L_max: float
    L_bar: float
    mu_agg: float

    def __post_init__(self):
        if not self.alpha0 > 0.0:
            raise NumericError(f"stepsize ceiling {self.alpha0} must be positive")
        prod = self.contraction_rate * self.alpha0
        if not (0.0 < prod <= 1.0):
            raise NumericError(f"rate * ceiling = {prod} outside (0, 1]")
        if self.perturbation_product < 1.0:
            raise NumericError("perturbation product below one")
        for name in ("radius", "gap_bound", "consensus_bound", "grad0_norm"):
            if getattr(self, name) < 0.0:
                raise NumericError(f"{name} must be nonnegative")
        excess = self.lipschitz_alpha - (1.0 - self.contraction_rate * self.alpha)
        if not excess <= CONTRACTION_SLACK:
            raise NumericError(f"measured Lipschitz exceeds 1 - C alpha by {excess:.3e}")

    @property
    def eta_ceiling(self):
        return self.lipschitz_at_ceiling if self.case_tag == "case2" else None


def mix_stack(net, w):
    """One synchronous exchange: block i of the result is sum_j W[i,j] w_j."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != net.n:
        raise DimensionMismatchError(f"stacked state {w.shape} vs {net.n} agents")
    return net.W @ w


def gradient_push_operator(ctx, w):
    """The limit operator: mix the state after a gradient step at w_j/(n pi_j),
    in float64 (``_residual`` evaluates it in long double).  For a context of
    k stepsizes, ``w`` is a (k, n, d) stack, and each slice has the bits of
    its own one-stepsize call."""
    w = np.asarray(w, dtype=float)
    alpha, shape = np.asarray(ctx.alpha), ctx._limit_weights.shape
    if w.shape != alpha.shape + shape:
        raise DimensionMismatchError(f"state {w.shape} vs {alpha.shape + shape}")
    g = grad_stack(ctx.ensemble, w / ctx._limit_weights)
    return ctx.net.W @ (w - alpha[..., None, None] * g)


def push_sum_perturbation(ctx, y, w):
    """Mixed gap between gradients at the limit weights and at the current ones.

    Scaled by alpha, this is exactly the difference between the true
    mixed-state update with weights y and the limit operator.
    """
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    net, ens = ctx.net, ctx.ensemble
    if y.shape != (net.n,):
        raise DimensionMismatchError(f"weights {y.shape} vs {net.n} agents")
    if np.any(y <= 0.0):
        raise NonpositiveYError("push-sum weights must stay positive")
    g_limit = grad_stack(ens, w / (net.n * net.pi)[:, None])
    g_now = grad_stack(ens, w / y[:, None])
    return net.W @ (g_limit - g_now)


def stepsize_ceiling(net, ensemble, eps=None):
    """Largest certified stepsize for the ensemble's case.

    case1: min_k 2 n pi_k / (L_k + mu_k); case2: min_k 2 n pi_k / (L_k + eps)
    for a fixed eps > 0 (needed because individual case2 costs may have
    mu_k = 0).
    """
    n, pi = net.n, net.pi
    L = np.array([c.L for c in ensemble.costs])
    if ensemble.case_tag == "case1":
        mu = np.array([c.mu for c in ensemble.costs])
        return float(np.min(2.0 * n * pi / (L + mu)))
    if eps is None or eps <= 0.0:
        raise ValidationError("case2 requires eps > 0")
    return float(np.min(2.0 * n * pi / (L + eps)))


def operator_lipschitz(ctx):
    """Measured Lipschitz constant of the limit operator in the weighted norm:
    ``lipschitz_sweep`` at the one stepsize ``ctx.alpha``."""
    return float(lipschitz_sweep(ctx.net, ctx.ensemble, [ctx.alpha])[0])


def lipschitz_sweep(net, ensemble, alphas):
    """Measured Lipschitz constant of the limit operator at each stepsize.

    In the pi-weighted norm the operator's linear part is
    T = D^-1 (W kron I_d) blockdiag(S_j) D with S_j = I_d - alpha/(n pi_j) H_j
    and D = diag(s) kron I_d, s = sqrt(pi); its Lipschitz constant is the
    spectral norm of T.  The Lanczos kernel of ``linalg`` runs on T^T T,
    applied blockwise as T x = (W @ (S_j (s_j x_j))) / s_k and
    T^T y = s_j S_j^T (W^T @ (y_k / s_k)), so no nd x nd matrix is formed and
    a product costs O(n^2 d + n d^2).  Its top Ritz value is a lower bound on
    ||T||^2, so each value is an estimate from below, accepted at a relative
    Ritz residual of 1e-10.  The stepsizes run as one stack, split by
    ``_chunks``; a slice's working set is its n blocks S_j and four Lanczos
    vectors, n d^2 + 4 n d floats.  Each value has the bits of its own
    one-stepsize call.  Returns a float array, empty for an empty ``alphas``.

    Raises
    ------
    DimensionMismatchError
        If ``alphas`` is not 1-D.
    DimensionMismatchError, InvalidRateError
        From ``OperatorContext``'s checks.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D sequence of stepsizes, got {alphas.shape}")
    OperatorContext(net, ensemble, alphas)
    n, d, s = net.n, ensemble.d, np.sqrt(net.pi)
    out = np.empty(len(alphas))
    for part in _chunks(len(alphas), n * d * d + 4 * n * d):
        scale = alphas[part, None] / (n * net.pi)
        S = np.eye(d) - scale[:, :, None, None] * ensemble.hess_stack
        out[part] = _lanczos_top_eig(_gram_apply(net.W, s, S), len(S), n * d)
    return np.sqrt(out)


def _chunks(count, slice_floats):
    """Slices that split a ``count``-slice stack into chunks of at most
    ``_CHUNK_FLOATS`` working-set floats, ``slice_floats`` a slice, and of
    at least one slice; the last chunk takes the rest."""
    step = max(1, _CHUNK_FLOATS // slice_floats)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _gram_apply(W, s, S):
    """``apply`` of T^T T for the live slices of S, a (K, n, d, d) stack of the
    blocks S_j, in the order of T = D^-1 (W kron I_d) blockdiag(S_j) D.  It
    indexes ``S[live]`` again only for a new ``live`` array (the kernel passes
    the same one while its live set holds) and never while every slice is live."""
    n, d = S.shape[1:3]
    s_block, s_row = s[:, None, None], s[:, None]
    held = [None, S]

    def apply(V, live):
        if live is not held[0]:
            held[:] = live, S if len(live) == len(S) else S[live]
        B = held[1]
        Y = W @ (B @ (s_block * V.reshape(V.shape[:-2] + (n, d, -1)))).reshape(len(B), n, -1)
        Y /= s_row  # in place, and the result reuses Y: three (K, nd, b) stacks live at most
        Y /= s_row
        out = Y.reshape(len(B), n, d, -1)
        np.matmul(B.swapaxes(-1, -2), (W.T @ Y).reshape(out.shape), out=out)
        out *= s_block
        return out.reshape(len(B), n * d, -1)
    return apply


def contraction_constant(net, ensemble, eps=None):
    """(stepsize ceiling, contraction rate C) with Lip <= 1 - C * alpha, C from
    ``_contraction_rate``; case2 measures the Lipschitz constant at the ceiling for it."""
    alpha0 = stepsize_ceiling(net, ensemble, eps)
    eta = None if ensemble.case_tag == "case1" else operator_lipschitz(
        OperatorContext(net, ensemble, alpha0))
    return alpha0, _contraction_rate(net, ensemble, alpha0, eta)


def _contraction_rate(net, ensemble, alpha0, eta):
    """C of Lip <= 1 - C alpha on (0, alpha0]: case1's closed form
    min_k mu_k L_k / (n (mu_k + L_k) pi_k); case2's (1 - eta) / alpha0 from eta,
    the Lipschitz constant at alpha0, which must certify a contraction."""
    if ensemble.case_tag == "case1":
        L = np.array([c.L for c in ensemble.costs])
        mu = np.array([c.mu for c in ensemble.costs])
        return float(np.min(mu * L / (net.n * (mu + L) * net.pi)))
    if not _contracts(eta):
        raise NotContractiveError(f"operator at the ceiling measured Lipschitz {eta}, not below 1 "
                                  "by more than its tolerance; aggregate cost is likely not "
                                  "strongly convex")
    return (1.0 - eta) / alpha0


def _contracts(lip):
    """Whether ``lip`` certifies a contraction: its square, a Ritz value accepted
    at relative residual ``_EIG_TOL``, lies below 1 by more than that."""
    return lip * lip < 1.0 - _EIG_TOL


def solve_fixed_point(ctx, tol=1e-12):
    """``solve_fixed_points`` at the one stepsize ``ctx.alpha``."""
    return solve_fixed_points(ctx.net, ctx.ensemble, [ctx.alpha], tol)[0]


def solve_fixed_points(net, ensemble, alphas, tol=1e-12):
    """Fixed point at each stepsize by restarted GMRES whose restarts are
    refinement steps, on stacks of stepsizes.

    T is affine for constant Hessians, so the fixed point w* solves
    (I - A) w = T(0) with A w = T(w) - T(0).  The iterate x is kept in
    ``np.longdouble``; each restart evaluates r = T(x) - x in long double
    (``_residual``) and adds the correction of one ``_gmres_cycle`` in double
    on (I - A) e = r (GMRES-based iterative refinement: Carson & Higham,
    SIAM J. Sci. Comput. 2018).  With w = x in double, a stepsize is done
    once ``FixedPoint.bound`` = ||w - x|| + (||r|| + rounding) / (1 - L) is
    at most ``tol``; with ``rounding`` bounding r's rounding error, it bounds
    ||w - w*||.  L is the stepsize's value from one ``lipschitz_sweep`` over
    ``alphas``: its square is a Lanczos Ritz value whose 1e-10 relative
    residual can move 1/(1 - L) by about 2e-6 relative on sparse draws, so
    an L whose square lies within 1e-10 of 1 certifies no contraction.
    ``FixedPoint.iterations`` counts the cycles.  The stepsizes run as
    (k, n, d) stacks split by ``_chunks``; a slice's working set is its
    (``_KRYLOV_RESTART`` + 1) n d Arnoldi basis floats.  Each slice leaves
    its stack at its own bound and has the bits of its one-stepsize call.

    Raises ValidationError for a ``tol`` that is not positive, the input
    errors of ``lipschitz_sweep``, NotContractiveError if an L certifies no
    contraction, and NoConvergenceError if a cycle does not lower ||r|| or
    after ``_MAX_CYCLES`` cycles: of several failing stepsizes, the first in
    the order of ``alphas``.
    """
    if not tol > 0.0:
        raise ValidationError(f"fixed-point tolerance fp_tol must be positive, got {tol}")
    alphas = np.asarray(alphas, dtype=float)
    lips = lipschitz_sweep(net, ensemble, alphas)
    end = int(np.argmin(np.append(_contracts(lips), False)))  # the first not contracting
    out = []
    for part in _chunks(end, (_KRYLOV_RESTART + 1) * net.n * ensemble.d):
        out += _solve_chunk(OperatorContext(net, ensemble, alphas[part]), lips[part], tol)
    if end < len(lips):
        raise NotContractiveError(f"no contraction at alpha={alphas[end]}: Lipschitz {lips[end]}")
    return out


def _solve_chunk(ctx, lips, tol):
    """``solve_fixed_points`` on one stack context; after a failing slice the
    later ones leave the stack too."""
    net, ens, k = ctx.net, ctx.ensemble, len(lips)
    offset = gradient_push_operator(ctx, np.zeros((k, net.n, ens.d)))  # T(0) of each slice
    x, live, sub, failed = np.zeros(offset.shape, np.longdouble), np.arange(k), ctx, None
    w, bound, cycles = np.empty(offset.shape), np.empty(k), np.empty(k, dtype=int)
    last = best = np.full(k, math.inf)
    for cycle in range(_MAX_CYCLES + 1):
        r, rounding = _residual(sub, x)
        res, wl, lip = _scaled_norms(r, net.pi), x.astype(float), lips[live]
        b = _scaled_norms(wl - x, net.pi) + (res + rounding) / (1.0 - lip)
        done, best = b <= tol, np.minimum(best, b)
        w[live[done]], bound[live[done]], cycles[live[done]] = wl[done], b[done], cycle
        stalled = ~done & ~((0.0 < res) & (res < last))
        failing = stalled | ~done & (cycle == _MAX_CYCLES)
        if failing.any():
            i = int(np.argmax(failing))  # the first failing live slice
            stop = ("a restart cycle did not lower the residual" if stalled[i]
                    else f"the cycle cap {_MAX_CYCLES} is reached")
            failed = NoConvergenceError(f"fixed point not certified within tolerance {tol} at "
                                        f"alpha={sub.alpha[i]}: {stop}; best bound {best[i]:.3e}")
            done[i:] = True
        if done.all():
            break
        live, x, r, last, best, lip = (a[~done] for a in (live, x, r, res, best, lip))
        sub = OperatorContext(net, ens, ctx.alpha[live])
        x = x + _gmres_cycle(sub, offset[live], r, last, (1.0 - lip) * tol / 4.0)
    if failed is not None:
        raise failed
    residual = pi_norm(gradient_push_operator(ctx, w) - w, net.pi)
    w_bar = w.mean(axis=1)
    consensus = pi_norm(w - (net.n * net.pi)[:, None] * w_bar[:, None, :], net.pi)
    return [FixedPoint(*f) for f in zip(ctx.alpha.tolist(), w, w_bar, residual.tolist(),
                                         bound.tolist(), consensus.tolist(), cycles.tolist())]


def _scaled_norms(v, pi):
    """The pi-weighted norm of each slice of a (k, n, d) stack, summed in its
    floating type and rounded to double before the root."""
    return np.sqrt((v * v * (1.0 / pi)[:, None]).reshape(len(v), -1).sum(axis=1).astype(float))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _gmres_cycle(ctx, offset, r, res, target):
    """One GMRES cycle on (I - A) e = r for each slice of a (k, n, d) stack,
    with ``res`` the norms of r; returns each correction e in double.  It
    works in the pi-weighted inner product, in which T contracts, as the
    plain dot product of scaled vectors v_j / sqrt(pi_j), with classical
    Gram-Schmidt run twice.  Earlier Givens rotations (Saad & Schultz, SIAM
    J. Sci. Stat. Comput. 1986) reach a new Hessenberg column as one
    accumulated rotation matrix.  A slice stops after ``_KRYLOV_RESTART``
    vectors, on a breakdown or at a residual estimate of ``target``; it steps
    on until the last slice stops, but its correction reads only its own
    steps, zero-padded to fixed shapes.
    """
    k, n, d = r.shape
    m, size = _KRYLOV_RESTART, n * d
    root = np.repeat(np.sqrt(ctx.net.pi)[:, None], d, axis=1)  # |v / root| = ||v||_pi
    Q, R, G = np.empty((m + 1, k, size)), np.zeros((k, m, m)), np.zeros((k, m + 1, m + 1))
    Q[0], G[:, 0, 0] = (r / (res[:, None, None] * root)).reshape(k, size), 1.0
    steps, stopped = np.full(k, m), np.zeros(k, dtype=bool)
    for j in range(m):
        u = gradient_push_operator(ctx, Q[j].reshape(k, n, d) * root)
        u -= offset
        u /= root
        u = np.subtract(Q[j], u.reshape(k, size), out=u.reshape(k, size))
        basis = Q[:j + 1].swapaxes(0, 1)  # slice i's vectors, as rows
        c = basis @ u[:, :, None]
        u -= (c.swapaxes(1, 2) @ basis)[:, 0]
        c2 = basis @ u[:, :, None]
        u -= (c2.swapaxes(1, 2) @ basis)[:, 0]
        h = (G[:, :j + 1, :j + 1] @ (c + c2))[:, :, 0]  # the rotated Hessenberg column
        sub = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])
        R[:, :j, j], R[:, j, j] = h[:, :j], np.hypot(h[:, j], sub)
        cos, sin = h[:, j] / R[:, j, j], sub / R[:, j, j]
        G[:, j + 1, :j + 1] = -sin[:, None] * G[:, j, :j + 1]
        G[:, j, :j + 1] *= cos[:, None]
        G[:, j, j + 1], G[:, j + 1, j + 1] = sin, cos
        # G's first column times res is the rotated right-hand side: a zero
        # sub makes its entry 0, a zero diagonal (a breakdown, the step not
        # counted) makes it NaN
        now = ~(res * np.abs(G[:, j + 1, 0]) > target)
        if now.any():
            now &= ~stopped
            steps[now] = j + 1 - (R[now, j, j] == 0.0)
            stopped |= now
            if stopped.all():
                break
        np.divide(u, sub[:, None], out=Q[j + 1])
    pad = np.arange(m) >= steps[:, None]  # the entries past each slice's own steps
    Q[:m][pad.T], R[pad[:, :, None] | pad[:, None, :]] = 0.0, 0.0
    R[:, np.arange(m), np.arange(m)] += pad  # an identity block past them
    y = np.linalg.solve(R, np.where(pad, 0.0, res[:, None] * G[:, :m, 0])[:, :, None])
    return (y.swapaxes(1, 2) @ Q[:m].swapaxes(0, 1))[:, 0].reshape(k, n, d) * root


def _residual(ctx, x):
    """r = T(x) - x in long double at a long-double (k, n, d) stack x (its
    gradient rows by einsum, which takes long double where BLAS does not), and
    a bound on the pi-weighted norm of each slice's rounding error (Higham
    ch. 3), evaluated in double.  With u the unit roundoff,
    gamma_k = k u / (1 - k u) and P = |H_j| |x_j| / (n pi_j) + |b_j|,
    z = x - alpha grad errs by at most E = gamma_1 |x| + gamma_{d+5} alpha P
    (gamma_{d+3} P from a gradient row); row i of W z adds (W E)_i and
    gamma_{nnz_i} (W (|x| + alpha P + E))_i over its nnz_i nonzeros, and the
    subtraction gamma_1 |r|.
    """
    net, ens, alpha = ctx.net, ctx.ensemble, ctx.alpha[:, None, None]
    scale = (net.n * net.pi.astype(np.longdouble))[:, None]
    H = ens.hess_stack.astype(np.longdouble)  # a mixed-type einsum runs about 2x slower
    r = net.W @ (x - alpha * (np.einsum("jab,kjb->kja", H, x / scale) + ens.lin_stack)) - x
    u = float(np.finfo(np.longdouble).eps) / 2  # double's where long double is double: weaker

    def gamma(k):
        return k * u / (1 - k * u)

    ax = np.abs(x).astype(float)
    grad = np.einsum("jab,kjb->kja", np.abs(ens.hess_stack), ax / (net.n * net.pi)[:, None])
    grad += np.abs(ens.lin_stack)
    err_z = gamma(1) * ax + gamma(ens.d + 5) * alpha * grad
    row_gamma = gamma(np.count_nonzero(net.W, axis=1))[:, None]
    err = (gamma(1) * np.abs(r).astype(float) + row_gamma * (net.W @ (ax + alpha * grad + err_z))
           + net.W @ err_z)
    return r, pi_norm(err, net.pi)


def estimate_consensus_constants(net):
    """Empirical push-sum constants from the run y(t+1) = W y(t), y(0) = 1.

    * ``coeff``: the largest ratio |1/y_j(t) - 1/(n pi_j)| / rho^t over the
      rounds whose peak gap is signal rather than rounding noise (noise
      divided by rho^t would blow the estimate up),
    * ``inv_y_max``: the largest inverse weight seen.

    With g = ||1 - n pi||_pi, y(t) - n pi = (W - pi 1^T)^t (1 - n pi), so
    |y_j(t) - n pi_j| <= sqrt(pi_j) rho^t g and, once that is below
    n pi_j / 2, |1/y_j(t) - 1/(n pi_j)| <= 2 sqrt(pi_j) rho^t g / (n pi_j)^2.
    The run stops ``_TAIL_ROUNDS`` rounds after twice that bound, maximised
    over j, falls below one ulp of the smallest target 1/(n pi_j), or at once
    when rho or g is zero.  The peak gaps of those last rounds are the
    rounding plateau: a round counts as signal when its peak is at least
    twice the plateau and at least ``_NOISE_FLOOR``, so every counted
    deviation is at least half signal.
    """
    n, pi, rho = net.n, net.pi, net.rho
    inv_target = 1.0 / (n * pi)
    gap = pi_norm(np.ones(n) - n * pi, pi)
    horizon = 0
    if rho > 0.0 and gap > 0.0:
        scale = 4.0 * gap * float(np.max(np.sqrt(pi) / (n * pi) ** 2))
        ulp = np.finfo(float).eps * float(np.min(inv_target))
        horizon = max(0, math.ceil(math.log(ulp / scale) / math.log(rho)))
    inv_y_max = 0.0
    rho_pow = 1.0
    peaks, rho_pows = [], []
    # y stays positive: W is nonnegative with a positive diagonal
    for y in islice(_push_sum_weights(net.W, np.ones(n)), horizon + _TAIL_ROUNDS + 1):
        inv_y = 1.0 / y
        inv_y_max = max(inv_y_max, float(np.max(inv_y)))
        peaks.append(float(np.abs(inv_y - inv_target).max()))
        rho_pows.append(rho_pow)
        rho_pow *= rho
    floor = max(_NOISE_FLOOR, 2.0 * max(peaks[-_TAIL_ROUNDS:]))
    coeff = max((peak / r for peak, r in zip(peaks, rho_pows) if peak >= floor and r > 0.0),
                default=0.0)
    return coeff, inv_y_max


def perturbation_product(alpha, coeff, rate, rho):
    """Product prod_j (1 + alpha * coeff * rho^j / (1 - rate * alpha)).

    Truncated once a factor's excess over one drops below
    ``_PRODUCT_TRUNCATION``.  Accumulated in log space; raises NumericError
    once the product exceeds the largest float64.
    """
    if not (0.0 <= rho < 1.0):
        raise InvalidRateError(f"mixing rate {rho} outside [0, 1)")
    if not coeff >= 0.0:  # NaN fails each domain check
        raise InvalidRateError("perturbation coefficient must be nonnegative")
    if not (alpha > 0.0 and rate * alpha < 1.0):
        raise InvalidRateError(f"need 0 < alpha and rate * alpha < 1, got {rate * alpha}")
    term = alpha * coeff / (1.0 - rate * alpha)
    log_value = 0.0
    while term >= _PRODUCT_TRUNCATION:
        log_value += math.log1p(term)
        if log_value > _LOG_FLOAT_MAX:  # an infinite term would loop forever
            raise NumericError(f"perturbation product exp({log_value}) overflows float64")
        term *= rho
    return math.exp(log_value)


def convergence_envelope(cert, initial_gap, t):
    """Bound on the weighted distance to the fixed point after t + 1 steps.

    Evaluates V (1 - C a)^(t+1) * initial_gap plus the geometric remainder
    driven by the push-sum perturbation; the degenerate remainder branch is
    used when 1 - C * alpha matches rho to within ``_BRANCH_TOL``.
    """
    if t < 0:
        raise ValidationError("iteration index must be >= 0")
    a, C, rho = cert.alpha, cert.contraction_rate, cert.rho
    V, b, R = cert.perturbation_product, cert.perturbation_coeff, cert.radius
    decay = 1.0 - C * a
    head = V * decay ** (t + 1) * initial_gap
    base = a * b * R * rho**t
    if abs(decay - rho) <= _BRANCH_TOL:
        remainder = t * V * base + base
    else:
        remainder = (a * b * R * V * decay) / (decay - rho) * (decay**t - rho**t) + base
    return float(head + remainder)


def optimality_gap_bound(net, ensemble, cert, alpha):
    """Bound on the weighted distance between the fixed point and n pi x x*.

    Linear in alpha:  (a rho / (1 - rho)) (1 + (L / gamma) sqrt(sum 1/pi))
    (L R / (n pi_min) + ||grad F(0)||), with gamma the harmonic rate built
    from the mean smoothness constant.
    """
    return _gap_bounds(net, ensemble, cert.gamma_lbar, cert.radius, cert.grad0_norm, alpha)[0]


def consensus_gap_bound(net, ensemble, cert, alpha):
    """Bound on the weighted consensus error of the fixed point."""
    return _gap_bounds(net, ensemble, cert.gamma_lbar, cert.radius, cert.grad0_norm, alpha)[1]


def _gap_bounds(net, ensemble, gamma, radius, grad0, alpha):
    """(optimality gap, consensus gap) bounds; both scale one inner term by a rho / (1 - rho)."""
    L = ensemble.L_max
    root = math.sqrt(float(np.sum(1.0 / net.pi)))
    inner = L * radius / (net.n * net.pi_min) + grad0
    scale = alpha * net.rho / (1.0 - net.rho)
    return float(scale * (1.0 + L / gamma * root) * inner), float(scale * inner)


def legacy_stepsize_threshold(net, ensemble, inv_y_max):
    """Stepsize threshold from the earlier quadratic-in-smoothness analysis.

    With beta the aggregate strong convexity, L the largest smoothness,
    gamma = beta L / (beta + L) and q = n gamma / (4 L inv_y_max):

        q (1 - rho) / (L rho (inv_y_max q + inv_y_max ||1 - n pi||_pi
                              + sqrt(sum_j 1/pi_j)))

    ``||1 - n pi||_pi`` is the pi-weighted norm of the n-vector 1 - n pi.
    Undefined (no restriction) when rho == 0.
    """
    if net.rho == 0.0:
        raise DegenerateMixingError(
            "threshold is undefined for rho == 0 (one-step mixing imposes no limit)"
        )
    beta = ensemble.mu_agg
    L = ensemble.L_max
    gamma = beta * L / (beta + L)
    q = net.n * gamma / (4.0 * L * inv_y_max)
    ones_gap = pi_norm(np.ones(net.n) - net.n * net.pi, net.pi)
    root = math.sqrt(float(np.sum(1.0 / net.pi)))
    return float(q * (1.0 - net.rho) / (L * net.rho * (inv_y_max * q + inv_y_max * ones_gap + root)))


def certify(net, ensemble, eps=None, alpha=None):
    """Assemble the full contraction certificate at the working stepsize.

    ``alpha`` defaults to the stepsize ceiling and may not exceed it: the
    contraction rate, and every bound built on it, only holds up to the
    ceiling, which is checked (InvalidRateError) before anything is measured.
    One ``lipschitz_sweep`` over [alpha0], or [alpha0, alpha] below the
    ceiling, then gives both Lipschitz values.  All stored bounds are
    evaluated at the working stepsize; the per-alpha bound functions remain
    available for sweeps.  The push-sum constants come from
    ``estimate_consensus_constants``, which takes no setting.
    """
    alpha0 = stepsize_ceiling(net, ensemble, eps)
    alpha = alpha0 if alpha is None else alpha
    if not 0.0 < alpha <= alpha0:
        raise InvalidRateError(f"working stepsize {alpha} outside (0, alpha0 = {alpha0}]: the "
                               "certificate only holds up to the stepsize ceiling")
    lips = lipschitz_sweep(net, ensemble, [alpha0] if alpha == alpha0 else [alpha0, alpha])
    eta, lip_alpha = float(lips[0]), float(lips[-1])
    C = _contraction_rate(net, ensemble, alpha0, eta)
    coeff, inv_y_max = estimate_consensus_constants(net)
    b = coeff * ensemble.L_max
    V = perturbation_product(alpha, b, C, net.rho)
    radius = pi_norm(mix_stack(net, ensemble.lin_stack), net.pi) / C
    grad0 = grad0_pi_norm(ensemble, net.pi)
    beta = ensemble.mu_agg
    gamma_lmax = beta * ensemble.L_max / (beta + ensemble.L_max)
    gamma_lbar = beta * ensemble.L_bar / (beta + ensemble.L_bar)
    try:
        legacy = legacy_stepsize_threshold(net, ensemble, inv_y_max)
    except DegenerateMixingError:
        legacy = None
    gap, consensus = _gap_bounds(net, ensemble, gamma_lbar, radius, grad0, alpha)
    return ContractionCertificate(
        case_tag=ensemble.case_tag,
        eps=eps,
        alpha0=alpha0,
        contraction_rate=C,
        alpha=alpha,
        lipschitz_alpha=lip_alpha,
        lipschitz_at_ceiling=eta,
        consensus_coeff=coeff,
        perturbation_coeff=b,
        inv_y_max=inv_y_max,
        perturbation_product=V,
        radius=radius,
        grad0_norm=grad0,
        gap_bound=gap,
        consensus_bound=consensus,
        legacy_threshold=legacy,
        gamma_lmax=gamma_lmax,
        gamma_lbar=gamma_lbar,
        rho=net.rho,
        pi_min=net.pi_min,
        L_max=ensemble.L_max,
        L_bar=ensemble.L_bar,
        mu_agg=beta,
    )


def certificate_to_dict(cert):
    """Scalar fields of a certificate, JSON-ready, with the derived
    ``eta_ceiling`` right after ``lipschitz_at_ceiling``."""
    out = {}
    for key, value in cert.__dict__.items():
        out[key] = value
        if key == "lipschitz_at_ceiling":
            out["eta_ceiling"] = cert.eta_ceiling
    return out


def fixed_point_to_dict(fp):
    """Scalar diagnostics plus the stacked fixed-point blocks."""
    return {
        "alpha": float(fp.alpha),
        "residual": float(fp.residual),
        "bound": float(fp.bound),
        "consensus_error": float(fp.consensus_error),
        "iterations": int(fp.iterations),
        "w_bar": [float(v) for v in fp.w_bar],
        "w": [[float(v) for v in row] for row in fp.w],
    }
