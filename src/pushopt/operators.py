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
* the measured operator Lipschitz constant for quadratic-Hessian costs,
  from products with the operator and its transpose, never its nd x nd
  matrix, for a whole stack of stepsizes at once,
* the fixed point by a dense solve, certified by Picard steps with an
  a-posteriori stopping bound,
* the empirical push-sum constants (coefficient of the 1/y gap and the
  largest inverse weight),
* the convergence envelope for runs, the fixed-point radius, the
  optimality-gap and consensus-error bounds, and the stricter stepsize
  threshold from earlier analyses kept for comparison.
"""

import math
from dataclasses import dataclass

import numpy as np

from .costs import grad0_pi_norm, grad_stack
from .errors import (
    DegenerateMixingError,
    DimensionMismatchError,
    InvalidRateError,
    NoConvergenceError,
    NonpositiveYError,
    NonQuadraticError,
    NotContractiveError,
    NumericError,
    ValidationError,
)
from .linalg import (
    _EIG_BLOCK,
    _live_rows,
    _restarted_top_eig,
    flatten_block_operator,
    pi_norm,
    solve_refined,
)

_PICARD_MAX_ITER = 1_000_000  # Picard steps per pass of the fixed-point polish
_PRODUCT_TRUNCATION = 1e-16  # factor excess over one that ends the perturbation product
_BRANCH_TOL = 1e-12  # |1 - C alpha - rho| that selects the degenerate envelope branch
CONTRACTION_SLACK = 1e-9  # allowed excess of a measured Lipschitz value over 1 - C alpha
_LIP_BLOCK_FLOATS = 1 << 14  # floats of the (k, nd, b) subspace of one lipschitz_sweep chunk
_NOISE_FLOOR = 1e-14  # smallest push-sum gap ever counted as signal
_TAIL_ROUNDS = 10  # push-sum rounds past the derived horizon, whose peaks are the noise plateau


@dataclass(frozen=True)
class OperatorContext:
    """A mixing network, a cost ensemble, and a stepsize, checked for fit."""

    net: object
    ensemble: object
    alpha: float

    def __post_init__(self):
        if self.net.n != self.ensemble.n:
            raise DimensionMismatchError(
                f"network has {self.net.n} agents, ensemble {self.ensemble.n}"
            )
        if self.alpha <= 0.0:
            raise InvalidRateError(f"stepsize must be positive, got {self.alpha}")


@dataclass(frozen=True)
class FixedPoint:
    """A solved fixed point with its accuracy diagnostics."""

    alpha: float
    w: np.ndarray
    w_bar: np.ndarray
    residual: float
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
    """The limit operator: mix the state after a gradient step at w_j/(n pi_j)."""
    w = np.asarray(w, dtype=float)
    net, ens = ctx.net, ctx.ensemble
    if w.shape != (net.n, ens.d):
        raise DimensionMismatchError(f"state {w.shape} vs ({net.n}, {ens.d})")
    u = w / (net.n * net.pi)[:, None]
    return net.W @ (w - ctx.alpha * grad_stack(ens, u))


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


def operator_matrix(ctx):
    """Block matrix of the limit operator's linear part.

    Block (k, j) = W[k, j] * (I_d - alpha / (n pi_j) * H_j) with H_j the
    Hessian of cost j; the 1/(n pi_j) factor reflects that the gradient is
    taken at w_j / (n pi_j).  Only defined for quadratic-Hessian costs.
    """
    net, ens = ctx.net, ctx.ensemble
    _require_constant_hessians(ens)
    scale = ctx.alpha / (net.n * net.pi)
    S = np.eye(ens.d)[None, :, :] - scale[:, None, None] * ens.hess_stack
    return net.W[:, :, None, None] * S[None, :, :, :]


def _require_constant_hessians(ensemble):
    if any(c.kind not in ("quadratic", "regularized_ls") for c in ensemble.costs):
        raise NonQuadraticError(
            "the limit operator is linear only for costs with constant Hessians"
        )


def operator_lipschitz(ctx):
    """Measured Lipschitz constant of the limit operator in the weighted norm:
    ``lipschitz_sweep`` at the one stepsize ``ctx.alpha``."""
    return float(lipschitz_sweep(ctx.net, ctx.ensemble, [ctx.alpha])[0])


def lipschitz_sweep(net, ensemble, alphas):
    """Measured Lipschitz constant of the limit operator at each stepsize.

    In the pi-weighted norm the operator's linear part is
    T = D^-1 (W kron I_d) blockdiag(S_j) D with S_j = I_d - alpha/(n pi_j) H_j
    and D = diag(s) kron I_d, s = sqrt(pi); its Lipschitz constant is the
    spectral norm of T.  The block power iteration of ``spectral_norm`` runs
    on T^T T, applied blockwise as T x = (W @ (S_j (s_j x_j))) / s_k and
    T^T y = s_j S_j^T (W^T @ (y_k / s_k)), so no nd x nd matrix is formed and
    a column costs O(n^2 d + n d^2).  The stepsizes run as one stack, in
    chunks of at most ``_LIP_BLOCK_FLOATS`` subspace floats; each value has
    the bits of its own one-stepsize call.  Returns a float array, empty for
    an empty ``alphas``.

    Raises
    ------
    DimensionMismatchError
        If the network and the ensemble differ in n, or ``alphas`` is not 1-D.
    NonQuadraticError
        If a cost has no constant Hessian.
    InvalidRateError
        If a stepsize is not positive and finite.
    """
    if net.n != ensemble.n:
        raise DimensionMismatchError(f"network has {net.n} agents, ensemble {ensemble.n}")
    _require_constant_hessians(ensemble)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D sequence of stepsizes, got {alphas.shape}")
    bad = ~(np.isfinite(alphas) & (alphas > 0.0))
    if bad.any():
        raise InvalidRateError(f"stepsizes must be positive and finite, got {alphas[bad][0]}")
    n, d, s = net.n, ensemble.d, np.sqrt(net.pi)
    chunk = max(1, _LIP_BLOCK_FLOATS // (n * d * _EIG_BLOCK))
    out = np.empty(len(alphas))
    for lo in range(0, len(alphas), chunk):
        scale = alphas[lo:lo + chunk, None] / (n * net.pi)
        S = np.eye(d) - scale[:, :, None, None] * ensemble.hess_stack
        out[lo:lo + chunk] = _restarted_top_eig(_gram_apply(net.W, s, S), len(S), n * d)
    return np.sqrt(out)


def _gram_apply(W, s, S):
    """``apply`` of T^T T for the live slices of S, a (K, n, d, d) stack of the
    blocks S_j, in the order of T = D^-1 (W kron I_d) blockdiag(S_j) D."""
    rows = _live_rows(S)
    n, d = S.shape[1:3]
    s_block, s_row = s[:, None, None], s[:, None]

    def apply(V, live):
        S = rows(live)
        X = S @ (s_block * V.reshape(V.shape[:-2] + (n, d, -1)))
        Y = (W @ X.reshape(len(S), n, -1)) / s_row
        Z = (W.T @ (Y / s_row)).reshape(X.shape)
        return (s_block * (S.swapaxes(-1, -2) @ Z)).reshape(len(S), n * d, -1)
    return apply


def contraction_constant(net, ensemble, eps=None):
    """(stepsize ceiling, contraction rate C) with Lip <= 1 - C * alpha.

    case1 uses the closed form min_k mu_k L_k / (n (mu_k + L_k) pi_k);
    case2 measures the Lipschitz constant at the ceiling and converts it.
    """
    alpha0, C, _ = _contraction(net, ensemble, eps)
    return alpha0, C


def _contraction(net, ensemble, eps):
    """(alpha0, C, eta): eta is the Lipschitz constant measured at alpha0,
    or None for case1, whose rate needs no measurement."""
    alpha0 = stepsize_ceiling(net, ensemble, eps)
    if ensemble.case_tag == "case1":
        L = np.array([c.L for c in ensemble.costs])
        mu = np.array([c.mu for c in ensemble.costs])
        C = float(np.min(mu * L / (net.n * (mu + L) * net.pi)))
        return alpha0, C, None
    eta = operator_lipschitz(OperatorContext(net, ensemble, alpha0))
    if eta >= 1.0:
        raise NotContractiveError(
            f"operator at the ceiling measured Lipschitz {eta} >= 1; "
            "aggregate cost is likely not strongly convex"
        )
    return alpha0, (1.0 - eta) / alpha0, eta


def solve_fixed_point(ctx, tol=1e-12, lipschitz=None):
    """Fixed point by a dense solve, certified by Picard polish steps.

    The operator is affine, T(w) = M w + T(0) with M from
    ``operator_matrix`` (which needs constant Hessians) and
    T(0) = -alpha W lin_stack, so its fixed point solves (I - M) w = T(0);
    ``solve_refined`` gives that point to about rounding accuracy.  Picard
    iteration then runs from it and stops once ``step * L / (1 - L) <=
    tol``, where L is the operator's measured Lipschitz constant (pass it
    as ``lipschitz`` if already known), which converts the tolerance into
    a guaranteed weighted distance to the fixed point.  Near the rounding
    floor the polish can fall into a cycle of states, where that rule
    never fires; the same loop is then rerun from zero, which is plain
    Picard iteration and yields its result bit for bit.
    ``FixedPoint.iterations`` counts the Picard steps of the pass that
    produced ``w``: the polish steps, or after a cycle those of the rerun
    from zero.

    Raises
    ------
    ValidationError
        If ``tol`` is negative.
    NoConvergenceError
        If a pass exhausts ``_PICARD_MAX_ITER`` steps, or the rerun from
        zero cycles too.
    """
    if not tol >= 0.0:
        raise ValidationError(f"fixed-point tolerance must be nonnegative, got {tol}")
    net, ens = ctx.net, ctx.ensemble
    lip = operator_lipschitz(ctx) if lipschitz is None else lipschitz
    if lip >= 1.0:
        raise NotContractiveError(f"no contraction at alpha={ctx.alpha}: Lipschitz {lip}")
    factor = lip / (1.0 - lip) if lip > 0.0 else 0.0
    zero = np.zeros((net.n, ens.d))
    offset = gradient_push_operator(ctx, zero).ravel()
    M = flatten_block_operator(operator_matrix(ctx))
    start = solve_refined(np.eye(zero.size) - M, offset)
    found = _picard(ctx, start.reshape(zero.shape), factor, tol) or _picard(ctx, zero, factor, tol)
    if found is None:
        raise NoConvergenceError(
            f"fixed-point iteration cycles above tolerance {tol} at alpha={ctx.alpha}"
        )
    w, iterations = found
    residual = pi_norm(gradient_push_operator(ctx, w) - w, net.pi)
    w_bar = w.mean(axis=0)
    consensus = pi_norm(w - np.outer(net.n * net.pi, w_bar), net.pi)
    return FixedPoint(
        alpha=ctx.alpha,
        w=w,
        w_bar=w_bar,
        residual=float(residual),
        consensus_error=float(consensus),
        iterations=iterations,
    )


def _picard(ctx, w, factor, tol):
    """(w, steps) once ``step * factor <= tol``, or None on a cycle.

    A cycle of states is found Brent-style: the state saved at steps 1, 2,
    4, 8, ... is compared bit for bit with every later one.
    """
    pi = ctx.net.pi
    saved = None
    for iterations in range(1, _PICARD_MAX_ITER + 1):
        w_next = gradient_push_operator(ctx, w)
        step = pi_norm(w_next - w, pi)
        w = w_next
        if step * factor <= tol:
            return w, iterations
        state = w.tobytes()
        if state == saved:
            return None
        if iterations & (iterations - 1) == 0:
            saved = state
    raise NoConvergenceError(
        f"fixed point not reached in {_PICARD_MAX_ITER} iterations at alpha={ctx.alpha}"
    )


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
    y = np.ones(n)
    inv_y_max = 0.0
    rho_pow = 1.0
    peaks, rho_pows = [], []
    for t in range(horizon + _TAIL_ROUNDS + 1):
        if t > 0:
            y = net.W @ y
            if np.any(y <= 0.0):
                raise NonpositiveYError("push-sum weights lost positivity")
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
    ``_PRODUCT_TRUNCATION``.
    The result is checked against the closed-form cap
    exp(alpha * coeff / ((1 - rate * alpha) (1 - rho))).
    """
    if not (0.0 <= rho < 1.0):
        raise InvalidRateError(f"mixing rate {rho} outside [0, 1)")
    if coeff < 0.0:
        raise InvalidRateError("perturbation coefficient must be nonnegative")
    if rate * alpha >= 1.0 or alpha <= 0.0:
        raise InvalidRateError(f"need 0 < alpha and rate * alpha < 1, got {rate * alpha}")
    term = alpha * coeff / (1.0 - rate * alpha)
    log_cap = term / (1.0 - rho)
    # accumulate in log space so extreme coefficients cannot overflow the
    # running product before the cap check
    log_value = 0.0
    while term >= _PRODUCT_TRUNCATION:
        log_value += math.log1p(term)
        term *= rho
    if log_value > log_cap * (1.0 + 1e-12) + 1e-15:
        raise NumericError(
            f"perturbation product exp({log_value}) above its cap exp({log_cap})"
        )
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
    if ensemble.mu_agg <= 0.0:
        raise ValidationError("bound needs a strongly convex aggregate cost")
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
    if beta <= 0.0:
        raise ValidationError("threshold needs a strongly convex aggregate cost")
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
    ceiling.  All stored bounds (perturbation product, optimality gap,
    consensus gap) are evaluated at that working stepsize; the per-alpha
    bound functions remain available for sweeps.  The push-sum constants
    come from ``estimate_consensus_constants``, which takes no setting.
    """
    alpha0, C, eta = _contraction(net, ensemble, eps)
    if alpha is None:
        alpha = alpha0
    if not 0.0 < alpha <= alpha0:
        raise InvalidRateError(
            f"working stepsize {alpha} outside (0, alpha0 = {alpha0}]: the "
            "certificate only holds up to the stepsize ceiling"
        )
    if eta is None:
        eta = operator_lipschitz(OperatorContext(net, ensemble, alpha0))
    lip_alpha = eta if alpha == alpha0 else operator_lipschitz(
        OperatorContext(net, ensemble, alpha)
    )
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
        "consensus_error": float(fp.consensus_error),
        "iterations": int(fp.iterations),
        "w_bar": [float(v) for v in fp.w_bar],
        "w": [[float(v) for v in row] for row in fp.w],
    }
