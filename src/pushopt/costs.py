"""Local cost functions, ensembles for the two benchmark cases, minimizers.

Two cost kinds are supported:

* ``quadratic``: f(x) = x' P x / 2 + q' x with P symmetric psd,
* ``regularized_ls``: f(x) = (||A x - b||^2 + delta ||x||^2) / 2.

Both have affine gradients and a constant Hessian (P, resp. A'A + delta I),
so smoothness and strong-convexity constants are the extreme Hessian
eigenvalues, computed by LAPACK's symmetric eigensolver: one stacked
``symmetric_extremes`` call for all of an ensemble's costs, one more for
its aggregate Hessian.

Aggregate quantities (the minimizer, its strong convexity ``mu_agg`` and
the harmonic rates built from it) always refer to the average cost
f = (1/n) sum_k f_k.  The minimizer is the same under the sum convention;
only the constants differ by the factor n, and every formula downstream is
stated for the average form.

Ensemble generators:

* case1: regularized least squares, entries of A_j (m x d) and b_j drawn
  i.i.d. uniform on the unit interval; every local cost is strongly convex
  (mu_k >= delta).
* case2: rank-deficient quadratics P_j = R_j R_j' with R_j (d x m_rank),
  m_rank < d, entries uniform on the unit interval; individual costs are
  merely convex but the aggregate Hessian must be positive definite
  (resampled from the next substream otherwise).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    FailedAggregatePDError,
    SingularSystemError,
    ValidationError,
    payload_count,
)
from .linalg import pi_norm, symmetric_extremes

KIND_QUADRATIC = "quadratic"
KIND_REGLS = "regularized_ls"

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10  # eigenvalue tolerance, times max(L, 1), of the psd and positive definite checks
_MINIMIZER_TOL = 1e-9  # bound on the error of x*, relative to 1 + ||x*||
_STORED_TOL = 1e-8  # relative agreement of a stored L or mu with the recomputed value
_GRAD_ROWS = 4  # slices per gemm block of grad_stack: every row goes through one gemm shape
_MAX_ATTEMPTS = 100  # case2 draws before FailedAggregatePDError


@dataclass(frozen=True)
class LocalCost:
    """One agent's cost with its smoothness/strong-convexity constants.

    ``hess`` is the constant Hessian and ``lin`` the gradient at zero, so
    grad f(x) = hess @ x + lin for either kind; for a quadratic they are
    its P and q.
    """

    kind: str
    d: int
    L: float
    mu: float
    hess: np.ndarray
    lin: np.ndarray
    A: np.ndarray = None
    b: np.ndarray = None
    delta_reg: float = None

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DimensionMismatchError(f"point of shape {x.shape}, cost dimension {self.d}")
        if self.kind == KIND_QUADRATIC:
            return self.hess @ x + self.lin
        return self.A.T @ (self.A @ x - self.b) + self.delta_reg * x


def quadratic_cost(P, q):
    """Cost x'Px/2 + q'x.  P must be symmetric positive semidefinite."""
    return _with_constants([_quadratic(P, q)])[0]


def least_squares_cost(A, b, delta_reg):
    """Cost (||Ax - b||^2 + delta ||x||^2) / 2 with delta > 0."""
    return _with_constants([_least_squares(A, b, delta_reg)])[0]


def _quadratic(P, q):
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    if P.shape != (d, d):
        raise DimensionMismatchError(f"P shape {P.shape} vs linear term of length {d}")
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(q))):
        raise ValidationError("quadratic cost data must be finite")
    if np.max(np.abs(P - P.T)) > _SYM_TOL:
        raise ValidationError("quadratic matrix must be symmetric")
    return dict(kind=KIND_QUADRATIC, d=d, hess=P, lin=q.copy())


def _least_squares(A, b, delta_reg):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise DimensionMismatchError(f"data shapes {A.shape}, {b.shape} incompatible")
    if delta_reg < 0.0:
        raise ValidationError("regularization weight must be nonnegative")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.isfinite(delta_reg)):
        raise ValidationError("least-squares cost data must be finite")
    d = A.shape[1]
    return dict(kind=KIND_REGLS, d=d, hess=A.T @ A + delta_reg * np.eye(d), lin=-(A.T @ b),
                A=A, b=b, delta_reg=float(delta_reg))


def _with_constants(parts):
    """LocalCosts from checked fields, their L and mu from one stacked call."""
    costs = []
    L, mu = symmetric_extremes(np.stack([f["hess"] for f in parts]))
    for fields, L_k, mu_k in zip(parts, L.tolist(), mu.tolist()):
        if fields["kind"] == KIND_QUADRATIC and mu_k < -_PSD_TOL * max(L_k, 1.0):
            raise ValidationError(f"quadratic matrix has negative eigenvalue {mu_k}")
        costs.append(LocalCost(L=L_k, mu=max(mu_k, 0.0), **fields))
    return costs


@dataclass(frozen=True)
class CostEnsemble:
    """n local costs of equal dimension plus aggregate constants.

    ``hess_stack``/``lin_stack`` cache the per-agent Hessians and
    gradients-at-zero for vectorized evaluation; ``agg_hess`` is the
    Hessian of the average cost and ``mu_agg`` its smallest eigenvalue.
    """

    case_tag: str
    costs: tuple
    n: int
    d: int
    L_max: float
    L_bar: float
    mu_agg: float
    agg_hess: np.ndarray
    hess_stack: np.ndarray
    lin_stack: np.ndarray

    @cached_property
    def hess_t(self):
        """H_j^T, contiguous: the right-hand factors of ``grad_stack``'s gemms."""
        return np.ascontiguousarray(self.hess_stack.transpose(0, 2, 1))


def cost_ensemble(costs, case_tag):
    """Assemble and validate an ensemble for one of the two benchmark cases."""
    if case_tag not in ("case1", "case2"):
        raise ValidationError(f"unknown case tag {case_tag!r}")
    costs = tuple(costs)
    if not costs:
        raise ValidationError("ensemble needs at least one cost")
    d = costs[0].d
    if any(c.d != d for c in costs):
        raise DimensionMismatchError("all costs must share one dimension")
    n = len(costs)
    hess_stack = np.stack([c.hess for c in costs])
    lin_stack = np.stack([c.lin for c in costs])
    agg_hess = hess_stack.mean(axis=0)
    _, mu_agg = symmetric_extremes(agg_hess)
    L_values = np.array([c.L for c in costs])
    if case_tag == "case1" and any(c.mu <= 0.0 for c in costs):
        raise ValidationError("case1 requires every local cost strongly convex")
    if mu_agg <= _PSD_TOL * max(float(L_values.max()), 1.0):
        raise FailedAggregatePDError(
            f"aggregate Hessian not positive definite (mu_agg={mu_agg})"
        )
    return CostEnsemble(
        case_tag=case_tag,
        costs=costs,
        n=n,
        d=d,
        L_max=float(L_values.max()),
        L_bar=float(L_values.mean()),
        mu_agg=float(mu_agg),
        agg_hess=agg_hess,
        hess_stack=hess_stack,
        lin_stack=lin_stack,
    )


def make_case1_ensemble(n, d, m, delta_reg, seed):
    """Regularized least-squares ensemble with unit-interval random data."""
    if n < 1 or d < 1 or m < 1:
        raise ValidationError("n, d, m must all be >= 1")
    if delta_reg <= 0.0:
        raise ValidationError("case1 requires delta_reg > 0")
    rng = np.random.default_rng(seed)
    parts = [_least_squares(rng.random((m, d)), rng.random(m), delta_reg) for _ in range(n)]
    return cost_ensemble(_with_constants(parts), "case1")


def make_case2_ensemble(n, d, m_rank, seed):
    """Rank-deficient quadratic ensemble with a positive definite aggregate.

    Resamples from the substream ``seed + attempt`` until the aggregate
    Hessian passes the positive-definiteness check.  The aggregate has rank
    at most ``n * m_rank``, so with ``n * m_rank < d`` no draw can pass and
    none is made.
    """
    if not (1 <= m_rank < d):
        raise ValidationError(f"need 1 <= m_rank < d, got m_rank={m_rank}, d={d}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n * m_rank < d:
        raise FailedAggregatePDError(
            f"aggregate Hessian has rank at most n * m_rank = {n * m_rank} < d = {d}, "
            f"so it cannot be positive definite (n={n}, d={d}, m_rank={m_rank})"
        )
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        parts = []
        for _ in range(n):
            R = rng.random((d, m_rank))
            parts.append(_quadratic(R @ R.T, rng.random(d)))
        try:
            return cost_ensemble(_with_constants(parts), "case2")
        except FailedAggregatePDError:
            continue
    raise FailedAggregatePDError(
        f"no positive definite aggregate in {_MAX_ATTEMPTS} attempts "
        f"(n={n}, d={d}, m_rank={m_rank})"
    )


def grad_stack(ensemble, u):
    """Gradients of all local costs at their own blocks of u, stacked (n, d).

    Leading axes of u are carried through, so a (K, n, d) stack of points
    gives K gradient stacks, each slice bit-identical to its own (n, d)
    call: they go through ``_grad_into`` in whole blocks of ``_GRAD_ROWS``
    = 4.  Overflow stays silent.
    """
    u = np.ascontiguousarray(u, dtype=float)  # a strided row would not go through BLAS
    if u.shape[-2:] != (ensemble.n, ensemble.d):
        raise DimensionMismatchError(f"stacked point {u.shape} vs ensemble {ensemble.n, ensemble.d}")
    g = np.empty(u.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        _grad_into(ensemble, u, g, _grad_pad(ensemble))
    return g


def _block_gemms(ensemble, u, g):
    """``g = grad F(u) - lin`` on whole blocks of 4 slices: one (4 x d) (d x d)
    gemm per agent j and block, its 4 rows of u_j times H_j^T
    (``ensemble.hess_t``).  So every row, alone or stacked, goes through one
    gemm shape: one row alone would take gemv, and at some d (17, 33) a
    larger gemm rounds its rows differently."""
    shape = (-1, _GRAD_ROWS, ensemble.n, ensemble.d)  # swapped to (blocks, n, 4, d)
    np.matmul(u.reshape(shape).swapaxes(1, 2), ensemble.hess_t,
              out=g.reshape(shape).swapaxes(1, 2))


def _grad_pad(ensemble):
    """The two 4-slice buffers ``_grad_into`` pads a last, partial block in."""
    shape = (_GRAD_ROWS, ensemble.n, ensemble.d)
    return np.zeros(shape), np.empty(shape)


def _grad_into(ensemble, u, out, pad):
    """``grad_stack(ensemble, u)`` written into ``out``, both C-contiguous:
    whole blocks go from u to ``out`` directly, a last, partial block
    through ``pad`` (``_grad_pad``), which a caller keeps from call to call.
    Enters no ``np.errstate``."""
    u, g = u.reshape(-1, ensemble.n, ensemble.d), out.reshape(-1, ensemble.n, ensemble.d)
    whole = len(u) - len(u) % _GRAD_ROWS
    if whole:
        _block_gemms(ensemble, u[:whole], g[:whole])
    if whole < len(u):
        pad[0][:len(u) - whole] = u[whole:]
        _block_gemms(ensemble, *pad)
        g[whole:] = pad[1][:len(u) - whole]
    g += ensemble.lin_stack


def grad0_pi_norm(ensemble, pi):
    """Pi-weighted norm of the stacked gradient at the origin."""
    return pi_norm(ensemble.lin_stack, pi)


def ensemble_minimizer(ensemble):
    """Minimizer of the average cost by a dense solve of the normal equations.

    The solution x is validated by the bound ``||sum_j grad f_j(x)|| / (n mu_agg)``
    on its error, which must be at most ``_MINIMIZER_TOL * (1 + ||x||)``: a
    check that scaling every cost by one factor leaves unchanged.
    """
    rhs = -ensemble.lin_stack.mean(axis=0)
    try:
        x_star = np.linalg.solve(ensemble.agg_hess, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"aggregate Hessian is singular: {exc}") from None
    total_grad = grad_stack(ensemble, np.tile(x_star, (ensemble.n, 1))).sum(axis=0)
    error = np.linalg.norm(total_grad) / (ensemble.n * ensemble.mu_agg)
    if error > _MINIMIZER_TOL * (1.0 + np.linalg.norm(x_star)):
        raise SingularSystemError(f"minimizer error bound {error} above tolerance")
    return x_star


def scale_ensemble(ensemble, factor):
    """The ensemble with every cost multiplied by ``factor``.

    Scaled costs are returned in quadratic form (factor * hess,
    factor * lin), which represents factor * f_j up to an additive
    constant.  Powers of two scale the stored constants exactly.
    """
    if factor <= 0.0:
        raise ValidationError("scale factor must be positive")
    parts = [_quadratic(factor * c.hess, factor * c.lin) for c in ensemble.costs]
    return cost_ensemble(_with_constants(parts), ensemble.case_tag)


def ensemble_to_dict(ensemble):
    """Serialize with per-cost payloads plus the constants for cross-checks."""
    payload = {"case_tag": ensemble.case_tag, "n": ensemble.n, "d": ensemble.d, "costs": []}
    for c in ensemble.costs:
        entry = {"kind": c.kind, "L": float(c.L), "mu": float(c.mu)}
        if c.kind == KIND_QUADRATIC:
            entry["P"] = [float(v) for v in c.hess.ravel()]
            entry["q"] = [float(v) for v in c.lin]
        else:
            entry["A"] = [float(v) for v in c.A.ravel()]
            entry["m"] = int(c.A.shape[0])
            entry["b"] = [float(v) for v in c.b]
            entry["delta_reg"] = float(c.delta_reg)
        payload["costs"].append(entry)
    return payload


def ensemble_from_dict(payload):
    """Rebuild an ensemble, recomputing L_k and mu_k and verifying the stored values.

    Counts must be positive integers and every array finite with the stored
    shape; anything else is a ValidationError.
    """
    try:
        case_tag = payload["case_tag"]
        d = payload_count(payload["d"], "d")
        entries = payload["costs"]
        if payload_count(payload["n"], "n") != len(entries):
            raise ValidationError("stored n disagrees with the number of costs")
        parts = []
        for entry in entries:
            if entry["kind"] == KIND_QUADRATIC:
                P = np.asarray(entry["P"], dtype=float).reshape(d, d)
                parts.append(_quadratic(P, entry["q"]))
            elif entry["kind"] == KIND_REGLS:
                m = payload_count(entry["m"], "m")
                A = np.asarray(entry["A"], dtype=float).reshape(m, d)
                b = np.asarray(entry["b"], dtype=float)
                parts.append(_least_squares(A, b, float(entry["delta_reg"])))
            else:
                raise ValidationError(f"unknown cost kind {entry['kind']!r}")
        costs = _with_constants(parts)
        for entry, cost in zip(entries, costs):
            for name, stored, recomputed in (("L", entry["L"], cost.L), ("mu", entry["mu"], cost.mu)):
                if abs(stored - recomputed) > _STORED_TOL * max(1.0, abs(recomputed)):
                    raise ValidationError(
                        f"stored {name}={stored} disagrees with recomputed {recomputed}"
                    )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed ensemble payload: {exc}") from None
    return cost_ensemble(costs, case_tag)
