"""Random strongly connected digraphs and column-stochastic mixing data.

Conventions
-----------
Agents are numbered 1..n.  An edge (i, j) means that agent j sends to
agent i, so information flows j -> i.  Every agent implicitly keeps a
self-loop; self-loops are never stored in the edge set.

The mixing matrix uses the uniform out-degree rule: column j distributes
mass equally over j itself and every receiver of j,

    W[i, j] = 1 / (out_degree(j) + 1)   for i a receiver of j, or i == j,

so every column sums to one.  ``pi`` is the positive right eigenvector of W
at eigenvalue 1 normalized to total mass one, ``w_inf`` is the rank-one
limit of the powers of W (every column equals pi), and ``rho`` is the
pi-weighted induced norm of ``W - w_inf``, which measures mixing speed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    FailedConnectivityError,
    NoConvergenceError,
    NumericError,
    ValidationError,
)
from .linalg import induced_pi_norm


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on agents 1..n with implicit self-loops."""

    n: int
    edges: frozenset


@dataclass(frozen=True)
class MixingNetwork:
    """A digraph together with its mixing matrix and spectral objects."""

    graph: DirectedGraph
    W: np.ndarray
    pi: np.ndarray
    w_inf: np.ndarray
    rho: float
    pi_min: float

    @property
    def n(self):
        return self.graph.n


def make_digraph(n, edges):
    """Build a DirectedGraph after validating vertex range and loop-freeness."""
    if n < 1:
        raise ValidationError(f"agent count must be >= 1, got {n}")
    edges = frozenset((int(i), int(j)) for i, j in edges)
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValidationError(f"edge ({i},{j}) outside 1..{n}")
        if i == j:
            raise ValidationError(f"self-loop ({i},{i}) must stay implicit")
    return DirectedGraph(n=n, edges=edges)


def is_strongly_connected(g):
    """Two-pass reachability check: breadth-first on the arcs and on their reversal."""
    n = g.n
    if n == 1:
        return True
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for i, j in g.edges:
        fwd[j - 1].append(i - 1)  # j sends to i
        rev[i - 1].append(j - 1)
    for adj in (fwd, rev):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not seen.all():
            return False
    return True


def generate_digraph(n, p, seed, max_attempts=100):
    """Sample a strongly connected digraph with i.i.d. arcs.

    Each ordered pair (i, j), i != j, is included independently with
    probability ``p``.  Samples failing the connectivity check are
    rejected and redrawn from the substream ``seed + attempt`` so the
    result is the conditional-on-connected distribution, bit-reproducible
    for a fixed (n, p, seed).

    Raises
    ------
    FailedConnectivityError
        If ``max_attempts`` consecutive samples are not strongly
        connected (p too small for this n).
    """
    if n < 1:
        raise ValidationError(f"agent count must be >= 1, got {n}")
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"arc probability must lie in (0, 1], got {p}")
    for attempt in range(max_attempts):
        rng = np.random.default_rng(seed + attempt)
        u = rng.random((n, n))
        mask = u < p
        np.fill_diagonal(mask, False)
        edges = frozenset((int(i) + 1, int(j) + 1) for i, j in np.argwhere(mask))
        g = DirectedGraph(n=n, edges=edges)
        if is_strongly_connected(g):
            return g
    raise FailedConnectivityError(
        f"no strongly connected digraph in {max_attempts} attempts "
        f"(n={n}, p={p}); increase p"
    )


def compute_perron(W, tol=1e-12, max_iter=100000):
    """Positive right eigenvector of a column-stochastic W at eigenvalue 1.

    Power iteration from the uniform vector, renormalized to total mass one
    each step, until ``max|W pi - pi| <= tol``.  Once below the tolerance
    the iteration keeps polishing while the residual still improves, so the
    returned vector sits at the floating-point floor rather than just under
    ``tol`` (downstream push-sum diagnostics compare 1/y(t) against
    1/(n pi) at the 1e-14 level).
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    x = np.full(n, 1.0 / n)
    reached = False
    best = np.inf
    best_vec = x
    for _ in range(max_iter):
        y = W @ x
        y = y / y.sum()
        resid = np.max(np.abs(W @ y - y))
        if resid < best:
            best, best_vec = resid, y
        elif reached:
            break  # stagnated at the floating-point floor
        reached = reached or resid <= tol
        x = y
    if not reached:
        raise NoConvergenceError(
            f"eigenvector residual above {tol} after {max_iter} power iterations"
        )
    if np.any(best_vec <= 0.0):
        raise NumericError("eigenvector lost positivity; W is not primitive")
    return best_vec


def compute_rho(net, tol=1e-10):
    """Pi-weighted induced norm of ``W - w_inf``; lies in [0, 1)."""
    return _rho_from(net.W, net.pi, tol=tol)


def _rho_from(W, pi, tol=1e-10):
    rho = induced_pi_norm(W - np.outer(pi, np.ones(len(pi))), pi, tol=tol)
    if rho >= 1.0:
        raise NumericError(f"mixing norm measured at {rho} >= 1; invalid network")
    return rho


def build_mixing_matrix(g, perron_tol=1e-12):
    """Assemble the uniform-weight mixing matrix and its spectral objects."""
    n = g.n
    out_deg = np.zeros(n, dtype=int)
    for _, j in g.edges:
        out_deg[j - 1] += 1
    W = np.zeros((n, n))
    for i, j in g.edges:
        W[i - 1, j - 1] = 1.0 / (out_deg[j - 1] + 1)
    for j in range(n):
        W[j, j] = 1.0 / (out_deg[j] + 1)
    return _network(g, W, perron_tol)


def _network(g, W, perron_tol=1e-12):
    """Attach the Perron vector, its limit and rho to (g, W), then validate."""
    pi = compute_perron(W, tol=perron_tol)
    net = MixingNetwork(
        graph=g,
        W=W,
        pi=pi,
        w_inf=np.outer(pi, np.ones(g.n)),
        rho=_rho_from(W, pi),
        pi_min=float(pi.min()),
    )
    validate_network(net)
    return net


def validate_network(net, tol=1e-12):
    """Check every structural invariant of a MixingNetwork."""
    g, W, pi = net.graph, net.W, net.pi
    n = g.n
    if W.shape != (n, n):
        raise ValidationError(f"W shape {W.shape} does not match n={n}")
    if np.any(W < 0.0):
        raise ValidationError("negative communication weight")
    if np.max(np.abs(W.sum(axis=0) - 1.0)) > tol:
        raise ValidationError("columns of W do not sum to one")
    positive = W > 0.0
    expected = np.eye(n, dtype=bool)
    for i, j in g.edges:
        expected[i - 1, j - 1] = True
    if not np.array_equal(positive, expected):
        raise ValidationError("sparsity pattern of W does not match the edge set")
    if np.any(pi <= 0.0) or abs(pi.sum() - 1.0) > tol:
        raise ValidationError("pi must be positive with total mass one")
    if np.max(np.abs(W @ pi - pi)) > max(tol, 1e-12):
        raise ValidationError("pi is not an eigenvector of W at eigenvalue 1")
    if np.max(np.abs(net.w_inf - np.outer(pi, np.ones(n)))) > tol:
        raise ValidationError("columns of w_inf must all equal pi")
    if not (0.0 <= net.rho < 1.0):
        raise ValidationError(f"rho={net.rho} outside [0, 1)")
    if not is_strongly_connected(g):
        raise ValidationError("graph is not strongly connected")


def network_to_dict(net):
    """Serialize as {n, edges, W (row-major), pi, rho}; edges sorted."""
    return {
        "n": net.n,
        "edges": [list(e) for e in sorted(net.graph.edges)],
        "W": [float(v) for v in net.W.ravel()],
        "pi": [float(v) for v in net.pi],
        "rho": float(net.rho),
    }


def network_from_dict(payload, tol=1e-9):
    """Rebuild a MixingNetwork from its serialized form, revalidating everything.

    The stored pi and rho are cross-checked against values recomputed from W;
    the recomputed (full-precision) values are kept.
    """
    try:
        n = int(payload["n"])
        edges = payload["edges"]
        W = np.asarray(payload["W"], dtype=float).reshape(n, n)
        pi_stored = np.asarray(payload["pi"], dtype=float)
        rho_stored = float(payload["rho"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network payload: {exc}") from None
    g = make_digraph(n, edges)
    if not is_strongly_connected(g):
        raise ValidationError("stored graph is not strongly connected")
    if np.any(W < 0.0) or np.max(np.abs(W.sum(axis=0) - 1.0)) > 1e-12:
        raise ValidationError("stored W is not column stochastic")
    net = _network(g, W)
    if pi_stored.shape != (n,) or np.max(np.abs(pi_stored - net.pi)) > tol:
        raise ValidationError("stored pi disagrees with the eigenvector of W")
    if abs(rho_stored - net.rho) > tol:
        raise ValidationError("stored rho disagrees with the recomputed value")
    return net
