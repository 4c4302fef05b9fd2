"""Random strongly connected digraphs and column-stochastic mixing data.

Conventions
-----------
Agents are numbered 1..n.  An edge (i, j) means that agent j sends to
agent i, so information flows j -> i.  A graph is held as an (n, n) bool
adjacency array ``adj`` with ``adj[i - 1, j - 1]`` set for the edge (i, j).
Every agent implicitly keeps a self-loop; the diagonal of ``adj`` stays
False.  The JSON form lists the edges as sorted 1-based [i, j] pairs.

The mixing matrix uses the uniform out-degree rule: column j distributes
mass equally over j itself and every receiver of j,

    W[i, j] = 1 / (out_degree(j) + 1)   for i a receiver of j, or i == j,

so every column sums to one.  ``pi`` is the positive right eigenvector of W
at eigenvalue 1 normalized to total mass one, and ``rho`` is the
pi-weighted induced norm of W minus the rank-one limit of its powers
(every column of that limit equals pi), which measures mixing speed.

A graph enters a MixingNetwork only through ``_network``, which first
rejects one that is not strongly connected.  ``build_mixing_matrix`` makes W
nonnegative, column stochastic and with the edge pattern by construction;
``network_from_dict`` checks these on a stored W, and the stored pi and rho.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    FailedConnectivityError,
    NoConvergenceError,
    NumericError,
    ValidationError,
    payload_count,
)
from .linalg import spectral_norm

_PERRON_TOL = 1e-12  # residual max|W pi - pi| the power iteration for pi must reach
_PERRON_MAX_ITER = 100_000  # its iterations before NoConvergenceError
_INVARIANT_TOL = 1e-12  # column-sum error a stored W may carry
_STORED_TOL = 1e-9  # agreement of a stored pi and rho with the recomputed values
_W_ALIGN = 64  # byte boundary of the mixing matrix buffer
_MAX_ATTEMPTS = 100  # digraph draws before FailedConnectivityError


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on agents 1..n with implicit self-loops.

    ``adj`` is an (n, n) bool array: ``adj[i - 1, j - 1]`` is True when
    agent j sends to agent i.  Its diagonal is False.
    """

    adj: np.ndarray

    @property
    def n(self):
        return self.adj.shape[0]


@dataclass(frozen=True)
class MixingNetwork:
    """A digraph together with its mixing matrix and spectral objects."""

    graph: DirectedGraph
    W: np.ndarray
    pi: np.ndarray
    rho: float
    pi_min: float

    @property
    def n(self):
        return self.graph.n


def make_digraph(n, edges):
    """Build a DirectedGraph from 1-based integer pairs (i, j), j sending to i.

    Raises ValidationError unless ``edges`` is a sequence of integer pairs
    (Python or numpy integers, not bools) inside 1..n with no self-loop.
    """
    if n < 1:
        raise ValidationError(f"agent count must be >= 1, got {n}")
    adj = np.zeros((n, n), dtype=bool)
    try:
        pairs = list(edges)
    except TypeError:
        raise ValidationError(f"edges must be a sequence of pairs, got {edges!r}") from None
    for e in pairs:
        if not (isinstance(e, (list, tuple, np.ndarray)) and len(e) == 2
                and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                        for v in e)):
            raise ValidationError(f"edge {e!r} is not a pair of integer agent labels")
        i, j = e
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValidationError(f"edge ({i},{j}) outside 1..{n}")
        if i == j:
            raise ValidationError(f"self-loop ({i},{i}) must stay implicit")
        adj[i - 1, j - 1] = True
    return DirectedGraph(adj)


def is_strongly_connected(g):
    """Breadth-first reachability from agent 1 along the arcs and along their reversal."""
    for adj in (g.adj, g.adj.T):
        seen = np.zeros(g.n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():  # receivers of the frontier not seen yet
            frontier = adj[:, frontier].any(axis=1) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def generate_digraph(n, p, seed):
    """Sample a strongly connected digraph with i.i.d. arcs.

    Each ordered pair (i, j), i != j, is included independently with
    probability ``p``.  Samples failing the connectivity check are
    rejected and redrawn from the substream ``seed + attempt`` so the
    result is the conditional-on-connected distribution, bit-reproducible
    for a fixed (n, p, seed).

    Raises
    ------
    FailedConnectivityError
        If ``_MAX_ATTEMPTS`` consecutive samples are not strongly
        connected (p too small for this n).
    """
    if n < 1:
        raise ValidationError(f"agent count must be >= 1, got {n}")
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"arc probability must lie in (0, 1], got {p}")
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        g = DirectedGraph(mask)
        if is_strongly_connected(g):
            return g
    raise FailedConnectivityError(
        f"no strongly connected digraph in {_MAX_ATTEMPTS} attempts "
        f"(n={n}, p={p}); increase p"
    )


def compute_perron(W):
    """Positive right eigenvector of a column-stochastic W at eigenvalue 1.

    Power iteration from the uniform vector, renormalized to total mass one
    each step, until ``max|W pi - pi| <= _PERRON_TOL``, for at most
    ``_PERRON_MAX_ITER`` steps.  Once below the tolerance the iteration
    keeps polishing while the residual still improves, so the returned
    vector sits at the floating-point floor rather than just under the
    tolerance (downstream push-sum diagnostics compare 1/y(t) against
    1/(n pi) at the 1e-14 level).
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    x = np.full(n, 1.0 / n)
    reached = False
    best = np.inf
    best_vec = x
    for _ in range(_PERRON_MAX_ITER):
        y = W @ x
        y = y / y.sum()
        resid = np.max(np.abs(W @ y - y))
        if resid < best:
            best, best_vec = resid, y
        elif reached:
            break  # stagnated at the floating-point floor
        reached = reached or resid <= _PERRON_TOL
        x = y
    if not reached:
        raise NoConvergenceError(
            f"eigenvector residual above {_PERRON_TOL} after {_PERRON_MAX_ITER} "
            "power iterations"
        )
    if np.any(best_vec <= 0.0):
        raise NumericError("eigenvector lost positivity; W is not primitive")
    return best_vec


def _push_sum_weights(W, y):
    """The push-sum weights y, W y, W^2 y, ..., an endless generator.  From
    the first product that returns its input's bits on, every product would,
    so the same array is yielded and none is made.  Never write a yielded y."""
    while True:
        yield y
        new = W @ y
        if new.tobytes() == y.tobytes():
            yield from repeat(y)
        y = new


def compute_rho(W, pi):
    """Pi-weighted induced norm of W minus its limit outer(pi, 1); lies in [0, 1).

    That is the spectral norm of D^-1 (W - outer(pi, 1)) D with
    D = diag(sqrt(pi)): one SVD of one n x n gap, scaled in place.
    """
    s = np.sqrt(pi)
    T = W - pi[:, None]
    T *= s[None, :] / s[:, None]
    rho = spectral_norm(T)
    if rho >= 1.0:
        raise NumericError(f"mixing norm measured at {rho} >= 1; invalid network")
    return rho


def build_mixing_matrix(g):
    """Assemble the uniform-weight mixing matrix and its spectral objects."""
    links = g.adj | np.eye(g.n, dtype=bool)
    W = _aligned_matrix(g.n)
    W[...] = links
    W *= 1.0 / links.sum(axis=0)
    return _network(g, W)


def _aligned_matrix(n):
    """An uninitialized (n, n) float array whose buffer starts on a
    ``_W_ALIGN``-byte boundary.

    Every ``W`` is built in one: its products have the same bits at any
    address, but at n=400 an aligned ``W @ x`` ran about 1.5x faster than
    one 8 to 48 bytes past the boundary (``BENCH_stacked_gp.json``,
    ``micro``).  The constructors fill it in place, with no casting ufunc:
    an aligned copy of a finished W, or the cast buffers of a mixed-type
    ufunc, raise the peak resident size.
    """
    buf = np.empty(n * n + _W_ALIGN // 8)
    start = -buf.ctypes.data % _W_ALIGN // 8
    return buf[start:start + n * n].reshape(n, n)


def _network(g, W):
    """Attach the Perron vector and rho to (g, W): the one place a graph
    enters a MixingNetwork, and so where it must be strongly connected."""
    if not is_strongly_connected(g):
        raise ValidationError("graph is not strongly connected")
    pi = compute_perron(W)
    return MixingNetwork(graph=g, W=W, pi=pi, rho=compute_rho(W, pi), pi_min=float(pi.min()))


def network_to_dict(net):
    """Serialize as {n, edges, W (row-major), pi, rho}; edges sorted."""
    return {
        "n": net.n,
        "edges": (np.argwhere(net.graph.adj) + 1).tolist(),
        "W": [float(v) for v in net.W.ravel()],
        "pi": [float(v) for v in net.pi],
        "rho": float(net.rho),
    }


def network_from_dict(payload):
    """Rebuild a MixingNetwork from its serialized form, revalidating everything.

    The stored pi and rho are cross-checked against values recomputed from W;
    the recomputed (full-precision) values are kept.
    """
    try:
        n = payload_count(payload["n"], "n")
        edges = payload["edges"]
        stored = np.asarray(payload["W"], dtype=float).reshape(n, n)
        pi_stored = np.asarray(payload["pi"], dtype=float)
        rho_stored = float(payload["rho"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network payload: {exc}") from None
    W = _aligned_matrix(n)
    W[...] = stored
    g = make_digraph(n, edges)
    if not (np.all(W >= 0.0) and np.max(np.abs(W.sum(axis=0) - 1.0)) <= _INVARIANT_TOL):
        raise ValidationError("stored W is not column stochastic")
    if not np.array_equal(W > 0.0, g.adj | np.eye(n, dtype=bool)):
        raise ValidationError("sparsity pattern of W does not match the edge set")
    net = _network(g, W)
    if pi_stored.shape != (n,) or not np.max(np.abs(pi_stored - net.pi)) <= _STORED_TOL:
        raise ValidationError("stored pi disagrees with the eigenvector of W")
    if not abs(rho_stored - net.rho) <= _STORED_TOL:
        raise ValidationError("stored rho disagrees with the recomputed value")
    return net
