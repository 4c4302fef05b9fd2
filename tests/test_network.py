import json
from dataclasses import fields

import numpy as np
import pytest

from conftest import induced_pi_norm_oracle, perron_oracle
from pushopt import network as nw
from pushopt.errors import FailedConnectivityError, NoConvergenceError, ValidationError


def oracle_edges(adj):
    """The edge set as 1-based (i, j) tuples, j sending to i."""
    return frozenset((int(i) + 1, int(j) + 1) for i, j in np.argwhere(adj))


def oracle_strongly_connected(n, edges):
    """Depth-first reachability over adjacency lists of the edge tuples."""
    if n == 1:
        return True
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for i, j in edges:
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


def oracle_mixing_matrix(n, edges):
    """Uniform out-degree weights filled in one edge at a time."""
    out_deg = np.zeros(n, dtype=int)
    for _, j in edges:
        out_deg[j - 1] += 1
    W = np.zeros((n, n))
    for i, j in edges:
        W[i - 1, j - 1] = 1.0 / (out_deg[j - 1] + 1)
    for j in range(n):
        W[j, j] = 1.0 / (out_deg[j] + 1)
    return W


def test_single_vertex_graph():
    g = nw.generate_digraph(1, 0.5, seed=3)
    assert g.n == 1 and g.adj.shape == (1, 1) and not g.adj.any()
    assert nw.is_strongly_connected(g)


def test_full_probability_gives_complete_digraph():
    g = nw.generate_digraph(3, 1.0, seed=0)
    assert g.adj.sum() == 6


def test_standard_instance_connected_and_plausible_density():
    g = nw.generate_digraph(20, 0.7, seed=42)
    assert nw.is_strongly_connected(g)
    # binomial(380, 0.7): mean 266, sd ~8.9; allow four sigma
    assert abs(g.adj.sum() - 266) < 36


def test_generation_deterministic():
    a = nw.generate_digraph(20, 0.7, seed=42)
    b = nw.generate_digraph(20, 0.7, seed=42)
    assert np.array_equal(a.adj, b.adj)
    Wa = nw.build_mixing_matrix(a).W
    Wb = nw.build_mixing_matrix(b).W
    assert np.array_equal(Wa, Wb)


def test_generation_matches_documented_stream():
    # re-derive the edge set straight from the documented contract: one
    # uniform matrix per attempt from generator seed + attempt, pair (i, j)
    # kept when its entry falls below p
    g = nw.generate_digraph(20, 0.7, seed=42)
    u = np.random.default_rng(42).random((20, 20))
    expected = {(i + 1, j + 1) for i in range(20) for j in range(20)
                if i != j and u[i, j] < 0.7}
    assert {(int(i) + 1, int(j) + 1) for i, j in np.argwhere(g.adj)} == expected


def test_generation_rejects_disconnected_regimes():
    with pytest.raises(FailedConnectivityError):
        nw.generate_digraph(30, 0.001, seed=1)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        nw.generate_digraph(0, 0.5, seed=1)
    with pytest.raises(ValidationError):
        nw.generate_digraph(5, 0.0, seed=1)
    with pytest.raises(ValidationError):
        nw.make_digraph(3, [(1, 1)])
    with pytest.raises(ValidationError):
        nw.make_digraph(3, [(1, 4)])


@pytest.mark.parametrize("edges", [
    [[1]], [[1, 2, 3]], [["a", 2]], 5, None, [[1.5, 2]], [(np.float64(1), 2)],
    [[True, 2]], [(1, np.bool_(True))], [1, 2], ["12"], [{1, 2}],
])
def test_malformed_edge_lists_rejected(edges, net20):
    with pytest.raises(ValidationError):
        nw.make_digraph(3, edges)
    with pytest.raises(ValidationError):
        nw.network_from_dict({**nw.network_to_dict(net20), "edges": edges})


def test_numpy_integer_pairs_accepted():
    pairs = np.array([[2, 1], [3, 2], [1, 3]])
    g = nw.make_digraph(np.int64(3), pairs)
    assert g.adj.dtype == bool and oracle_edges(g.adj) == {(2, 1), (3, 2), (1, 3)}


def test_graph_holds_only_the_adjacency_array(net20):
    g = net20.graph
    assert [f.name for f in fields(nw.DirectedGraph)] == ["adj"]
    assert not hasattr(g, "edges")
    assert g.adj.shape == (20, 20) and g.adj.dtype == bool and not g.adj.diagonal().any()


def test_strong_connectivity_matches_edge_tuple_oracle():
    rng = np.random.default_rng(11)
    verdicts = set()
    for n in (1, 2, 3, 5, 10, 30, 60, 100, 200):
        threshold = np.log(n) / n if n > 1 else 0.5
        for p in (0.5 * threshold, threshold, 1.5 * threshold, 0.3):
            for _ in range(3):
                mask = rng.random((n, n)) < min(p, 1.0)
                np.fill_diagonal(mask, False)
                got = nw.is_strongly_connected(nw.DirectedGraph(mask))
                assert got == oracle_strongly_connected(n, oracle_edges(mask))
                verdicts.add((n > 1, got))
    assert verdicts == {(False, True), (True, True), (True, False)}


@pytest.mark.parametrize("n, p, seed", [
    (400, 0.7, 7), (20, 0.7, 42), (30, 0.15, 3), (100, 0.05, 3), (200, 0.03, 1),
])
def test_mixing_matrix_and_edges_match_edge_tuple_oracle(n, p, seed):
    net = nw.build_mixing_matrix(nw.generate_digraph(n, p, seed))
    edges = oracle_edges(net.graph.adj)
    assert oracle_strongly_connected(n, edges)
    W = oracle_mixing_matrix(n, edges)
    assert np.array_equal(net.W.view(np.uint64), W.view(np.uint64))
    assert nw.network_to_dict(net)["edges"] == [list(e) for e in sorted(edges)]


def test_single_agent_network(single_agent):
    assert single_agent.W == np.ones((1, 1))
    assert single_agent.pi == np.ones(1)
    assert single_agent.rho == 0.0


def test_complete_digraph_doubly_stochastic(complete4):
    assert np.allclose(complete4.W, 0.25)
    assert np.allclose(complete4.pi, 0.25)
    # W equals its own mixing limit, so the mixing norm vanishes
    assert complete4.rho <= 1e-12


def test_mixing_invariants(net20):
    assert np.max(np.abs(net20.W.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(net20.W @ net20.pi - net20.pi)) <= 1e-12
    assert np.all(net20.pi > 0) and abs(net20.pi.sum() - 1.0) <= 1e-12
    assert 0.0 <= net20.rho < 1.0
    nw.validate_network(net20)


def test_mixing_matrix_buffer_is_64_byte_aligned(net20):
    links = net20.graph.adj | np.eye(net20.n, dtype=bool)
    unaligned = np.where(links, 1.0 / links.sum(axis=0), 0.0)
    loaded = nw.network_from_dict(nw.network_to_dict(net20))
    big = nw.build_mixing_matrix(nw.generate_digraph(57, 0.3, 5))
    for net in (net20, loaded, big):
        assert net.W.ctypes.data % 64 == 0
        assert net.W.dtype == float and net.W.flags.c_contiguous
    assert net20.W.tobytes() == unaligned.tobytes() == loaded.W.tobytes()


def test_perron_matches_dense_eigensolver(net20):
    oracle = perron_oracle(net20.W)
    assert np.max(np.abs(net20.pi - oracle)) <= 1e-10


def test_perron_uniform_for_doubly_stochastic():
    rng = np.random.default_rng(0)
    # random doubly stochastic by symmetrizing a mixing matrix
    for n in (2, 5, 9):
        pi = nw.compute_perron(np.full((n, n), 1.0 / n))
        assert np.allclose(pi, 1.0 / n, atol=1e-12)
    assert nw.compute_perron(np.ones((1, 1)))[0] == 1.0


def test_perron_iteration_raises_at_its_cap(monkeypatch, net20):
    monkeypatch.setattr(nw, "_PERRON_MAX_ITER", 2)
    with pytest.raises(NoConvergenceError, match="after 2 power iterations"):
        nw.compute_perron(net20.W)


def test_rho_matches_dense_svd(net20):
    w_inf = np.outer(net20.pi, np.ones(net20.n))
    oracle = induced_pi_norm_oracle(net20.W - w_inf, net20.pi)
    assert abs(nw.compute_rho(net20.W, net20.pi) - oracle) <= 1e-10


def test_serialization_round_trip(net20, tmp_path):
    payload = nw.network_to_dict(net20)
    text = json.dumps(payload)
    loaded = nw.network_from_dict(json.loads(text))
    assert np.array_equal(loaded.W, net20.W)
    assert np.array_equal(loaded.graph.adj, net20.graph.adj)
    assert abs(loaded.rho - net20.rho) <= 1e-12


def test_serialization_rejects_tampering(net20):
    payload = nw.network_to_dict(net20)
    bad = dict(payload)
    bad["rho"] = payload["rho"] + 0.1
    with pytest.raises(ValidationError):
        nw.network_from_dict(bad)
    bad = dict(payload)
    W = np.asarray(payload["W"]).reshape(20, 20).copy()
    W[0, 0] += 0.05
    bad["W"] = list(W.ravel())
    with pytest.raises(ValidationError):
        nw.network_from_dict(bad)
