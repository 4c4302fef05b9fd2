#!/usr/bin/env python3
# Build a random strongly connected digraph, derive its column-stochastic
# mixing matrix, and look at the spectral objects that control everything
# downstream: the mass vector pi, the rank-one mixing limit, and the
# mixing rate rho.

import numpy as np

from pushopt import (
    build_mixing_matrix,
    estimate_consensus_constants,
    generate_digraph,
)

n, p, seed = 20, 0.7, 42
graph = generate_digraph(n, p, seed)
print(f"digraph: n={n}, p={p}, seed={seed} -> {graph.adj.sum()} arcs "
      f"(expected about {0.7 * n * (n - 1):.0f})")

net = build_mixing_matrix(graph)
print(f"column sums of W: all within {np.max(np.abs(net.W.sum(0) - 1)):.1e} of 1")
print(f"pi (mass vector): min={net.pi_min:.4f}, max={net.pi.max():.4f}, sum={net.pi.sum():.15f}")
print(f"mixing rate rho = {net.rho:.6f}  (distance of W from its rank-one limit)")

# push-sum weights converge to n * pi at rate rho; the constants below
# quantify that convergence and feed the run-prediction envelopes
coeff, inv_y_max = estimate_consensus_constants(net)
print(f"push-sum gap coefficient a = {coeff:.4f}, largest inverse weight = {inv_y_max:.4f}")

y = np.ones(n)
print("\n t   max_j |1/y_j(t) - 1/(n pi_j)|   a * rho^t")
for t in range(0, 31, 5):
    gap = np.max(np.abs(1.0 / y - 1.0 / (n * net.pi)))
    print(f"{t:3d}   {gap:24.3e}   {coeff * net.rho**t:10.3e}")
    for _ in range(5):
        y = net.W @ y
