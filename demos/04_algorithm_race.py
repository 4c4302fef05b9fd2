#!/usr/bin/env python3
# Gradient-push converges fast but only into an O(alpha) neighborhood;
# Push-DIGing converges exactly but tolerates far smaller stepsizes, so it
# starts slowly.  The hybrid schedule runs gradient-push with a large
# stepsize as a warm start and hands its state to Push-DIGing.  This demo
# races the three on a regression instance and writes the traces as CSVs.

import os

import numpy as np

from pushopt import (
    RunRefs,
    build_mixing_matrix,
    contraction_constant,
    ensemble_minimizer,
    generate_digraph,
    gp_run,
    hybrid_run,
    init_pd_state,
    make_case1_ensemble,
    pd_run,
    trace_to_csv,
    tune_pd_stepsize,
)

net = build_mixing_matrix(generate_digraph(20, 0.7, 7))
ensemble = make_case1_ensemble(20, 10, 10, 0.1, 1000010)
x_star = ensemble_minimizer(ensemble)
refs = RunRefs(x_star=x_star)
x0 = np.zeros((net.n, ensemble.d))

alpha_gp, _ = contraction_constant(net, ensemble)
alpha_pd = tune_pd_stepsize(net, ensemble, grid_start=5e-4, grid_step=2.5e-4,
                            budget=60, iters=400)
print(f"gradient-push stepsize (ceiling): {alpha_gp:.5f}")
print(f"Push-DIGing stepsize (tuned):     {alpha_pd:.6f}")

total, warm = 500, 100
gp = gp_run(net, ensemble, alpha_gp, x0, total, refs)
pd = pd_run(net, ensemble, alpha_pd, init_pd_state(net, ensemble, x0), total, refs)
hybrid = hybrid_run(net, ensemble, alpha_gp, alpha_pd, warm, total, x0, refs)

print(f"\nsum of distances to the minimizer, {total} rounds "
      f"(hybrid switches at {warm})")
print("   t    gradient-push   Push-DIGing     hybrid")
for t in (0, 50, 100, 200, 300, 500):
    row = lambda tr: tr.sum_z_err[t]
    print(f" {t:4d}   {row(gp):12.4e}   {row(pd):12.4e}   {row(hybrid):12.4e}")
print("\ngradient-push stalls at its plateau, Push-DIGing keeps grinding,")
print("and the hybrid enjoys the warm start plus exact convergence")

out = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out, exist_ok=True)
for name, trace in (("gp", gp), ("pd", pd), ("hybrid", hybrid)):
    path = os.path.join(out, f"race_{name}.csv")
    trace_to_csv(trace, path)
    print(f"wrote {path}")
