#!/usr/bin/env python3
# Below the stepsize ceiling the gradient-push operator has a unique fixed
# point, and that point sits within O(alpha) of the replicated minimizer.
# This demo solves the fixed point across a stepsize sweep, checks the
# linear-in-alpha gap bound, and shows a run homing in on the fixed point
# underneath its certified convergence envelope.

import numpy as np

from pushopt import (
    OperatorContext,
    RunRefs,
    build_mixing_matrix,
    certify,
    convergence_envelope,
    ensemble_minimizer,
    generate_digraph,
    gp_run,
    make_case1_ensemble,
    optimality_gap_bound,
    pi_norm,
    solve_fixed_point,
)

net = build_mixing_matrix(generate_digraph(20, 0.7, 42))
ensemble = make_case1_ensemble(20, 3, 4, 2.0, 7)
cert = certify(net, ensemble)
x_star = ensemble_minimizer(ensemble)
target = np.outer(net.n * net.pi, x_star)

print("fixed-point gap to the replicated minimizer vs the linear bound")
print("  alpha/alpha0      gap          bound     bound/gap")
for mult in (0.1, 0.25, 0.5, 0.75, 1.0):
    a = mult * cert.alpha0
    fp = solve_fixed_point(OperatorContext(net, ensemble, a), tol=1e-12)
    gap = pi_norm(fp.w - target, net.pi)
    bound = optimality_gap_bound(net, ensemble, cert, a)
    print(f"  {mult:10.2f}   {gap:10.4e}   {bound:10.4e}   {bound / gap:8.1f}")
print("the gap shrinks linearly with alpha; the bound tracks it from above")

fp = solve_fixed_point(OperatorContext(net, ensemble, cert.alpha0), tol=1e-12)
trace = gp_run(net, ensemble, cert.alpha0, np.zeros((net.n, ensemble.d)), 120,
               RunRefs(x_star=x_star, w_fixed=fp.w))
errors = trace.w_fp_err
print("\nrun distance to the fixed point vs the certified envelope")
print("   t    measured      envelope")
for t in (1, 5, 10, 20, 40, 80, 120):
    env = convergence_envelope(cert, errors[1], t - 2) if t >= 2 else errors[1]
    print(f" {t:4d}  {errors[t]:10.3e}   {env:10.3e}")
