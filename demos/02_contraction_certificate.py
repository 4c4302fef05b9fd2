#!/usr/bin/env python3
# The one-step operator behind gradient-push contracts the weighted norm
# whenever the stepsize stays below a certified ceiling.  This demo builds
# both benchmark cost families, measures the operator's Lipschitz constant
# across stepsizes, and compares it with the certified line 1 - C * alpha.

from pushopt import (
    build_mixing_matrix,
    certify,
    generate_digraph,
    lipschitz_sweep,
    make_case1_ensemble,
    make_case2_ensemble,
)

net = build_mixing_matrix(generate_digraph(20, 0.7, 42))

for label, ensemble, eps in (
    ("strongly convex least squares (d=3, m=4, delta=2)",
     make_case1_ensemble(20, 3, 4, 2.0, 7), None),
    ("rank-deficient quadratics (d=10, rank 4, eps=0.01)",
     make_case2_ensemble(20, 10, 4, 7), 0.01),
):
    cert = certify(net, ensemble, eps=eps)
    print(f"\n{label}")
    print(f"  stepsize ceiling alpha0 = {cert.alpha0:.5f}")
    print(f"  contraction rate C      = {cert.contraction_rate:.5f}  "
          f"(Lipschitz <= 1 - C alpha up to the ceiling)")
    if cert.eta_ceiling is not None:
        print(f"  measured Lipschitz at the ceiling: {cert.eta_ceiling:.6f}")
    legacy = cert.legacy_threshold
    print(f"  older threshold for comparison: {legacy:.5f} "
          f"({cert.alpha0 / legacy:.0f}x smaller than the ceiling)")

    print("  alpha/alpha0   measured Lipschitz   certified line")
    mults = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    alphas = [mult * cert.alpha0 for mult in mults]
    # one stacked call measures every stepsize
    for mult, a, lip in zip(mults, alphas, lipschitz_sweep(net, ensemble, alphas)):
        line = 1.0 - cert.contraction_rate * a
        marker = "  <= certified" if mult <= 1.0 else "  (beyond the ceiling)"
        print(f"  {mult:12.2f}   {lip:18.9f}   {line:14.9f}{marker}")
