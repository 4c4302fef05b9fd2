"""In-process A/B timing of the round loop: this checkout's ``src/pushopt``
against another revision's, both loaded in one process.

    python tests/ab_rounds.py [--base REV] [--reps N] [--stages fig5,fig4,fig1]

The base tree is ``git archive REV src/pushopt`` (REV defaults to HEAD),
unpacked into a temporary directory; nothing is fetched.  The checkout's
tree, the base tree and a second copy of the base, for the A/A control, are
imported under their own package names, which works because pushopt uses
only relative imports.  BLAS runs on one thread unless the environment
says otherwise.

Stages, each with inputs built once per tree:

* ``fig5``: the 1000-round ``gp_run`` of ``reproduce fig5`` on its default
  draw, at alpha0, with both references;
* ``fig4``: the four-stepsize, 1000-round ``gp_sweep`` of ``reproduce
  fig4 --n 400`` (p = 0.7);
* ``fig1``: the Push-DIGing tuner of ``reproduce fig1``.

Each repetition times a stage in ABBA order twice: base against the
checkout, then base against its copy.  A repetition's ratio is the sum of
its two B times over the sum of its two A times.  Every result is first
checked bit for bit against the base's.  For each stage the script prints
the median times, the median ratio with a 95% bootstrap interval, and the
A/A control's median ratio and interval; the control's interval should
contain 1.0.  Stdlib and numpy only; the file name keeps pytest from
collecting it.
"""

import argparse
import gc
import importlib
import importlib.util
import io
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parents[1]


def load(name, path):
    """Import the package at ``path`` as ``name``; returns a namespace of its modules."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("algorithms", "costs", "harness", "operators")}


def _problem(tree, overrides):
    hz = tree["harness"]
    cfg = hz.resolve_config(overrides)
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    return cfg, net, ens, hz.certify_config(cfg, net, ens)


def _fingerprint(traces):
    return b"".join(trace.final_state.x.tobytes()
                    + b"".join(c.tobytes() for c in (trace.sum_z_err, trace.w_fp_err,
                                                      trace.w_opt_err) if c is not None)
                    for trace in traces)


def fig5(tree):
    alg, co, op = tree["algorithms"], tree["costs"], tree["operators"]
    cfg, net, ens, cert = _problem(tree, {"scenario": "fig5_case2"})
    fp = op.solve_fixed_point(op.OperatorContext(net, ens, cert.alpha0), tol=cfg.fp_tol)
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens), w_fixed=fp.w)
    x0 = np.zeros((net.n, ens.d))
    return lambda: _fingerprint([alg.gp_run(net, ens, cert.alpha0, x0, cfg.run_iters, refs)])


def fig4(tree):
    alg, co = tree["algorithms"], tree["costs"]
    cfg, net, ens, cert = _problem(tree, {"scenario": "fig4_case1_sweep", "n": 400, "p": 0.7})
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens))
    alphas = [m * cert.alpha0 for m in (*cfg.multipliers, cfg.supercritical_mult)]
    x0 = np.zeros((net.n, ens.d))
    return lambda: _fingerprint(alg.gp_sweep(net, ens, alphas, x0, cfg.run_iters, refs))


def fig1(tree):
    hz = tree["harness"]
    cfg, net, ens, _ = _problem(tree, {"scenario": "fig1_hybrid"})
    return lambda: repr(hz.tune_pd_stepsize(net, ens, cfg.tune_grid_start, cfg.tune_grid_step,
                                            cfg.tune_budget, iters=cfg.tune_iters))


STAGES = {"fig5": fig5, "fig4": fig4, "fig1": fig1}


def timed(call):
    gc.collect()
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def abba(a, b):
    """(A seconds, B seconds) of one A B B A round."""
    t = [timed(a), timed(b), timed(b), timed(a)]
    return t[0] + t[3], t[1] + t[2]


def median_interval(ratios, draws=2000):
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(draws))
    return statistics.median(ratios), medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against")
    parser.add_argument("--reps", type=int, default=9, help="ABBA rounds per stage")
    parser.add_argument("--stages", default=",".join(STAGES))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src/pushopt"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        base_path = Path(tmp) / "src" / "pushopt"
        trees = {"base": load("ab_base", base_path), "copy": load("ab_copy", base_path),
                 "new": load("ab_new", ROOT / "src" / "pushopt")}
    print(f"base {args.base} vs {ROOT / 'src'}; {args.reps} ABBA rounds per stage; "
          f"numpy {np.__version__}, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"{'stage':6} {'base ms':>9} {'new ms':>9} {'new/base':>9} {'95% interval':>17}"
          f" {'A/A':>7} {'95% interval':>17}")
    for stage in args.stages.split(","):
        calls = {name: STAGES[stage](tree) for name, tree in trees.items()}
        results = {name: call() for name, call in calls.items()}
        if not results["new"] == results["copy"] == results["base"]:
            raise SystemExit(f"{stage}: the trees' results differ in their bits")
        ratios, controls, base_s, new_s = [], [], [], []
        for _ in range(args.reps):
            a, b = abba(calls["base"], calls["new"])
            a2, c = abba(calls["base"], calls["copy"])
            ratios.append(b / a)
            controls.append(c / a2)
            base_s.append(a / 2)
            new_s.append(b / 2)
        r, lo, hi = median_interval(ratios)
        c, clo, chi = median_interval(controls)
        print(f"{stage:6} {1e3 * statistics.median(base_s):9.2f} "
              f"{1e3 * statistics.median(new_s):9.2f} {r:9.3f} [{lo:6.3f}, {hi:6.3f}]"
              f" {c:7.3f} [{clo:6.3f}, {chi:6.3f}]")


if __name__ == "__main__":
    main()
