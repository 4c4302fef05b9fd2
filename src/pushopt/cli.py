"""Command-line interface.

Subcommands
-----------
gen-net            write a validated network JSON for (n, p, seed)
gen-costs          write a cost-ensemble JSON for the chosen case
certify            write the contraction certificate JSON
fixed-point        solve and write the fixed point at a stepsize
sweep-contraction  Lipschitz-vs-stepsize CSV over (0, 2 alpha0]
sweep-alpha        fixed-point-to-optimum CSV over (0, alpha0]
run gp|pd|hybrid   run one algorithm and write its trace CSV
reproduce figN     run a bundled scenario (fig1..fig6) end to end
tune-pd            grid-search the Push-DIGing stepsize and print it

Common flags: --seed, --out-dir, --config <json> (a flat JSON object with
the keys documented in docs/config.md; explicit flags override it).

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import costs as co
from . import harness as hz
from . import network as nw
from . import operators as op
from .errors import ConfigError, NumericError, PushOptError, ValidationError

_SCHEMA_HINT = "config schema: see docs/config.md (flat JSON, unknown keys rejected)"


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}{_SCHEMA_HINT}")


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out-dir", help="output directory (default: out)")


def _add_problem(parser):
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=float)
    parser.add_argument("--case", choices=("case1", "case2"))
    parser.add_argument("--d", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--m-rank", type=int, dest="m_rank")
    parser.add_argument("--delta-reg", type=float, dest="delta_reg")
    parser.add_argument("--eps", type=float)


def build_parser():
    parser = _Parser(prog="pushopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-net", help="generate and save a mixing network")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)

    p = sub.add_parser("gen-costs", help="generate and save a cost ensemble")
    _add_common(p)
    _add_problem(p)

    p = sub.add_parser("certify", help="emit the contraction certificate")
    _add_common(p)
    _add_problem(p)

    p = sub.add_parser("fixed-point", help="solve the fixed point at a stepsize")
    _add_common(p)
    _add_problem(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-mult", type=float, dest="alpha_mult")
    p.add_argument("--tol", type=float, dest="fp_tol")

    p = sub.add_parser("sweep-contraction", help="Lipschitz constant over (0, 2 alpha0]")
    _add_common(p)
    _add_problem(p)
    p.add_argument("--points", type=int, dest="contraction_points")

    p = sub.add_parser("sweep-alpha", help="fixed-point gap over (0, alpha0]")
    _add_common(p)
    _add_problem(p)
    p.add_argument("--points", type=int, dest="alpha_points")

    p = sub.add_parser("run", help="run one algorithm and write its trace")
    _add_common(p)
    _add_problem(p)
    p.add_argument("algorithm", choices=("gp", "pd", "hybrid"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-mult", type=float, dest="alpha_mult")
    p.add_argument("--alpha-gp", type=float, dest="alpha_gp")
    p.add_argument("--alpha-pd", type=float, dest="alpha_pd")
    p.add_argument("--iters", type=int, dest="run_iters")
    p.add_argument("--gp-iters", type=int, dest="gp_iters")
    p.add_argument("--no-fixed-point", action="store_true",
                   help="skip the fixed-point reference column for gp runs")

    p = sub.add_parser("reproduce", help="run a bundled scenario")
    _add_common(p)
    _add_problem(p)
    p.add_argument("figure", choices=tuple(f"fig{i}" for i in range(1, 7)))

    p = sub.add_parser("tune-pd", help="grid-search the Push-DIGing stepsize")
    _add_common(p)
    _add_problem(p)
    p.add_argument("--grid-start", type=float, dest="tune_grid_start")
    p.add_argument("--grid-step", type=float, dest="tune_grid_step")
    p.add_argument("--budget", type=int, dest="tune_budget")
    p.add_argument("--iters", type=int, dest="tune_iters")

    return parser


_FIGURE_SCENARIOS = {
    "fig1": "fig1_hybrid",
    "fig2": "fig2_contraction",
    "fig3": "fig3_case1",
    "fig4": "fig4_case1_sweep",
    "fig5": "fig5_case2",
    "fig6": "fig6_case2_sweep",
}


def _gather_config(args, scenario):
    payload = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
    # reproduce and sweep-contraction run their own scenario; the other
    # commands read a config's scenario only for its defaults
    if scenario != "custom" and payload.get("scenario", scenario) != scenario:
        raise ConfigError(f"config scenario {payload['scenario']!r} does not match "
                          f"this command's {scenario!r}")
    payload.setdefault("scenario", scenario)
    for key in hz.ExperimentConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            payload[key] = value
    if getattr(args, "out_dir", None):
        payload["out_dir"] = args.out_dir
    return hz.resolve_config(payload)


def _dump_json(path, payload):
    hz.write_json(path, payload)
    print(path)


def _out(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_net(args):
    cfg = _gather_config(args, "custom")
    net = hz.build_network(cfg)
    _dump_json(_out(cfg) / "network.json", nw.network_to_dict(net))
    return 0


def _cmd_gen_costs(args):
    cfg = _gather_config(args, "custom")
    ensemble = hz.build_ensemble(cfg)
    _dump_json(_out(cfg) / "costs.json", co.ensemble_to_dict(ensemble))
    return 0


def _resolve_problem(cfg):
    return hz.build_network(cfg), hz.build_ensemble(cfg)


def _cmd_certify(args):
    cfg = _gather_config(args, "custom")
    net, ensemble = _resolve_problem(cfg)
    cert = hz.certify_config(cfg, net, ensemble)
    _dump_json(_out(cfg) / "certificate.json", op.certificate_to_dict(cert))
    return 0


def _cmd_fixed_point(args):
    cfg = _gather_config(args, "custom")
    net, ensemble = _resolve_problem(cfg)
    alpha = hz.resolve_alpha(cfg, net, ensemble)
    fp = op.solve_fixed_point(op.OperatorContext(net, ensemble, alpha), tol=cfg.fp_tol)
    _dump_json(_out(cfg) / "fixed_point.json", op.fixed_point_to_dict(fp))
    return 0


def _cmd_sweep_contraction(args):
    cfg = _gather_config(args, "fig2_contraction")
    report = hz.run_scenario(cfg)
    print(Path(report.out_dir) / "contraction_sweep.csv")
    return 0


def _cmd_sweep_alpha(args):
    cfg = _gather_config(args, "custom")
    net, ensemble = _resolve_problem(cfg)
    cert = hz.certify_config(cfg, net, ensemble)
    out = _out(cfg)
    hz.fixed_point_sweep(cfg, net, ensemble, cert, out)
    print(out / "fp_sweep.csv")
    return 0


def _cmd_run(args):
    cfg = _gather_config(args, "custom")
    iters = cfg.run_iters
    if args.algorithm == "hybrid" and cfg.gp_iters > iters:
        raise ConfigError(f"gp_iters ({cfg.gp_iters}) must not exceed the {iters} rounds run")
    net, ensemble = _resolve_problem(cfg)
    x_star = co.ensemble_minimizer(ensemble)
    x0 = np.zeros((net.n, ensemble.d))
    out = _out(cfg)
    if args.algorithm == "gp":
        alpha = hz.resolve_alpha(cfg, net, ensemble)
        w_fixed = None
        if not args.no_fixed_point:
            w_fixed = op.solve_fixed_point(
                op.OperatorContext(net, ensemble, alpha), tol=cfg.fp_tol
            ).w
        trace = alg.gp_run(net, ensemble, alpha, x0, iters,
                           alg.RunRefs(x_star=x_star, w_fixed=w_fixed))
    elif args.algorithm == "pd":
        alpha = hz.resolve_alpha(cfg, net, ensemble)
        trace = alg.pd_run(net, ensemble, alpha,
                           alg.init_pd_state(net, ensemble, x0), iters,
                           alg.RunRefs(x_star=x_star))
    else:
        alpha0 = op.stepsize_ceiling(net, ensemble, hz.case_eps(cfg, ensemble))
        alpha_gp, alpha_pd = hz.resolve_hybrid_stepsizes(cfg, net, ensemble, alpha0)
        trace = alg.hybrid_run(net, ensemble, alpha_gp, alpha_pd, cfg.gp_iters,
                               iters, x0, alg.RunRefs(x_star=x_star))
    path = out / f"run_{args.algorithm}.csv"
    hz.trace_to_csv(trace, path)
    print(path)
    return 0


def _cmd_reproduce(args):
    cfg = _gather_config(args, _FIGURE_SCENARIOS[args.figure])
    report = hz.run_scenario(cfg)
    for name in report.manifest + ["report.json"]:
        print(Path(report.out_dir) / name)
    return 0


def _cmd_tune_pd(args):
    cfg = _gather_config(args, "custom")
    net, ensemble = _resolve_problem(cfg)
    alpha = hz.tune_pd_stepsize(net, ensemble, cfg.tune_grid_start,
                                cfg.tune_grid_step, cfg.tune_budget,
                                iters=cfg.tune_iters)
    print(f"{alpha:.17g}")
    return 0


_COMMANDS = {
    "gen-net": _cmd_gen_net,
    "gen-costs": _cmd_gen_costs,
    "certify": _cmd_certify,
    "fixed-point": _cmd_fixed_point,
    "sweep-contraction": _cmd_sweep_contraction,
    "sweep-alpha": _cmd_sweep_alpha,
    "run": _cmd_run,
    "reproduce": _cmd_reproduce,
    "tune-pd": _cmd_tune_pd,
}


def cli_main(argv):
    """Entry point; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}\n{_SCHEMA_HINT}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except PushOptError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
