"""Command-line interface.

Subcommands
-----------
gen-net            write a validated network JSON for (n, p, seed)
gen-costs          write a cost-ensemble JSON for the chosen case
certify            write the certificate JSON at the working stepsize
fixed-point        solve and write the fixed point at a stepsize
sweep-contraction  Lipschitz-vs-stepsize CSV over (0, 2 alpha0]
sweep-alpha        fixed-point-to-optimum CSV over (0, alpha0]
run gp|pd|hybrid   run one algorithm and write its trace CSV
reproduce figN     run a bundled scenario (fig1..fig6) end to end
tune-pd            grid-search the Push-DIGing stepsize and print it

Common flags: --seed, --out-dir, --config <json> (a flat JSON object with
the keys documented in docs/config.md; explicit flags override it).

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure, failed check
or refused allocation.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import algorithms as alg
from . import costs as co
from . import harness as hz
from . import network as nw
from . import operators as op
from .errors import ConfigError, NumericError, ScenarioAssertionError, ValidationError

_SCHEMA_HINT = "config schema: see docs/config.md (flat JSON, unknown keys rejected)"

# config key -> (flag, argparse options); config and no_fixed_point set no key
_FLAGS = {
    "config": ("--config", {"help": "JSON config file; flags override it"}),
    "seed": ("--seed", {"type": int, "help": "master seed"}),
    "out_dir": ("--out-dir", {"help": "output directory (default: out)"}),
    "n": ("--n", {"type": int}),
    "p": ("--p", {"type": float}),
    "case": ("--case", {"choices": ("case1", "case2")}),
    "d": ("--d", {"type": int}),
    "m": ("--m", {"type": int}),
    "m_rank": ("--m-rank", {"type": int}),
    "delta_reg": ("--delta-reg", {"type": float}),
    "eps": ("--eps", {"type": float}),
    "alpha": ("--alpha", {"type": float}),
    "alpha_mult": ("--alpha-mult", {"type": float}),
    "alpha_pd": ("--alpha-pd", {"type": float}),
    "run_iters": ("--iters", {"type": int}),
    "gp_iters": ("--gp-iters", {"type": int}),
    "no_fixed_point": ("--no-fixed-point", {
        "action": "store_true", "default": None,  # None when not given, like every other flag
        "help": "skip the fixed-point reference column for gp runs"}),
    "fp_tol": ("--tol", {"type": float}),
    "sweep_points": ("--points", {"type": int}),
    "tune_grid_start": ("--grid-start", {"type": float}),
    "tune_grid_step": ("--grid-step", {"type": float}),
    "tune_budget": ("--budget", {"type": int}),
    "tune_iters": ("--iters", {"type": int}),
}

_COMMON = ("config", "seed", "out_dir")
_PROBLEM = ("n", "p", "case", "d", "m", "m_rank", "delta_reg", "eps")

# run flags that one algorithm reads: (that algorithm, what the others do instead);
# the others refuse the flag, but not its key in a --config file: one file serves many commands
_RUN_ONLY = {
    "alpha_pd": ("hybrid", "takes --alpha"),
    "gp_iters": ("hybrid", "takes --iters"),
    "no_fixed_point": ("gp", "writes no fixed-point column"),
}


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}{_SCHEMA_HINT}")


def _gather_config(args, scenario):
    payload = {}
    if args.config:
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
    return hz.resolve_config(payload)


def _dump_json(path, payload):
    hz.write_json(path, payload)
    print(path)


def _cmd_gen_net(cfg, args):
    out = hz._make_out_dir(cfg)
    _dump_json(out / "network.json", nw.network_to_dict(hz.build_network(cfg)))


def _cmd_gen_costs(cfg, args):
    out = hz._make_out_dir(cfg)
    _dump_json(out / "costs.json", co.ensemble_to_dict(hz.build_ensemble(cfg)))


def _cmd_certify(cfg, args):
    out = hz._make_out_dir(cfg)
    net, ensemble = hz.build_network(cfg), hz.build_ensemble(cfg)
    cert = hz.certify_config(cfg, net, ensemble, alpha=hz.resolve_alpha(cfg, net, ensemble))
    _dump_json(out / "certificate.json", op.certificate_to_dict(cert))


def _cmd_fixed_point(cfg, args):
    out = hz._make_out_dir(cfg)
    net, ensemble = hz.build_network(cfg), hz.build_ensemble(cfg)
    alpha = hz.resolve_alpha(cfg, net, ensemble)
    fp = op.solve_fixed_point(op.OperatorContext(net, ensemble, alpha), tol=cfg.fp_tol)
    _dump_json(out / "fixed_point.json", op.fixed_point_to_dict(fp))


def _cmd_sweep_contraction(cfg, args):
    report = hz.run_scenario(cfg)
    print(Path(report.out_dir) / "contraction_sweep.csv")


def _cmd_sweep_alpha(cfg, args):
    out = hz._make_out_dir(cfg)
    net, ensemble = hz.build_network(cfg), hz.build_ensemble(cfg)
    cert = hz.certify_config(cfg, net, ensemble)
    hz.fixed_point_sweep(cfg, net, ensemble, cert, out)
    print(out / "fp_sweep.csv")


def _cmd_run(cfg, args):
    for key, (owner, instead) in _RUN_ONLY.items():
        if getattr(args, key) is not None and args.algorithm != owner:
            raise ConfigError(f"run {args.algorithm} ignores {_FLAGS[key][0]}, which only "
                              f"run {owner} reads; run {args.algorithm} {instead}")
    if args.algorithm == "hybrid":
        hz.check_warm_start(cfg)
    iters = cfg.run_iters
    out = hz._make_out_dir(cfg)
    net, ensemble = hz.build_network(cfg), hz.build_ensemble(cfg)
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ensemble))
    x0 = np.zeros((net.n, ensemble.d))
    if args.algorithm == "hybrid":
        alpha_gp, alpha_pd = hz.resolve_hybrid_stepsizes(cfg, net, ensemble)
        trace = alg.hybrid_run(net, ensemble, alpha_gp, alpha_pd, cfg.gp_iters, iters, x0, refs)
    elif args.algorithm == "pd":
        trace = alg.pd_run(net, ensemble, hz.resolve_alpha(cfg, net, ensemble),
                           alg.init_pd_state(net, ensemble, x0), iters, refs)
    else:
        alpha = hz.resolve_alpha(cfg, net, ensemble)
        if not args.no_fixed_point:
            fp = op.solve_fixed_point(op.OperatorContext(net, ensemble, alpha), tol=cfg.fp_tol)
            refs = alg.RunRefs(x_star=refs.x_star, w_fixed=fp.w)
        trace = alg.gp_run(net, ensemble, alpha, x0, iters, refs)
    path = out / f"run_{args.algorithm}.csv"
    hz.trace_to_csv(trace, path)
    print(path)


def _cmd_reproduce(cfg, args):
    report = hz.run_scenario(cfg)
    for name in report.manifest + ["report.json"]:
        print(Path(report.out_dir) / name)


def _cmd_tune_pd(cfg, args):
    if args.out_dir is not None:
        raise ConfigError("tune-pd writes no file, so it takes no --out-dir")
    net, ensemble = hz.build_network(cfg), hz.build_ensemble(cfg)
    alpha = hz.tune_pd_stepsize(net, ensemble, cfg.tune_grid_start,
                                cfg.tune_grid_step, cfg.tune_budget,
                                iters=cfg.tune_iters)
    print(f"{alpha:.17g}")


class _Command(NamedTuple):
    help: str
    flags: tuple  # after _COMMON, in this order
    handler: object
    positional: tuple = None  # (dest, choices)
    scenario: str = "custom"  # None: the one reproduce's figure names


_COMMANDS = {
    "gen-net": _Command("generate and save a mixing network", ("n", "p"), _cmd_gen_net),
    "gen-costs": _Command("generate and save a cost ensemble", _PROBLEM, _cmd_gen_costs),
    "certify": _Command("emit the contraction certificate", _PROBLEM, _cmd_certify),
    "fixed-point": _Command("solve the fixed point at a stepsize",
                            _PROBLEM + ("alpha", "alpha_mult", "fp_tol"), _cmd_fixed_point),
    "sweep-contraction": _Command("Lipschitz constant over (0, 2 alpha0]",
                                  _PROBLEM + ("sweep_points",), _cmd_sweep_contraction,
                                  scenario="fig2_contraction"),
    "sweep-alpha": _Command("fixed-point gap over (0, alpha0]", _PROBLEM + ("sweep_points",),
                            _cmd_sweep_alpha),
    "run": _Command("run one algorithm and write its trace",
                    _PROBLEM + ("alpha", "alpha_mult", "alpha_pd", "run_iters", "gp_iters",
                                "no_fixed_point"),
                    _cmd_run, positional=("algorithm", ("gp", "pd", "hybrid"))),
    "reproduce": _Command("run a bundled scenario", _PROBLEM, _cmd_reproduce,
                          positional=("figure", tuple(hz.FIGURES)), scenario=None),
    "tune-pd": _Command("grid-search the Push-DIGing stepsize",
                        _PROBLEM + ("tune_grid_start", "tune_grid_step", "tune_budget",
                                    "tune_iters"), _cmd_tune_pd),
}


def build_parser():
    """The parser of every subcommand, built from the two tables: ``_FLAGS``
    declares each flag once and ``_COMMANDS`` lists each command's flags."""
    parser = _Parser(prog="pushopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.positional:
            dest, choices = command.positional
            p.add_argument(dest, choices=choices)
        for key in _COMMON + command.flags:
            flag, options = _FLAGS[key]
            p.add_argument(flag, dest=key, **options)
    return parser


def cli_main(argv):
    """Entry point; resolves the command's config once and hands it to the
    command's handler.  Returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        cfg = _gather_config(args, command.scenario or hz.FIGURES[args.figure])
        command.handler(cfg, args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}\n{_SCHEMA_HINT}", file=sys.stderr)
        return 1
    except ScenarioAssertionError as exc:  # a failed check, not a numeric failure
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a refused allocation, e.g. numpy's for a huge n
        print(f"failure: out of memory: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
