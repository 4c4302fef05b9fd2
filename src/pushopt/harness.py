"""Experiment configs, seeded scenario runs, CSV/JSON emission.

A scenario is a pure function of its config: the config embeds every seed,
grid size and tolerance, so rerunning with the same config reproduces each
emitted artifact byte for byte.  Scenarios write their CSVs plus a
``report.json`` with the resolved constants and the outcome of the inline
assertions, then raise ScenarioAssertionError if any assertion failed (the
artifacts are already on disk at that point).

Scenario families:

* ``fig2_contraction``: measured operator Lipschitz constant against the
  certified envelope 1 - C * alpha over (0, 2 alpha0].
* ``fig3_case1`` / ``fig5_case2``: convergence of a run to the fixed point
  at the stepsize ceiling, plus a fixed-point-to-optimum sweep over
  (0, alpha0] with the linear-in-alpha gap bound.
* ``fig4_case1_sweep`` / ``fig6_case2_sweep``: full run traces at stepsize
  multipliers including one super-critical value.
* ``fig1_hybrid``: gradient-push vs Push-DIGing vs the hybrid schedule on
  a larger regression instance.
* ``custom``: certificate (and optional fixed point) only, no assertions.
"""

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import costs as co
from . import network as nw
from . import operators as op
from .errors import AllDivergedError, ConfigError, ScenarioAssertionError
from .linalg import pi_norm

SCENARIOS = (
    "fig1_hybrid",
    "fig2_contraction",
    "fig3_case1",
    "fig4_case1_sweep",
    "fig5_case2",
    "fig6_case2_sweep",
    "custom",
)

# offset separating the cost stream from the network stream when only one
# master seed is given
COST_SEED_OFFSET = 1000003

# thresholds of the inline scenario assertions, shared with the acceptance gate
_PLATEAU_WINDOW = 50  # trailing trace entries averaged into a plateau
_ENVELOPE_SLACK_SCALE = 1e-12  # envelope allowance per unit of 1 + starting gap
_SLOPE_LOW = 0.85  # accepted log-log slope range of the fixed-point gap
_SLOPE_HIGH = 1.15
_FP_FLOOR = 1e-9  # fixed-point error target: the larger of this floor
_FP_REL = 1e-10  # and this fraction of the starting error


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int = 7
    n: int = 20
    p: float = 0.7
    net_seed: int = None
    case: str = "case1"
    d: int = None
    m: int = None
    m_rank: int = None
    delta_reg: float = None
    eps: float = None
    cost_seed: int = None
    alpha: float = None
    alpha_mult: float = None
    multipliers: tuple = (0.2, 0.5, 1.0)
    supercritical_mult: float = None
    alpha_gp: object = "alpha0"
    alpha_pd: object = "tuned"
    run_iters: int = 1000
    gp_iters: int = 100
    total_iters: int = 500
    fp_tol: float = 1e-12
    contraction_points: int = 200
    alpha_points: int = 40
    tune_grid_start: float = 1e-3
    tune_grid_step: float = 5e-6
    tune_budget: int = 200
    tune_iters: int = 500
    out_dir: str = "out"


_CASE_DEFAULTS = {
    "case1": {"d": 3, "m": 4, "delta_reg": 2.0},
    "case2": {"d": 10, "m_rank": 4, "eps": 0.01},
}

_SCENARIO_DEFAULTS = {
    "fig1_hybrid": {"case": "case1", "d": 10, "m": 10, "delta_reg": 0.1},
    "fig4_case1_sweep": {"supercritical_mult": 1.3},
    "fig6_case2_sweep": {"case": "case2", "supercritical_mult": 1.45},
    "fig5_case2": {"case": "case2"},
}

_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
_INT_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.type is int)
_FLOAT_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.type is float)


def resolve_config(payload):
    """Merge scenario and case defaults into a validated ExperimentConfig."""
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(payload) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    scenario = payload.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    merged = dict(_SCENARIO_DEFAULTS.get(scenario, {}))
    merged.update({k: v for k, v in payload.items() if v is not None})
    case = merged.get("case", "case1")
    if case not in _CASE_DEFAULTS:
        raise ConfigError(f"case must be 'case1' or 'case2', got {case!r}")
    for key, value in _CASE_DEFAULTS[case].items():
        merged.setdefault(key, value)
    if "multipliers" in merged:
        mults = merged["multipliers"]
        if not isinstance(mults, (list, tuple)) or not all(map(_finite_number, mults)):
            raise ConfigError(f"multipliers must be a list of finite numbers, got {mults!r}")
        merged["multipliers"] = tuple(float(v) for v in mults)
    cfg = ExperimentConfig(**merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    for name in _INT_KEYS:
        value = getattr(cfg, name)
        if value is not None and not _integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in _FLOAT_KEYS:
        value = getattr(cfg, name)
        if value is not None and not _finite_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {cfg.out_dir!r}")
    if cfg.n < 1:
        raise ConfigError("n must be >= 1")
    if not (0.0 < cfg.p <= 1.0):
        raise ConfigError("p must lie in (0, 1]")
    if cfg.case == "case1" and (cfg.m is None or cfg.delta_reg is None or cfg.delta_reg <= 0):
        raise ConfigError("case1 needs m and delta_reg > 0")
    if cfg.case == "case2" and (cfg.m_rank is None or cfg.eps is None or cfg.eps <= 0):
        raise ConfigError("case2 needs m_rank and eps > 0")
    if cfg.case == "case2" and cfg.n * cfg.m_rank < cfg.d:
        raise ConfigError(
            f"case2 needs n * m_rank >= d for a positive definite aggregate Hessian, "
            f"got n={cfg.n}, m_rank={cfg.m_rank}, d={cfg.d}"
        )
    for name in ("seed", "net_seed", "cost_seed", "run_iters", "gp_iters", "total_iters",
                 "contraction_points", "alpha_points", "tune_budget", "tune_iters", "fp_tol"):
        if (getattr(cfg, name) or 0) < 0:
            raise ConfigError(f"{name} must be nonnegative")
    if cfg.alpha_points < 2:
        raise ConfigError("alpha_points must be >= 2: the fixed-point sweep fits a slope")
    if cfg.contraction_points < 2:
        raise ConfigError("contraction_points must be >= 2: only points up to alpha0 are checked")
    if cfg.scenario == "fig1_hybrid" and cfg.gp_iters > cfg.total_iters:
        raise ConfigError("gp_iters must not exceed total_iters")
    if not cfg.multipliers or any(m <= 0 for m in cfg.multipliers):
        raise ConfigError("stepsize multipliers must be a nonempty list of positive values")
    swept = [m for m in (*cfg.multipliers, cfg.supercritical_mult) if m is not None]
    if len({f"{m:g}" for m in swept}) < len(swept):
        raise ConfigError(
            f"multipliers {list(cfg.multipliers)} and supercritical_mult "
            f"{cfg.supercritical_mult} must be distinct in their 6 significant digits: "
            "each one names its own trace_mult_<value>.csv"
        )
    for name, value in (("alpha", cfg.alpha), ("alpha_mult", cfg.alpha_mult),
                        ("supercritical_mult", cfg.supercritical_mult)):
        if value is not None and value <= 0:
            raise ConfigError(f"{name} must be positive")
    for name, keyword in (("alpha_gp", "alpha0"), ("alpha_pd", "tuned")):
        value = getattr(cfg, name)
        if value != keyword and not (_finite_number(value) and value > 0):
            raise ConfigError(f"{name} must be {keyword!r} or a positive number, got {value!r}")


def _integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite_number(value):
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and bool(np.isfinite(value)))


def config_to_dict(cfg):
    """Config as a plain dict without out_dir, so two runs of one config
    into different directories emit byte-identical reports."""
    out = asdict(cfg)
    del out["out_dir"]
    return out


def build_network(cfg):
    seed = cfg.net_seed if cfg.net_seed is not None else cfg.seed
    return nw.build_mixing_matrix(nw.generate_digraph(cfg.n, cfg.p, seed))


def build_ensemble(cfg):
    seed = cfg.cost_seed if cfg.cost_seed is not None else cfg.seed + COST_SEED_OFFSET
    if cfg.case == "case1":
        return co.make_case1_ensemble(cfg.n, cfg.d, cfg.m, cfg.delta_reg, seed)
    return co.make_case2_ensemble(cfg.n, cfg.d, cfg.m_rank, seed)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.17g}"


def write_csv(path, header, rows):
    """Write a CSV: 17 significant digits for floats, empty for None."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


TRACE_HEADER = ("t", "phase", "sum_z_err", "w_fp_err", "w_opt_err", "diverged")


def trace_to_csv(trace, path):
    """Write the canonical run-trace CSV, one row per RunRecord."""
    write_csv(path, TRACE_HEADER,
              [(r.t, r.phase, r.sum_z_err, r.w_fp_err, r.w_opt_err, int(r.diverged))
               for r in trace.records])


def write_json(path, payload):
    """Write JSON with a two-space indent and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def case_eps(cfg, ensemble):
    """The configured eps for a case2 ensemble; case1 needs none."""
    return cfg.eps if ensemble.case_tag == "case2" else None


def certify_config(cfg, net, ensemble, alpha=None):
    """The certificate of a config's instance, with its eps."""
    return op.certify(net, ensemble, eps=case_eps(cfg, ensemble), alpha=alpha)


def fit_loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def plateau_level(values):
    """Mean of the last ``_PLATEAU_WINDOW`` entries; the plateau read off a trace."""
    tail = np.asarray(values[-_PLATEAU_WINDOW:], dtype=float)
    return float(tail.mean())


def check_contraction_sweep(alphas, lipschitz, alpha0, rate):
    """Measured Lipschitz values must sit under 1 - C alpha up to the ceiling."""
    worst = -np.inf
    for a, lip in zip(alphas, lipschitz):
        if a <= alpha0 * (1 + 1e-12):
            worst = max(worst, lip - (1.0 - rate * a))
    return (worst <= op.CONTRACTION_SLACK,
            f"max excess over envelope {worst:.3e} (slack {op.CONTRACTION_SLACK:g})")


def check_envelope_domination(cert, fp_errors):
    """Distance-to-fixed-point trace under the certified envelope.

    The envelope clock starts at the first exchanged state (index 1), which
    is the point from which the limit-operator recursion provably drives
    the run; an additive allowance of ``_ENVELOPE_SLACK_SCALE * (1 + start)`` absorbs
    the floating-point floor both sides hit late in the run.
    """
    if len(fp_errors) < 3:
        return True, "trace too short to violate"
    start = fp_errors[1]
    slack = _ENVELOPE_SLACK_SCALE * (1.0 + start)
    worst = -np.inf
    for s in range(2, len(fp_errors)):
        env = op.convergence_envelope(cert, start, s - 2)
        worst = max(worst, fp_errors[s] - env - slack)
    return worst <= 0.0, f"max excess over envelope {worst:.3e}"


def check_rowwise_bound(errors, bounds):
    worst = float(np.max(np.asarray(errors) - np.asarray(bounds)))
    return worst <= 0.0, f"max error minus bound {worst:.3e}"


def check_slope(alphas, errors):
    slope = fit_loglog_slope(alphas, errors)
    return (_SLOPE_LOW <= slope <= _SLOPE_HIGH,
            f"log-log slope {slope:.4f} (want [{_SLOPE_LOW}, {_SLOPE_HIGH}])")


def check_fp_convergence(fp_errors):
    target = max(_FP_FLOOR, _FP_REL * fp_errors[0])
    best = float(np.min(fp_errors))
    return best <= target, f"min fixed-point error {best:.3e} vs target {target:.3e}"


def check_plateau_ordering(plateaus):
    ordered = all(a <= b * (1 + 1e-12) for a, b in zip(plateaus, plateaus[1:]))
    return ordered, f"plateaus {['%.4g' % p for p in plateaus]}"


# candidates per stacked tuning run: the default budget fits in one block,
# and one stacked array stays under 2**20 floats on large instances
_TUNE_BLOCK = 200
_TUNE_BLOCK_FLOATS = 1 << 20


def _pd_candidates(net, ensemble, alphas, x0, iters, x_star):
    """(diverged, first, last) of Push-DIGing from x0 at each stepsize.

    All stepsizes run as one stacked (K, n, d) state through ``pd_step``
    (see ``algorithms._sweep``), and each slice rounds exactly like its
    own run.  ``diverged`` flags a candidate whose block norms crossed the
    divergence threshold; it stops being stepped at that round.  ``first``
    and ``last`` are the starting and final ``sum_z_err`` (a flagged
    candidate's ``last`` is meaningless).
    """
    init = alg.init_pd_state(net, ensemble, x0)
    ends = alg._sweep(net, ensemble, alg.pd_step, alg.pd_diverged, ("x", "z", "v", "g"),
                      alphas, init, iters)
    with np.errstate(over="ignore", invalid="ignore"):
        last = [float(alg._sum_z_err(state.z, x_star)) for state, _ in ends]
    return [flag for _, flag in ends], float(alg._sum_z_err(init.z, x_star)), last


def tune_pd_stepsize(net, ensemble, grid_start, grid_step, budget, iters=500):
    """Walk the stepsize grid upward the way one tunes by hand.

    Each candidate runs Push-DIGing for ``iters`` rounds from zero; it
    qualifies if it neither trips the divergence flag nor ends above its
    starting error, and it replaces the selection when its final error
    ties or beats the best seen (so equal performance prefers the larger
    stepsize).  The scan stops at the first flagged divergence after a
    qualifier exists, or once a run ends three decades above the best.

    Candidates run as one stacked Push-DIGing run per block of grid points
    (the default budget is one block); the walk then replays these rules
    over the block in grid order and runs the next block only if it has
    not stopped.  Every candidate's outcome is bit-identical to running it
    on its own.

    Raises
    ------
    AllDivergedError
        If no grid point makes progress.
    """
    if grid_start <= 0 or grid_step <= 0 or budget < 1:
        raise ConfigError("tuning grid parameters must be positive")
    x_star = co.ensemble_minimizer(ensemble)
    x0 = np.zeros((net.n, ensemble.d))
    block = max(1, min(_TUNE_BLOCK, _TUNE_BLOCK_FLOATS // x0.size))
    best_alpha = None
    best_err = np.inf
    for start in range(0, budget, block):
        alphas = [grid_start + grid_step * k for k in range(start, min(start + block, budget))]
        diverged, first, lasts = _pd_candidates(net, ensemble, alphas, x0, iters, x_star)
        for a, flagged, last in zip(alphas, diverged, lasts):
            if flagged:
                if best_alpha is not None:
                    return best_alpha
                raise AllDivergedError(
                    f"first grid stepsize {a} already diverges; lower grid_start"
                )
            if not np.isfinite(last) or last >= first:
                if best_alpha is not None and (not np.isfinite(last) or last > 1e3 * max(best_err, 1e-300)):
                    return best_alpha
                continue
            if last <= best_err:
                best_alpha, best_err = a, last
            elif last > 1e3 * max(best_err, 1e-300):
                return best_alpha
    if best_alpha is None:
        raise AllDivergedError("no grid stepsize made progress within the budget")
    return best_alpha


def resolve_alpha(cfg, net, ensemble):
    """Working stepsize: ``alpha``, else ``alpha_mult`` times the ceiling,
    else the ceiling itself."""
    if cfg.alpha is not None:
        return cfg.alpha
    ceiling = op.stepsize_ceiling(net, ensemble, case_eps(cfg, ensemble))
    if cfg.alpha_mult is not None:
        return cfg.alpha_mult * ceiling
    return ceiling


def resolve_hybrid_stepsizes(cfg, net, ensemble, alpha0):
    """(alpha_gp, alpha_pd): ``"alpha0"`` takes the caller's ceiling and
    ``"tuned"`` runs the Push-DIGing tuner."""
    alpha_gp = alpha0 if cfg.alpha_gp == "alpha0" else float(cfg.alpha_gp)
    if cfg.alpha_pd == "tuned":
        alpha_pd = tune_pd_stepsize(net, ensemble, cfg.tune_grid_start,
                                    cfg.tune_grid_step, cfg.tune_budget,
                                    iters=cfg.tune_iters)
    else:
        alpha_pd = float(cfg.alpha_pd)
    return alpha_gp, alpha_pd


def fixed_point_sweep(cfg, net, ensemble, cert, out):
    """Fixed-point-to-optimum error and gap bound over (0, alpha0].

    Solves the fixed point at ``alpha_points`` evenly spaced stepsizes,
    writes ``fp_sweep.csv`` into ``out`` and returns (alphas, errors,
    bounds).
    """
    x_star = co.ensemble_minimizer(ensemble)
    points = cfg.alpha_points
    alphas = [cert.alpha0 * (i + 1) / points for i in range(points)]
    lips = op.lipschitz_sweep(net, ensemble, alphas)  # one stacked call for every solve
    errors, bounds = [], []
    for a, lip in zip(alphas, lips):
        sol = op.solve_fixed_point(op.OperatorContext(net, ensemble, a), tol=cfg.fp_tol,
                                   lipschitz=lip)
        errors.append(pi_norm(sol.w - np.outer(net.n * net.pi, x_star), net.pi))
        bounds.append(op.optimality_gap_bound(net, ensemble, cert, a))
    write_csv(out / "fp_sweep.csv", ("alpha", "fp_to_opt_err", "thm26_bound"),
              list(zip(alphas, errors, bounds)))
    return alphas, errors, bounds


@dataclass
class ExperimentReport:
    scenario: str
    config: dict
    constants: dict
    assertions: list
    manifest: list
    out_dir: str

    @property
    def passed(self):
        return all(a["passed"] for a in self.assertions)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "config": self.config,
            "constants": self.constants,
            "assertions": self.assertions,
            "manifest": self.manifest,
        }


def _assertion(name, result):
    passed, detail = result
    return {"name": name, "passed": bool(passed), "detail": detail}


def _finish(report, out):
    for name in report.manifest:
        path = Path(out) / name
        if not path.exists() or path.stat().st_size == 0:
            raise ScenarioAssertionError(f"manifest entry {name} missing or empty",
                                         report=report)
    write_json(Path(out) / "report.json", report.to_dict())
    if not report.passed:
        failed = [a["name"] for a in report.assertions if not a["passed"]]
        raise ScenarioAssertionError(
            f"scenario {report.scenario} assertions failed: {failed}", report=report
        )
    return report


def run_scenario(cfg):
    """Run one scenario; returns the report or raises ScenarioAssertionError."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net = build_network(cfg)
    ensemble = build_ensemble(cfg)
    runner = {
        "fig1_hybrid": _run_fig1,
        "fig2_contraction": _run_fig2,
        "fig3_case1": _run_fig35,
        "fig5_case2": _run_fig35,
        "fig4_case1_sweep": _run_fig46,
        "fig6_case2_sweep": _run_fig46,
        "custom": _run_custom,
    }[cfg.scenario]
    constants, assertions, manifest = runner(cfg, net, ensemble, out)
    report = ExperimentReport(scenario=cfg.scenario, config=config_to_dict(cfg),
                              constants=constants, assertions=assertions,
                              manifest=manifest, out_dir=str(out))
    return _finish(report, out)


def _base_constants(net, ensemble, cert):
    return {
        "n": net.n,
        "rho": net.rho,
        "pi_min": net.pi_min,
        "case": ensemble.case_tag,
        "L_max": ensemble.L_max,
        "L_bar": ensemble.L_bar,
        "mu_agg": ensemble.mu_agg,
        "alpha0": cert.alpha0,
        "contraction_rate": cert.contraction_rate,
        "consensus_coeff": cert.consensus_coeff,
        "inv_y_max": cert.inv_y_max,
        "radius": cert.radius,
        "grad0_norm": cert.grad0_norm,
        "gap_bound_at_alpha": cert.gap_bound,
        "legacy_threshold": cert.legacy_threshold,
    }


def _run_fig2(cfg, net, ensemble, out):
    alpha0, rate = op.contraction_constant(net, ensemble, case_eps(cfg, ensemble))
    points = cfg.contraction_points
    alphas = [2.0 * alpha0 * (i + 1) / points for i in range(points)]
    lips = op.lipschitz_sweep(net, ensemble, alphas)
    rows = [(a, lip, 1.0 - rate * a) for a, lip in zip(alphas, lips)]
    write_csv(out / "contraction_sweep.csv",
              ("alpha", "lipschitz", "contraction_envelope"), rows)
    constants = {"alpha0": alpha0, "contraction_rate": rate, "rho": net.rho,
                 "pi_min": net.pi_min, "case": ensemble.case_tag}
    assertions = [_assertion("lipschitz_under_envelope",
                             check_contraction_sweep(alphas, lips, alpha0, rate))]
    return constants, assertions, ["contraction_sweep.csv"]


def _run_fig35(cfg, net, ensemble, out):
    cert = certify_config(cfg, net, ensemble)
    x_star = co.ensemble_minimizer(ensemble)
    fp = op.solve_fixed_point(op.OperatorContext(net, ensemble, cert.alpha0),
                              tol=cfg.fp_tol, lipschitz=cert.lipschitz_alpha)
    refs = alg.RunRefs(x_star=x_star, w_fixed=fp.w)
    trace = alg.gp_run(net, ensemble, cert.alpha0, np.zeros((net.n, ensemble.d)),
                       cfg.run_iters, refs)
    fp_errors = trace.column("w_fp_err")
    write_csv(out / "fp_convergence.csv", ("t", "w_fp_err"),
              [(r.t, r.w_fp_err) for r in trace.records])
    alphas, errors, bounds = fixed_point_sweep(cfg, net, ensemble, cert, out)

    constants = _base_constants(net, ensemble, cert)
    constants["fixed_point_residual"] = fp.residual
    constants["gap_bounds_per_alpha"] = [[a, b] for a, b in zip(alphas, bounds)]
    assertions = [
        _assertion("fixed_point_convergence", check_fp_convergence(fp_errors)),
        _assertion("envelope_domination", check_envelope_domination(cert, fp_errors)),
        _assertion("gap_bound_rowwise", check_rowwise_bound(errors, bounds)),
        _assertion("gap_slope_linear", check_slope(alphas, errors)),
    ]
    return constants, assertions, ["fp_convergence.csv", "fp_sweep.csv"]


def _run_fig46(cfg, net, ensemble, out):
    cert = certify_config(cfg, net, ensemble)
    x_star = co.ensemble_minimizer(ensemble)
    refs = alg.RunRefs(x_star=x_star)
    multipliers = list(cfg.multipliers) + [cfg.supercritical_mult]
    traces = alg.gp_sweep(net, ensemble, [mult * cert.alpha0 for mult in multipliers],
                          np.zeros((net.n, ensemble.d)), cfg.run_iters, refs)
    manifest = []
    plateaus = []
    diverged = {}
    for mult, trace in zip(multipliers, traces):
        name = f"trace_mult_{mult:g}.csv"
        trace_to_csv(trace, out / name)
        manifest.append(name)
        diverged[f"{mult:g}"] = trace.diverged
        if mult in cfg.multipliers:
            plateaus.append(plateau_level(trace.column("w_opt_err")))
    bounds = [op.optimality_gap_bound(net, ensemble, cert, m * cert.alpha0)
              for m in cfg.multipliers]
    constants = _base_constants(net, ensemble, cert)
    constants["plateaus"] = plateaus
    constants["plateau_bounds"] = bounds
    constants["diverged"] = diverged
    assertions = [
        _assertion("plateau_ordering", check_plateau_ordering(plateaus)),
        _assertion("plateau_under_gap_bound",
                   check_rowwise_bound(plateaus, [b + cfg.fp_tol for b in bounds])),
    ]
    return constants, assertions, manifest


def _run_fig1(cfg, net, ensemble, out):
    cert = certify_config(cfg, net, ensemble)
    x_star = co.ensemble_minimizer(ensemble)
    refs = alg.RunRefs(x_star=x_star)
    alpha_gp, alpha_pd = resolve_hybrid_stepsizes(cfg, net, ensemble, cert.alpha0)
    x0 = np.zeros((net.n, ensemble.d))
    gp = alg.gp_run(net, ensemble, alpha_gp, x0, cfg.total_iters, refs)
    pd = alg.pd_run(net, ensemble, alpha_pd,
                    alg.init_pd_state(net, ensemble, x0), cfg.total_iters, refs)
    hybrid = alg.hybrid_run(net, ensemble, alpha_gp, alpha_pd, cfg.gp_iters,
                            cfg.total_iters, x0, refs)
    manifest = ["trace_gp.csv", "trace_pd.csv", "trace_hybrid.csv"]
    for name, trace in zip(manifest, (gp, pd, hybrid)):
        trace_to_csv(trace, out / name)
    constants = _base_constants(net, ensemble, cert)
    constants["alpha_gp"] = alpha_gp
    constants["alpha_pd"] = alpha_pd
    constants["final_sum_z_err"] = {
        "gp": gp.last().sum_z_err,
        "pd": pd.last().sum_z_err,
        "hybrid": hybrid.last().sum_z_err,
    }
    hybrid_wins = hybrid.last().sum_z_err <= pd.last().sum_z_err
    assertions = [_assertion(
        "hybrid_final_at_most_pd",
        (hybrid_wins,
         f"hybrid {hybrid.last().sum_z_err:.4e} vs pd {pd.last().sum_z_err:.4e}"),
    )]
    return constants, assertions, manifest


def _run_custom(cfg, net, ensemble, out):
    alpha = resolve_alpha(cfg, net, ensemble)
    cert = certify_config(cfg, net, ensemble, alpha=alpha)
    write_json(out / "certificate.json", op.certificate_to_dict(cert))
    manifest = ["certificate.json"]
    if cfg.alpha is not None or cfg.alpha_mult is not None:
        fp = op.solve_fixed_point(op.OperatorContext(net, ensemble, alpha),
                                  tol=cfg.fp_tol)
        write_json(out / "fixed_point.json", op.fixed_point_to_dict(fp))
        manifest.append("fixed_point.json")
    return _base_constants(net, ensemble, cert), [], manifest
