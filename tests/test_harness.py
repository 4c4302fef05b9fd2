import json
from types import SimpleNamespace

import numpy as np
import pytest

from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import harness as hz
from pushopt import network as nw
from pushopt import operators as op
from pushopt.errors import (
    AllDivergedError,
    ConfigError,
    ScenarioAssertionError,
    ValidationError,
)
from pushopt.linalg import pi_norm


def test_resolve_config_scenario_defaults():
    cfg = hz.resolve_config({"scenario": "fig3_case1"})
    assert (cfg.case, cfg.d, cfg.m, cfg.delta_reg) == ("case1", 3, 4, 2.0)
    cfg = hz.resolve_config({"scenario": "fig5_case2"})
    assert (cfg.case, cfg.d, cfg.m_rank, cfg.eps) == ("case2", 10, 4, 0.01)
    cfg = hz.resolve_config({"scenario": "fig1_hybrid"})
    assert (cfg.d, cfg.m, cfg.delta_reg) == (10, 10, 0.1)
    assert (cfg.alpha, cfg.alpha_mult, cfg.alpha_pd, cfg.run_iters) == (None, None, "tuned", 500)
    assert hz.resolve_config({"scenario": "fig2_contraction"}).sweep_points == 200
    assert hz.resolve_config({"scenario": "fig3_case1"}).sweep_points == 40
    cfg = hz.resolve_config({"scenario": "fig6_case2_sweep"})
    assert cfg.supercritical_mult == 1.45
    cfg = hz.resolve_config({"scenario": "fig4_case1_sweep"})
    assert cfg.supercritical_mult == 1.3


def test_resolve_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        hz.resolve_config({"scenario": "fig2_contraction", "bogus": 1})
    with pytest.raises(ConfigError):
        hz.resolve_config({"scenario": "nope"})
    with pytest.raises(ConfigError):
        hz.resolve_config({"scenario": "fig2_contraction", "p": 1.5})
    with pytest.raises(ConfigError):
        hz.resolve_config({"scenario": "fig1_hybrid", "gp_iters": 10, "run_iters": 5})
    with pytest.raises(ConfigError):
        hz.resolve_config([1, 2])
    for key, value in (("alpha", "tuned"), ("alpha_pd", 0.0), ("alpha_pd", "0.001"),
                       ("alpha", float("nan")), ("fp_tol", 0)):
        with pytest.raises(ConfigError, match=key):
            hz.resolve_config({"scenario": "fig1_hybrid", key: value})
    for scenario in ("fig2_contraction", "fig3_case1", "fig5_case2"):
        for points in (-1, 0, 1):
            with pytest.raises(ConfigError, match="sweep_points"):
                hz.resolve_config({"scenario": scenario, "sweep_points": points})
    for scenario in ("fig4_case1_sweep", "fig6_case2_sweep"):
        with pytest.raises(ConfigError, match="multipliers"):
            hz.resolve_config({"scenario": scenario, "multipliers": []})
    # every swept multiplier is its own slice and names its own trace file
    for repeated in ({"supercritical_mult": 1.0}, {"multipliers": [0.5, 0.5, 1.0]},
                     {"multipliers": [0.2, 0.2000001]}):
        with pytest.raises(ConfigError, match="must be distinct"):
            hz.resolve_config({"scenario": "fig4_case1_sweep", **repeated})
    # the tuner's grid and the cost dimensions are checked before any work
    for key, value in (("tune_grid_start", -1), ("tune_grid_start", 0), ("tune_grid_step", 0),
                       ("tune_budget", 0), ("tune_budget", -1)):
        with pytest.raises(ConfigError, match=key):
            hz.resolve_config({"scenario": "fig1_hybrid", key: value})
    for payload, match in (({"d": 0}, "d must be"), ({"m": 0}, "m >= 1"),
                           ({"case": "case2", "d": 0}, "d must be"),
                           ({"case": "case2", "m_rank": 0}, "1 <= m_rank < d"),
                           ({"case": "case2", "m_rank": 10}, "1 <= m_rank < d")):
        with pytest.raises(ConfigError, match=match):
            hz.resolve_config({"scenario": "fig2_contraction", **payload})
    # the config bounds gp_iters by run_iters only in fig1; `run hybrid` checks its own rounds
    cfg = hz.resolve_config({"scenario": "custom", "gp_iters": 700, "run_iters": 50})
    assert cfg.gp_iters == 700


@pytest.mark.parametrize("key, value", [
    ("n", "20"), ("n", 20.5), ("n", True), ("seed", -1), ("net_seed", "3"),
    ("tune_grid_start", "x"), ("fp_tol", "1e-12"), ("fp_tol", -1e-12), ("fp_tol", float("inf")),
    ("p", float("nan")), ("eps", "0.01"), ("multipliers", ["x"]),
    ("multipliers", 0.5), ("out_dir", 5),
])
def test_resolve_config_rejects_mistyped_numbers(key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must"):
        hz.resolve_config({"scenario": "fig5_case2", key: value})


def test_config_overrides_apply():
    cfg = hz.resolve_config({"scenario": "fig2_contraction", "case": "case2",
                             "seed": 3, "sweep_points": 17})
    assert cfg.case == "case2" and cfg.d == 10 and cfg.sweep_points == 17
    assert cfg.seed == 3
    cfg = hz.resolve_config({"scenario": "fig1_hybrid", "alpha": 0.03, "alpha_pd": 1})
    assert (cfg.alpha, cfg.alpha_pd) == (0.03, 1)


def test_builders_deterministic():
    cfg = hz.resolve_config({"scenario": "fig2_contraction", "seed": 5})
    a, b = hz.build_network(cfg), hz.build_network(cfg)
    assert np.array_equal(a.W, b.W)
    ea, eb = hz.build_ensemble(cfg), hz.build_ensemble(cfg)
    assert np.array_equal(ea.lin_stack, eb.lin_stack)


def test_write_csv_formatting(tmp_path, monkeypatch):
    path = tmp_path / "x.csv"
    hz.write_csv(path, ("a", "b", "c"), [(1, None, 0.1), ("gp", 2.5, 3)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == f"1,,{0.1:.17g}"
    assert lines[2] == f"gp,{2.5:.17g},3"
    # numpy scalars, bools and special floats: the artifacts' bytes depend on these spellings
    hz.write_csv(path, ("a",), [(np.int64(-7), np.float64(0.1), np.float32(0.1), True, False,
                                 float("nan"), float("inf"), -float("inf"), -0.0, 1e-300)])
    assert path.read_bytes() == (b"a\n-7,0.10000000000000001,0.10000000149011612,1,0,"
                                 b"nan,inf,-inf,-0,1e-300\n")
    # rows are written in blocks: blocks of 3 rows give the bytes of one block,
    # for a row count that fills its last block and one that does not
    for count in (6, 7, 0):
        rows = [(i, "gp" if i % 2 else None, i / 7, np.float64(-i)) for i in range(count)]
        hz.write_csv(path, ("t", "s", "a", "b"), rows)
        whole = path.read_bytes()
        with monkeypatch.context() as patched:
            patched.setattr(hz, "_CSV_BLOCK_ROWS", 3)
            hz.write_csv(path, ("t", "s", "a", "b"), iter(rows))
        assert path.read_bytes() == whole and whole.count(b"\n") == count + 1


def test_trace_csv_has_the_bytes_of_write_csv(tmp_path):
    """A None column leaves empty fields, and so does w_fp_err from the
    phase switch on; non-finite values, a negative zero and the flagged
    last row are formatted as write_csv formats them."""
    nan, inf = float("nan"), float("inf")
    trace = alg.RunTrace(t0=3, switch=2,
                         sum_z_err=np.array([0.1, 1 / 3, nan, inf, 2.5e-300]),
                         w_fp_err=np.array([7e22, -0.0]), w_opt_err=None, diverged=True,
                         final_state=SimpleNamespace(t=7))
    rows = [(3, "gp", 0.1, 7e22, None, False), (4, "gp", 1 / 3, -0.0, None, False),
            (5, "pd", nan, None, None, False), (6, "pd", inf, None, None, False),
            (7, "pd", 2.5e-300, None, None, True)]
    assert len(trace) == 5
    hz.trace_to_csv(trace, tmp_path / "trace.csv")
    hz.write_csv(tmp_path / "rows.csv", alg.TRACE_FIELDS, rows)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes() == (
        b"t,phase,sum_z_err,w_fp_err,w_opt_err,diverged\n"
        b"3,gp,0.10000000000000001,7.0000000000000004e+22,,0\n"
        b"4,gp,0.33333333333333331,-0,,0\n5,pd,nan,,,0\n6,pd,inf,,,0\n7,pd,2.5e-300,,,1\n")


def test_loglog_slope_and_plateau():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert hz.fit_loglog_slope(x, 3.0 * x) == pytest.approx(1.0, abs=1e-12)
    assert hz.fit_loglog_slope(x, x**2) == pytest.approx(2.0, abs=1e-12)
    assert hz.plateau_level([0.0] * 100 + [2.0] * 50) == 2.0


def test_scenario_fig2_small_deterministic(tmp_path):
    payload = {"scenario": "fig2_contraction", "seed": 11, "sweep_points": 25}
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    ra = hz.run_scenario(hz.resolve_config({**payload, "out_dir": str(out_a)}))
    rb = hz.run_scenario(hz.resolve_config({**payload, "out_dir": str(out_b)}))
    assert ra.passed and rb.passed
    for name in ("contraction_sweep.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_scenario_fig3_small(tmp_path):
    cfg = hz.resolve_config({
        "scenario": "fig3_case1", "seed": 11, "run_iters": 400,
        "sweep_points": 8, "out_dir": str(tmp_path),
    })
    report = hz.run_scenario(cfg)
    assert report.passed
    data = json.loads((tmp_path / "report.json").read_text())
    assert {a["name"] for a in data["assertions"]} == {
        "fixed_point_convergence", "envelope_domination",
        "gap_bound_rowwise", "gap_slope_linear",
    }
    sweep = (tmp_path / "fp_sweep.csv").read_text().splitlines()
    assert sweep[0] == "alpha,fp_to_opt_err,thm26_bound"
    assert len(sweep) == 9
    conv = (tmp_path / "fp_convergence.csv").read_text().splitlines()
    assert conv[0] == "t,w_fp_err"
    assert len(conv) == 402


@pytest.mark.parametrize("scenario,seed,on_grid", [
    ("fig5_case2", 7, True),    # the default draw: alpha0 * 40 / 40 == alpha0
    ("fig3_case1", 0, False),   # that grid point rounds away from alpha0
])
def test_fixed_point_sweep_solves_the_ceiling_and_the_grid_in_one_call(
        tmp_path, monkeypatch, scenario, seed, on_grid):
    cfg = hz.resolve_config({"scenario": scenario, "seed": seed,
                             "out_dir": str(tmp_path / "run")})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    alpha0 = op.stepsize_ceiling(net, ens, hz.case_eps(cfg, ens))
    points = cfg.sweep_points
    assert (alpha0 * points / points == alpha0) is on_grid
    runs, real_run = [], alg.gp_run
    stacks, real_solve = [], op.solve_fixed_points

    def run(net, ensemble, alpha, x0, iters, refs):
        runs.append((alpha, refs.w_fixed))
        return real_run(net, ensemble, alpha, x0, iters, refs)

    def solve(net, ensemble, alphas, *args, **kwargs):
        stacks.append(list(alphas))
        return real_solve(net, ensemble, alphas, *args, **kwargs)

    monkeypatch.setattr(alg, "gp_run", run)
    monkeypatch.setattr(op, "solve_fixed_points", solve)
    assert hz.run_scenario(cfg).passed
    grid = [alpha0 * (i + 1) / points for i in range(points)]
    assert stacks == [grid if on_grid else grid + [alpha0]]
    monkeypatch.setattr(op, "solve_fixed_points", real_solve)

    def alone(a):
        return op.solve_fixed_point(op.OperatorContext(net, ens, a), tol=cfg.fp_tol)

    # fp_convergence.csv is the run's distance to the fixed point at alpha0
    [(alpha, w_fixed)] = runs
    assert alpha == alpha0 and np.array_equal(w_fixed, alone(alpha0).w)
    # fp_sweep.csv has the bytes of one solve per stepsize
    cert = hz.certify_config(cfg, net, ens)
    target = np.outer(net.n * net.pi, co.ensemble_minimizer(ens))
    rows = [(a, pi_norm(alone(a).w - target, net.pi), op.optimality_gap_bound(net, ens, cert, a))
            for a in grid]
    hz.write_csv(tmp_path / "oracle.csv", ("alpha", "fp_to_opt_err", "thm26_bound"), rows)
    assert (tmp_path / "run" / "fp_sweep.csv").read_bytes() == (
        tmp_path / "oracle.csv").read_bytes()


def test_scenario_fig4_small(tmp_path):
    cfg = hz.resolve_config({
        "scenario": "fig4_case1_sweep", "seed": 11, "run_iters": 500,
        "out_dir": str(tmp_path),
    })
    report = hz.run_scenario(cfg)
    assert report.passed
    assert sorted(report.constants["diverged"]) == ["0.2", "0.5", "1", "1.3"]
    for name in report.manifest:
        assert (tmp_path / name).exists()


def test_run_scenario_rejects_custom_before_any_work(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(hz, "build_network", lambda cfg: built.append(cfg))
    cfg = hz.resolve_config({"scenario": "custom", "alpha_mult": 0.5,
                             "out_dir": str(tmp_path / "o")})
    with pytest.raises(ConfigError, match="only selects defaults"):
        hz.run_scenario(cfg)
    assert built == [] and not (tmp_path / "o").exists()


def test_tune_pd_single_agent_walks_to_stability_edge():
    net = nw.build_mixing_matrix(nw.make_digraph(1, []))
    ens = co.cost_ensemble([co.quadratic_cost(np.eye(1), np.array([-1.0]))], "case1")
    # gradient descent on x^2/2 - x from x=0: stable below 2, best near 1;
    # long runs underflow the error to zero, so ties resolve toward larger steps
    alpha = hz.tune_pd_stepsize(net, ens, grid_start=0.5, grid_step=0.5,
                                budget=6, iters=2000)
    assert alpha == 1.5  # largest grid point below the stability bound 2


def test_tune_pd_all_diverged():
    net = nw.build_mixing_matrix(nw.make_digraph(1, []))
    ens = co.cost_ensemble([co.quadratic_cost(np.eye(1), np.array([-1.0]))], "case1")
    with pytest.raises(AllDivergedError):
        hz.tune_pd_stepsize(net, ens, grid_start=10.0, grid_step=1.0,
                            budget=4, iters=300)
    # a negative round count is a typed error, not zero rounds without progress
    with pytest.raises(ValidationError, match=">= 0"):
        hz.tune_pd_stepsize(net, ens, grid_start=0.5, grid_step=0.5, budget=4, iters=-1)
    # as is a grid the config check would refuse, for a caller that skips the config
    with pytest.raises(ConfigError, match="grid parameters"):
        hz.tune_pd_stepsize(net, ens, grid_start=0.5, grid_step=0.5, budget=0, iters=300)


def test_scenario_assertion_failure_still_writes_artifacts(tmp_path, monkeypatch):
    cfg = hz.resolve_config({
        "scenario": "fig2_contraction", "seed": 11, "sweep_points": 10,
        "out_dir": str(tmp_path),
    })
    # force the inline predicate to fail; the artifacts must still land
    monkeypatch.setattr(hz, "check_contraction_sweep",
                        lambda *a, **k: (False, "forced"))
    with pytest.raises(ScenarioAssertionError) as err:
        hz.run_scenario(cfg)
    assert (tmp_path / "contraction_sweep.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert err.value.report is not None and not err.value.report.passed


def test_envelope_check_passes_a_trace_too_short_to_violate(net20, ens_case1):
    """The envelope clock starts at index 1, so a run of at most one round
    (``run_iters`` 0 or 1) has no point to compare."""
    cert = op.certify(net20, ens_case1)
    for errors in ([], [1.0], [1.0, 0.5]):
        assert hz.check_envelope_domination(cert, errors) == (True, "trace too short to violate")
    assert hz.check_envelope_domination(cert, [1.0, 0.5, 1e3])[0] is False
