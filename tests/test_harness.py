import json

import numpy as np
import pytest

from pushopt import costs as co
from pushopt import harness as hz
from pushopt import network as nw
from pushopt.errors import (
    AllDivergedError,
    ConfigError,
    InvalidRateError,
    ScenarioAssertionError,
    ValidationError,
)


def test_resolve_config_scenario_defaults():
    cfg = hz.resolve_config({"scenario": "fig3_case1"})
    assert (cfg.case, cfg.d, cfg.m, cfg.delta_reg) == ("case1", 3, 4, 2.0)
    cfg = hz.resolve_config({"scenario": "fig5_case2"})
    assert (cfg.case, cfg.d, cfg.m_rank, cfg.eps) == ("case2", 10, 4, 0.01)
    cfg = hz.resolve_config({"scenario": "fig1_hybrid"})
    assert (cfg.d, cfg.m, cfg.delta_reg) == (10, 10, 0.1)
    assert cfg.alpha_gp == "alpha0" and cfg.alpha_pd == "tuned"
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
        hz.resolve_config({"scenario": "fig1_hybrid", "gp_iters": 10, "total_iters": 5})
    with pytest.raises(ConfigError):
        hz.resolve_config([1, 2])
    for key, value in (("alpha_gp", "tuned"), ("alpha_pd", 0.0), ("alpha_pd", "0.001"),
                       ("alpha_gp", float("nan"))):
        with pytest.raises(ConfigError, match=key):
            hz.resolve_config({"scenario": "fig1_hybrid", key: value})
    for scenario in ("fig3_case1", "fig5_case2"):
        for points in (-1, 0, 1):
            with pytest.raises(ConfigError, match="alpha_points"):
                hz.resolve_config({"scenario": scenario, "alpha_points": points})
    for points in (-1, 0, 1):
        with pytest.raises(ConfigError, match="contraction_points"):
            hz.resolve_config({"scenario": "fig2_contraction", "contraction_points": points})
    for scenario in ("fig4_case1_sweep", "fig6_case2_sweep"):
        with pytest.raises(ConfigError, match="multipliers"):
            hz.resolve_config({"scenario": scenario, "multipliers": []})
    # every swept multiplier is its own slice and names its own trace file
    for repeated in ({"supercritical_mult": 1.0}, {"multipliers": [0.5, 0.5, 1.0]},
                     {"multipliers": [0.2, 0.2000001]}):
        with pytest.raises(ConfigError, match="must be distinct"):
            hz.resolve_config({"scenario": "fig4_case1_sweep", **repeated})
    # total_iters bounds gp_iters only where it sets the round count, in fig1
    assert hz.resolve_config({"scenario": "custom", "gp_iters": 700}).gp_iters == 700


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
                             "seed": 3, "contraction_points": 17})
    assert cfg.case == "case2" and cfg.d == 10 and cfg.contraction_points == 17
    assert cfg.seed == 3
    cfg = hz.resolve_config({"scenario": "fig1_hybrid", "alpha_gp": 0.03, "alpha_pd": 1})
    assert (cfg.alpha_gp, cfg.alpha_pd) == (0.03, 1)


def test_builders_deterministic():
    cfg = hz.resolve_config({"scenario": "fig2_contraction", "seed": 5})
    a, b = hz.build_network(cfg), hz.build_network(cfg)
    assert np.array_equal(a.W, b.W)
    ea, eb = hz.build_ensemble(cfg), hz.build_ensemble(cfg)
    assert np.array_equal(ea.lin_stack, eb.lin_stack)


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "x.csv"
    hz.write_csv(path, ("a", "b", "c"), [(1, None, 0.1), ("gp", 2.5, 3)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == f"1,,{0.1:.17g}"
    assert lines[2] == f"gp,{2.5:.17g},3"


def test_loglog_slope_and_plateau():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert hz.fit_loglog_slope(x, 3.0 * x) == pytest.approx(1.0, abs=1e-12)
    assert hz.fit_loglog_slope(x, x**2) == pytest.approx(2.0, abs=1e-12)
    assert hz.plateau_level([0.0] * 100 + [2.0] * 50) == 2.0


def test_scenario_fig2_small_deterministic(tmp_path):
    payload = {"scenario": "fig2_contraction", "seed": 11, "contraction_points": 25}
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
        "alpha_points": 8, "out_dir": str(tmp_path),
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


def test_scenario_custom_emits_certificate(tmp_path):
    cfg = hz.resolve_config({
        "scenario": "custom", "seed": 11, "alpha_mult": 0.5,
        "out_dir": str(tmp_path),
    })
    report = hz.run_scenario(cfg)
    assert report.passed
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["alpha0"] > 0 and cert["contraction_rate"] > 0
    fp = json.loads((tmp_path / "fixed_point.json").read_text())
    assert fp["residual"] <= cfg.fp_tol


def test_scenario_custom_rejects_a_stepsize_above_the_ceiling(tmp_path):
    cfg = hz.resolve_config({
        "scenario": "custom", "seed": 11, "alpha_mult": 1.5, "out_dir": str(tmp_path),
    })
    with pytest.raises(InvalidRateError, match="alpha0"):
        hz.run_scenario(cfg)
    assert not (tmp_path / "certificate.json").exists()


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


def test_scenario_assertion_failure_still_writes_artifacts(tmp_path, monkeypatch):
    cfg = hz.resolve_config({
        "scenario": "fig2_contraction", "seed": 11, "contraction_points": 10,
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
