import argparse
import json
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import errors
from pushopt import harness as hz
from pushopt import network as nw
from pushopt import operators as op
from pushopt.cli import _SCHEMA_HINT, build_parser, cli_main
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
    # keys folded into others are unknown now
    for key in ("total_iters", "alpha_gp", "cost_seed", "contraction_points", "alpha_points"):
        bad.write_text(json.dumps({key: 5}))
        assert cli_main(["reproduce", "fig2", "--config", str(bad),
                         "--out-dir", str(tmp_path / "o")]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, below", [(["certify"], None), (["reproduce", "fig2"], "sub"),
                                         (["run", "gp"], None)],
                         ids=["certify-file", "reproduce-fig2-under-file", "run-gp-file"])
def test_out_dir_that_cannot_be_a_directory_exits_one(tmp_path, monkeypatch, capsys, args, below):
    built = _count_calls(monkeypatch, hz, "build_network")
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    assert cli_main(args + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {str(out)!r}")
    assert built == [] and blocker.read_text() == ""


def test_numeric_failure_exit_two(tmp_path):
    code = cli_main(["gen-net", "--n", "30", "--p", "0.001", "--seed", "1",
                     "--out-dir", str(tmp_path)])
    assert code == 2


def test_a_refused_allocation_exits_two_in_one_line(tmp_path, monkeypatch, capsys):
    # numpy's own MemoryError, raised where the n x n arc draw would allocate 7.28 TiB
    from numpy._core._exceptions import _ArrayMemoryError

    class Refusing:
        def random(self, shape):
            raise _ArrayMemoryError(shape, np.dtype(float))

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Refusing())
    assert cli_main(["gen-net", "--n", "1000000", "--p", "0.5",
                     "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: out of memory: Unable to allocate 7.28 TiB")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_every_package_error_maps_to_an_exit_code():
    """cli_main catches ValidationError (exit 1) and NumericError (exit 2):
    every other package error derives from one of them, and no code raises
    the bare base class."""
    found = [c for c in vars(errors).values()
             if isinstance(c, type) and issubclass(c, errors.PushOptError)]
    below, seen = [errors.PushOptError], set()
    while below:  # subclasses defined outside errors too
        for sub in below.pop().__subclasses__():
            below.append(sub)
            seen.add(sub)
    assert len(found) > 10 and seen >= set(found) - {errors.PushOptError}
    for cls in seen:
        assert issubclass(cls, (errors.ValidationError, errors.NumericError)), cls
    for path in Path(errors.__file__).parent.glob("*.py"):
        assert "raise PushOptError" not in path.read_text(), path


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


@pytest.mark.parametrize("args, config", [
    (["reproduce", "fig1"], {"tune_grid_start": -1}),
    (["reproduce", "fig1"], {"tune_budget": 0}),
    (["reproduce", "fig2", "--d", "0"], None),
    (["reproduce", "fig2", "--m", "0"], None),
    (["certify", "--case", "case2", "--m-rank", "0"], None),
], ids=["grid-start", "budget", "d", "m", "m-rank"])
def test_bad_sizes_and_tuning_grid_exit_one_before_any_work(tmp_path, monkeypatch, capsys,
                                                            args, config):
    built = _count_calls(monkeypatch, hz, "build_network")
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "c.json")]
    assert cli_main(args + ["--out-dir", str(tmp_path / "o")]) == 1
    assert "n * m_rank" not in capsys.readouterr().err
    assert built == [] and not (tmp_path / "o").exists()


# the case1 closed-form rate is conservative: at seed 4 even 2 C still holds
@pytest.mark.parametrize("case, factor", [("case1", 3.0), ("case2", 1.001)])
def test_certify_overclaiming_rate_exits_two(tmp_path, monkeypatch, capsys, case, factor):
    real = op._contraction_rate
    monkeypatch.setattr(op, "_contraction_rate", lambda *args: factor * real(*args))
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
    cfgfile.write_text(json.dumps({"scenario": "fig2_contraction", "sweep_points": 3}))
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
    assert "gp_iters (100) must not exceed run_iters (50)" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"gp_iters": 600}))
    assert cli_main(["reproduce", "fig1", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert "gp_iters (600) must not exceed run_iters (500)" in capsys.readouterr().err
    assert tuned == [] and built == [] and not (tmp_path / "o").exists()


def test_reproduce_fig1_case2_certifies_with_the_configured_eps(tmp_path):
    assert cli_main(["reproduce", "fig1", "--case", "case2",
                     "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["eps"] == 0.01
    assert all(a["passed"] for a in report["assertions"])


def test_certify_and_fixed_point_take_alpha_mult(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpha_mult": 0.5}))
    for command in ("certify", "fixed-point"):
        assert cli_main([command, "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["alpha0"] > 0 and cert["contraction_rate"] > 0
    assert cert["alpha"] == 0.5 * cert["alpha0"] == 0.08297079678321885
    fp = json.loads((tmp_path / "fixed_point.json").read_text())
    assert fp["residual"] <= 1e-12


def test_certify_command_rejects_a_stepsize_above_the_ceiling(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpha_mult": 1.5}))
    assert cli_main(["certify", "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
    assert "alpha0" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_run_hybrid_warm_starts_at_the_configured_alpha(tmp_path):
    assert cli_main(["run", "hybrid", "--alpha", "0.05", "--alpha-pd", "0.001", "--iters", "200",
                     "--gp-iters", "50", "--out-dir", str(tmp_path)]) == 0
    cfg = hz.resolve_config({"scenario": "custom"})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    trace = alg.hybrid_run(net, ens, 0.05, 0.001, 50, 200, np.zeros((net.n, ens.d)),
                           alg.RunRefs(x_star=co.ensemble_minimizer(ens)))
    hz.trace_to_csv(trace, tmp_path / "expected.csv")
    assert (tmp_path / "run_hybrid.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_reproduce_fig1_runs_run_iters_rounds(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"run_iters": 50, "gp_iters": 20}))
    assert cli_main(["reproduce", "fig1", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "o")]) == 0
    for name in ("trace_gp.csv", "trace_pd.csv", "trace_hybrid.csv"):
        assert len((tmp_path / "o" / name).read_text().splitlines()) == 1 + 51


def test_every_flag_sets_a_config_key_and_the_docs_list_every_key():
    fields = set(hz.ExperimentConfig.__dataclass_fields__)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = sorted({(command, action.dest) for command, parser in sub.choices.items()
                    for action in parser._actions
                    if action.option_strings and not isinstance(action, argparse._HelpAction)})
    assert [(c, d) for c, d in dests if d not in fields | {"config", "no_fixed_point"}] == []
    docs = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    listed = re.findall(r"^\| `(\w+)` \|", docs, flags=re.M)
    assert sorted(listed) == sorted(fields)


_COMMON = [("--config", "config", None), ("--seed", "seed", int), ("--out-dir", "out_dir", None)]
_PROBLEM = [("--n", "n", int), ("--p", "p", float), ("--case", "case", ("case1", "case2")),
            ("--d", "d", int), ("--m", "m", int), ("--m-rank", "m_rank", int),
            ("--delta-reg", "delta_reg", float), ("--eps", "eps", float)]
# (flag, dest, type or choices) of every subparser, in order
PARSER_OPTIONS = {
    "gen-net": _COMMON + [("--n", "n", int), ("--p", "p", float)],
    "gen-costs": _COMMON + _PROBLEM,
    "certify": _COMMON + _PROBLEM,
    "fixed-point": _COMMON + _PROBLEM + [("--alpha", "alpha", float),
                                         ("--alpha-mult", "alpha_mult", float),
                                         ("--tol", "fp_tol", float)],
    "sweep-contraction": _COMMON + _PROBLEM + [("--points", "sweep_points", int)],
    "sweep-alpha": _COMMON + _PROBLEM + [("--points", "sweep_points", int)],
    "run": _COMMON + _PROBLEM + [("--alpha", "alpha", float),
                                 ("--alpha-mult", "alpha_mult", float),
                                 ("--alpha-pd", "alpha_pd", float),
                                 ("--iters", "run_iters", int),
                                 ("--gp-iters", "gp_iters", int),
                                 ("--no-fixed-point", "no_fixed_point", "store_true")],
    "reproduce": _COMMON + _PROBLEM,
    "tune-pd": _COMMON + _PROBLEM + [("--grid-start", "tune_grid_start", float),
                                     ("--grid-step", "tune_grid_step", float),
                                     ("--budget", "tune_budget", int),
                                     ("--iters", "tune_iters", int)],
}
PARSER_POSITIONALS = {"run": [("algorithm", ("gp", "pd", "hybrid"))],
                      "reproduce": [("figure", ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"))]}


def test_every_subparser_declares_its_flags_in_order():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(PARSER_OPTIONS)
    for command, parser in sub.choices.items():
        options = [(*a.option_strings, a.dest, "store_true"
                    if isinstance(a, argparse._StoreTrueAction) else a.choices or a.type)
                   for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        assert options == PARSER_OPTIONS[command], command
        positionals = [(a.dest, tuple(a.choices)) for a in parser._actions if not a.option_strings]
        assert positionals == PARSER_POSITIONALS.get(command, []), command


@pytest.mark.parametrize("command", [[]] + [[c] for c in PARSER_OPTIONS],
                         ids=["top"] + list(PARSER_OPTIONS))
def test_help_exits_zero(capsys, command):
    assert cli_main(command + ["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: pushopt", *command]))
    assert ("Exit codes: 0 success" in out) == (command == [])


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config file: "),
    ("{not json", "config file is not valid JSON: "),
    ("[1, 2]", "config file must hold a JSON object"),
    ('{"case": "case3"}', "case must be 'case1' or 'case2', got 'case3'"),
], ids=["unreadable", "not-json", "list", "case3"])
def test_a_bad_config_file_exits_one_with_its_own_message(tmp_path, capsys, content, message):
    cfgfile = tmp_path / "cfg.json"
    if content is not None:
        cfgfile.write_text(content)
    assert cli_main(["certify", "--config", str(cfgfile), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.endswith(f"\n{_SCHEMA_HINT}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("algorithm, flag, instead", [
    ("pd", ["--alpha-pd", "0.01"], "takes --alpha"),
    ("gp", ["--alpha-pd", "0.01"], "takes --alpha"),
    ("gp", ["--gp-iters", "5"], "takes --iters"),
    ("pd", ["--gp-iters", "0"], "takes --iters"),
    ("pd", ["--no-fixed-point"], "writes no fixed-point column"),
    ("hybrid", ["--no-fixed-point"], "writes no fixed-point column"),
], ids=["pd-alpha-pd", "gp-alpha-pd", "gp-gp-iters", "pd-gp-iters", "pd-no-fixed-point",
        "hybrid-no-fixed-point"])
def test_run_rejects_an_explicit_flag_its_algorithm_ignores(tmp_path, monkeypatch, capsys,
                                                            algorithm, flag, instead):
    built = _count_calls(monkeypatch, hz, "build_network")
    assert cli_main(["run", algorithm, *flag, "--iters", "5",
                     "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: run {algorithm} ignores {flag[0]}, which only run ")
    assert f"; run {algorithm} {instead}\n" in err
    assert built == [] and not (tmp_path / "o").exists()


def test_run_reads_alpha_pd_and_gp_iters_of_a_config_file_as_before(tmp_path):
    """One config file serves many commands, so its keys are not refused."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpha_pd": 0.01, "gp_iters": 5}))
    for algorithm in ("gp", "pd"):
        args = ["run", algorithm, "--iters", "5", "--out-dir"]
        assert cli_main(args + [str(tmp_path / "cfg"), "--config", str(cfgfile)]) == 0
        assert cli_main(args + [str(tmp_path / "plain")]) == 0
        name = f"run_{algorithm}.csv"
        assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_fixed_point_command(tmp_path):
    assert cli_main(["fixed-point", "--seed", "4", "--alpha-mult", "0.5",
                     "--out-dir", str(tmp_path)]) == 0
    fp = json.loads((tmp_path / "fixed_point.json").read_text())
    assert fp["residual"] <= 1e-12 and fp["bound"] <= 1e-12
    assert len(fp["w"]) == 20


def test_fixed_point_negative_tolerance_exits_one(tmp_path, capsys):
    for tol in ("-1", "0", "inf"):
        assert cli_main(["fixed-point", "--alpha-mult", "0.5", "--seed", "7", f"--tol={tol}",
                         "--out-dir", str(tmp_path)]) == 1
        assert "fp_tol" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"fp_tol": -1e-12}))
    assert cli_main(["fixed-point", "--alpha-mult", "0.5", "--seed", "7",
                     "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
    assert "fp_tol" in capsys.readouterr().err
    assert not (tmp_path / "fixed_point.json").exists()


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
    cfgfile.write_text(json.dumps({"sweep_points": 6}))
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


def test_zero_errors_fail_the_slope_in_one_line_without_a_warning(tmp_path, capsys):
    """On this complete graph two fixed-point-to-optimum errors are exactly 0,
    so the log-log slope is undefined: gap_slope_linear fails and says why."""
    args = ["reproduce", "fig3", "--n", "6", "--p", "1.0", "--seed", "19", "--d", "1",
            "--m", "3", "--delta-reg", "1e-06", "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "failure: " in err and "gap_slope_linear" in err
    report = json.loads((tmp_path / "report.json").read_text())
    (slope,) = [a for a in report["assertions"] if a["name"] == "gap_slope_linear"]
    assert not slope["passed"]
    assert slope["detail"] == "log-log slope undefined: 2 of 40 errors are zero or non-finite"


def test_a_failed_check_prints_failure_not_numeric_failure(tmp_path, capsys):
    """A failed scenario check is no numeric failure: it exits 2 as one
    ``failure:`` line."""
    args = ["reproduce", "fig3", "--n", "6", "--p", "1.0", "--seed", "19", "--d", "1",
            "--m", "3", "--delta-reg", "1e-06", "--out-dir", str(tmp_path)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: scenario ") and err.count("\n") == 1


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
    cfgfile.write_text(json.dumps({"seed": 9, "sweep_points": 30}))
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
    assert cli_main(["tune-pd", "--seed", "4", "--config", str(cfgfile)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 < value < 2.0


def test_tune_pd_refuses_out_dir_but_not_the_config_key(tmp_path, monkeypatch, capsys):
    """tune-pd writes no file: an explicit --out-dir is refused before any
    work, while out_dir in a config file, which serves many commands, is not."""
    monkeypatch.chdir(tmp_path)
    tuned = _count_calls(monkeypatch, hz, "tune_pd_stepsize")
    args = ["tune-pd", "--n", "1", "--d", "1", "--m", "1", "--budget", "2", "--iters", "10"]
    assert cli_main(args + ["--out-dir", "o"]) == 1
    assert "tune-pd writes no file, so it takes no --out-dir" in capsys.readouterr().err
    assert tuned == [] and not (tmp_path / "o").exists()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"out_dir": "o"}))
    assert cli_main(args + ["--config", str(cfgfile)]) == 0
    assert float(capsys.readouterr().out) > 0.0
    assert len(tuned) == 1 and list(tmp_path.iterdir()) == [cfgfile]


def _contract_settings(tmp_path):
    """A seeded sample of 150 settings on small draws, both cost cases, some
    of them invalid on purpose.  The first 60 are fixed-point, sweep-alpha
    and reproduce fig3/fig5 settings with varied tolerances and sweep
    lengths.  The other 90 cover every other command: gen-net, gen-costs,
    sweep-contraction, tune-pd, certify at an ``alpha`` or ``alpha_mult``
    from a config file (multiples above 1 too), run gp/pd/hybrid and
    reproduce fig1/fig2/fig4/fig6, with at most 60 rounds a run or tuning
    run and at most 8 tuning runs."""
    rng = np.random.default_rng(13)
    commands = (["fixed-point"], ["sweep-alpha"], ["reproduce", "fig3"], ["reproduce", "fig5"])
    settings = []
    for i in range(60):
        args, d, case = list(commands[i % len(commands)]), rng.choice([2, 3, 10]), i // 4 % 2
        args += ["--n", str(rng.choice([1, 2, 3, 4, 5, 6, 10])),
                 "--p", str(rng.choice([0.3, 0.6, 1.0])),
                 "--seed", str(rng.integers(0, 50)),
                 "--case", f"case{case + 1}", "--d", str(d)]
        if case:
            args += ["--m-rank", str(rng.integers(1, d))]
        if args[0] == "fixed-point":
            args += ["--tol", str(rng.choice([1e-16, 1e-14, 1e-12, 1e-10, 0.0]))]
        if args[0] == "sweep-alpha":
            args += ["--points", str(rng.choice([1, 2, 3, 7, 40]))]
        settings.append(args)
    rng = np.random.default_rng(14)
    commands = ("gen-net", "gen-costs", "sweep-contraction", "tune-pd", "certify", "run gp",
                "run pd", "run hybrid", "reproduce fig1", "reproduce fig2", "reproduce fig4",
                "reproduce fig6")
    for i in range(90):
        command, d, case = commands[i % len(commands)], rng.choice([2, 3, 10]), i // 12 % 2
        iters, config = str(rng.choice([1, 10, 60])), {}
        p = [0.0, 0.01, 0.3, 0.6, 1.0, 1.5] if command == "gen-net" else [0.3, 0.6, 1.0]
        args = command.split() + ["--n", str(rng.choice(7, p=[0.04] + [0.16] * 6)),
                                  "--p", str(rng.choice(p)),
                                  "--seed", str(rng.integers(0, 50))]
        if command != "gen-net":
            args += ["--case", f"case{case + 1}", "--d", str(d)]
            args += ["--m-rank", str(rng.integers(1, d))] if case else ["--m", str(rng.choice([1, 4]))]
        if command == "sweep-contraction":
            args += ["--points", str(rng.choice([1, 2, 3, 7, 40]))]
        if command == "reproduce fig2":
            config = {"sweep_points": int(rng.choice([1, 2, 3, 7, 40]))}
        if command == "tune-pd":
            args += ["--grid-start", str(rng.choice([-1e-3, 1e-4, 1e-3, 0.01, 0.1, 1.0])),
                     "--grid-step", str(rng.choice([1e-3, 0.01, 0.05])),
                     "--budget", str(rng.integers(1, 9)), "--iters", iters]
        if command == "certify":
            if rng.random() < 0.5:
                config = {"alpha": float(rng.choice([-0.1, 1e-3, 0.05, 0.3, 2.0]))}
            else:
                config = {"alpha_mult": float(rng.choice([0.25, 0.5, 1.0, 1.5, 3.0]))}
        if command == "run gp":
            args += ["--alpha-mult", str(rng.choice([0.5, 1.0, 1.5, 2.5])), "--iters", iters]
        if command == "run pd":
            args += ["--alpha", str(rng.choice([1e-3, 0.01, 0.1, 1.0])), "--iters", iters]
        if command == "run hybrid":
            args += ["--alpha-pd", str(rng.choice([1e-3, 0.01, 0.1])), "--iters", iters,
                     "--gp-iters", str(rng.choice([0, 5, 30]))]
        if command == "reproduce fig1":
            config = {"run_iters": int(iters), "gp_iters": int(rng.integers(0, int(iters) + 2)),
                      "tune_budget": int(rng.integers(1, 9)), "tune_iters": int(iters)}
        if command in ("reproduce fig4", "reproduce fig6"):
            config = {"run_iters": int(iters)}
        if config:
            (tmp_path / f"config{i}.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / f"config{i}.json")]
        settings.append(args)
    return settings


def test_exit_code_contract_on_a_sample_of_fixed_point_settings(tmp_path, capsys):
    """Each setting exits 0, 1 or 2 with no exception or warning escaping, and
    a non-zero exit says why in one line that starts with ``error:``,
    ``numeric failure:`` or ``failure:`` (an exit 1 adds the schema hint)."""
    codes = []
    for i, args in enumerate(_contract_settings(tmp_path)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = [] if args[0] == "tune-pd" else ["--out-dir", str(tmp_path / str(i))]
            code = cli_main(args + out)
        err = capsys.readouterr().err
        assert not caught, (args, [str(w.message) for w in caught])
        assert code in (0, 1, 2), args
        if code:
            first, *rest = err.splitlines()
            assert first.startswith(("error: ", "numeric failure: ", "failure: ")), (args, err)
            assert rest == ([] if code == 2 else [_SCHEMA_HINT]), (args, err)
        codes.append(code)
    assert set(codes) == {0, 1, 2}  # the sample reaches every exit code
