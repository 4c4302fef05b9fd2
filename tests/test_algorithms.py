import tracemalloc

import numpy as np
import pytest

from pushopt import algorithms as alg
from pushopt import costs as co
from pushopt import harness as hz
from pushopt import network as nw
from pushopt import operators as op
from pushopt.errors import DimensionMismatchError, ValidationError
from pushopt.linalg import pi_norm


def tiny_problem():
    net = nw.build_mixing_matrix(nw.make_digraph(1, []))
    ens = co.cost_ensemble([co.quadratic_cost(np.eye(1), np.zeros(1))], "case1")
    return net, ens


def w_form_recursion(net, ensemble, alpha, x0, steps):
    """Independent mixed-state-only recursion used as the cross-check oracle.

    Starts from the first exchanged state w(1) = W x(0), y(1) = W 1 and
    applies w <- W (w - alpha grad F(w / y)) afterwards.
    """
    w = net.W @ x0
    y = net.W @ np.ones(net.n)
    out = [w.copy()]
    for _ in range(steps - 1):
        w = net.W @ (w - alpha * co.grad_stack(ensemble, w / y[:, None]))
        y = net.W @ y
        out.append(w.copy())
    return out


def test_gp_step_hand_trace():
    net, ens = tiny_problem()
    state = alg.init_gp_state(net, ens, np.array([[1.0]]))
    state = alg.gp_step(net, ens, 1.0, state)
    assert state.w == np.array([[1.0]])
    assert state.y == np.array([1.0])
    assert state.z == np.array([[1.0]])
    assert state.x == np.array([[0.0]])


def test_gp_run_rejects_a_misshapen_start(net20, ens_case1):
    for shape in ((net20.n, ens_case1.d + 1), (net20.n - 1, ens_case1.d), (net20.n,)):
        with pytest.raises(DimensionMismatchError, match="initial state"):
            alg.gp_run(net20, ens_case1, 0.01, np.zeros(shape), 5)


def test_steps_reject_a_state_of_another_shape(net20, ens_case1):
    # an (n, 2d) state would otherwise pass as two (n, d) slices of mixed coordinates
    n, d = net20.n, ens_case1.d
    for shape in ((n, 2 * d), (n, d + 1), (n - 1, d), (3, n, d + 1)):
        x = np.zeros(shape)
        gp = alg.GradientPushState(t=0, x=x, w=x, z=x, y=np.ones(n))
        pd = alg.PushDigingState(t=0, x=x, z=x, v=x, g=x, y=np.ones(n))
        for step, state in ((alg.gp_step, gp), (alg.pd_step, pd)):
            with pytest.raises(DimensionMismatchError, match="state"):
                step(net20, ens_case1, 0.01, state)


def test_gp_weights_stay_one_for_doubly_stochastic(complete4):
    ens = co.cost_ensemble(
        [co.quadratic_cost(np.eye(2), np.ones(2)) for _ in range(4)], "case1"
    )
    state = alg.init_gp_state(complete4, ens, np.zeros((4, 2)))
    for _ in range(20):
        state = alg.gp_step(complete4, ens, 0.1, state)
        assert np.allclose(state.y, 1.0, atol=1e-14)
        assert np.allclose(state.z, state.w, atol=1e-14)


def test_gp_matches_mixed_state_recursion(net20, ens_case1):
    rng = np.random.default_rng(30)
    alpha = 0.05
    x0 = rng.standard_normal((net20.n, ens_case1.d))
    trace = alg.gp_run(net20, ens_case1, alpha, x0, 100)
    state = alg.init_gp_state(net20, ens_case1, x0)
    ws = []
    for _ in range(100):
        state = alg.gp_step(net20, ens_case1, alpha, state)
        ws.append(state.w)
    oracle = w_form_recursion(net20, ens_case1, alpha, x0, 100)
    for mine, ref in zip(ws, oracle):
        assert np.max(np.abs(mine - ref)) <= 1e-12


def test_push_sum_mass_conserved(net20, ens_case1):
    gp = alg.init_gp_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    pd = alg.init_pd_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    for _ in range(60):
        gp = alg.gp_step(net20, ens_case1, 0.05, gp)
        pd = alg.pd_step(net20, ens_case1, 0.001, pd)
        assert abs(gp.y.sum() - net20.n) <= 1e-10
        assert abs(pd.y.sum() - net20.n) <= 1e-10


def test_inverse_weights_track_limit(net20, ens_case1):
    coeff, _ = op.estimate_consensus_constants(net20)
    state = alg.init_gp_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    target = 1.0 / (net20.n * net20.pi)
    for t in range(1, 81):
        state = alg.gp_step(net20, ens_case1, 0.05, state)
        gap = np.max(np.abs(1.0 / state.y - target))
        assert gap <= coeff * net20.rho**t + 1e-12


def test_gp_zero_stepsize_reaches_average_consensus(net20, ens_case1):
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal((net20.n, ens_case1.d))
    state = alg.init_gp_state(net20, ens_case1, x0)
    for _ in range(200):
        state = alg.gp_step(net20, ens_case1, 0.0, state)
    avg = x0.mean(axis=0)
    assert np.max(np.abs(state.z - avg[None, :])) <= 1e-12


def test_pd_single_agent_is_gradient_descent():
    net, ens = tiny_problem()
    state = alg.init_pd_state(net, ens, np.array([[1.0]]))
    xs = [1.0]
    for _ in range(10):
        state = alg.pd_step(net, ens, 0.3, state)
        xs.append(float(state.x[0, 0]))
    ref = 1.0
    for k in range(1, 11):
        ref = ref - 0.3 * ref
        assert xs[k] == pytest.approx(ref, abs=1e-15)


def test_pd_gradient_sum_conserved(net20, ens_case1):
    state = alg.init_pd_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    for _ in range(50):
        state = alg.pd_step(net20, ens_case1, 0.002, state)
        tracked = state.v.sum(axis=0)
        actual = co.grad_stack(ens_case1, state.z).sum(axis=0)
        assert np.max(np.abs(tracked - actual)) <= 1e-10


def test_pd_default_init_and_empty_run(net20, ens_case1):
    x0 = np.zeros((net20.n, ens_case1.d))
    init = alg.init_pd_state(net20, ens_case1, x0)
    assert np.array_equal(init.v, co.grad_stack(ens_case1, x0))
    assert np.all(init.y == 1.0)
    trace = alg.pd_run(net20, ens_case1, 0.001, init, 0)
    assert len(trace) == 1 and trace.t0 == 0 and trace.sum_z_err is None


def test_pd_run_decays_geometrically(net20, ens_case1):
    x_star = co.ensemble_minimizer(ens_case1)
    init = alg.init_pd_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    trace = alg.pd_run(net20, ens_case1, 0.004, init, 1500, alg.RunRefs(x_star=x_star))
    err = trace.sum_z_err
    # fitted tail rate strictly below one after burn-in
    tail = err[500:]
    rate = np.exp(np.polyfit(np.arange(len(tail)), np.log(tail), 1)[0])
    assert rate < 1.0
    assert err[-1] < err[500] < err[0]


def test_trace_records_strictly_increasing_and_flags(net20, ens_case1):
    x_star = co.ensemble_minimizer(ens_case1)
    alpha0, _ = op.contraction_constant(net20, ens_case1)
    trace = alg.gp_run(net20, ens_case1, 5.0 * alpha0,
                       np.ones((net20.n, ens_case1.d)), 400,
                       alg.RunRefs(x_star=x_star))
    ts, flags = zip(*trace.rows(("t", "diverged")))
    assert all(b - a == 1 for a, b in zip(ts, ts[1:]))
    assert trace.diverged
    assert flags[-1] and not flags[0]
    assert len(trace) < 401  # truncated at the flagged row
    # flag matches the documented threshold on the preceding row
    assert not flags[-2]


def test_divergence_threshold_definition(net20, ens_case1):
    state = alg.init_gp_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    assert alg.gp_diverged(state) is False
    big = alg.GradientPushState(
        t=0,
        x=np.full((net20.n, ens_case1.d), 2e12),
        w=state.w, z=state.z, y=state.y,
    )
    assert alg.gp_diverged(big)
    # a stacked (K, n, d) state gets one flag per candidate
    stack = np.stack([state.x, big.x, state.x + np.nan])
    flags = alg.gp_diverged(alg.GradientPushState(t=0, x=stack, w=stack, z=stack, y=state.y))
    assert flags.tolist() == [False, True, True]


def test_hybrid_edges_match_pure_runs(net20, ens_case1):
    x_star = co.ensemble_minimizer(ens_case1)
    refs = alg.RunRefs(x_star=x_star)
    x0 = np.zeros((net20.n, ens_case1.d))
    alpha0, _ = op.contraction_constant(net20, ens_case1)

    pure_pd = alg.pd_run(net20, ens_case1, 0.003,
                         alg.init_pd_state(net20, ens_case1, x0), 50, refs)
    all_pd = alg.hybrid_run(net20, ens_case1, alpha0, 0.003, 0, 50, x0, refs)
    assert all_pd.sum_z_err.tolist() == pure_pd.sum_z_err.tolist()
    assert {phase for (phase,) in all_pd.rows(("phase",))} == {"pd"}

    pure_gp = alg.gp_run(net20, ens_case1, alpha0, x0, 50, refs)
    all_gp = alg.hybrid_run(net20, ens_case1, alpha0, 0.003, 50, 50, x0, refs)
    assert all_gp.sum_z_err.tolist() == pure_gp.sum_z_err.tolist()
    assert {phase for (phase,) in all_gp.rows(("phase",))} == {"gp"}


def test_hybrid_handoff_structure(net20, ens_case1):
    x_star = co.ensemble_minimizer(ens_case1)
    refs = alg.RunRefs(x_star=x_star)
    x0 = np.zeros((net20.n, ens_case1.d))
    alpha0, _ = op.contraction_constant(net20, ens_case1)
    trace = alg.hybrid_run(net20, ens_case1, alpha0, 0.003, 20, 60, x0, refs)
    ts, phases = map(list, zip(*trace.rows(("t", "phase"))))
    assert phases[:21] == ["gp"] * 21
    assert phases[21:] == ["pd"] * 40
    assert ts == list(range(61))
    # the handoff reuses the warm-started mixed state, so the pd phase
    # starts from the gp phase's error level, not from scratch
    assert trace.sum_z_err[21] <= 2.0 * trace.sum_z_err[20]


# at 20 alpha0 the warm start is flagged on x alone, so the handoff state
# (w, z, grad F(z)) is itself under the divergence threshold
@pytest.mark.parametrize("mult", [5.0, 20.0])
def test_hybrid_stops_at_a_diverged_warm_start(net20, ens_case1, mult):
    x_star = co.ensemble_minimizer(ens_case1)
    alpha0, _ = op.contraction_constant(net20, ens_case1)
    trace = alg.hybrid_run(net20, ens_case1, mult * alpha0, 0.003, 300, 500,
                           np.ones((net20.n, ens_case1.d)), alg.RunRefs(x_star=x_star))
    flags, phases = map(list, zip(*trace.rows(("diverged", "phase"))))
    assert trace.diverged and flags.index(True) == len(flags) - 1
    assert trace.switch is None and phases[-1] == "gp"


@pytest.mark.parametrize("gp_iters", [0, 1, 20, 60])
def test_hybrid_trace_switches_phase_at_gp_iters(net20, ens_case1, gp_iters):
    """Rows through round gp_iters are gradient-push rows (none when the
    run is all Push-DIGing), the rest Push-DIGing rows."""
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1))
    alpha0, _ = op.contraction_constant(net20, ens_case1)
    trace = alg.hybrid_run(net20, ens_case1, alpha0, 0.003, gp_iters, 60,
                           np.zeros((net20.n, ens_case1.d)), refs)
    gp_rows = gp_iters + 1 if gp_iters else 0
    phases = [phase for (phase,) in trace.rows(("phase",))]
    assert phases == ["gp"] * gp_rows + ["pd"] * (61 - gp_rows)
    assert len(trace) == len(trace.sum_z_err) == len(trace.w_opt_err) == 61


def test_a_flagged_trace_ends_at_its_first_flagged_row(net20, ens_case1):
    """Stacked or single, a flagged trace's last row is the first round
    whose state is flagged, and only that row carries the flag."""
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1))
    alpha0, _ = op.contraction_constant(net20, ens_case1)
    x0 = np.ones((net20.n, ens_case1.d))
    alphas = [0.5 * alpha0, 5.0 * alpha0, 20.0 * alpha0]
    swept = alg.gp_sweep(net20, ens_case1, alphas, x0, 400, refs)
    for alpha, stacked in zip(alphas, swept):
        single = alg.gp_run(net20, ens_case1, alpha, x0, 400, refs)
        for trace in (stacked, single):
            state = trace.final_state
            assert trace.diverged == (alpha > alpha0) == alg.gp_diverged(state)
            assert len(trace) == len(trace.sum_z_err) == state.t + 1
            flags = [flag for (flag,) in trace.rows(("diverged",))]
            assert flags == [False] * state.t + [trace.diverged]
            if trace.diverged:
                assert not alg.gp_run(net20, ens_case1, alpha, x0, state.t - 1).diverged
    init = alg.init_pd_state(net20, ens_case1, x0)
    trace = alg.pd_run(net20, ens_case1, 0.2, init, 300, refs)
    assert trace.diverged and alg.pd_diverged(trace.final_state)
    assert not alg.pd_run(net20, ens_case1, 0.2, init, trace.final_state.t - 1).diverged
    assert len(trace.sum_z_err) == trace.final_state.t + 1


def test_a_trace_holds_its_columns_and_writes_its_csv_in_blocks(net20, ens_case1, tmp_path):
    """A 20,000-round run keeps at most 40 bytes a round (three float64
    columns take 24), and writing its CSV adds at most 1 MB."""
    iters = 20000
    x0 = np.zeros((net20.n, ens_case1.d))
    refs = alg.RunRefs(x_star=co.ensemble_minimizer(ens_case1), w_fixed=x0)
    alpha0, _ = op.contraction_constant(net20, ens_case1)
    alg.gp_run(net20, ens_case1, alpha0, x0, 5, refs)  # warm every cache first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = alg.gp_run(net20, ens_case1, alpha0, x0, iters, refs)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        hz.trace_to_csv(trace, tmp_path / "trace.csv")
        written = tracemalloc.get_traced_memory()[1] - before - held
    finally:
        tracemalloc.stop()
    assert len(trace) == iters + 1
    assert held <= 40 * (iters + 1), held
    assert written <= 1 << 20, written


def test_hybrid_validation(net20, ens_case1):
    x0 = np.zeros((net20.n, ens_case1.d))
    with pytest.raises(ValidationError):
        alg.hybrid_run(net20, ens_case1, 0.1, 0.001, 10, 5, x0)
    # the shared round loop's own checks, reached through every run
    init = alg.init_pd_state(net20, ens_case1, x0)
    with pytest.raises(ValidationError, match="at least one stepsize"):
        alg._sweep(net20, ens_case1, alg._pd_round, alg.pd_diverged, ("x", "z", "v", "g"), [],
                   init, 5)
    with pytest.raises(ValidationError, match=">= 0"):
        alg.pd_run(net20, ens_case1, 0.001, init, -1)


def test_sweep_writes_each_round_in_place_into_its_block_buffers(monkeypatch, net20, ens_case1):
    # a stack's rounds go into one buffer per field, a slot a round, and never
    # onto the state they read: at one round per block two slots take turns
    written = []
    kernel = alg._pd_round

    def counted(net, alpha, grad, state, new, y):
        assert not any(np.shares_memory(getattr(state, n), getattr(new, n)) for n in "xzvg")
        written.append((new.x.base, new.x.ctypes.data))
        kernel(net, alpha, grad, state, new, y)

    monkeypatch.setattr(alg, "_pd_round", counted)
    init = alg.init_pd_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    for rounds in (1, 3):  # rounds per block of the 2-slice, 4-field stack
        monkeypatch.setattr(alg, "_ROUND_BLOCK_FLOATS", rounds * 4 * 2 * net20.n * ens_case1.d)
        written.clear()
        alg._sweep(net20, ens_case1, alg._pd_round, alg.pd_diverged, ("x", "z", "v", "g"),
                   [0.001, 0.002], init, 7)
        assert len(written) == 7 and all(base is written[0][0] for base, _ in written)
        assert len({slot for _, slot in written}) == max(rounds, 2)


def test_sweep_releases_the_stack_a_retirement_replaces(monkeypatch, net20, ens_case1):
    # past the first divergence, the live stacks' block buffers must not be held twice
    traced = []
    kernel = alg._pd_round

    def counted(net, alpha, grad, state, new, y):
        traced.append((len(alpha), tracemalloc.get_traced_memory()[0]))
        kernel(net, alpha, grad, state, new, y)

    monkeypatch.setattr(alg, "_pd_round", counted)
    init = alg.init_pd_state(net20, ens_case1, np.zeros((net20.n, ens_case1.d)))
    tracemalloc.start()
    try:
        alg._sweep(net20, ens_case1, alg._pd_round, alg.pd_diverged, ("x", "z", "v", "g"),
                   list(np.geomspace(0.01, 1.0, 40)), init, 30)
    finally:
        tracemalloc.stop()
    first = next(r for r in range(1, len(traced)) if traced[r][0] < traced[r - 1][0])
    (before, _), (after, _) = traced[first - 1], traced[first]
    n, d = net20.n, ens_case1.d

    def buffers(k):  # bytes of the block buffers of a k-slice stack
        slot = 4 * k * n * d
        return max(2, alg._ROUND_BLOCK_FLOATS // slot) * slot * 8

    # the new stack's buffers replace the old ones and the retirees' final
    # states are held on top; past that, growth stays under one field
    held = buffers(after) - buffers(before) + (before - after) * (4 * n * d + n) * 8
    one_field = 40 * n * d * 8
    assert traced[first][1] - traced[first - 1][1] < held + one_field


def test_runs_stay_under_certified_envelope(net20, ens_case1):
    from pushopt.harness import check_envelope_domination

    for mult in (0.2, 0.5, 1.0):
        cert = op.certify(net20, ens_case1)
        cert_a = op.certify(net20, ens_case1,
                            alpha=mult * cert.alpha0)
        fp = op.solve_fixed_point(
            op.OperatorContext(net20, ens_case1, mult * cert.alpha0), tol=1e-12)
        trace = alg.gp_run(net20, ens_case1, mult * cert.alpha0,
                           np.zeros((net20.n, ens_case1.d)), 600,
                           alg.RunRefs(w_fixed=fp.w))
        ok, detail = check_envelope_domination(cert_a, trace.w_fp_err)
        assert ok, detail


def test_trace_csv_format(tmp_path, net20, ens_case1):
    x_star = co.ensemble_minimizer(ens_case1)
    trace = alg.gp_run(net20, ens_case1, 0.05, np.zeros((net20.n, ens_case1.d)), 3,
                       alg.RunRefs(x_star=x_star))
    path = tmp_path / "trace.csv"
    hz.trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phase,sum_z_err,w_fp_err,w_opt_err,diverged"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "gp" and first[5] == "0"
    assert first[3] == ""  # no fixed-point reference supplied
    value = float(first[2])
    assert f"{value:.17g}" == first[2]


def test_trace_csv_empty_refs(tmp_path, net20, ens_case1):
    trace = alg.gp_run(net20, ens_case1, 0.05, np.zeros((net20.n, ens_case1.d)), 2)
    path = tmp_path / "trace.csv"
    hz.trace_to_csv(trace, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[2] == row[3] == row[4] == ""
