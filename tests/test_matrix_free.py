"""The matrix-free, stacked operator-Lipschitz sweep.

``lipschitz_sweep`` applies the pi-weighted limit operator and its transpose
blockwise and never forms the nd x nd matrix.  Its values must agree with
the dense path (``dense_lipschitz_oracle``) to 1e-13 relative, each stacked
value must have the bits of its own one-stepsize call however the stack is
chunked, neither a Lipschitz estimate nor a fixed-point solve may form an
(nd)^2 array, and a sweep's chunks must keep to their memory budget.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import dense_lipschitz_oracle
from pushopt import cli
from pushopt import harness as hz
from pushopt import operators as op
from pushopt.errors import DimensionMismatchError, InvalidRateError
from test_acceptance import CASE1_SEEDS, CASE2_SEEDS, _make_instance

REL = 1e-13


def assert_agrees_with_dense(net, ens, alphas):
    lips = op.lipschitz_sweep(net, ens, alphas)
    dense = np.array([dense_lipschitz_oracle(op.OperatorContext(net, ens, a)) for a in alphas])
    assert lips.shape == dense.shape
    assert np.max(np.abs(lips - dense) / dense) <= REL
    return lips


def scenario_instance(scenario, **overrides):
    cfg = hz.resolve_config({"scenario": scenario, **overrides})
    net, ens = hz.build_network(cfg), hz.build_ensemble(cfg)
    return net, ens, op.stepsize_ceiling(net, ens, hz.case_eps(cfg, ens))


@pytest.fixture(scope="module")
def fig4_n400():
    return scenario_instance("fig4_case1_sweep", n=400)


@pytest.mark.parametrize("case,seed", [("case1", s) for s in CASE1_SEEDS]
                         + [("case2", s) for s in CASE2_SEEDS])
def test_agrees_with_dense_on_the_gate_instances(case, seed):
    inst = _make_instance(seed, case)
    alphas = 2.0 * inst.alpha0 * np.arange(1, 21) / 20
    assert_agrees_with_dense(inst.net, inst.ensemble, alphas)


def test_agrees_with_dense_on_the_fig2_sweep():
    net, ens, alpha0 = scenario_instance("fig2_contraction")
    alphas = [2.0 * alpha0 * (i + 1) / 200 for i in range(200)]
    assert hz.resolve_config({"scenario": "fig2_contraction"}).sweep_points == 200
    assert_agrees_with_dense(net, ens, alphas)


def test_agrees_with_dense_at_n400(fig4_n400):
    net, ens, alpha0 = fig4_n400
    assert_agrees_with_dense(net, ens, [alpha0])


def test_agrees_with_dense_on_a_sparse_draw():
    # p = 1.5 ln n / n: the Lanczos kernel needs its most steps here, about 74
    net, ens, alpha0 = scenario_instance("fig5_case2", n=100, p=0.0691, seed=0)
    assert_agrees_with_dense(net, ens, [alpha0 / 40, alpha0 / 2, alpha0])


@pytest.mark.parametrize("scenario", ["fig2_contraction", "fig5_case2"])
def test_stacked_values_have_the_bits_of_one_stepsize_calls(scenario, monkeypatch):
    net, ens, alpha0 = scenario_instance(scenario)
    alphas = [2.0 * alpha0 * (i + 1) / 40 for i in range(40)]
    single = [float(op.lipschitz_sweep(net, ens, [a])[0]) for a in alphas]
    per_slice = net.n * ens.d * ens.d + 4 * net.n * ens.d
    # the default budget holds 312 (fig2) resp. 46 (fig5) slices: all 40 in one chunk
    assert op._CHUNK_FLOATS // per_slice >= len(alphas)
    for chunk in (None, 1, 4, 7, 40):
        if chunk is not None:
            monkeypatch.setattr(op, "_CHUNK_FLOATS", chunk * per_slice)
        assert op.lipschitz_sweep(net, ens, alphas).tolist() == single


def test_operator_lipschitz_at_n400_allocates_no_dense_operator(fig4_n400):
    net, ens, alpha0 = fig4_n400
    ctx = op.OperatorContext(net, ens, alpha0)
    op.operator_lipschitz(ctx)  # warm up lazy imports and caches
    dense_bytes = (net.n * ens.d) ** 2 * 8  # one (nd)^2 float array: 11.5 MB
    tracemalloc.start()
    try:
        op.operator_lipschitz(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


def test_lipschitz_sweep_at_n400_holds_its_chunk_budget():
    # fig5 at --n 400 --p 0.03: two slices a chunk, with their S blocks and
    # Lanczos vectors; a budget of 2^17 Lanczos-vector floats alone would
    # take 32, whose (32, k, k) tridiagonals peak near 20 MB
    net, ens, alpha0 = scenario_instance("fig5_case2", n=400, p=0.03)
    alphas = [alpha0 * (i + 1) / 40 for i in range(40)]
    op.lipschitz_sweep(net, ens, alphas[:1])  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        op.lipschitz_sweep(net, ens, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_empty_sweep_returns_an_empty_array(net20, ens_case1):
    lips = op.lipschitz_sweep(net20, ens_case1, [])
    assert isinstance(lips, np.ndarray) and lips.shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_sweep_rejects_a_nonpositive_or_nonfinite_stepsize(net20, ens_case1, bad):
    with pytest.raises(InvalidRateError, match="positive and finite"):
        op.lipschitz_sweep(net20, ens_case1, [0.01, bad, 0.02])


def test_sweep_rejects_mismatched_sizes(net20, complete4, ens_case1):
    with pytest.raises(DimensionMismatchError, match="4 agents, ensemble 20"):
        op.lipschitz_sweep(complete4, ens_case1, [0.01])
    with pytest.raises(DimensionMismatchError, match="1-D"):
        op.lipschitz_sweep(net20, ens_case1, [[0.01, 0.02]])


def test_context_and_fixed_point_solve_reject_a_2d_stepsize(net20, ens_case1):
    """Valid stepsizes in a 2-D array are a shape error, as in the sweep."""
    with pytest.raises(DimensionMismatchError, match="1-D"):
        op.OperatorContext(net20, ens_case1, [[0.1, 0.2]])
    with pytest.raises(DimensionMismatchError, match="1-D"):
        op.solve_fixed_points(net20, ens_case1, [[0.1, 0.2]])


def test_a_bad_stepsize_is_named_alone_and_a_scalar_sweep_is_a_shape_error(net20, ens_case1):
    """The one shared check names the first bad stepsize, not the whole
    array, and the sweep still asks for a 1-D sequence."""
    with pytest.raises(InvalidRateError) as info:
        op.solve_fixed_points(net20, ens_case1, [0.01] * 39 + [-1.0])
    assert str(info.value).endswith("got -1.0")
    with pytest.raises(InvalidRateError, match=r"got nan$"):
        op.OperatorContext(net20, ens_case1, [0.01, np.nan, -1.0])
    with pytest.raises(DimensionMismatchError, match="1-D"):
        op.lipschitz_sweep(net20, ens_case1, 0.01)


@pytest.mark.parametrize("figure,solves", [("fig2", 0), ("fig4", 0), ("fig5", 41)])
def test_lipschitz_sweeps_and_fixed_point_solves_per_figure(figure, solves, tmp_path, monkeypatch):
    sweeps, stacks = [], []
    real_sweep, real_solve = op.lipschitz_sweep, op.solve_fixed_points

    def sweep(net, ensemble, alphas):
        sweeps.append(len(alphas))
        return real_sweep(net, ensemble, alphas)

    def solve(net, ensemble, alphas, *args, **kwargs):
        stacks.append(len(alphas))
        return real_solve(net, ensemble, alphas, *args, **kwargs)

    monkeypatch.setattr(op, "lipschitz_sweep", sweep)
    monkeypatch.setattr(op, "solve_fixed_points", solve)
    assert cli.cli_main(["reproduce", figure, "--out-dir", str(tmp_path)]) == 0
    # fig2: one 200-point sweep (the case1 rate needs none); fig4: the
    # certificate's one estimate; fig5: the certificate's estimate at the
    # ceiling, then one 40-point sweep for the fixed-point solves
    assert sweeps == {"fig2": [200], "fig4": [1], "fig5": [1, 40]}[figure]
    # fig5 uses 41 fixed points, the ceiling's and the sweep's, in one stack:
    # the sweep's last point alpha0 * 40 / 40 equals alpha0 at this seed
    assert stacks == {"fig2": [], "fig4": [], "fig5": [solves - 1]}[figure]


def test_fixed_point_solve_at_n100_allocates_no_dense_operator(monkeypatch):
    net, ens, alpha0 = scenario_instance("fig5_case2", n=100)
    ctx = op.OperatorContext(net, ens, alpha0)
    lip = op.lipschitz_sweep(net, ens, [alpha0])
    monkeypatch.setattr(op, "lipschitz_sweep", lambda net, ens, alphas: lip)
    op.solve_fixed_point(ctx)  # warm up lazy imports and caches
    dense_bytes = (net.n * ens.d) ** 2 * 8  # one (nd)^2 float array: 8 MB
    tracemalloc.start()
    try:
        op.solve_fixed_point(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4
