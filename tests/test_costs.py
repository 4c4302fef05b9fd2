import json

import numpy as np
import pytest

from pushopt import costs as co
from pushopt import harness as hz
from pushopt.errors import (
    DimensionMismatchError,
    FailedAggregatePDError,
    SingularSystemError,
    ValidationError,
)


def cost_value(cost, x):
    """Independent function-value oracle for finite differences."""
    if cost.kind == "quadratic":
        return 0.5 * x @ cost.hess @ x + cost.lin @ x
    r = cost.A @ x - cost.b
    return 0.5 * (r @ r + cost.delta_reg * x @ x)


def fd_gradient(cost, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (cost_value(cost, x + e) - cost_value(cost, x - e)) / (2 * h)
    return g


def test_gradient_trivial_cases():
    quad = co.quadratic_cost(np.eye(2), np.zeros(2))
    assert np.allclose(quad.gradient(np.array([1.0, 0.0])), [1.0, 0.0])
    ls = co.least_squares_cost(np.eye(3), np.zeros(3), 2.0)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(ls.gradient(x), 3.0 * x)
    with pytest.raises(DimensionMismatchError):
        quad.gradient(np.zeros(3))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            G = rng.standard_normal((d, d))
            cost = co.quadratic_cost(G @ G.T, rng.standard_normal(d))
        else:
            m = int(rng.integers(1, 6))
            cost = co.least_squares_cost(rng.random((m, d)), rng.random(m), 1.5)
        x = rng.standard_normal(d)
        g = cost.gradient(x)
        approx = fd_gradient(cost, x)
        assert np.linalg.norm(g - approx) <= 1e-6 * max(np.linalg.norm(g), 1.0)


def test_convexity_constants_trivial():
    quad = co.quadratic_cost(np.diag([3.0, 1.0]), np.zeros(2))
    assert (quad.L, quad.mu) == pytest.approx((3.0, 1.0), rel=1e-9)
    flat = co.least_squares_cost(np.zeros((2, 2)), np.zeros(2), 2.0)
    assert (flat.L, flat.mu) == pytest.approx((2.0, 2.0), rel=1e-9)


def test_convexity_constants_match_dense_eigensolver():
    rng = np.random.default_rng(12)
    for _ in range(15):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = co.least_squares_cost(rng.random((m, d)), rng.random(m), 0.7)
        lam = np.linalg.eigvalsh(cost.hess)
        assert cost.L == pytest.approx(lam[-1], rel=1e-8)
        assert cost.mu == pytest.approx(lam[0], rel=1e-8)


def test_gradient_is_l_lipschitz():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cost = co.least_squares_cost(rng.random((m, d)), rng.random(m), 0.5)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        lhs = np.linalg.norm(cost.gradient(x) - cost.gradient(y))
        assert lhs <= (cost.L + 1e-9) * np.linalg.norm(x - y)


def test_case1_ensemble_settings_and_determinism():
    ens = co.make_case1_ensemble(20, 3, 4, 2.0, 9)
    assert ens.case_tag == "case1" and ens.n == 20 and ens.d == 3
    assert all(c.mu >= 2.0 - 1e-12 for c in ens.costs)
    assert ens.mu_agg > 0
    again = co.make_case1_ensemble(20, 3, 4, 2.0, 9)
    assert all(np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
               for a, b in zip(ens.costs, again.costs))


def test_case1_single_agent_constants():
    ens = co.make_case1_ensemble(1, 1, 1, 1.0, 5)
    a = ens.costs[0].A[0, 0]
    assert ens.costs[0].L == pytest.approx(a * a + 1.0, rel=1e-12)
    assert ens.costs[0].mu == pytest.approx(a * a + 1.0, rel=1e-12)


def test_case2_ensemble_rank_deficient_but_aggregate_pd():
    ens = co.make_case2_ensemble(20, 10, 4, 9)
    assert ens.case_tag == "case2"
    for c in ens.costs:
        lam = np.linalg.eigvalsh(c.hess)
        assert lam[0] <= 1e-8  # rank at most 4 in dimension 10
        assert lam[-1] > 0
    assert ens.mu_agg > 0


def test_case2_rejects_singular_aggregate():
    zero = co.quadratic_cost(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(FailedAggregatePDError):
        co.cost_ensemble([zero], "case2")
    with pytest.raises(FailedAggregatePDError):
        co.make_case2_ensemble(1, 40, 1, 3)


def test_case2_below_the_rank_bound_draws_nothing(monkeypatch):
    """The aggregate of n rank-m_rank Hessians has rank at most n * m_rank."""
    drawn = []
    monkeypatch.setattr(co, "_with_constants", drawn.append)
    with pytest.raises(FailedAggregatePDError, match=r"n \* m_rank = 4 < d = 10"):
        co.make_case2_ensemble(1, 10, 4, 7)
    assert drawn == []
    monkeypatch.undo()
    assert co.make_case2_ensemble(2, 10, 5, 7).mu_agg > 0  # n * m_rank == d


def test_case2_resamples_from_the_next_substream(monkeypatch):
    """Seed 910's first draw fails the positive-definiteness check, so the
    ensemble is the one substream 911 draws first."""
    drawn, real = [], co._with_constants
    monkeypatch.setattr(co, "_with_constants", lambda parts: drawn.append(1) or real(parts))
    ens = co.make_case2_ensemble(5, 10, 2, 910)
    assert len(drawn) == 2
    again = co.make_case2_ensemble(5, 10, 2, 911)
    assert len(drawn) == 3
    assert ens.hess_stack.tobytes() == again.hess_stack.tobytes()
    assert ens.mu_agg > 0


def test_case2_hand_built_aggregate():
    e1 = co.quadratic_cost(np.outer([1.0, 0.0], [1.0, 0.0]), np.zeros(2))
    e2 = co.quadratic_cost(np.outer([0.0, 1.0], [0.0, 1.0]), np.zeros(2))
    ens = co.cost_ensemble([e1, e2], "case2")
    assert np.allclose(ens.agg_hess, 0.5 * np.eye(2))
    assert ens.mu_agg == pytest.approx(0.5, rel=1e-10)


def test_case1_requires_strong_convexity():
    flat = co.quadratic_cost(np.zeros((2, 2)), np.ones(2))
    pd = co.quadratic_cost(np.eye(2), np.ones(2))
    with pytest.raises(ValidationError):
        co.cost_ensemble([flat, pd], "case1")


def test_minimizer_trivial_cases():
    costs = [co.quadratic_cost(np.diag([1.0, 2.0]), np.zeros(2)) for _ in range(3)]
    ens = co.cost_ensemble(costs, "case2")
    assert np.allclose(co.ensemble_minimizer(ens), 0.0)
    v = np.array([3.0, -1.5, 0.5])
    single = co.cost_ensemble([co.least_squares_cost(np.eye(3), v, 2.0)], "case1")
    assert np.allclose(co.ensemble_minimizer(single), v / 3.0, atol=1e-12)


def test_minimizer_matches_gradient_descent_oracle():
    ens = co.make_case1_ensemble(6, 3, 4, 2.0, 21)
    x_star = co.ensemble_minimizer(ens)
    x = np.zeros(3)
    step = 1.0 / ens.L_max
    for _ in range(4000):
        g = sum(c.gradient(x) for c in ens.costs) / ens.n
        x = x - step * g
    assert np.linalg.norm(x - x_star) <= 1e-8 * (1 + np.linalg.norm(x_star))
    total = sum(c.gradient(x_star) for c in ens.costs)
    assert np.linalg.norm(total) <= 1e-9 * (1 + np.linalg.norm(x_star))


def test_grad_stack_matches_per_cost_gradients(ens_case1):
    rng = np.random.default_rng(14)
    u = rng.standard_normal((ens_case1.n, ens_case1.d))
    stacked = co.grad_stack(ens_case1, u)
    for j, c in enumerate(ens_case1.costs):
        assert np.allclose(stacked[j], c.gradient(u[j]), atol=1e-12)
    # a leading candidate axis: each slice equals its own (n, d) call
    many = rng.standard_normal((4, ens_case1.n, ens_case1.d))
    stacked = co.grad_stack(ens_case1, many)
    assert stacked.shape == many.shape
    for k in range(4):
        assert np.array_equal(stacked[k], co.grad_stack(ens_case1, many[k]))
    for bad in (many[..., :-1], many[0, 0]):
        with pytest.raises(DimensionMismatchError):
            co.grad_stack(ens_case1, bad)


def test_scale_ensemble_scales_constants_exactly(ens_case1):
    scaled = co.scale_ensemble(ens_case1, 2.0)
    for a, b in zip(ens_case1.costs, scaled.costs):
        assert b.L == 2.0 * a.L
        assert b.mu == 2.0 * a.mu
    assert scaled.mu_agg == pytest.approx(2.0 * ens_case1.mu_agg, rel=1e-12)


def test_ensemble_serialization_round_trip(ens_case1, ens_case2):
    for ens in (ens_case1, ens_case2):
        payload = json.loads(json.dumps(co.ensemble_to_dict(ens)))
        loaded = co.ensemble_from_dict(payload)
        assert loaded.case_tag == ens.case_tag
        assert np.allclose(loaded.hess_stack, ens.hess_stack, atol=1e-15)
        assert np.allclose(loaded.lin_stack, ens.lin_stack, atol=1e-15)


def test_ensemble_serialization_verifies_constants(ens_case1):
    payload = co.ensemble_to_dict(ens_case1)
    payload["costs"][0]["L"] *= 1.5
    with pytest.raises(ValidationError):
        co.ensemble_from_dict(payload)


def _payload(ens, **changes):
    payload = co.ensemble_to_dict(ens)
    payload["costs"][0] = {**payload["costs"][0], **changes.pop("cost", {})}
    return {**payload, **changes}


_EYE2 = np.eye(2)


@pytest.mark.parametrize("call, error, match", [
    (lambda e: co.quadratic_cost(_EYE2, np.ones(3)), DimensionMismatchError, "linear term"),
    (lambda e: co.quadratic_cost([[1.0, 1.0], [0.0, 1.0]], np.zeros(2)), ValidationError,
     "symmetric"),
    (lambda e: co.quadratic_cost(-_EYE2, np.zeros(2)), ValidationError, "negative eigenvalue"),
    (lambda e: co.least_squares_cost(np.ones(3), np.ones(3), 1.0), DimensionMismatchError,
     "incompatible"),
    (lambda e: co.least_squares_cost(_EYE2, np.ones(2), -1.0), ValidationError, "nonnegative"),
    (lambda e: co.cost_ensemble(e.costs, "case3"), ValidationError, "unknown case tag"),
    (lambda e: co.cost_ensemble([], "case1"), ValidationError, "at least one cost"),
    (lambda e: co.cost_ensemble([co.quadratic_cost(_EYE2, np.zeros(2)),
                                 co.quadratic_cost(np.eye(3), np.zeros(3))], "case2"),
     DimensionMismatchError, "one dimension"),
    (lambda e: co.make_case1_ensemble(0, 3, 4, 2.0, 7), ValidationError, "n, d, m"),
    (lambda e: co.make_case1_ensemble(2, 3, 4, 0.0, 7), ValidationError, "delta_reg > 0"),
    (lambda e: co.make_case2_ensemble(5, 10, 10, 7), ValidationError, "m_rank < d"),
    (lambda e: co.make_case2_ensemble(0, 10, 4, 7), ValidationError, "n must be"),
    (lambda e: co.scale_ensemble(e, 0.0), ValidationError, "factor must be positive"),
    (lambda e: co.ensemble_from_dict(_payload(e, n=e.n + 1)), ValidationError, "stored n"),
    (lambda e: co.ensemble_from_dict(_payload(e, cost={"kind": "cubic"})), ValidationError,
     "unknown cost kind"),
    (lambda e: co.ensemble_from_dict(_payload(e, case_tag="case3")), ValidationError,
     "unknown case tag"),
])
def test_each_input_check_raises_its_typed_error(ens_case1, call, error, match):
    with pytest.raises(error, match=match):
        call(ens_case1)


def test_case2_gives_up_after_its_attempts(monkeypatch):
    """Seed 910's first draw fails the positive-definiteness check."""
    monkeypatch.setattr(co, "_MAX_ATTEMPTS", 1)
    with pytest.raises(FailedAggregatePDError, match="in 1 attempts"):
        co.make_case2_ensemble(5, 10, 2, 910)


def test_minimizer_refuses_a_solve_it_cannot_bound():
    """A valid aggregate with condition number 1e9: the solve's error bound,
    about 7e-9 relative, exceeds the tolerance of 1e-9."""
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    P = Q @ np.diag([1.0, 1e-9]) @ Q.T
    ens = co.cost_ensemble([co.quadratic_cost((P + P.T) / 2, np.array([1.0, 0.0]))], "case2")
    with pytest.raises(SingularSystemError, match="error bound"):
        co.ensemble_minimizer(ens)


@pytest.mark.parametrize("figure", ["fig1", "fig3", "fig5"])
@pytest.mark.parametrize("k", [10, 20, 30, 40])
def test_power_of_two_scaling_keeps_the_minimizer_bits(figure, k):
    """Scaling every cost by 2^k scales every Hessian eigenvalue and gradient
    exactly, so the PSD check (relative to max(L, 1)) and the minimizer's
    error bound (in x) accept the scaled draw, and the solve gives the same x*.
    fig6 draws fig5's ensemble."""
    ens = hz.build_ensemble(hz.resolve_config({"scenario": hz.FIGURES[figure]}))
    scaled = co.scale_ensemble(ens, 2.0**k)
    assert scaled.mu_agg == 2.0**k * ens.mu_agg
    assert co.ensemble_minimizer(scaled).tobytes() == co.ensemble_minimizer(ens).tobytes()
