"""Gradient-push, Push-DIGing, and the warm-start hybrid schedule.

All three algorithms run synchronous rounds over a fixed column-stochastic
mixing matrix: every agent updates from the previous round's values, so a
round is a plain matrix product on stacked (n, d) states.

Gradient-push round (state x, mixed state w, weights y, ratios z):

    w <- W x;  y <- W y;  z <- w / y;  x <- w - alpha * grad F(z)

Push-DIGing round (state x, weights y, ratios z, tracked gradients v,
last gradient g = grad F(z)):

    x <- W x - alpha v;  y <- W y;  z <- x / y;
    g_new <- grad F(z);  v <- W v + g_new - g;  g <- g_new

Carrying g makes one gradient evaluation per round: grad F(z_old) is the
previous round's g_new, so the round is bit-identical to recomputing it.

Every run goes through one stacked round loop, ``_sweep``, which runs K
stepsizes as one (K, n, d) state.  The weights y do not depend on the
stepsize, so the stack shares one (n,) y and each round makes one
``W @ y``; ``W @ x`` is one gemm per slice, and the gradient, the
divergence check and the trace metrics are one call each for the whole
stack.  Every slice rounds and is measured bit for bit like its own run.
``gp_sweep``, ``pd_run`` (K=1) and the Push-DIGing tuner are its callers.

The hybrid schedule runs gradient-push with a large stepsize for a warm
start, then hands (w, y, z, grad F(z)) to Push-DIGing for exact
convergence.

Runs never abort on numeric blow-up: once any block norm of the state
exceeds the divergence threshold (or turns non-finite) the trace is
flagged and truncated, so stepsize sweeps that cross the stability
boundary still complete.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import grad_stack
from .errors import DimensionMismatchError, ValidationError
from .linalg import pi_norm

DIVERGENCE_THRESHOLD = 1e12

PHASE_GP = "gp"
PHASE_PD = "pd"


@dataclass(frozen=True)
class GradientPushState:
    t: int
    x: np.ndarray
    w: np.ndarray
    z: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class PushDigingState:
    """Push-DIGing state; ``g`` is grad F(z), carried so a round evaluates
    the gradient once.  Every constructor must set it from this ``z``:
    ``pd_run`` rejects an initial state whose ``g`` differs in any bit."""

    t: int
    x: np.ndarray
    z: np.ndarray
    v: np.ndarray
    g: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class RunRefs:
    """Reference points a trace is measured against (either may be absent)."""

    x_star: np.ndarray = None
    w_fixed: np.ndarray = None


@dataclass(frozen=True)
class RunRecord:
    t: int
    phase: str
    sum_z_err: float
    w_fp_err: float
    w_opt_err: float
    diverged: bool


@dataclass
class RunTrace:
    """Per-iteration metrics of a run; ``final_state`` is not serialized."""

    records: list = field(default_factory=list)
    final_state: object = None

    @property
    def diverged(self):
        return any(r.diverged for r in self.records)

    def column(self, name):
        return [getattr(r, name) for r in self.records]

    def last(self):
        return self.records[-1]


def _check_shapes(net, ensemble, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n, ensemble.d):
        raise DimensionMismatchError(
            f"initial state {x0.shape} vs ({net.n}, {ensemble.d})"
        )
    return x0


def init_gp_state(net, ensemble, x0):
    """State before the first exchange: w and z coincide with x, weights at one."""
    x0 = _check_shapes(net, ensemble, x0)
    return GradientPushState(t=0, x=x0.copy(), w=x0.copy(), z=x0.copy(), y=np.ones(net.n))


def gp_step(net, ensemble, alpha, state):
    """One gradient-push round, in the exact update order w, y, z, x."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = net.W @ state.x
        y = net.W @ state.y
        z = w / y[:, None]
        x = w - alpha * grad_stack(ensemble, z)
    return GradientPushState(t=state.t + 1, x=x, w=w, z=z, y=y)


def init_pd_state(net, ensemble, x0):
    """Default Push-DIGing start: ratios equal the state, v tracks the gradient."""
    x0 = _check_shapes(net, ensemble, x0)
    g = grad_stack(ensemble, x0)
    return PushDigingState(t=0, x=x0.copy(), z=x0.copy(), v=g, g=g, y=np.ones(net.n))


def _check_pd_init(net, ensemble, init):
    """An explicit initial state: (n, d) blocks, (n,) weights, and a carried
    gradient with the same bits as grad F(z), so the first round is exact."""
    block = (net.n, ensemble.d)
    for name, shape in (("x", block), ("z", block), ("v", block), ("g", block), ("y", (net.n,))):
        if np.shape(getattr(init, name)) != shape:
            raise DimensionMismatchError(
                f"initial {name} {np.shape(getattr(init, name))} vs {shape}"
            )
    g = grad_stack(ensemble, init.z)
    if np.asarray(init.g, dtype=float).tobytes() != g.tobytes():
        raise ValidationError(
            "initial g must equal grad_stack(ensemble, z) bit for bit; "
            "build the state with init_pd_state or set g from its z"
        )


def pd_step(net, ensemble, alpha, state):
    """One Push-DIGing round; v mixes the old gradients, then swaps new for old."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = net.W @ state.x - alpha * state.v
        y = net.W @ state.y
        z = x / y[:, None]
        g = grad_stack(ensemble, z)
        v = net.W @ state.v + g - state.g
    return PushDigingState(t=state.t + 1, x=x, z=z, v=v, g=g, y=y)


def _blocks_exceeded(arrays):
    """Whether a block norm is non-finite or above the divergence threshold.

    A plain bool for an (n, d) state; for a stacked (K, n, d) state, one
    flag per candidate.  A screen on the entries comes first: if every
    entry lies within threshold / (2 sqrt(d)), every block norm is at most
    about half the threshold, so nothing is flagged.  NaN and inf fail the
    screen, and any failure takes the exact per-block test.
    """
    limit = DIVERGENCE_THRESHOLD / (2.0 * math.sqrt(arrays[0].shape[-1]))
    if all(a.max() <= limit and -a.min() <= limit for a in arrays):
        flagged = np.zeros(arrays[0].shape[:-2], dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            flagged = ~np.logical_and.reduce(
                [np.sqrt((a * a).sum(axis=-1)) <= DIVERGENCE_THRESHOLD for a in arrays]
            ).all(axis=-1)
    return flagged if flagged.ndim else bool(flagged)


def gp_diverged(state):
    return _blocks_exceeded((state.x, state.w, state.z))


def pd_diverged(state):
    return _blocks_exceeded((state.x, state.z, state.v))


def _sum_z_err(z, x_star):
    """Sum over agents of the distance of each ratio block to x_star, for
    an (n, d) state or per state of a (K, n, d) stack."""
    diff = z - x_star
    return np.sqrt((diff * diff).sum(axis=-1)).sum(axis=-1)


def _recorder(traces, net, refs, phase, mixed):
    """A function appending one metrics record to each of ``traces`` per call.

    ``record(live, state, flags)`` measures a stacked state whose slice i
    belongs to ``traces[live[i]]``: (sum_z_err, w_fp_err, w_opt_err) of its
    ratios z and its mixed state, the field ``mixed``, against the available
    references.  Each slice has the bits of measuring it alone.  The
    optimum's mixed state n * pi_j * x_star is built once per run.
    """
    target = None if refs.x_star is None else np.outer(net.n * net.pi, refs.x_star)

    def record(live, state, flags):
        sum_z = fp = opt = [None] * len(live)
        w = getattr(state, mixed)
        with np.errstate(over="ignore", invalid="ignore"):
            if refs.x_star is not None:
                sum_z = _sum_z_err(state.z, refs.x_star).tolist()
                opt = pi_norm(w - target, net.pi).tolist()
            if refs.w_fixed is not None:
                fp = pi_norm(w - refs.w_fixed, net.pi).tolist()
        for k, s, f, o, flag in zip(live, sum_z, fp, opt, flags):
            traces[k].records.append(RunRecord(t=state.t, phase=phase, sum_z_err=s, w_fp_err=f,
                                               w_opt_err=o, diverged=bool(flag)))

    return record


def _sweep(net, ensemble, step, flagged, names, alphas, init, iters, record=None):
    """Run ``init`` for ``iters`` rounds at each stepsize of ``alphas``.

    The fields ``names`` of ``init`` are stacked, one slice per stepsize.
    Each round makes one ``step``, one ``flagged`` and, if given, one
    ``record(live, state, flags)`` call, the initial state included.  A
    slice leaves the stack at its first flagged round.  Returns each
    slice's (final state, flagged), the state unstacked.
    """
    if iters < 0:
        raise ValidationError("iteration count must be >= 0")
    if len(alphas) == 0:
        raise ValidationError("need at least one stepsize")
    out = [None] * len(alphas)
    live = np.arange(len(alphas))  # the stepsize index of each slice of the stack
    alpha = np.asarray(alphas, dtype=float)[:, None, None]
    state = replace(init, **{name: np.repeat(getattr(init, name)[None], len(alphas), axis=0)
                             for name in names})
    flags = flagged(state)
    for r in range(iters + 1):
        if record is not None:
            record(live, state, flags)
        if r == iters or flags.any():
            keep = ~flags & (r < iters)
            stack = {name: getattr(state, name) for name in names}
            take = np.copy if keep.any() else (lambda a: a)  # a retiree must not hold the stack
            for i in np.flatnonzero(~keep):
                out[live[i]] = replace(state, **{n: take(a[i]) for n, a in stack.items()}), flags[i]
            if not keep.any():
                break
            live, alpha = live[keep], alpha[keep]
            state = replace(state, **{n: a[keep] for n, a in stack.items()})
        state = step(net, ensemble, alpha, state)
        flags = flagged(state)
    return out


def gp_sweep(net, ensemble, alphas, x0, iters, refs=None):
    """Gradient-push from x0 at each stepsize of ``alphas``: one trace each,
    starting with a t=0 record of the initial state (mixed state taken equal
    to x0).  A slice stops at its first flagged record; the others run on.
    """
    traces = [RunTrace() for _ in alphas]
    record = _recorder(traces, net, refs or RunRefs(), PHASE_GP, "w")
    ends = _sweep(net, ensemble, gp_step, gp_diverged, ("x", "w", "z"), alphas,
                  init_gp_state(net, ensemble, x0), iters, record)
    for trace, (state, _) in zip(traces, ends):
        trace.final_state = state
    return traces


def gp_run(net, ensemble, alpha, x0, iters, refs=None):
    """Run gradient-push for ``iters`` rounds, recording metrics each round:
    the one-stepsize ``gp_sweep``.

    The t=0 record measures the initial state (mixed state taken equal to
    x0).  Stops early, with the offending record flagged, once any block
    norm crosses the divergence threshold.
    """
    return gp_sweep(net, ensemble, [alpha], x0, iters, refs)[0]


def pd_run(net, ensemble, alpha, init, iters, refs=None):
    """Run Push-DIGing for ``iters`` rounds from an explicit initial state:
    the one-stepsize ``_sweep`` from ``init``, whose t it keeps.

    The state's shapes and its carried gradient are checked first
    (``DimensionMismatchError``, ``ValidationError``); that check costs one
    gradient evaluation.

    In mixed-phase traces the Push-DIGing state variable x plays the role
    of the mixed state for the optimality metric; the fixed-point metric is
    left empty since the fixed point belongs to the gradient-push operator.
    """
    _check_pd_init(net, ensemble, init)
    trace = RunTrace()
    record = _recorder([trace], net, RunRefs(x_star=refs.x_star if refs else None), PHASE_PD, "x")
    ((trace.final_state, _),) = _sweep(net, ensemble, pd_step, pd_diverged, ("x", "z", "v", "g"),
                                       [alpha], init, iters, record)
    return trace


def hybrid_run(net, ensemble, alpha_gp, alpha_pd, gp_iters, total_iters, x0,
               refs=None):
    """Gradient-push warm start handed off to Push-DIGing.

    The handoff takes the mixed state w, the weights y and the ratios z of
    the last gradient-push round, and initializes the tracked gradients at
    grad F(z).  The handoff state is already the last gradient-push record,
    so the Push-DIGing initial record is dropped.  A warm start that was
    flagged as diverged ends the trace at its flagged record: the flag may
    come from x alone, which the handoff state does not carry.
    """
    if not (0 <= gp_iters <= total_iters):
        raise ValidationError(f"need 0 <= gp_iters <= total_iters, got {gp_iters}, {total_iters}")
    refs = refs or RunRefs()
    if gp_iters == total_iters:
        return gp_run(net, ensemble, alpha_gp, x0, total_iters, refs)
    if gp_iters == 0:
        init = init_pd_state(net, ensemble, x0)
        return pd_run(net, ensemble, alpha_pd, init, total_iters, refs)
    head = gp_run(net, ensemble, alpha_gp, x0, gp_iters, refs)
    if head.diverged:
        return head
    gp_state = head.final_state
    g = grad_stack(ensemble, gp_state.z)
    handoff = PushDigingState(
        t=gp_state.t,
        x=gp_state.w.copy(),
        z=gp_state.z.copy(),
        v=g,
        g=g,
        y=gp_state.y.copy(),
    )
    tail = pd_run(net, ensemble, alpha_pd, handoff, total_iters - gp_iters, refs)
    return RunTrace(records=head.records + tail.records[1:], final_state=tail.final_state)
