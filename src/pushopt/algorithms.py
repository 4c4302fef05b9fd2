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
stepsizes as one (K, n, d) state, each slice rounding and measured bit for
bit like its own run.  Each stacked field has one block buffer of B states,
B = ``_ROUND_BLOCK_FLOATS`` // the floats of one stacked state (two slots
at B = 1), and each round's kernel writes the next slot in place.  The
divergence check and the trace metrics run once per block, on its
(B*K, n, d) views.  The stack shares one (n,) y from
``network._push_sum_weights``, which stops multiplying by W once a product
returns y's own bits (a few dozen rounds), so no later round makes a
``W @ y`` and every bit stays as it was.  ``W @ x`` is one gemm per slice
and the gradient one in-place ``costs._grad_into`` call.  ``gp_sweep``,
``pd_run`` (K=1) and the Push-DIGing tuner call the loop; ``gp_step`` and
``pd_step`` run one round of the same kernels into fresh arrays.  A run's
``RunTrace`` is columnar: one float64 array per metric, and
``RunTrace.rows`` makes the rows a trace CSV writes.

The hybrid schedule runs gradient-push with a large stepsize for a warm
start, then hands (w, y, z, grad F(z)) to Push-DIGing for exact
convergence.

Runs never abort on numeric blow-up: once any block norm of the state
exceeds the divergence threshold (or turns non-finite) the trace is
flagged and truncated, so stepsize sweeps that cross the stability
boundary still complete.  A flagged slice may have been stepped on to its
block's end, but its trace and its final state end at the flagged round.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice, repeat
from types import SimpleNamespace

import numpy as np

from .costs import _grad_into, _grad_pad, grad_stack
from .errors import DimensionMismatchError, ValidationError
from .linalg import _CHUNK_FLOATS, _sum_squares, pi_norm
from .network import _push_sum_weights

DIVERGENCE_THRESHOLD = 1e12
_ROUND_BLOCK_FLOATS = _CHUNK_FLOATS  # floats of the stacked states one divergence check takes


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


METRICS = ("sum_z_err", "w_fp_err", "w_opt_err")
TRACE_FIELDS = ("t", "phase", *METRICS, "diverged")  # a trace row, as trace CSVs write it


@dataclass
class RunTrace:
    """Per-round metrics of a run, one float64 column per metric.

    Row i is round ``t0 + i``, through ``final_state.t``; rows from
    ``switch`` on are Push-DIGing rounds (None: there are none).  A metric
    is None when the run had no reference for it, and ``w_fp_err``, a
    gradient-push metric, has no rows from ``switch`` on.  ``diverged``
    flags the last row.  ``final_state`` is not serialized.
    """

    t0: int
    switch: int
    sum_z_err: np.ndarray
    w_fp_err: np.ndarray
    w_opt_err: np.ndarray
    diverged: bool
    final_state: object

    def __len__(self):
        return self.final_state.t - self.t0 + 1

    def rows(self, names=TRACE_FIELDS):
        """One tuple of the fields ``names`` per row, made as it is read: a
        metric is a Python float (a memoryview yields them), or None where
        its column has no row."""
        n = len(self)
        switch = n if self.switch is None else self.switch
        cells = {"t": range(self.t0, self.t0 + n),
                 "phase": chain(repeat("gp", switch), repeat("pd")),
                 "diverged": chain(repeat(False, n - 1), [self.diverged])}
        for name in METRICS:
            column = getattr(self, name)
            cells[name] = chain(() if column is None else memoryview(column), repeat(None))
        return islice(zip(*(cells[name] for name in names)), n)


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


def _step(net, ensemble, alpha, state, kernel, names):
    """One round of ``kernel`` from ``state`` into fresh arrays for its fields ``names``."""
    shape = np.shape(state.x)
    if shape[-2:] != (net.n, ensemble.d):
        raise DimensionMismatchError(f"state {shape} vs ({net.n}, {ensemble.d})")
    new = replace(state, t=state.t + 1, y=net.W @ state.y,
                  **{name: np.empty(shape) for name in names})
    grad = partial(_grad_into, ensemble, pad=_grad_pad(ensemble))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kernel(net, alpha, grad, state, new, np.repeat(new.y[:, None], shape[-1], axis=1))
    return new


def _gp_round(net, alpha, grad, state, new, y_block):
    """One gradient-push round from the arrays of ``state`` into those of
    ``new``, in the exact update order w, y, z, x; ``y_block`` is the round's
    weights as an (n, d) array, y repeated over d (a full array divides faster
    than a broadcast column), and ``grad(u, out)`` writes grad F(u) into out."""
    np.matmul(net.W, state.x, out=new.w)
    np.divide(new.w, y_block, out=new.z)
    x = new.x
    grad(new.z, x)
    x *= alpha
    np.subtract(new.w, x, out=x)


def gp_step(net, ensemble, alpha, state):
    """One gradient-push round, in the exact update order w, y, z, x."""
    return _step(net, ensemble, alpha, state, _gp_round, ("x", "w", "z"))


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


def _pd_round(net, alpha, grad, state, new, y_block):
    """One Push-DIGing round from the arrays of ``state`` into those of
    ``new``; v mixes the old gradients, then swaps new for old."""
    x, v = new.x, new.v
    np.matmul(net.W, state.v, out=v)
    np.matmul(net.W, state.x, out=x)
    np.multiply(alpha, state.v, out=new.z)  # alpha v, until the ratios overwrite it
    x -= new.z
    np.divide(x, y_block, out=new.z)
    grad(new.z, new.g)
    v += new.g
    v -= state.g


def pd_step(net, ensemble, alpha, state):
    """One Push-DIGing round; v mixes the old gradients, then swaps new for old."""
    return _step(net, ensemble, alpha, state, _pd_round, ("x", "z", "v", "g"))


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
    return np.sqrt(_sum_squares(z - x_star)).sum(axis=-1)


def _recorder(net, refs, mixed, slices, rows, t0):
    """The ``METRICS`` columns of ``slices`` runs over ``rows`` rounds from
    round ``t0``, each a (slices, rows) array or None without its reference,
    and ``record(live, t, state)``, which fills them from a stacked state
    whose rows are the slices ``live`` at round t, then t + 1, and so on:
    the metrics of its ratios z and its mixed state, the field ``mixed``,
    each with the bits of measuring its state alone.  Rows past a slice's
    flagged round may be filled; its trace ends there (``_traces``).
    """
    has_opt, has_fp = refs.x_star is not None, refs.w_fixed is not None
    columns = [np.empty((slices, max(rows, 0))) if has else None  # _sweep refuses rows < 0
               for has in (has_opt, has_fp, has_opt)]
    if has_opt:
        target = np.outer(net.n * net.pi, refs.x_star)
        x_star = np.tile(refs.x_star, (net.n, 1))

    def record(live, t, state):
        w = getattr(state, mixed)
        values = (_sum_z_err(state.z, x_star) if has_opt else None,
                  pi_norm(w - refs.w_fixed, net.pi) if has_fp else None,
                  pi_norm(w - target, net.pi) if has_opt else None)
        start = t - t0
        for column, v in zip(columns, values):
            if column is not None:
                column[live, start:start + len(v) // len(live)] = v.reshape(-1, len(live)).T

    return columns, record


def _traces(columns, ends, t0, switch):
    """One RunTrace per slice from its columns and its (final state, flag)."""
    return [RunTrace(t0, switch, *(None if c is None else c[k, :state.t - t0 + 1] for c in columns),
                     bool(flag), state)
            for k, (state, flag) in enumerate(ends)]


def _sweep(net, ensemble, kernel, flagged, names, alphas, init, iters, record=None):
    """Run ``init`` for ``iters`` rounds at each stepsize of ``alphas``.

    The fields ``names`` of ``init`` are stacked, one slice per stepsize,
    and each round runs ``kernel`` from one slot of the block buffers
    into the next (never onto itself).  A block, its first holding round
    0, goes as (B*K, n, d) views to one ``flagged`` call, giving
    ``flags[i, k]`` for slice k at the block's round i, and, if given, one
    ``record(live, t, state)`` call.  A slice leaves the stack after the
    block of its first flagged round: its final state is copied from the
    block at that round.  The slices left get new buffers.  Returns each
    slice's (final state, flagged), the state unstacked.
    """
    if iters < 0:
        raise ValidationError("iteration count must be >= 0")
    if len(alphas) == 0:
        raise ValidationError("need at least one stepsize")
    out = [None] * len(alphas)
    live = np.arange(len(alphas))  # the stepsize index of each slice of the stack
    alpha = np.asarray(alphas, dtype=float)[:, None, None]
    shape = np.shape(init.x)
    weights = _push_sum_weights(net.W, init.y)
    grad = partial(_grad_into, ensemble, pad=_grad_pad(ensemble))
    state, t, slots, held = init, init.t, None, None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            if slots is None:  # a new stack: its buffers, and its last state in the last slot
                rounds = max(1, _ROUND_BLOCK_FLOATS // (len(names) * len(live) * math.prod(shape)))
                buffers = {n: np.empty((max(rounds, 2), len(live), *shape)) for n in names}
                slots = [SimpleNamespace(**{n: b[i] for n, b in buffers.items()})
                         for i in range(max(rounds, 2))]
                if t > init.t:
                    for n in names:
                        getattr(slots[-1], n)[...] = getattr(state, n)
                    state = slots[-1]
                start = 1
            start = 0 if rounds > 1 else 1 - start
            size = min(rounds, init.t + iters + 1 - t)
            ys = []
            for i in range(start, start + size):
                y = next(weights)
                if t == init.t:
                    for n in names:
                        getattr(slots[i], n)[...] = getattr(init, n)
                else:
                    if y is not held:  # new weights: until they stop changing, every round
                        held, y_block = y, np.repeat(y[:, None], shape[-1], axis=1)
                    kernel(net, alpha, grad, state, slots[i], y_block)
                ys.append(y)
                state, t = slots[i], t + 1
            block = SimpleNamespace(**{n: b[start:start + size].reshape(-1, *shape)
                                       for n, b in buffers.items()})
            flags = np.reshape(flagged(block), (size, len(live)))
            if record is not None:
                record(live, t - size, block)
            del block
            if t > init.t + iters or flags.any():
                last = np.where(flags.any(axis=0), flags.argmax(axis=0), size - 1)
                keep = ~flags.any(axis=0) & (t <= init.t + iters)
                for k in np.flatnonzero(~keep):
                    i = int(last[k])
                    fields = {n: getattr(slots[start + i], n)[k].copy() for n in names}
                    out[live[k]] = (replace(init, t=t - size + i, y=ys[i].copy(), **fields),
                                    flags[i, k])
                if not keep.any():
                    return out
                live, alpha = live[keep], alpha[keep]
                state = SimpleNamespace(**{n: getattr(state, n)[keep] for n in names})
                buffers = slots = None  # freed before the new stack's buffers are made


def gp_sweep(net, ensemble, alphas, x0, iters, refs=None):
    """Gradient-push from x0 at each stepsize of ``alphas``: one trace each,
    starting with a t=0 row of the initial state (mixed state taken equal
    to x0).  A slice stops at its first flagged row; the others run on.
    """
    columns, record = _recorder(net, refs or RunRefs(), "w", len(alphas), iters + 1, 0)
    ends = _sweep(net, ensemble, _gp_round, gp_diverged, ("x", "w", "z"), alphas,
                  init_gp_state(net, ensemble, x0), iters, record)
    return _traces(columns, ends, 0, None)


def gp_run(net, ensemble, alpha, x0, iters, refs=None):
    """Run gradient-push for ``iters`` rounds, recording metrics each round:
    the one-stepsize ``gp_sweep``.

    The t=0 row measures the initial state (mixed state taken equal to
    x0).  Stops early, with the offending row flagged, once any block norm
    crosses the divergence threshold.
    """
    return gp_sweep(net, ensemble, [alpha], x0, iters, refs)[0]


def pd_run(net, ensemble, alpha, init, iters, refs=None):
    """Run Push-DIGing for ``iters`` rounds from an explicit initial state:
    the one-stepsize ``_sweep`` from ``init``, whose t it keeps.

    The state's shapes and its carried gradient are checked first
    (``DimensionMismatchError``, ``ValidationError``); that check costs one
    gradient evaluation.

    The Push-DIGing state variable x plays the role of the mixed state for
    the optimality metric; the fixed-point metric is left empty since the
    fixed point belongs to the gradient-push operator.
    """
    _check_pd_init(net, ensemble, init)
    columns, record = _recorder(net, RunRefs(x_star=refs.x_star if refs else None), "x", 1,
                                iters + 1, init.t)
    ends = _sweep(net, ensemble, _pd_round, pd_diverged, ("x", "z", "v", "g"), [alpha], init,
                  iters, record)
    return _traces(columns, ends, init.t, 0)[0]


def hybrid_run(net, ensemble, alpha_gp, alpha_pd, gp_iters, total_iters, x0,
               refs=None):
    """Gradient-push warm start handed off to Push-DIGing.

    The handoff takes the mixed state w, the weights y and the ratios z of
    the last gradient-push round, and initializes the tracked gradients at
    grad F(z).  The handoff state is already the last gradient-push row,
    so the Push-DIGing initial row is dropped and the phase switches at row
    ``gp_iters + 1``.  A warm start that was flagged as diverged ends the
    trace at its flagged row: the flag may come from x alone, which the
    handoff state does not carry.
    """
    if not (0 <= gp_iters <= total_iters):
        raise ValidationError(f"need 0 <= gp_iters <= total_iters, got {gp_iters}, {total_iters}")
    refs = refs or RunRefs()
    if gp_iters == total_iters:
        return gp_run(net, ensemble, alpha_gp, x0, total_iters, refs)
    if gp_iters == 0:
        return pd_run(net, ensemble, alpha_pd, init_pd_state(net, ensemble, x0), total_iters, refs)
    head = gp_run(net, ensemble, alpha_gp, x0, gp_iters, refs)
    if head.diverged:
        return head
    gp_state = head.final_state
    g = grad_stack(ensemble, gp_state.z)
    handoff = PushDigingState(t=gp_state.t, x=gp_state.w.copy(), z=gp_state.z.copy(), v=g, g=g,
                              y=gp_state.y.copy())
    tail = pd_run(net, ensemble, alpha_pd, handoff, total_iters - gp_iters, refs)
    sum_z, opt = (h if h is None else np.concatenate((h, p[1:]))
                  for h, p in ((head.sum_z_err, tail.sum_z_err), (head.w_opt_err, tail.w_opt_err)))
    return RunTrace(head.t0, len(head), sum_z, head.w_fp_err, opt, tail.diverged, tail.final_state)
