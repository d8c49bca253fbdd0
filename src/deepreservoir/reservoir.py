"""Residual reservoir construction and dynamics.

A reservoir layer updates its state as

    h(t) = alpha * O @ h(t-1) + beta * tanh(W_h @ h(t-1) + W_x @ x(t) + b)

with O orthogonal (random, cyclic-permutation, or identity). Stacking layers
gives a deep reservoir where layer l > 1 is driven by the state of layer
l - 1 at the same time step. The classic leaky echo state network is the
identity case with alpha = 1 - tau and beta = tau; a single layer with a
generic O is the shallow residual network.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, qr_orthogonal, spectral_radius

# Time steps run_states advances per input-drive product: _CHUNK for one
# sequence, max(1, _CHUNK // B) for a batch of B sequences.
_CHUNK = 256

# The bytes one step of a run_states group may read (W_h, plus O for the
# product residual, and about four state rows per slice) before the group
# takes no more layers. Against the loop that ran one layer at a time
# (medians of 11 interleaved runs, one BLAS thread, 2 MiB L2): 0.27x the
# time for 2 seeds of 4x25 cyclic layers and 0.62x for 5x100 from 512 KiB
# up; 10 seeds of 5x100 random layers 1.0x up to 2 MiB, 1.34x unbounded.
_GROUP_BYTES = 1 << 20


class StateOverflowError(ArithmeticError):
    """Raised when reservoir states stop being finite."""


class ResidualKind(enum.Enum):
    RANDOM_ORTHOGONAL = "random_orthogonal"
    CYCLIC = "cyclic"
    IDENTITY = "identity"


# The interval each LayerConfig hyperparameter must lie in, as the paper's
# stability analysis holds them.
INTERVALS = {"spectral_radius": "(0, inf)", "input_scaling": "[0, inf)",
             "bias_scaling": "[0, inf)", "alpha": "[0, 1]", "beta": "(0, 1]"}


def require_in(name: str, value: float, interval: str) -> None:
    """Refuse a value that is not a real number, or one outside an interval
    written as "(lo, hi]" and the like, naming the field and the value; NaN
    lies in no interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    if not ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise ValueError(f"{name} must lie in {interval}, got {value}")


@dataclass(frozen=True)
class LayerConfig:
    """Hyperparameters of one reservoir layer."""

    hidden_size: int
    spectral_radius: float
    input_scaling: float
    bias_scaling: float
    alpha: float
    beta: float
    residual: ResidualKind = ResidualKind.RANDOM_ORTHOGONAL

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        for name, interval in INTERVALS.items():
            require_in(name, getattr(self, name), interval)


@dataclass
class Layer:
    """One instantiated reservoir layer.

    o is the dense residual matrix, and the layer's kind is read off it, so
    the update and the stability analysis always see the same residual.
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    o: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        n = self.size
        if self.w_x.ndim != 2 or len(self.w_x) != n:
            raise ValueError(f"w_x has shape {self.w_x.shape}, layer needs ({n}, N_x)")
        for name, got, want in (("w_h", self.w_h.shape, (n, n)), ("b", self.b.shape, (n,)),
                                ("residual matrix", self.o.shape, (n, n))):
            if got != want:
                raise ValueError(f"{name} has shape {got}, layer needs {want}")

    @property
    def kind(self) -> ResidualKind:
        """Identity or cyclic when o is exactly that permutation (at one unit
        the two coincide, and identity is reported), otherwise a general
        orthogonal matrix."""
        for kind in (ResidualKind.IDENTITY, ResidualKind.CYCLIC):
            if np.array_equal(self.o, build_residual(kind, self.size)):
                return kind
        return ResidualKind.RANDOM_ORTHOGONAL

    @property
    def size(self) -> int:
        return self.w_h.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]


@dataclass(frozen=True)
class DeepReservoir:
    """Ordered stack of reservoir layers plus the feature-assembly policy."""

    layers: list[Layer]
    concat: bool = False

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a reservoir needs at least one layer")
        for l in range(1, len(self.layers)):
            got = self.layers[l].input_dim
            want = self.layers[l - 1].size
            if got != want:
                raise ValueError(
                    f"layer {l + 1} expects input dim {got}, layer {l} emits {want}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim


def build_residual(kind: ResidualKind, n: int, rng: RngStream | None = None) -> np.ndarray:
    """Orthogonal matrix for the temporal residual branch.

    Cyclic is the permutation with ones on the sub-diagonal and in the
    top-right corner; identity and cyclic are deterministic, the random
    kind consumes the stream.
    """
    if n < 1:
        raise ValueError("residual matrix dimension must be >= 1")
    if kind is ResidualKind.IDENTITY:
        return np.eye(n)
    if kind is ResidualKind.CYCLIC:
        c = np.eye(n, k=-1)
        c[0, n - 1] = 1.0
        return c
    if rng is None:
        raise ValueError("random orthogonal residual needs an RngStream")
    return qr_orthogonal(n, rng)


def build_layer(config: LayerConfig, input_dim: int, rng: RngStream) -> Layer:
    """Instantiate a layer's weights from its config.

    Draw order is fixed (W_x, W_h, b, O) so a seed pins the full network.
    Input and bias weights are drawn in [-1, 1) and scaled, which keeps the
    stream consumption identical when a scaling is zero. A recurrent draw
    with zero spectral radius (probability about 2**-53 even at one unit)
    cannot be scaled to the configured radius and fails the build.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    n = config.hidden_size
    w_x = rng.uniform(-1.0, 1.0, (n, input_dim)) * config.input_scaling

    raw = rng.uniform(-1.0, 1.0, (n, n))
    rho = spectral_radius(raw)
    if rho == 0.0:
        raise ValueError("recurrent matrix draw has zero spectral radius, so it cannot be "
                         "scaled to the configured spectral radius")
    w_h = raw * (config.spectral_radius / rho)
    b = rng.uniform(-1.0, 1.0, n) * config.bias_scaling
    o = build_residual(config.residual, n, rng)
    return Layer(w_x=w_x, w_h=w_h, b=b, o=o, alpha=config.alpha, beta=config.beta)


def build_deep_reservoir(configs: list[LayerConfig], input_dim: int, rng: RngStream,
                         concat: bool = False) -> DeepReservoir:
    """Build a layer stack; layer l > 1 takes layer l-1's state as input."""
    layers: list[Layer] = []
    dim = input_dim
    for cfg in configs:
        layers.append(build_layer(cfg, dim, rng))
        dim = cfg.hidden_size
    return DeepReservoir(layers=layers, concat=concat)


def _kernel(kind: ResidualKind, w_h_t: np.ndarray, o_t: np.ndarray | None,
            alpha: np.ndarray, beta: np.ndarray):
    """The state update of run_states, bound once so that its step loop
    looks up no attributes: update(h, row, z) overwrites row, which holds
    the input drive x @ W_x.T + b on entry, with

        alpha * (O h) + beta * tanh(h @ W_h.T + row)

    h, row and the work buffer z are (K, B, N) stacks of states, K slices
    of B rows each; w_h_t and o_t stack the K slices' W_h.T and O.T as
    (K, N, N), and alpha and beta hold each slice's mixing in the states'
    shape, so each slice advances with its own layer's weights and mixing.
    z is C-contiguous and aliases neither h nor row. kind picks the
    residual: the identity and cyclic ones are applied as a copy and a
    shift, exactly what their permutation matrices give, and any other kind
    as the product with o_t.
    """
    identity = kind is ResidualKind.IDENTITY
    cyclic = kind is ResidualKind.CYCLIC

    def update(h, row, z):
        np.matmul(h, w_h_t, out=z)
        z += row
        np.tanh(z, out=z)
        z *= beta
        if identity:
            np.multiply(h, alpha, out=row)
        elif cyclic:
            row[..., 0] = h[..., -1]
            row[..., 1:] = h[..., :-1]
            row *= alpha
        else:
            np.matmul(h, o_t, out=row)
            row *= alpha
        row += z

    return update


def _require_finite_inputs(inputs: np.ndarray, offset: int) -> None:
    """Reject a non-finite input, naming its first step, counted from
    offset (and, for a (T, B, N_x) batch, the first sequence that has one)."""
    bad = ~np.isfinite(inputs).all(axis=-1)
    if not bad.any():
        return
    if bad.ndim == 1:
        raise ValueError(f"non-finite input at step {offset + np.argmax(bad)}")
    sequence, t = np.argwhere(bad.T)[0]
    raise ValueError(f"non-finite input at step {offset + t} of sequence {sequence}")


def run_states(reservoirs: list[DeepReservoir], inputs: np.ndarray, washout: int = 0,
               concat: bool = True, h0: list[np.ndarray] | None = None,
               carry: tuple[int, list[np.ndarray]] | None = None,
               ) -> tuple[list[np.ndarray], list[str | None], tuple[int, list[np.ndarray]]]:
    """Run S reservoirs of one shape over a shared input and keep the
    states a readout needs: the one time loop.

    The reservoirs must take N_x inputs and agree in every layer's size;
    each runs with its own weights, alpha and beta. A layer position whose
    residual matrices are not all one permutation (1-unit random layers
    draw o = [1] or [-1]) runs the product with each reservoir's own o.
    inputs is (T, N_x), or (T, B, N_x) for B equal-length sequences, with
    T and B at least 1; any other shape is refused, naming it. Every
    reservoir starts from zero, from h0: one (N_l,) state per layer, which
    every reservoir and sequence starts from, or from an earlier run's carry.

    Returns per reservoir its states from step washout on, (T - washout, F)
    or (T - washout, B, F), the kept layers (all with concat, otherwise the
    last) side by side; per reservoir None or the message naming its first
    non-finite state: the earliest step, with the lowest layer on a tie; and
    the carry (step, states): the step after the last one run and each
    layer's (S, N_l) or (S, B, N_l) state there, kept or not, from which a
    run over the inputs that follow resumes, naming steps from the first
    run's start. Every returned row is a computed state, non-finite ones
    included, and a reservoir's states and message are bit-identical to
    those of a run on its own, whatever the chunk length, batch or resumes.

    Time advances in chunks of _CHUNK steps (_CHUNK // B with a batch).
    Tick k names its running layers once, layer l running chunk k - l, and
    three phases read them. First each running layer's chunk buffer gets
    its input drive, one product over all S reservoirs, from the top layer
    down so that each reads the states the layer below left in the tick
    before; a product spans the whole chunk, so BLAS rounds every row alike
    whatever T is. Then one kernel call per step advances each group's
    running slices, overwriting their buffer rows with states. Last, each
    running layer's chunk is tested on its last row and its kept rows are
    copied out: a non-finite state stays non-finite in its layer, so only
    a chunk whose last row is not finite is scanned for its first bad step.
    Adjacent layer positions of one size and residual handling form a
    group, its weights over all S reservoirs stacked as K slices, while one
    step reads at most _GROUP_BYTES; the grouping decides only which slices
    share a kernel call. Each slice goes through the same products and
    operations in the same order as its layer run alone: no bit changes.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim not in (2, 3) or 0 in inputs.shape[:-1]:
        raise ValueError(f"inputs have shape {inputs.shape}, expected (T, N_x) or (T, B, N_x) "
                         "with T, B >= 1")
    if not reservoirs:
        raise ValueError("no reservoirs to run: run_states needs at least one")
    first = reservoirs[0]
    t_total = inputs.shape[0]
    for deep in reservoirs:
        if inputs.shape[-1] != deep.input_dim:
            raise ValueError(
                f"input dim {inputs.shape[-1]} does not match reservoir input {deep.input_dim}")
        if [l.size for l in deep.layers] != [l.size for l in first.layers]:
            raise ValueError("reservoirs run together must share their layer sizes")
    if washout < 0:
        raise ValueError(f"washout must be >= 0, got {washout}")
    if washout >= t_total:
        raise ValueError(f"washout {washout} must be < sequence length {t_total}")
    if h0 is not None and len(h0) != first.n_layers:
        raise ValueError(f"h0 has {len(h0)} initial states, the stack has {first.n_layers} layers")
    for l, layer in enumerate(first.layers if h0 is not None else []):
        if np.shape(h0[l]) != (layer.size,):
            raise ValueError(f"initial state of layer {l + 1} has shape {np.shape(h0[l])}, "
                             f"the layer has {layer.size} units")
    count = len(reservoirs)
    seq = inputs.shape[1:-1]  # () for one sequence, (B,) for a batch
    offset, start = (0, h0) if carry is None else carry
    want = [(count,) + seq + (layer.size,) for layer in first.layers]
    if carry is not None and (h0 is not None or [np.shape(h) for h in start] != want):
        raise ValueError(f"a carry comes without h0 and holds states of shapes {want}")
    _require_finite_inputs(inputs, offset)

    batch = int(np.prod(seq))
    chunk = max(1, _CHUNK // batch)
    n_chunks, n_layers = -(-t_total // chunk), first.n_layers
    kept = range(n_layers) if concat else [n_layers - 1]
    sizes = [first.layers[l].size for l in kept]
    cols = dict(zip(kept, (slice(end - n, end) for end, n in zip(np.cumsum(sizes), sizes))))
    out = np.empty((count, t_total - washout) + seq + (sum(sizes),))

    positions = list(zip(*(deep.layers for deep in reservoirs)))
    kinds = [{m.kind for m in same} for same in positions]
    kinds = [k.pop() if len(k) == 1 else ResidualKind.RANDOM_ORTHOGONAL for k in kinds]
    groups, used = [], 0
    for l, same in enumerate(positions):
        n, product = same[0].size, kinds[l] is ResidualKind.RANDOM_ORTHOGONAL
        step_bytes = 8 * count * n * ((1 + product) * n + 4 * batch)
        if not l or (n, kinds[l]) != (positions[l - 1][0].size, kinds[l - 1]) \
                or used + step_bytes > _GROUP_BYTES:
            groups, used = groups + [[]], 0
        groups[-1].append(l)
        used += step_bytes

    # per layer, the (S, chunk, *seq, N_l) view of its group's buffer that its
    # drive product writes, and its W_x.T and b stacked over the S reservoirs
    plan, layers, carried, unit = [], [], [], (1,) * len(seq)
    for members in groups:
        stack = [m for l in members for m in positions[l]]  # slice j * S + s
        kind, n = kinds[members[0]], stack[0].size
        state = np.zeros((len(stack), batch, n))
        buf = np.zeros((chunk,) + state.shape)
        for j, l in enumerate(members):
            carried.append(state[j * count:(j + 1) * count].reshape(want[l]))
            if start is not None:
                carried[l][...] = start[l]
            w_x_t = np.stack([m.w_x for m in positions[l]]).transpose(0, 2, 1)
            b = np.stack([m.b for m in positions[l]])
            view = np.moveaxis(buf[:, j * count:(j + 1) * count], 1, 0)
            layers.append((view.reshape((count, chunk) + seq + (n,)),
                           w_x_t.reshape((count,) + unit + w_x_t.shape[1:]),
                           b.reshape((count, 1) + unit + (n,))))
        # per slice in the states' shape; on a batch, a value all slices
        # share is a stride-0 view, which multiplies faster than an array
        mixing = [np.broadcast_to(v[0], state.shape) if batch > 1 and len(set(v)) == 1
                  else np.repeat(v, batch * n).reshape(state.shape)
                  for v in ([m.alpha for m in stack], [m.beta for m in stack])]
        # W.T and O.T as transposed views, so h @ W.T rounds exactly as W @ h
        w_h_t = np.stack([m.w_h for m in stack]).transpose(0, 2, 1)
        o_t = (np.stack([m.o for m in stack]).transpose(0, 2, 1)
               if kind is ResidualKind.RANDOM_ORTHOGONAL else None)
        plan.append((members[0], len(members), kind, w_h_t, o_t, *mixing, buf, state,
                     np.empty(state.shape), {}))

    # per reservoir, (step, layer) of its first non-finite state
    first_bad: list[tuple[int, int] | None] = [None] * count
    x = np.zeros((chunk,) + inputs.shape[1:])
    for tick in range(n_chunks + n_layers - 1):
        if tick < n_chunks:
            x[:min(chunk, t_total - tick * chunk)] = inputs[tick * chunk:(tick + 1) * chunk]
        # layer l runs chunk tick - l; drives from the top down read the states below first
        running = range(max(tick - n_chunks + 1, 0), min(tick + 1, n_layers))
        for l in reversed(running):
            view, w_x_t, b = layers[l]
            np.matmul(layers[l - 1][0] if l else x, w_x_t, out=view)
            view += b
        for top, width, kind, w_h_t, o_t, alpha, beta, buf, state, z, spans in plan:
            # member j is layer top + j; members lo..hi-1 are running
            lo, hi = max(running.start - top, 0), min(running.stop - top, width)
            if lo >= hi:
                continue
            # every running member steps as long as the highest one's chunk; on
            # the short last chunk the lowest member's extra rows run on stale
            # drives, and are never kept or tested
            if (lo, hi) not in spans:
                k = slice(lo * count, hi * count)
                spans[lo, hi] = (_kernel(kind, w_h_t[k], None if o_t is None else o_t[k],
                                         alpha[k], beta[k]), z[k], [state[k]] + list(buf[:, k]))
            update, work, rows = spans[lo, hi]  # rows[0] is the carried state
            steps = min(chunk, t_total - (tick - top - hi + 1) * chunk)
            for h, row in zip(rows, rows[1:steps + 1]):
                update(h, row, work)
            np.copyto(rows[0], rows[steps])
        # a non-finite state stays non-finite in its layer, so a chunk whose
        # last real row is finite is finite throughout
        for l in running:
            view, c = layers[l][0], tick - l
            t0, n = c * chunk, min(chunk, t_total - c * chunk)
            for s in np.flatnonzero(~np.isfinite(view[:, n - 1]).reshape(count, -1).all(axis=1)):
                bad = ~np.isfinite(view[s, :n]).reshape(n, -1).all(axis=1)
                key = (offset + t0 + int(np.argmax(bad)), l)
                first_bad[s] = min(first_bad[s] or key, key)
            if l in cols and t0 + n > washout:
                a = max(washout - t0, 0)
                out[:, t0 + a - washout:t0 + n - washout, ..., cols[l]] = view[:, a:n]
    errors = [None if bad is None else f"non-finite state at step {bad[0]} in layer {bad[1] + 1}"
              for bad in first_bad]
    # no kernel reads the groups' states again, so they take each layer's last one
    for l, last in enumerate(carried):
        np.copyto(last, layers[l][0][:, t_total - (n_chunks - 1) * chunk - 1])
    return list(out), errors, (offset + t_total, carried)


def forward(deep: DeepReservoir, inputs: np.ndarray,
            h0: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Run the stack over an input sequence and return every step's states,
    one (T, N_l) array per layer.

    inputs is (T, N_x) or (T,) for scalar series; h0 holds one initial state
    per layer (zeros by default). A non-finite input is rejected on entry,
    naming its step; a non-finite state is reported naming its first step
    and its layer.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    if inputs.ndim != 2:
        raise ValueError(f"inputs have shape {inputs.shape}, expected (T, N_x) or (T,)")
    states, errors, _ = run_states([deep], inputs, h0=h0)
    if errors[0] is not None:
        raise StateOverflowError(errors[0])
    return np.split(states[0], np.cumsum([layer.size for layer in deep.layers])[:-1], axis=1)


def step(deep: DeepReservoir, h_prev: list[np.ndarray], x_t: np.ndarray) -> list[np.ndarray]:
    """One global update from h_prev under input x_t (N_x,): every layer
    advances once, layer l > 1 fed by the fresh state of layer l - 1. It is
    the one-step forward from h0 = h_prev, and fails as forward does."""
    return [states[0] for states in forward(deep, np.asarray(x_t, dtype=float)[None], h0=h_prev)]


def allocate_units(total: int, n_layers: int, concat: bool) -> list[int]:
    """Per-layer hidden sizes for a given total unit budget.

    Concatenated readouts split the budget evenly (remainder to the first
    layer) so the trainable parameter count stays fixed; otherwise every
    layer gets the full budget.
    """
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if not concat:
        if total < 1:
            raise ValueError("total units must be >= 1")
        return [total] * n_layers
    if total < n_layers:
        raise ValueError(f"cannot split {total} units across {n_layers} layers")
    base = total // n_layers
    sizes = [base] * n_layers
    sizes[0] += total - base * n_layers
    return sizes


def readout_features(states: list[np.ndarray], concat: bool) -> np.ndarray:
    """forward's per-layer states side by side: all layers with concat,
    otherwise only the last."""
    return np.hstack(states if concat else states[-1:])
