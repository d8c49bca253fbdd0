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
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, qr_orthogonal, spectral_radius

# Time steps run_states advances per input-drive product: _CHUNK for one
# sequence, max(1, _CHUNK // B) for a batch of B sequences.
_CHUNK = 256


class StateOverflowError(ArithmeticError):
    """Raised when reservoir states stop being finite."""


class ResidualKind(enum.Enum):
    RANDOM_ORTHOGONAL = "random_orthogonal"
    CYCLIC = "cyclic"
    IDENTITY = "identity"


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
        for name in ("spectral_radius", "input_scaling", "bias_scaling"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.spectral_radius <= 0:
            raise ValueError("spectral_radius must be > 0")
        if self.input_scaling < 0 or self.bias_scaling < 0:
            raise ValueError("scalings must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")


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
        if self.o.shape != (n, n):
            raise ValueError(f"residual matrix has shape {self.o.shape}, layer needs {(n, n)}")

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
    if not configs:
        raise ValueError("need at least one layer config")
    layers: list[Layer] = []
    dim = input_dim
    for cfg in configs:
        layers.append(build_layer(cfg, dim, rng))
        dim = cfg.hidden_size
    return DeepReservoir(layers=layers, concat=concat)


def _kernel(layer: Layer, kind: ResidualKind, w_h_t: np.ndarray, o_t: np.ndarray | None):
    """The layer's state update in run_states, bound once so that its step
    loop looks up no attributes: update(h, row, z) overwrites row, which
    holds the input drive x @ W_x.T + b on entry, with

        alpha * (O h) + beta * tanh(h @ W_h.T + row)

    h, row and the work buffer z hold states along their last axis: (N,)
    or (B, N) with w_h_t = W_h.T and o_t = O.T, or (S, B, N) with the W_h.T
    and O.T of S same-shaped layers stacked as (S, N, N), each slice of
    states advanced with its own layer's weights. z is C-contiguous and
    aliases neither h nor row. kind picks the residual: the identity and
    cyclic ones are applied as a copy and a shift, exactly what their
    permutation matrices give, and any other kind as the product with o_t.
    """
    # on one (N,) state np.dot is about 1 us faster than np.matmul, up to a
    # fifth of the call; only matmul broadcasts over an (S, N, N) stack
    product = np.dot if w_h_t.ndim == 2 else np.matmul
    alpha, beta = layer.alpha, layer.beta
    identity = kind is ResidualKind.IDENTITY
    cyclic = kind is ResidualKind.CYCLIC

    def update(h, row, z):
        product(h, w_h_t, out=z)
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
            product(h, o_t, out=row)
            row *= alpha
        row += z

    return update


def _require_finite_inputs(inputs: np.ndarray) -> None:
    """Reject a non-finite input, naming its first step (and, for a
    (T, B, N_x) batch, the first sequence that has one)."""
    bad = ~np.isfinite(inputs).all(axis=-1)
    if not bad.any():
        return
    if bad.ndim == 1:
        raise ValueError(f"non-finite input at step {np.argmax(bad)}")
    sequence, t = np.argwhere(bad.T)[0]
    raise ValueError(f"non-finite input at step {t} of sequence {sequence}")


def _transposed(matrices: list[np.ndarray]) -> np.ndarray:
    """W.T of one matrix, or of S matrices as views of one (S, N, N) stack.
    Either way a transposed view, so h @ W.T rounds exactly as W @ h."""
    if len(matrices) == 1:
        return matrices[0].T
    return np.stack(matrices).transpose(0, 2, 1)


def run_states(reservoirs: list[DeepReservoir], inputs: np.ndarray, washout: int = 0,
               concat: bool = True, h0: list[np.ndarray] | None = None,
               ) -> tuple[list[np.ndarray], list[str | None]]:
    """Run S reservoirs of one shape over a shared input and keep the
    states a readout needs: the one time loop.

    The reservoirs must agree in every layer's size, alpha and beta, as the
    seeds of one configuration do. A layer position whose residual matrices
    are not all one permutation (1-unit random layers draw o = [1] or [-1])
    runs the product with each reservoir's own o. inputs is (T, N_x), or
    (T, B, N_x) for B equal-length sequences. Every reservoir starts from
    zero, or from h0 (one state per layer) when one runs without a batch.

    Returns per reservoir its states from step washout on, (T - washout, F)
    or (T - washout, B, F), the kept layers (all with concat, otherwise the
    last) side by side; and per reservoir None or the message naming its
    first non-finite state (earliest chunk, then lowest layer, then
    earliest step). A reservoir's states and message are bit-identical to
    those of a run on its own.

    Time advances in chunks of _CHUNK steps (_CHUNK // B with a batch). Per
    chunk and layer, one input-drive product per reservoir fills a buffer
    with pre-activations; it always spans the whole chunk, so BLAS sees one
    shape and rounds every row alike whatever T is. The kernel then
    overwrites each row with its state, all reservoirs in one product per
    step, and only kept rows are copied out. One reservoir runs on plain
    1-D or 2-D arrays, 9-19% faster than as a stack of one.
    """
    inputs = np.asarray(inputs, dtype=float)
    first = reservoirs[0]
    t_total = inputs.shape[0]
    if t_total == 0:
        raise ValueError("input sequence is empty")
    if inputs.shape[-1] != first.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[-1]} does not match reservoir input {first.input_dim}"
        )
    if washout < 0:
        raise ValueError(f"washout must be >= 0, got {washout}")
    if washout >= t_total:
        raise ValueError(f"washout {washout} must be < sequence length {t_total}")
    _require_finite_inputs(inputs)
    for deep in reservoirs[1:]:
        if [(l.size, l.input_dim, l.alpha, l.beta) for l in deep.layers] != \
                [(l.size, l.input_dim, l.alpha, l.beta) for l in first.layers]:
            raise ValueError("reservoirs run together must share their layer shapes and mixing")

    count = len(reservoirs)
    stacked = count > 1
    seq = inputs.shape[1:-1]  # () for one sequence, (B,) for a batch
    # the axes of one step's states; a stack needs a row axis for its
    # (S, 1, N) @ (S, N, N) products
    lead = (count,) + (seq or (1,)) if stacked else seq
    chunk = max(1, _CHUNK // int(np.prod(seq)))
    kept = range(first.n_layers) if concat else [first.n_layers - 1]
    out = np.empty((t_total - washout,) + lead + (sum(first.layers[l].size for l in kept),))

    plan, col = [], 0
    for l, same in enumerate(zip(*(deep.layers for deep in reservoirs))):
        layer = same[0]
        kinds = {m.kind for m in same}
        kind = kinds.pop() if len(kinds) == 1 else ResidualKind.RANDOM_ORTHOGONAL
        o_t = _transposed([m.o for m in same]) if kind is ResidualKind.RANDOM_ORTHOGONAL else None
        if h0 is None:
            state = np.zeros(lead + (layer.size,))
        else:
            state = np.array(h0[l], dtype=float)
            if state.shape != lead + (layer.size,):
                raise ValueError("initial state does not match layer size")
        buf = np.zeros((chunk,) + lead + (layer.size,))
        per_reservoir = ([buf[:, s].reshape((chunk,) + seq + (layer.size,))
                          for s in range(count)] if stacked else [buf])
        cols = None
        if l in kept:
            cols, col = slice(col, col + layer.size), col + layer.size
        plan.append((_kernel(layer, kind, _transposed([m.w_h for m in same]), o_t),
                     [m.w_x.T for m in same], [m.b for m in same], buf, list(buf),
                     per_reservoir, state, np.empty(state.shape), cols))

    errors: list[str | None] = [None] * count
    x = np.zeros((chunk,) + inputs.shape[1:])
    for t0 in range(0, t_total, chunk):
        n = min(chunk, t_total - t0)
        x[:n] = inputs[t0:t0 + n]
        drives = [x] * count
        for l, (update, w_x_t, b, buf, rows, per_reservoir, state, z, cols) in enumerate(plan):
            for s, pre in enumerate(per_reservoir):
                np.matmul(drives[s], w_x_t[s], out=pre)
                pre += b[s]
            drives = per_reservoir
            h = state
            for row in rows[:n]:
                update(h, row, z)
                h = row
            np.copyto(state, h)
            finite = np.isfinite(buf[:n]).reshape(n, count, -1).all(axis=2)
            if not finite.all():
                for s in range(count):
                    if errors[s] is None and not finite[:, s].all():
                        errors[s] = (f"non-finite state at step {t0 + np.argmin(finite[:, s])} "
                                     f"in layer {l + 1}")
            if cols is not None and t0 + n > washout:
                a = max(washout - t0, 0)
                out[t0 + a - washout:t0 + n - washout, ..., cols] = buf[a:n]
        if all(errors):
            break
    if not stacked:
        return [out], errors
    shape = (t_total - washout,) + seq + out.shape[-1:]
    return [out[:, s].reshape(shape) for s in range(count)], errors


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
    if inputs.ndim != 2 or len(inputs) == 0:
        raise ValueError(f"inputs have shape {inputs.shape}, expected non-empty (T, N_x) or (T,)")
    if h0 is not None and len(h0) != deep.n_layers:
        raise ValueError(f"h0 has {len(h0)} initial states, the stack has {deep.n_layers} layers")
    states, errors = run_states([deep], inputs, h0=h0)
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
