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

from .numerics import RngStream, spectral_radius, uniform_matrix

# Fresh draws attempted when W_h comes out with zero spectral radius.
_NILPOTENT_RETRIES = 3


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

    o is the dense residual matrix for every kind; the update applies the
    identity and cyclic kinds without it, so for those o must be exactly
    the matrix build_residual gives.
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    o: np.ndarray
    alpha: float
    beta: float
    kind: ResidualKind

    def __post_init__(self):
        n = self.size
        if self.kind is ResidualKind.RANDOM_ORTHOGONAL:
            if self.o.shape != (n, n):
                raise ValueError(f"residual matrix has shape {self.o.shape}, layer needs {(n, n)}")
        elif not np.array_equal(self.o, build_residual(self.kind, n)):
            raise ValueError(f"residual matrix is not the {self.kind.value} matrix of size {n}")

    @property
    def size(self) -> int:
        return self.w_h.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]


@dataclass
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

    def zero_state(self) -> list[np.ndarray]:
        return [np.zeros(layer.size) for layer in self.layers]


@dataclass
class StateTrajectory:
    """Per-layer hidden states over time; washout marks the warm-up boundary."""

    states: list[np.ndarray]  # one (T, N_h) array per layer
    washout: int

    def __post_init__(self):
        lengths = {s.shape[0] for s in self.states}
        if len(lengths) != 1:
            raise ValueError("all layers must cover the same number of steps")
        if not 0 <= self.washout < self.steps:
            raise ValueError(f"washout {self.washout} must be < steps {self.steps}")

    @property
    def steps(self) -> int:
        return self.states[0].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.states)


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
    from .numerics import qr_orthogonal

    return qr_orthogonal(n, rng)


def build_layer(config: LayerConfig, input_dim: int, rng: RngStream) -> Layer:
    """Instantiate a layer's weights from its config.

    Draw order is fixed (W_x, W_h, b, O) so a seed pins the full network.
    Input and bias weights are drawn in [-1, 1) and scaled, which keeps the
    stream consumption identical when a scaling is zero. A recurrent draw
    with zero spectral radius (never seen in practice) is retried a few
    times before failing.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    n = config.hidden_size
    w_x = uniform_matrix(n, input_dim, -1.0, 1.0, rng) * config.input_scaling

    w_h = None
    for _ in range(1 + _NILPOTENT_RETRIES):
        raw = uniform_matrix(n, n, -1.0, 1.0, rng)
        rho = spectral_radius(raw)
        if rho > 0.0:
            w_h = raw * (config.spectral_radius / rho)
            break
    if w_h is None:
        raise ValueError("recurrent matrix draw has zero spectral radius after retries")

    b = rng.uniform(-1.0, 1.0, n) * config.bias_scaling
    o = build_residual(config.residual, n, rng)
    return Layer(w_x=w_x, w_h=w_h, b=b, o=o, alpha=config.alpha, beta=config.beta,
                 kind=config.residual)


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


def _kernel(layer: Layer):
    """The layer's state update, bound once per layer so that the step loop
    looks up no attributes: update(h, pre, out, z) writes

        out = alpha * (O h) + beta * tanh(h @ W_h.T + pre)

    with pre = x @ W_x.T + b the input drive. h, pre, out and the work
    buffer z are (N,) or (B, N) with states as rows; out and z are
    C-contiguous and alias neither h nor each other. The identity and
    cyclic residuals are applied as a copy and a shift, exactly what their
    permutation matrices give.
    """
    w_h_t, o_t, alpha, beta = layer.w_h.T, layer.o.T, layer.alpha, layer.beta
    identity = layer.kind is ResidualKind.IDENTITY
    cyclic = layer.kind is ResidualKind.CYCLIC

    def update(h, pre, out, z):
        np.dot(h, w_h_t, out=z)
        z += pre
        np.tanh(z, out=z)
        z *= beta
        if identity:
            np.multiply(h, alpha, out=out)
        elif cyclic:
            out[..., 0] = h[..., -1]
            out[..., 1:] = h[..., :-1]
            out *= alpha
        else:
            np.dot(h, o_t, out=out)
            out *= alpha
        out += z

    return update


def step_layer(layer: Layer, h_prev: np.ndarray, x_t: np.ndarray) -> np.ndarray:
    """One state update of a single layer.

    h_prev is (N,) and x_t is (N_x,), or (B, N) and (B, N_x) to advance B
    states through the same weights with one matrix product.
    """
    h_prev = np.asarray(h_prev, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    if h_prev.ndim not in (1, 2) or h_prev.shape[-1] != layer.size:
        raise ValueError(f"state has shape {h_prev.shape}, layer expects (..., {layer.size})")
    if x_t.shape != h_prev.shape[:-1] + (layer.input_dim,):
        raise ValueError(f"input has shape {x_t.shape}, layer expects "
                         f"{h_prev.shape[:-1] + (layer.input_dim,)}")
    pre = x_t @ layer.w_x.T
    pre += layer.b
    h = np.empty(h_prev.shape)
    _kernel(layer)(h_prev, pre, h, np.empty(h_prev.shape))
    if not np.all(np.isfinite(h)):
        raise StateOverflowError("layer state became non-finite")
    return h


def step(deep: DeepReservoir, h_prev: list[np.ndarray], x_t: np.ndarray) -> list[np.ndarray]:
    """One global update: every layer advances once, layer l > 1 fed by the
    fresh state of layer l - 1. States and input may carry a leading batch
    axis, as in step_layer."""
    if len(h_prev) != deep.n_layers:
        raise ValueError("global state must have one vector per layer")
    out: list[np.ndarray] = []
    drive = np.asarray(x_t, dtype=float)
    for layer, h in zip(deep.layers, h_prev):
        new = step_layer(layer, h, drive)
        out.append(new)
        drive = new
    return out


def _require_finite_inputs(inputs: np.ndarray) -> None:
    """Reject a non-finite input, naming its first step (and, for a
    (B, T, N_x) batch, its sequence)."""
    bad = ~np.isfinite(inputs).all(axis=-1)
    if not bad.any():
        return
    where = np.argwhere(bad)[0]
    if inputs.ndim == 2:
        raise ValueError(f"non-finite input at step {where[0]}")
    raise ValueError(f"non-finite input at step {where[1]} of sequence {where[0]}")


def final_states(deep: DeepReservoir, batch: np.ndarray) -> list[np.ndarray]:
    """Last state of every layer for B equal-length sequences run together.

    batch is (B, T, N_x); every sequence starts from the zero state. All B
    sequences advance one time step at a time through step, so each layer
    does one (B, N) matrix product per step and holds only its current
    state: nothing of size T is kept. Returns one (B, N_l) array per layer.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 3 or batch.shape[0] == 0 or batch.shape[1] == 0:
        raise ValueError(f"batch has shape {batch.shape}, expected non-empty (B, T, N_x)")
    if batch.shape[2] != deep.input_dim:
        raise ValueError(
            f"input dim {batch.shape[2]} does not match reservoir input {deep.input_dim}"
        )
    _require_finite_inputs(batch)
    h = [np.zeros((batch.shape[0], layer.size)) for layer in deep.layers]
    for t in range(batch.shape[1]):
        h = step(deep, h, batch[:, t])
    return h


def forward(deep: DeepReservoir, inputs: np.ndarray, washout: int = 0,
            h0: list[np.ndarray] | None = None) -> StateTrajectory:
    """Run the stack over an input sequence.

    inputs is (T, N_x) or (T,) for scalar series. The trajectory keeps every
    step; washout only marks the boundary later used by feature extraction.
    A non-finite input is rejected on entry, naming its step; a non-finite
    state is reported after its layer's run, naming its first step and the
    layer.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    t_total = inputs.shape[0]
    if t_total == 0:
        raise ValueError("input sequence is empty")
    if inputs.shape[1] != deep.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[1]} does not match reservoir input {deep.input_dim}"
        )
    if not 0 <= washout < t_total:
        raise ValueError(f"washout {washout} must be < sequence length {t_total}")
    _require_finite_inputs(inputs)
    if h0 is None:
        h0 = deep.zero_state()

    drive = inputs
    all_states: list[np.ndarray] = []
    for l, (layer, h_init) in enumerate(zip(deep.layers, h0)):
        h = np.array(h_init, dtype=float)
        if h.shape != (layer.size,):
            raise ValueError("initial state does not match layer size")
        pre = drive @ layer.w_x.T + layer.b  # input drive for every step at once
        states = np.empty((t_total, layer.size))
        z = np.empty(layer.size)
        update = _kernel(layer)
        for t in range(t_total):
            update(h, pre[t], states[t], z)
            h = states[t]
        bad = ~np.isfinite(states).all(axis=1)
        if bad.any():
            raise StateOverflowError(
                f"non-finite state at step {np.argmax(bad)} in layer {l + 1}")
        all_states.append(states)
        drive = states
    return StateTrajectory(states=all_states, washout=washout)


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


def readout_features(traj: StateTrajectory, concat: bool) -> np.ndarray:
    """Assemble the feature matrix the readout consumes: one row per
    post-washout time step. concat stacks all layers horizontally,
    otherwise only the last layer contributes.
    """
    kept = traj.states if concat else traj.states[-1:]
    if traj.washout >= traj.steps:
        raise ValueError("washout consumes every step, no features left")
    return np.hstack([s[traj.washout:] for s in kept])
