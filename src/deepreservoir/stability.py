"""Stability analysis of deep residual reservoirs.

Covers the linearized view (per-layer and global Jacobians, spectral
radii) and the contraction view (layer Lipschitz coefficients, empirical
convergence of trajectories from different initial states). The global
Jacobian of the stack is block lower-triangular because a layer never
depends on the states of deeper layers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import reservoir as _res
from .numerics import RngStream, eigenvalues, operator_norm_2, spectral_radius
from .reservoir import DeepReservoir, Layer


@dataclass
class StabilityReport:
    """Spectral radii and contraction coefficients of an instantiated stack.

    A layer's radius is rho(alpha * O + beta * W_h), its Jacobian block at
    zero state and input. esp_necessary_ok is the zero-state linearization
    test (global spectral radius < 1, necessary for the echo state
    property); contractive is the sufficient condition (global Lipschitz
    coefficient < 1). Configurations can pass the first and fail the second.
    """

    per_layer_rho: list[float]
    global_rho: float
    per_layer_c: list[float]
    global_c: float
    esp_necessary_ok: bool
    contractive: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _tanh_slope(layer: Layer, h_prev: np.ndarray, layer_input: np.ndarray) -> np.ndarray:
    """tanh' at the layer's pre-activation W_h h_prev + W_x layer_input + b."""
    t = np.tanh(layer.w_h @ h_prev + layer.w_x @ layer_input + layer.b)
    return 1.0 - t * t


def layer_block_jacobian(layer: Layer, h_prev: np.ndarray, layer_input: np.ndarray) -> np.ndarray:
    """Derivative of one layer's update with respect to its own previous state.

    Equals alpha * O + beta * diag(tanh'(z)) @ W_h with the pre-activation z
    evaluated at (h_prev, layer_input); the bias is part of z.
    """
    h_prev = np.asarray(h_prev, dtype=float)
    layer_input = np.asarray(layer_input, dtype=float)
    if h_prev.shape != (layer.size,) or layer_input.shape != (layer.input_dim,):
        raise ValueError("state or input dimension does not match the layer")
    return _block(layer, _tanh_slope(layer, h_prev, layer_input))


def _block(layer: Layer, d: np.ndarray) -> np.ndarray:
    """alpha * O + beta * diag(d) @ W_h, d the tanh slope at the layer's
    pre-activation."""
    return layer.alpha * layer.o + layer.beta * (d[:, None] * layer.w_h)


def _layer_inputs(deep: DeepReservoir, global_state: list[np.ndarray],
                  x: np.ndarray) -> list[np.ndarray]:
    """Each layer's input during one global step from global_state: x for
    the first layer, the previous layer's fresh state for the others."""
    return [np.asarray(x, dtype=float)] + _res.step(deep, global_state, x)[:-1]


def global_jacobian(deep: DeepReservoir, global_state: list[np.ndarray],
                    x: np.ndarray) -> np.ndarray:
    """Jacobian of the one-step global map at (global_state, x).

    Diagonal blocks are the per-layer Jacobians; the block at (i, j), i > j,
    chains the input coupling beta_i * diag(tanh') @ W_x through every layer
    between j and i. Blocks above the diagonal are zero.
    """
    inputs = _layer_inputs(deep, global_state, x)

    sizes = [layer.size for layer in deep.layers]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    jac = np.zeros((total, total))

    diag_blocks: list[np.ndarray] = []
    input_couplings: list[np.ndarray] = []  # beta_l diag(tanh') W_x per layer
    for layer, h, inp in zip(deep.layers, global_state, inputs):
        d = _tanh_slope(layer, h, inp)
        diag_blocks.append(_block(layer, d))
        input_couplings.append(layer.beta * (d[:, None] * layer.w_x))

    for j in range(deep.n_layers):
        block = diag_blocks[j]
        jac[offsets[j]:offsets[j + 1], offsets[j]:offsets[j + 1]] = block
        running = block
        for i in range(j + 1, deep.n_layers):
            running = input_couplings[i] @ running
            jac[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = running
    return jac


def contraction_coefficients(deep: DeepReservoir) -> tuple[list[float], float]:
    """Layer Lipschitz coefficients and their maximum.

    C(1) = alpha + beta * ||W_h||, and deeper layers add the input coupling
    scaled by the previous coefficient:
    C(l) = alpha + beta * (||W_h|| + C(l-1) * ||W_x||). A maximum below one
    is sufficient for the echo state property on bounded state spaces.
    """
    coeffs: list[float] = []
    prev_c = 0.0
    for l, layer in enumerate(deep.layers):
        c = layer.alpha + layer.beta * operator_norm_2(layer.w_h)
        if l > 0:
            c += layer.beta * prev_c * operator_norm_2(layer.w_x)
        coeffs.append(c)
        prev_c = c
    return coeffs, max(coeffs)


def max_metric(state_a: list[np.ndarray], state_b: list[np.ndarray]) -> float:
    """Distance between global states: max over layers of the L2 distance."""
    return max(float(np.linalg.norm(a - b)) for a, b in zip(state_a, state_b))


def esp_convergence_test(deep: DeepReservoir, input_seq: np.ndarray,
                         h: list[np.ndarray], h_prime: list[np.ndarray]) -> np.ndarray:
    """Per-step distance between two trajectories driven by the same input.

    Entry 0 is the initial distance; entry t the distance after t steps. A
    contraction with coefficient C bounds the trace by C**t times entry 0.
    """
    a = _res.forward(deep, input_seq, h0=h).states
    b = _res.forward(deep, input_seq, h0=h_prime).states
    per_layer = [np.linalg.norm(sa - sb, axis=1) for sa, sb in zip(a, b)]
    return np.concatenate([[max_metric(h, h_prime)], np.max(per_layer, axis=0)])


def eigenspectrum_report(deep: DeepReservoir, h: list[np.ndarray],
                         x: np.ndarray) -> list[np.ndarray]:
    """Eigenvalues of each layer's diagonal Jacobian block at (h, x)."""
    inputs = _layer_inputs(deep, h, x)
    return [eigenvalues(layer_block_jacobian(layer, h_l, inp))
            for layer, h_l, inp in zip(deep.layers, h, inputs)]


def random_probe(deep: DeepReservoir, rng: RngStream) -> tuple[list[np.ndarray], np.ndarray]:
    """Random hidden state and input, both uniform in (-1, 1)."""
    h = [rng.uniform(-1.0, 1.0, layer.size) for layer in deep.layers]
    x = rng.uniform(-1.0, 1.0, deep.input_dim)
    return h, x


def stability_report(deep: DeepReservoir) -> StabilityReport:
    per_rho = [spectral_radius(_block(layer, np.ones(layer.size))) for layer in deep.layers]
    per_c, global_c = contraction_coefficients(deep)
    global_rho = max(per_rho)
    return StabilityReport(
        per_layer_rho=per_rho,
        global_rho=global_rho,
        per_layer_c=per_c,
        global_c=global_c,
        esp_necessary_ok=global_rho < 1.0,
        contractive=global_c < 1.0,
    )

