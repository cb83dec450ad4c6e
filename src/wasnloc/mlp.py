"""Dense ReLU stacks with hand-written backprop and an Adam optimizer.

Everything here is plain numpy. A stack's parameters live in one flat
buffer, ``Mlp.flat``, holding W0, b0, W1, b1, ... back to back (each W
row-major, shape (fan_in, fan_out)); ``Mlp.layers`` is the list of (W, b)
views into it. Hidden layers apply ReLU, the final layer is affine only.
Forward passes accept a single vector or a (batch, features) matrix and
return a cache from which ``backward`` writes exact analytic gradients into
``Mlp.grad``, a twin of ``flat`` laid out the same way and allocated by the
first backward pass, and returns the gradient for the input.

``adam_step`` updates a list of such buffers in place, one cache-sized tile
at a time; every element goes through the same float operations in the same
order and dtype as the textbook update (Kingma & Ba, 2015).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Elements per Adam tile: the six tile-sized arrays of one tile fit in L2.
_ADAM_TILE = 65_536


@dataclass(frozen=True)
class MlpSpec:
    """Layer output sizes; hidden activations are ReLU, the output is linear."""

    layer_output_sizes: tuple[int, ...] = (625, 625, 625)

    def __post_init__(self):
        if len(self.layer_output_sizes) < 1 or any(s <= 0 for s in self.layer_output_sizes):
            raise ValueError("layer_output_sizes must be non-empty positive integers")


def _layer_shapes(input_size: int, spec: MlpSpec) -> list[tuple[tuple[int, int], tuple[int]]]:
    shapes = []
    fan_in = input_size
    for size in spec.layer_output_sizes:
        shapes.append(((fan_in, size), (size,)))
        fan_in = size
    return shapes


def _param_count(shapes) -> int:
    return sum(math.prod(w) + math.prod(b) for w, b in shapes)


def _views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into ``flat``, back to back in layer order."""
    layers = []
    offset = 0
    for w_shape, b_shape in shapes:
        views = []
        for shape in (w_shape, b_shape):
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        layers.append(tuple(views))
    return layers


class Mlp:
    """A dense stack whose layers [(W0, b0), (W1, b1), ...] are views into
    the 1-D buffer ``flat``; the buffer is used as given, not copied."""

    def __init__(self, input_size: int, spec: MlpSpec, flat: np.ndarray):
        self.input_size = int(input_size)
        self.spec = spec
        shapes = _layer_shapes(self.input_size, spec)
        size = _param_count(shapes)
        if flat.shape != (size,):
            raise ValueError(f"parameter buffer has shape {flat.shape}, the stack needs ({size},)")
        self.flat = flat
        self.layers = _views(flat, shapes)
        self.grad: np.ndarray | None = None  # allocated by the first backward pass
        self._grad_layers: list[tuple[np.ndarray, np.ndarray]] = []

    @classmethod
    def empty(cls, input_size: int, spec: MlpSpec, dtype=np.float32) -> "Mlp":
        """A stack on a fresh, uninitialised parameter buffer."""
        size = _param_count(_layer_shapes(input_size, spec))
        return cls(input_size, spec, np.empty(size, dtype=dtype))

    @classmethod
    def init_random(
        cls,
        input_size: int,
        spec: MlpSpec,
        rng: np.random.Generator,
        dtype=np.float32,
    ) -> "Mlp":
        """Seeded init: W uniform in +-sqrt(6 / fan_in), biases zero."""
        net = cls.empty(input_size, spec, dtype)
        for w, b in net.layers:
            bound = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = 0
        return net

    @property
    def output_size(self) -> int:
        return self.spec.layer_output_sizes[-1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the stack; returns (output, cache) with cache for backward.

        x may be (input_size,) or (batch, input_size); the output matches.
        """
        x = np.asarray(x)
        squeeze = x.ndim == 1
        a = x[None, :] if squeeze else x
        if a.shape[1] != self.input_size:
            raise ValueError(f"input size {a.shape[1]} != expected {self.input_size}")
        inputs = []
        preacts = []
        n_layers = len(self.layers)
        for k, (w, b) in enumerate(self.layers):
            inputs.append(a)
            z = a @ w + b
            preacts.append(z)
            a = np.maximum(z, 0.0) if k < n_layers - 1 else z
        cache = {"inputs": inputs, "preacts": preacts, "squeeze": squeeze}
        return (a[0] if squeeze else a), cache

    def backward(self, cache: dict, upstream: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Write the parameter gradients of a cached forward into ``grad``.

        Returns the gradient with respect to the input, or None when
        ``input_grad`` is false (the last matmul is then skipped).
        """
        if len(cache["inputs"]) != len(self.layers):
            raise ValueError("cache does not match this network")
        if self.grad is None:
            self.grad = np.empty_like(self.flat)
            self._grad_layers = _views(self.grad, _layer_shapes(self.input_size, self.spec))
        upstream = np.asarray(upstream)
        dz = upstream[None, :] if cache["squeeze"] else upstream
        for k in range(len(self.layers) - 1, -1, -1):
            if k < len(self.layers) - 1:
                dz = dz * (cache["preacts"][k] > 0)
            dw, db = self._grad_layers[k]
            np.matmul(cache["inputs"][k].T, dz, out=dw)
            np.sum(dz, axis=0, out=db)
            if k == 0 and not input_grad:
                return None
            dz = dz @ self.layers[k][0].T
        return dz[0] if cache["squeeze"] else dz

    def copy(self) -> "Mlp":
        """The parameters only; the copy allocates its own ``grad`` if trained."""
        return Mlp(self.input_size, self.spec, self.flat.copy())


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class AdamState:
    """First/second-moment accumulators for one parameter list."""

    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    config: AdamConfig,
) -> list[np.ndarray]:
    """One bias-corrected Adam update. Parameters are updated in place.

    Each array is updated in tiles of ``_ADAM_TILE`` elements with two
    scratch buffers; per element this is m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g, p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), each
    operation rounded in the parameter dtype, so the result equals the
    same expression evaluated on whole arrays, bit for bit.
    """
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("params/grads/state lengths disagree")
    if not all(p.flags.c_contiguous for p in params):
        raise ValueError("parameters must be C-contiguous to be updated in place")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, m, v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
        g = np.asarray(g).reshape(-1)
        scratch = np.empty((2, min(p.size, _ADAM_TILE)), dtype=p.dtype)
        for lo in range(0, p.size, _ADAM_TILE):
            hi = min(lo + _ADAM_TILE, p.size)
            ps, ms, vs = p[lo:hi], m[lo:hi], v[lo:hi]
            gs = g[lo:hi].astype(p.dtype, copy=False)
            t1, t2 = scratch[0, : hi - lo], scratch[1, : hi - lo]
            ms *= b1
            np.multiply(gs, 1.0 - b1, out=t1)
            ms += t1
            vs *= b2
            np.multiply(gs, 1.0 - b2, out=t1)
            t1 *= gs
            vs += t1
            np.divide(ms, bc1, out=t1)  # m_hat
            t1 *= config.lr
            np.divide(vs, bc2, out=t2)  # v_hat
            np.sqrt(t2, out=t2)
            t2 += config.eps
            t1 /= t2
            ps -= t1
    return params
