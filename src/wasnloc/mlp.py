"""Dense ReLU stacks with hand-written backprop and an Adam optimizer.

Everything here is plain numpy. A stack's parameters live in one flat
buffer, ``Mlp.flat``, holding W0, b0, W1, b1, ... back to back (each W
row-major, shape (fan_in, fan_out)); ``Mlp.layers`` is the list of (W, b)
views into it. A stack is given by its layer output sizes, a tuple such as
``(625, 625, 625)``; hidden layers apply ReLU, the final layer is affine
only. Forward passes take a (batch, features) matrix and cache each
layer's input; ``backward`` reads each ReLU mask from the next layer's
input, writes exact analytic gradients into ``Mlp.grad``, a twin of
``flat`` laid out the same way and allocated by the first backward pass,
and returns the gradient for the input.

``adam_step`` updates a list of such buffers in place with a learning rate
and the fixed ADAM_BETA1, ADAM_BETA2 and ADAM_EPS, one cache-sized tile at
a time; every element goes through the same float operations in the same
order and dtype as the textbook update (Kingma & Ba, 2015).
"""

from __future__ import annotations

import math

import numpy as np

# Elements per Adam tile: the six tile-sized arrays of one tile fit in L2.
_ADAM_TILE = 65_536
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def layer_shapes(input_size: int, sizes: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int]]]:
    """The (W shape, b shape) of each layer, in the order they lie in
    ``Mlp.flat``; ValueError unless ``sizes`` is non-empty and positive."""
    if len(sizes) < 1 or any(s <= 0 for s in sizes):
        raise ValueError(f"layer sizes must be non-empty positive integers, got {sizes!r}")
    shapes = []
    fan_in = input_size
    for size in sizes:
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
    the 1-D buffer ``flat``, used as given, not copied (load_checkpoint
    passes its loaded arrays); ValueError unless its length is the
    stack's parameter count."""

    def __init__(self, input_size: int, sizes: tuple[int, ...], flat: np.ndarray):
        self.input_size = int(input_size)
        self.sizes = sizes
        shapes = layer_shapes(self.input_size, sizes)
        size = _param_count(shapes)
        if flat.shape != (size,):
            raise ValueError(f"parameter buffer has shape {flat.shape}, the stack needs ({size},)")
        self.flat = flat
        self.layers = _views(flat, shapes)
        self.grad: np.ndarray | None = None  # allocated by the first backward pass
        self._grad_layers: list[tuple[np.ndarray, np.ndarray]] = []

    @classmethod
    def init_random(
        cls,
        input_size: int,
        sizes: tuple[int, ...],
        rng: np.random.Generator,
        dtype=np.float32,
    ) -> "Mlp":
        """Seeded init: W uniform in +-sqrt(6 / fan_in), biases zero."""
        net = cls(input_size, sizes, np.empty(_param_count(layer_shapes(input_size, sizes)), dtype=dtype))
        for w, b in net.layers:
            bound = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = 0
        return net

    @property
    def output_size(self) -> int:
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the stack on a (batch, input_size) x; returns the (batch,
        output_size) output and the cache for backward."""
        a = np.asarray(x)
        if a.ndim != 2 or a.shape[1] != self.input_size:
            raise ValueError(f"input shape {a.shape} != expected (batch, {self.input_size})")
        inputs = []
        for k, (w, b) in enumerate(self.layers):
            inputs.append(a)
            a = a @ w
            a += b
            if k < len(self.layers) - 1:
                np.maximum(a, 0.0, out=a)
        return a, {"inputs": inputs}

    def backward(self, cache: dict, upstream: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Write the parameter gradients of a cached forward into ``grad``.

        Returns the gradient with respect to the input, or None when
        ``input_grad`` is false (the last matmul is then skipped).
        """
        if len(cache["inputs"]) != len(self.layers):
            raise ValueError("cache does not match this network")
        if self.grad is None:
            self.grad = np.empty_like(self.flat)
            self._grad_layers = _views(self.grad, layer_shapes(self.input_size, self.sizes))
        dz = np.asarray(upstream)
        for k in range(len(self.layers) - 1, -1, -1):
            if k < len(self.layers) - 1:
                # dz is this call's own product, so it is masked in place
                np.multiply(dz, cache["inputs"][k + 1] > 0, out=dz)
            dw, db = self._grad_layers[k]
            np.matmul(cache["inputs"][k].T, dz, out=dw)
            np.sum(dz, axis=0, out=db)
            if k == 0 and not input_grad:
                return None
            dz = dz @ self.layers[k][0].T
        return dz

    def copy(self) -> "Mlp":
        """The parameters only; the copy allocates its own ``grad`` if trained."""
        return Mlp(self.input_size, self.sizes, self.flat.copy())


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
    lr: float,
) -> list[np.ndarray]:
    """One bias-corrected Adam update at learning rate ``lr``. Parameters
    are updated in place.

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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
            t1 *= lr
            np.divide(vs, bc2, out=t2)  # v_hat
            np.sqrt(t2, out=t2)
            t2 += ADAM_EPS
            t1 /= t2
            ps -= t1
    return params
