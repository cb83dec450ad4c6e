"""Relation-network localizer: pairwise MLP relations averaged, then fused.

For every unordered microphone pair a feature vector is built from the
pair's signals (central GCC-PHAT bins, or the SLF map) concatenated with
the normalized pair metadata, pushed through the relation stack F; the
relation vectors are averaged over pairs and the fusion stack G maps the
mean to a heatmap over the room grid. Because the pair mean is
order-free and keeps its scale as the pair count grows (10 pairs at M = 5,
21 at M = 7), the model accepts any number of microphones at inference no
matter which counts it was trained on. The relation network of Santoro et
al. (2017) sums its relations; the mean differs only by the factor 1 / P.

The pair rows come from the pair step of the classical localizers,
:func:`classical.raw_pair_features`, so F sees the same central GCC-PHAT
lags that TDOA reduces and the same SLF maps that classical SLF sums.

One forward, :func:`forward_batch`, serves training, evaluation and
single-example localization: it stacks the pairs of many examples into one
F matmul and maps their pooled rows through G together.

The training target for a source at p_s assigns each grid cell
exp(-distance(cell center, p_s)), so the map peaks at 1 on the source cell
and decays exponentially with distance in meters.

A checkpoint is an archive in the format of :mod:`typedjson`, the one
features.bin uses: a JSON header holding the RelNetConfig, and the two flat
parameter buffers, whose shapes follow from the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .classical import LocalizationResult, pick_peak, raw_pair_features
from .features import DEFAULT_FFT_SIZE, DEFAULT_GRID_N, DEFAULT_N_CENTRAL, Grid
from .mlp import Mlp, layer_shapes
from .scenes import Scene
from .typedjson import InputError, read_archive, write_archive

PAIR_METADATA_SIZE = 9
# Version 2: pairs are mean-pooled and SLF rows min-max scaled per pair;
# a version-1 model was trained on summed, per-example-scaled input.
# Version 3: the header holds the RelNetConfig instead of an array table.
# Version 4: an npz archive of the header and the F and G buffers.
CHECKPOINT_VERSION = 4

FeatureKind = Literal["gcc", "slf"]
FEATURE_KINDS = get_args(FeatureKind)


@dataclass(frozen=True)
class RelNetConfig:
    """Architecture of one model: its feature kind, its grid and the layer
    output sizes of F and G (None: three layers of grid_n^2). A GCC feature
    row holds the DEFAULT_N_CENTRAL central lags of a DEFAULT_FFT_SIZE
    correlation; both sizes are fixed."""

    feature_kind: FeatureKind = "slf"
    grid_n: int = DEFAULT_GRID_N
    f_layer_sizes: tuple[int, ...] | None = None
    g_layer_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError(f"RelNetConfig.grid_n must be >= 2, got {self.grid_n}")
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"feature_kind must be one of {FEATURE_KINDS}")
        n_out = self.grid_n * self.grid_n
        for name in ("f_layer_sizes", "g_layer_sizes"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, (n_out, n_out, n_out))
        # ValueError unless both stacks have non-empty, positive sizes
        layer_shapes(self.input_size, self.f_layer_sizes)
        layer_shapes(self.f_layer_sizes[-1], self.g_layer_sizes)
        if self.f_layer_sizes[-1] != self.g_layer_sizes[-1]:
            raise ValueError("relation and fusion stacks must share their output size")
        if self.g_layer_sizes[-1] != n_out:
            raise ValueError("fusion output size must equal grid_n^2")

    @property
    def feature_size(self) -> int:
        return DEFAULT_N_CENTRAL if self.feature_kind == "gcc" else self.grid_n * self.grid_n

    @property
    def input_size(self) -> int:
        return self.feature_size + PAIR_METADATA_SIZE


class RelNetModel:
    """Relation stack F and fusion stack G plus their configuration."""

    def __init__(self, config: RelNetConfig, f: Mlp, g: Mlp):
        if f.input_size != config.input_size:
            raise ValueError(f"F input size {f.input_size} != configured {config.input_size}")
        if g.input_size != f.output_size:
            raise ValueError("G input size must equal F output size")
        self.config = config
        self.f = f
        self.g = g

    @classmethod
    def init_random(cls, config: RelNetConfig, rng_seed=0) -> "RelNetModel":
        rng = np.random.default_rng(rng_seed)
        f = Mlp.init_random(config.input_size, config.f_layer_sizes, rng)
        g = Mlp.init_random(f.output_size, config.g_layer_sizes, rng)
        return cls(config, f, g)

    def parameters(self) -> list[np.ndarray]:
        """The flat parameter buffers [F, G], the checkpoint's f and g members."""
        return [self.f.flat, self.g.flat]

    def copy(self) -> "RelNetModel":
        return RelNetModel(self.config, self.f.copy(), self.g.copy())


def standardize_features(raw: np.ndarray, kind: str) -> np.ndarray:
    """Per-example feature conditioning before the relation stack.

    GCC features are scaled by 1 / max|value| over the whole example. SLF
    features are min-max scaled per pair row, so one strong pair cannot
    flatten the maps of the others. Degenerate (constant or all-zero)
    examples or SLF rows pass through as zeros.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if kind == "gcc":
        peak = np.max(np.abs(raw))
        return raw / peak if peak > 0 else np.zeros_like(raw)
    if kind == "slf":
        lo = raw.min(axis=-1, keepdims=True)
        span = raw.max(axis=-1, keepdims=True) - lo
        out = raw - lo
        out /= np.where(span > 0, span, np.inf)  # constant rows become zeros
        return out
    raise ValueError(f"unknown feature kind {kind!r}")


def assemble_input(gcc: np.ndarray, slf: np.ndarray, meta: np.ndarray, config: RelNetConfig) -> np.ndarray:
    """Standardize the configured feature kind and append pair metadata, as
    the float32 (P, input_size) matrix the relation stack takes."""
    feats = standardize_features(gcc if config.feature_kind == "gcc" else slf, config.feature_kind)
    if feats.shape[1] != config.feature_size:
        raise ValueError(
            f"feature width {feats.shape[1]} does not match configured "
            f"{config.feature_size} for kind {config.feature_kind!r}"
        )
    return np.hstack([feats, meta]).astype(np.float32)


def forward_batch(model: RelNetModel, features: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
    """Heatmaps of B examples from their assembled (P_b, input_size) pair
    matrices, as (preds, caches): preds is (B, grid_n^2), caches holds
    what the backward pass of training needs.

    The pair rows of all examples are stacked so F runs as one matmul, a
    segment mean pools them back to one row per example, and G maps the B
    rows at once.
    """
    counts = np.array([x.shape[0] for x in features])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    relations, f_cache = model.f.forward(np.vstack(features))
    # divide in the model's dtype; integer counts would promote the fusion
    # stack and the backward pass to float64
    sizes = counts[:, None].astype(relations.dtype)
    pooled = np.add.reduceat(relations, starts, axis=0) / sizes
    preds, g_cache = model.g.forward(pooled)
    return preds, (f_cache, g_cache, counts, sizes)


def relnet_forward_features(model: RelNetModel, features: np.ndarray) -> np.ndarray:
    """Heatmap from one example's assembled (P, input_size) pair matrix."""
    return forward_batch(model, [features])[0][0]


def gnn_localize(model: RelNetModel, frame: np.ndarray, scene: Scene) -> LocalizationResult:
    """Localize one example (any M >= 2) with a trained relation network; the
    grid maximum of its heatmap wins."""
    features = assemble_input(*raw_pair_features(frame, scene, model.config.grid_n), model.config)
    heatmap = relnet_forward_features(model, features)
    grid = Grid(scene.room.width, scene.room.length, model.config.grid_n)
    return LocalizationResult(pick_peak(heatmap, grid, "max"), heatmap)


def target_map(p_s: np.ndarray, grid: Grid) -> np.ndarray:
    """Training target: exp(-distance) from each cell center to the source."""
    p_s = np.asarray(p_s, dtype=float).reshape(2)
    if not (0 <= p_s[0] <= grid.width and 0 <= p_s[1] <= grid.length):
        raise ValueError(f"source {p_s} outside the grid footprint")
    dists = np.linalg.norm(grid.cell_centers() - p_s[None, :], axis=1)
    return np.exp(-dists)


def mae_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its subgradient w.r.t. pred (sign(0) = 0)."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad.astype(pred.dtype, copy=False)


@dataclass(frozen=True)
class ArchiveHeader:
    """The first fields of a checkpoint's or features.bin's header: its
    format version and the fixed feature sizes, which take no other value."""

    version: int
    fft_size: Literal[DEFAULT_FFT_SIZE]
    n_central: Literal[DEFAULT_N_CENTRAL]


@dataclass(frozen=True)
class _Header(ArchiveHeader):
    """A checkpoint's header."""

    config: RelNetConfig


def save_checkpoint(model: RelNetModel, path) -> None:
    """Write a model as an archive (:func:`typedjson.write_archive`) of its
    header, the version, the fixed feature sizes and the RelNetConfig, and
    of ``f`` and ``g``, the two stacks' flat buffers."""
    header = _Header(CHECKPOINT_VERSION, DEFAULT_FFT_SIZE, DEFAULT_N_CENTRAL, model.config)
    f, g = model.parameters()
    write_archive(path, header, f=f, g=g)


def load_checkpoint(path) -> RelNetModel:
    """Read a model written by save_checkpoint; its f and g members, as long
    as the header's config gives, become the stacks' buffers as loaded.
    Anything missing, unreadable, stale or inconsistent raises InputError
    naming the file and the member or the header field's JSON pointer."""
    header, arrays = read_archive(path, _Header, ("f", "g"), version=CHECKPOINT_VERSION)
    config = header.config
    try:
        f = Mlp(config.input_size, config.f_layer_sizes, arrays["f"])
        g = Mlp(f.output_size, config.g_layer_sizes, arrays["g"])
    except ValueError as exc:
        raise InputError(f"members 'f' and 'g' do not fit header field 'config': {exc}", path) from exc
    return RelNetModel(config, f, g)
