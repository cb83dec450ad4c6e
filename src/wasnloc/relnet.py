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

The pair signals come from the batched pair step the classical localizers
use (:func:`classical.pair_correlations`), so F sees the same correlations
and SLF maps that classical SLF sums.

The training target for a source at p_s assigns each grid cell
exp(-distance(cell center, p_s)), so the map peaks at 1 on the source cell
and decays exponentially with distance in meters.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .classical import LocalizationResult, pair_correlations, pick_peak
from .features import (
    DEFAULT_FFT_SIZE,
    DEFAULT_GRID_N,
    DEFAULT_N_CENTRAL,
    Grid,
    central_lags,
    slf_project,
)
from .mlp import Mlp, MlpSpec
from .scenes import Scene, pair_metadata_vector
from .signals import MultichannelSignal

PAIR_METADATA_SIZE = 9
# Version 2: pairs are mean-pooled and SLF rows min-max scaled per pair;
# a version-1 model was trained on summed, per-example-scaled input.
CHECKPOINT_VERSION = 2
CHECKPOINT_MAGIC = b"WLNC"

FEATURE_KINDS = ("gcc", "slf")


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable: bad magic, version, size or checksum, or
    a header field or array shape that is missing, mistyped or inconsistent."""


@dataclass(frozen=True)
class RelNetConfig:
    """Architecture and feature-extraction settings for one model."""

    feature_kind: str = "slf"
    grid_n: int = DEFAULT_GRID_N
    fft_size: int = DEFAULT_FFT_SIZE
    n_central: int = DEFAULT_N_CENTRAL
    f_spec: MlpSpec | None = None
    g_spec: MlpSpec | None = None

    def __post_init__(self):
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"feature_kind must be one of {FEATURE_KINDS}")
        n_out = self.grid_n * self.grid_n
        if self.f_spec is None:
            object.__setattr__(self, "f_spec", MlpSpec((n_out, n_out, n_out)))
        if self.g_spec is None:
            object.__setattr__(self, "g_spec", MlpSpec((n_out, n_out, n_out)))
        if self.f_spec.layer_output_sizes[-1] != self.g_spec.layer_output_sizes[-1]:
            raise ValueError("relation and fusion stacks must share their output size")
        if self.g_spec.layer_output_sizes[-1] != n_out:
            raise ValueError("fusion output size must equal grid_n^2")

    @property
    def feature_size(self) -> int:
        return self.n_central if self.feature_kind == "gcc" else self.grid_n * self.grid_n

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
    def init_random(cls, config: RelNetConfig, rng_seed=0, dtype=np.float32) -> "RelNetModel":
        rng = np.random.default_rng(rng_seed)
        f = Mlp.init_random(config.input_size, config.f_spec, rng, dtype)
        g = Mlp.init_random(f.output_size, config.g_spec, rng, dtype)
        return cls(config, f, g)

    def parameters(self) -> list[np.ndarray]:
        """The flat parameter buffers [F, G], in checkpoint table order."""
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


def raw_pair_features(
    frame: MultichannelSignal, scene: Scene, config: RelNetConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unstandardized per-pair features for one example.

    Returns (gcc, slf, meta): (P, n_central), (P, grid_n^2) and (P, 9)
    arrays over the pairs of :func:`classical.pair_correlations`, which
    orients each pair by position, not by channel index, so relabeling the
    microphones only reorders the rows. Computing both feature kinds at
    once lets dataset caches serve either model.
    """
    pairs, corr, z_plane = pair_correlations(frame, scene, config.fft_size)
    grid = Grid(scene.room.width, scene.room.length, config.grid_n)
    mics = scene.mics.positions
    slf = slf_project(corr, frame.fs, mics, pairs, grid, z_plane)
    meta = pair_metadata_vector(mics[pairs[:, 0]], mics[pairs[:, 1]], scene.room.dims)
    return central_lags(corr, config.n_central), slf, meta


def assemble_input(
    gcc: np.ndarray, slf: np.ndarray, meta: np.ndarray, config: RelNetConfig, dtype=np.float32
) -> np.ndarray:
    """Standardize the configured feature kind and append pair metadata."""
    feats = standardize_features(gcc if config.feature_kind == "gcc" else slf, config.feature_kind)
    if feats.shape[1] != config.feature_size:
        raise ValueError(
            f"feature width {feats.shape[1]} does not match configured "
            f"{config.feature_size} for kind {config.feature_kind!r}"
        )
    return np.hstack([feats, meta]).astype(dtype)


def pair_feature_matrix(
    frame: MultichannelSignal, scene: Scene, config: RelNetConfig, dtype=np.float32
) -> np.ndarray:
    gcc, slf, meta = raw_pair_features(frame, scene, config)
    return assemble_input(gcc, slf, meta, config, dtype)


def relnet_forward_features(model: RelNetModel, features: np.ndarray) -> np.ndarray:
    """Heatmap from an already-assembled (P, input_size) pair matrix."""
    relations, _ = model.f.forward(features)
    pooled = relations.mean(axis=0)
    heatmap, _ = model.g.forward(pooled)
    return heatmap


def relnet_forward(model: RelNetModel, frame: MultichannelSignal, scene: Scene) -> np.ndarray:
    """End-to-end heatmap for one example (any M >= 2)."""
    features = pair_feature_matrix(frame, scene, model.config)
    return relnet_forward_features(model, features)


def gnn_localize(
    model: RelNetModel,
    frame: MultichannelSignal,
    scene: Scene,
    grid: Grid | None = None,
) -> LocalizationResult:
    """Localize with a trained relation network (grid maximum wins)."""
    if grid is None:
        grid = Grid(scene.room.width, scene.room.length, model.config.grid_n)
    heatmap = relnet_forward(model, frame, scene)
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


def _layer_entries(prefix: str, mlp: Mlp) -> list[dict]:
    entries = []
    for k, (w, b) in enumerate(mlp.layers):
        entries.append({"name": f"{prefix}.{k}.w", "shape": list(w.shape)})
        entries.append({"name": f"{prefix}.{k}.b", "shape": list(b.shape)})
    return entries


def save_checkpoint(model: RelNetModel, path) -> None:
    """Write a model as a JSON header plus a little-endian float32 blob.

    Layout: magic, uint32 header length, UTF-8 JSON header (architecture,
    feature kind, grid size, array table with offsets, CRC32 of the blob),
    then the weight arrays concatenated in table order.
    """
    cfg = model.config
    arrays = _layer_entries("f", model.f) + _layer_entries("g", model.g)
    offset = 0
    for entry in arrays:
        entry["offset"] = offset
        offset += int(np.prod(entry["shape"]))
    blob = b"".join(
        np.ascontiguousarray(p, dtype="<f4").tobytes() for p in model.parameters()
    )
    header = {
        "version": CHECKPOINT_VERSION,
        "feature_kind": cfg.feature_kind,
        "grid_n": cfg.grid_n,
        "fft_size": cfg.fft_size,
        "n_central": cfg.n_central,
        "input_size": cfg.input_size,
        "f_sizes": list(cfg.f_spec.layer_output_sizes),
        "g_sizes": list(cfg.g_spec.layer_output_sizes),
        "arrays": arrays,
        "blob_floats": offset,
        "blob_crc32": zlib.crc32(blob),
    }
    payload = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.uint32(len(payload)).tobytes())
        fh.write(payload)
        fh.write(blob)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(obj, key: str, path, where: str = "header", kind: str = "int"):
    """obj[key] checked to be of kind "int", "str", "list" or "ints" (a list
    of non-negative ints); CheckpointError naming the file and the field."""
    if not isinstance(obj, dict) or key not in obj:
        raise CheckpointError(f"{path}: {where} has no field {key!r}")
    value = obj[key]
    ok = {
        "int": _is_int(value),
        "str": isinstance(value, str),
        "list": isinstance(value, list),
        "ints": isinstance(value, list) and all(_is_int(v) and v >= 0 for v in value),
    }[kind]
    if not ok:
        raise CheckpointError(f"{path}: {where} field {key!r} is {value!r}, expected {kind}")
    return value


def load_checkpoint(path) -> RelNetModel:
    """Read a model written by save_checkpoint.

    Every header field and every array shape is checked against the
    architecture the header declares; anything malformed, stale or
    inconsistent raises CheckpointError naming the file and the field.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    header_len = int(np.frombuffer(data[4:8], dtype="<u4")[0])
    if len(data) < 8 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: version {header.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )
    blob = data[8 + header_len :]
    expected = _field(header, "blob_floats", path)
    entries = []
    for k, entry in enumerate(_field(header, "arrays", path, kind="list")):
        name = _field(entry, "name", path, f"array entry {k}", "str")
        shape = tuple(_field(entry, "shape", path, f"array {name!r}", "ints"))
        entries.append((name, shape, _field(entry, "offset", path, f"array {name!r}")))
    declared = sum(math.prod(shape) for _, shape, _ in entries)
    if declared != expected:
        raise CheckpointError(f"{path}: array table covers {declared} floats, header says {expected}")
    if len(blob) != 4 * expected:
        raise CheckpointError(f"{path}: blob is {len(blob)} bytes, expected {4 * expected}")
    if zlib.crc32(blob) != _field(header, "blob_crc32", path):
        raise CheckpointError(f"{path}: checksum failure")

    flat = np.frombuffer(blob, dtype="<f4")
    values = {}
    for name, shape, offset in entries:
        size = math.prod(shape)
        if not 0 <= offset <= expected - size:
            raise CheckpointError(f"{path}: array {name!r} at float {offset} overruns the blob")
        values[name] = flat[offset : offset + size].reshape(shape)
    try:
        config = RelNetConfig(
            feature_kind=_field(header, "feature_kind", path, kind="str"),
            grid_n=_field(header, "grid_n", path),
            fft_size=_field(header, "fft_size", path),
            n_central=_field(header, "n_central", path),
            f_spec=MlpSpec(tuple(_field(header, "f_sizes", path, kind="ints"))),
            g_spec=MlpSpec(tuple(_field(header, "g_sizes", path, kind="ints"))),
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: inconsistent architecture: {exc}") from exc
    input_size = _field(header, "input_size", path)
    if input_size != config.input_size:
        raise CheckpointError(
            f"{path}: header field 'input_size' is {input_size}, the architecture needs "
            f"{config.input_size}"
        )

    f = Mlp.empty(config.input_size, config.f_spec)
    g = Mlp.empty(f.output_size, config.g_spec)
    copies = []  # (blob view, parameter view), filled once every array is checked
    for prefix, net in (("f", f), ("g", g)):
        for k, layer in enumerate(net.layers):
            for part, dest in zip("wb", layer):
                name = f"{prefix}.{k}.{part}"
                if name not in values:
                    raise CheckpointError(f"{path}: missing array {name!r}")
                if values[name].shape != dest.shape:
                    raise CheckpointError(
                        f"{path}: array {name!r} has shape {values[name].shape}, expected {dest.shape}"
                    )
                copies.append((values[name], dest))
    for src, dest in copies:
        dest[...] = src
    return RelNetModel(config, f, g)
