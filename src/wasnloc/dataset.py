"""Synthetic dataset generation and on-disk layout.

Each example lives in its own directory: one float32 WAV per channel
(ch_00.wav ...) at the package's one rate, ``rir.DEFAULT_FS``, the scene
as scene.json and features.bin, a cache of the raw per-pair GCC/SLF
features so training never touches audio again (a stale, unreadable or
non-finite cache is recomputed from the WAVs). A JSON manifest at
the dataset root lists every example with its microphone count, room,
true source position and seed.

Example seeds are master_seed + split offset + index, so splits are
disjoint by construction and regeneration with the same master seed is
byte-identical. Generation is parallel over examples (each example is a
pure function of config, split and index).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import sys
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .features import (
    DEFAULT_FFT_SIZE,
    DEFAULT_FRAME_MS,
    DEFAULT_GRID_N,
    DEFAULT_N_CENTRAL,
    Grid,
    extract_frame,
)
from .relnet import (
    PAIR_METADATA_SIZE,
    RelNetConfig,
    assemble_input,
    raw_pair_features,
    target_map,
)
from .rir import DEFAULT_FS, InfeasibleRoomError
from .scenes import (
    PlacementError,
    Scene,
    SceneDistribution,
    sample_scene,
    scene_from_json,
    scene_to_json,
)
from .signals import (
    SourceSignalConfig,
    add_noise,
    auralize,
    provide_source_signal_with_id,
    read_wav_mono,
    write_wav,
)
from .training import FeatureExample
from .typedjson import ConfigError, build, loads

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
SPLITS = ("train", "val", "test")
_SPLIT_SEED_OFFSETS = {"train": 0, "val": 1_000_000, "test": 2_000_000}

FEATURES_NAME = "features.bin"
# Version 2: SLF rows average the correlation over each cell's lag interval.
# Version 3: the "version" member also holds the FEATURE_PARAMS values.
FEATURES_VERSION = 3
# The settings that shape the cached arrays, stored after the version so
# that a cache built with other settings is never served. Only grid_n is
# set per dataset; the DFT size, the central crop and the frame length are
# fixed (DEFAULT_FFT_SIZE, DEFAULT_N_CENTRAL, DEFAULT_FRAME_MS) but still
# recorded, so the file format and existing caches stay valid.
FEATURE_PARAMS = ("fft_size", "n_central", "grid_n", "frame_ms")


class FeatureCacheError(ValueError):
    """features.bin is stale (another format version or other build
    settings), unreadable, or holds arrays of the wrong shape."""


@dataclass(frozen=True)
class DatasetConfig:
    """Everything needed to synthesize one dataset."""

    train: int = 15_000
    val: int = 5_000
    test: int = 10_000
    train_mic_counts: tuple[int, ...] = (5, 7)
    val_mic_counts: tuple[int, ...] = (5, 7)
    test_mic_counts: tuple[int, ...] = (4, 5, 6, 7)
    master_seed: int = 0
    snr_db: float = 30.0
    duration_s: float = 1.0
    max_order: int | None = None
    scene: SceneDistribution = SceneDistribution()
    source: SourceSignalConfig = SourceSignalConfig()
    grid_n: int = DEFAULT_GRID_N
    workers: int = 1

    def __post_init__(self):
        for name, low in (("grid_n", 2), ("workers", 1), ("train", 0), ("val", 0), ("test", 0), ("max_order", 0)):
            value = getattr(self, name)
            if value is not None and value < low:  # max_order None: no cap
                raise ValueError(f"DatasetConfig.{name} must be >= {low}, got {value}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"DatasetConfig.duration_s must be > 0 and finite, got {self.duration_s}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"DatasetConfig.snr_db must be a number or inf, got {self.snr_db}")
        if math.isfinite(self.snr_db):
            try:  # the power ratio add_noise divides by
                ratio = 10.0 ** (self.snr_db / 10.0)
            except OverflowError:
                ratio = math.inf
            if not sys.float_info.min <= ratio < math.inf:  # keeps add_noise finite
                raise ValueError(
                    f"DatasetConfig.snr_db must give a power ratio within the float range, got {self.snr_db}"
                )

    @property
    def fs(self) -> int:
        """The fixed DEFAULT_FS. Read only by the benchmark's dataset checker,
        like n_central; goes when that checker stops reading it."""
        return DEFAULT_FS

    @property
    def n_central(self) -> int:
        """Width of the cached GCC rows, the fixed DEFAULT_N_CENTRAL."""
        return DEFAULT_N_CENTRAL

    @property
    def precompute_features(self) -> bool:
        """Always True: every example is written with its features.bin."""
        return True

    def split_count(self, split: str) -> int:
        return {"train": self.train, "val": self.val, "test": self.test}[split]

    def split_mic_counts(self, split: str) -> tuple[int, ...]:
        return {
            "train": self.train_mic_counts,
            "val": self.val_mic_counts,
            "test": self.test_mic_counts,
        }[split]

    def example_seed(self, split: str, index: int) -> int:
        return self.master_seed + _SPLIT_SEED_OFFSETS[split] + index


def generate_example(config: DatasetConfig, split: str, index: int, out_root) -> dict | None:
    """Synthesize and write one example; None if the scene was infeasible."""
    seed = config.example_seed(split, index)
    dist = replace(config.scene, mic_counts=config.split_mic_counts(split))
    try:
        scene = sample_scene(dist, seed)
    except PlacementError as exc:
        logger.warning("skipping %s/%05d: %s", split, index, exc)
        return None

    signal, signal_id = provide_source_signal_with_id(config.source, config.duration_s, [seed, 1])
    scene = replace(scene, signal_id=signal_id)
    try:
        received = auralize(scene, signal, max_order=config.max_order)
    except InfeasibleRoomError as exc:
        logger.warning("skipping %s/%05d: %s", split, index, exc)
        return None
    received = add_noise(received, config.snr_db, [seed, 2])

    example_dir = Path(out_root) / split / f"{index:05d}"
    example_dir.mkdir(parents=True, exist_ok=True)
    for k, channel in enumerate(received):
        write_wav(example_dir / f"ch_{k:02d}.wav", channel)
    (example_dir / "scene.json").write_text(scene_to_json(scene))
    gcc, slf, meta = raw_pair_features(extract_frame(received), scene, config.grid_n)
    write_feature_cache(example_dir / FEATURES_NAME, config.grid_n, gcc, slf, meta)

    return {"dir": f"{split}/{index:05d}", **_scene_fields(scene), "seed": seed}


def _scene_fields(scene: Scene) -> dict:
    """The fields of a manifest entry that restate its scene.json."""
    room = scene.room
    return {
        "m": scene.m,
        "room": [room.width, room.length, room.height],
        "t60": room.t60,
        "source_xy": scene.source[:2].tolist(),
    }


def _generate_one(args) -> dict | None:
    config, split, index, out_root = args
    return generate_example(config, split, index, out_root)


def generate_dataset(config: DatasetConfig, out_dir) -> dict:
    """Generate all splits and write the manifest; returns the manifest."""
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    splits = {}
    skipped = {}
    for split in SPLITS:
        count = config.split_count(split)
        jobs = [(config, split, i, out_root) for i in range(count)]
        if config.workers > 1 and count > 1:
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(_generate_one, jobs, chunksize=8))
        else:
            results = [_generate_one(job) for job in jobs]
        entries = [r for r in results if r is not None]
        skipped[split] = count - len(entries)
        if skipped[split]:
            logger.warning("%s: skipped %d infeasible scenes", split, skipped[split])
        splits[split] = {"count": len(entries), "examples": entries}

    manifest = {
        "version": MANIFEST_VERSION,
        "config": _config_to_json(config),
        "skipped": skipped,
        "splits": splits,
    }
    (out_root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def _config_to_json(config: DatasetConfig) -> dict:
    obj = dataclasses.asdict(config)
    obj.pop("workers")  # execution detail, not dataset identity
    if obj["snr_db"] == float("inf"):
        obj["snr_db"] = "inf"  # keep the manifest valid JSON
    return obj


@dataclass(frozen=True)
class _Entry:
    """One manifest entry, as split_entries checks it."""

    dir: str
    m: int
    room: tuple[float, float, float]
    t60: float
    source_xy: tuple[float, float]
    seed: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if min(self.room) <= 0:
            raise ValueError(f"room {list(self.room)} must be > 0 in every dimension")
        if self.t60 <= 0:
            raise ValueError(f"t60 must be > 0, got {self.t60}")
        (x, y), (width, length, _) = self.source_xy, self.room
        if not (0 <= x <= width and 0 <= y <= length):
            raise ValueError(f"source_xy {list(self.source_xy)} outside the room footprint {[width, length]}")


@dataclass(frozen=True)
class _Split:
    count: int
    examples: tuple[_Entry, ...]


def load_manifest(data_dir) -> dict:
    """The dataset's manifest. Invalid JSON, another version or no splits
    object raises ValueError naming the manifest file and the JSON pointer
    of the field; each split is checked when split_entries reads it."""
    path = Path(data_dir) / MANIFEST_NAME
    try:
        manifest = loads(path.read_bytes())
        if not isinstance(manifest, dict):
            raise ConfigError("/: must be a JSON object")
        if manifest.get("version") != MANIFEST_VERSION:
            raise ConfigError(f"/version: unsupported manifest version {manifest.get('version')!r}")
        if not isinstance(manifest.get("splits"), dict):
            raise ConfigError("/splits: missing or not an object")
    except ConfigError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return manifest


def split_entries(data_dir, manifest: dict, split: str) -> list[dict]:
    """The manifest entries of one split, checked against _Split and
    _Entry; ValueError naming the manifest and the JSON pointer of the
    first bad field, or the split if the manifest has no such split."""
    path = Path(data_dir) / MANIFEST_NAME
    if split not in manifest["splits"]:
        raise ValueError(f"{path}: no split {split!r}, the manifest has {sorted(manifest['splits'])}")
    try:
        build(_Split, manifest["splits"][split], ["splits", split])
    except ConfigError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return manifest["splits"][split]["examples"]


def _feature_key(grid_n: int) -> list[float]:
    """FEATURES_VERSION followed by the FEATURE_PARAMS values."""
    return [FEATURES_VERSION, DEFAULT_FFT_SIZE, DEFAULT_N_CENTRAL, grid_n, DEFAULT_FRAME_MS]


def write_feature_cache(path, grid_n: int, gcc: np.ndarray, slf: np.ndarray, meta: np.ndarray) -> None:
    """Write the raw pair features built on a grid_n grid."""
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.array(_feature_key(grid_n), dtype=np.float64),
            gcc=gcc.astype(np.float32),
            slf=slf.astype(np.float32),
            meta=meta.astype(np.float32),
        )


def read_feature_cache(
    path, grid_n: int, m: int, kinds: tuple[str, ...]
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """(gcc, slf, meta) of an example with m mics from its features.bin.

    Of the feature members "gcc" and "slf" only those named in kinds are
    decoded (a model reads one); the other is None and goes unchecked.
    FeatureCacheError names the file, and the member where there is one, if
    the file is not a readable npz, has another version, was built with
    other FEATURE_PARAMS values than grid_n and the fixed ones, or lacks a
    member read or holds one of other than M(M-1)/2 rows of its width or a
    value that is NaN or infinite.
    """
    pairs = m * (m - 1) // 2
    widths = {"gcc": DEFAULT_N_CENTRAL, "slf": grid_n**2, "meta": PAIR_METADATA_SIZE}
    wanted = _feature_key(grid_n)
    member = None  # the member being read, for the error message
    try:
        with np.load(path, allow_pickle=False) as data:
            member = "version"
            stored = data["version"].ravel().tolist() if "version" in data.files else [None]
            if stored[0] != FEATURES_VERSION:
                raise FeatureCacheError(f"{path}: version {stored[0]!r}, expected {FEATURES_VERSION}")
            if len(stored) != len(wanted):
                raise FeatureCacheError(f"{path}: version field holds {len(stored)} values, expected {len(wanted)}")
            for name, have, want in zip(FEATURE_PARAMS, stored[1:], wanted[1:]):
                if have != want:
                    raise FeatureCacheError(f"{path}: built with {name} {have:g}, expected {want:g}")
            arrays = {}
            for member in (*kinds, "meta"):
                if member not in data.files:
                    raise FeatureCacheError(f"{path}: no member {member!r}")
                arrays[member] = data[member]
                if arrays[member].shape != (pairs, widths[member]):
                    raise FeatureCacheError(
                        f"{path}: member {member!r} has shape {arrays[member].shape}, "
                        f"expected {(pairs, widths[member])}"
                    )
                if not np.isfinite(arrays[member]).all():
                    row, col = np.argwhere(~np.isfinite(arrays[member]))[0]
                    value = arrays[member][row, col]
                    raise FeatureCacheError(f"{path}: member {member!r} holds {value} at ({row}, {col})")
            return arrays.get("gcc"), arrays.get("slf"), arrays["meta"]
    except FeatureCacheError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        where = f"member {member!r}" if member else "file"
        raise FeatureCacheError(f"{path}: unreadable {where}: {exc}") from exc


def load_example_dir(example_dir) -> tuple[np.ndarray, Scene]:
    """Read one example's (M, n) channels and scene back from its directory.

    The directory must hold exactly ch_00.wav .. ch_{M-1}.wav for the M of
    scene.json, each of n samples at DEFAULT_FS; a missing or extra
    channel, or one of another rate or length, raises ValueError naming it.
    """
    example_dir = Path(example_dir)
    scene_path = example_dir / "scene.json"
    try:
        scene = scene_from_json(scene_path.read_bytes())
    except ValueError as exc:
        raise ValueError(f"{scene_path}: {exc}") from exc
    expected = {f"ch_{k:02d}.wav" for k in range(scene.m)}
    odd = sorted(expected ^ {p.name for p in example_dir.glob("ch_*.wav")})
    if odd:
        state = "is missing" if odd[0] in expected else "is not a channel"
        raise ValueError(f"{example_dir}: {odd[0]} {state}; scene.json has M = {scene.m}")
    channels = []
    for k in range(scene.m):
        wav = example_dir / f"ch_{k:02d}.wav"
        samples, rate = read_wav_mono(wav)
        if rate != DEFAULT_FS:
            raise ValueError(f"{wav}: sampled at {rate} Hz, expected {DEFAULT_FS} Hz")
        if channels and samples.size != channels[0].size:
            raise ValueError(f"{wav}: {samples.size} samples, but ch_00.wav has {channels[0].size}")
        channels.append(samples)
    return np.vstack(channels), scene


def load_example(data_dir, entry: dict) -> tuple[np.ndarray, Scene]:
    """The example of a manifest entry. The entry's m, room, t60 and
    source_xy must equal its scene.json's exactly, since both are written
    from the same floats; ValueError naming the manifest and the example
    otherwise."""
    received, scene = load_example_dir(Path(data_dir) / entry["dir"])
    for name, value in _scene_fields(scene).items():
        if entry[name] != value:
            raise ValueError(
                f"{Path(data_dir) / MANIFEST_NAME}: example {entry['dir']!r} has {name} {entry[name]!r}, "
                f"but its scene.json has {value!r}"
            )
    return received, scene


def example_features(data_dir, entry: dict, config: RelNetConfig) -> np.ndarray:
    """Assembled (P, input_size) float32 pair matrix for one example.

    Prefers the on-disk cache, of which it decodes only the configured
    feature kind and the metadata; falls back to recomputing from the WAVs
    when the cache is missing, unreadable, has another format version, was
    built with other parameters or has a damaged member of those read.
    """
    cache_path = Path(data_dir) / entry["dir"] / FEATURES_NAME
    if cache_path.exists():
        try:
            cached = read_feature_cache(cache_path, config.grid_n, entry["m"], (config.feature_kind,))
            return assemble_input(*cached, config)
        except FeatureCacheError as exc:
            logger.info("recomputing features: %s", exc)
    received, scene = load_example(data_dir, entry)
    return assemble_input(*raw_pair_features(extract_frame(received), scene, config.grid_n), config)


def load_split_features(data_dir, manifest: dict, split: str, config: RelNetConfig) -> list[FeatureExample]:
    """FeatureExamples (inputs + float32 target maps) for a whole split."""
    examples = []
    for entry in split_entries(data_dir, manifest, split):
        features = example_features(data_dir, entry, config)
        width, length, _ = entry["room"]
        grid = Grid(width, length, config.grid_n)
        target = target_map(np.asarray(entry["source_xy"]), grid).astype(np.float32)
        examples.append(FeatureExample(features=features, target=target))
    return examples
