"""Synthetic dataset generation and on-disk layout.

Each example lives in its own directory: one float32 WAV per channel
(ch_00.wav ...), the scene as scene.json and, optionally, a features.bin
cache holding the raw per-pair GCC/SLF features so training never touches
audio again. A JSON manifest at the dataset root lists every example with
its microphone count, room, true source position and seed.

Example seeds are master_seed + split offset + index, so splits are
disjoint by construction and regeneration with the same master seed is
byte-identical. Generation is parallel over examples (each example is a
pure function of config, split and index).
"""

from __future__ import annotations

import dataclasses
import json
import logging
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
from .relnet import RelNetConfig, assemble_input, raw_pair_features, target_map
from .rir import DEFAULT_FS, InfeasibleRoomError
from .scenes import (
    PlacementError,
    Scene,
    SceneDistribution,
    sample_scene,
    scene_from_json,
    scene_to_json,
    with_signal_id,
)
from .signals import (
    MultichannelSignal,
    SourceSignalConfig,
    add_noise,
    auralize,
    provide_source_signal_with_id,
    read_wav_mono,
    write_wav,
)
from .training import FeatureExample

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
SPLITS = ("train", "val", "test")
_SPLIT_SEED_OFFSETS = {"train": 0, "val": 1_000_000, "test": 2_000_000}

FEATURES_NAME = "features.bin"
# Version 2: SLF rows average the correlation over each cell's lag interval.
FEATURES_VERSION = 2


class FeatureCacheError(ValueError):
    """features.bin is stale (another format version) or unreadable."""


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
    fs: int = DEFAULT_FS
    snr_db: float = 30.0
    duration_s: float = 1.0
    max_order: int | None = None
    scene: SceneDistribution = SceneDistribution()
    source: SourceSignalConfig = SourceSignalConfig()
    precompute_features: bool = True
    grid_n: int = DEFAULT_GRID_N
    fft_size: int = DEFAULT_FFT_SIZE
    n_central: int = DEFAULT_N_CENTRAL
    frame_ms: float = DEFAULT_FRAME_MS
    workers: int = 1

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

    def feature_config(self) -> RelNetConfig:
        return RelNetConfig(
            feature_kind="slf",
            grid_n=self.grid_n,
            fft_size=self.fft_size,
            n_central=self.n_central,
        )


def generate_example(config: DatasetConfig, split: str, index: int, out_root) -> dict | None:
    """Synthesize and write one example; None if the scene was infeasible."""
    seed = config.example_seed(split, index)
    dist = replace(config.scene, mic_counts=config.split_mic_counts(split))
    try:
        scene = sample_scene(dist, seed)
    except PlacementError as exc:
        logger.warning("skipping %s/%05d: %s", split, index, exc)
        return None

    signal, signal_id = provide_source_signal_with_id(
        config.source, config.duration_s, config.fs, [seed, 1]
    )
    scene = with_signal_id(scene, signal_id)
    try:
        received = auralize(scene, signal, config.fs, max_order=config.max_order)
    except InfeasibleRoomError as exc:
        logger.warning("skipping %s/%05d: %s", split, index, exc)
        return None
    received = add_noise(received, config.snr_db, [seed, 2])

    example_dir = Path(out_root) / split / f"{index:05d}"
    example_dir.mkdir(parents=True, exist_ok=True)
    for k in range(received.m):
        write_wav(example_dir / f"ch_{k:02d}.wav", received.channels[k], config.fs)
    (example_dir / "scene.json").write_text(scene_to_json(scene))
    if config.precompute_features:
        frame = extract_frame(received, config.frame_ms)
        gcc, slf, meta = raw_pair_features(frame, scene, config.feature_config())
        write_feature_cache(example_dir / FEATURES_NAME, gcc, slf, meta)

    return {
        "dir": f"{split}/{index:05d}",
        "m": scene.m,
        "room": [scene.room.width, scene.room.length, scene.room.height],
        "t60": scene.room.t60,
        "source_xy": [float(scene.source.position[0]), float(scene.source.position[1])],
        "seed": seed,
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


# Fields every manifest entry must carry, with the JSON type each must have.
_ENTRY_FIELDS = {"dir": str, "m": int, "room": list, "source_xy": list}


def load_manifest(data_dir) -> dict:
    """The dataset's manifest. Invalid JSON, another version, or a missing or
    mistyped field raises ValueError naming the manifest file and the field."""
    path = Path(data_dir) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "version" not in manifest:
        raise ValueError(f"{path}: manifest has no field 'version'")
    if manifest["version"] != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version {manifest['version']!r}")
    if not isinstance(manifest.get("splits"), dict):
        raise ValueError(f"{path}: field 'splits' is missing or not an object")
    for name, split in manifest["splits"].items():
        if not isinstance(split, dict) or not isinstance(split.get("examples"), list):
            raise ValueError(f"{path}: field 'splits.{name}.examples' is missing or not a list")
        for k, entry in enumerate(split["examples"]):
            for key, kind in _ENTRY_FIELDS.items():
                if not isinstance(entry, dict) or not isinstance(entry.get(key), kind):
                    raise ValueError(
                        f"{path}: field 'splits.{name}.examples[{k}].{key}' is missing or not {kind.__name__}"
                    )
    return manifest


def split_entries(data_dir, manifest: dict, split: str) -> list[dict]:
    """The manifest entries of one split; ValueError naming the manifest if
    it has no such split."""
    if split not in manifest["splits"]:
        raise ValueError(
            f"{Path(data_dir) / MANIFEST_NAME}: no split {split!r}, "
            f"the manifest has {sorted(manifest['splits'])}"
        )
    return manifest["splits"][split]["examples"]


def write_feature_cache(path, gcc: np.ndarray, slf: np.ndarray, meta: np.ndarray) -> None:
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int32(FEATURES_VERSION),
            gcc=gcc.astype(np.float32),
            slf=slf.astype(np.float32),
            meta=meta.astype(np.float32),
        )


def read_feature_cache(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gcc, slf, meta) from a features.bin; FeatureCacheError if stale."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"]) if "version" in data.files else None
        if version != FEATURES_VERSION:
            raise FeatureCacheError(
                f"{path}: version {version!r}, expected {FEATURES_VERSION}"
            )
        return data["gcc"], data["slf"], data["meta"]


def load_example_dir(example_dir) -> tuple[MultichannelSignal, Scene]:
    """Read one example's channels and scene back from its directory."""
    example_dir = Path(example_dir)
    scene_path = example_dir / "scene.json"
    try:
        scene = scene_from_json(scene_path.read_text())
    except ValueError as exc:
        raise ValueError(f"{scene_path}: {exc}") from exc
    channels = []
    fs = None
    for k in range(scene.m):
        wav = example_dir / f"ch_{k:02d}.wav"
        samples, rate = read_wav_mono(wav)
        if not channels:
            fs = rate
        elif (rate, samples.size) != (fs, channels[0].size):
            raise ValueError(
                f"{wav}: {samples.size} samples at {rate} Hz, but ch_00.wav has "
                f"{channels[0].size} samples at {fs} Hz"
            )
        channels.append(samples)
    return MultichannelSignal(np.vstack(channels), fs), scene


def load_example(data_dir, entry: dict) -> tuple[MultichannelSignal, Scene]:
    return load_example_dir(Path(data_dir) / entry["dir"])


def example_features(
    data_dir,
    entry: dict,
    config: RelNetConfig,
    frame_ms: float = DEFAULT_FRAME_MS,
    dtype=np.float32,
) -> np.ndarray:
    """Assembled (P, input_size) pair matrix for one example.

    Prefers the on-disk cache; falls back to recomputing from the WAVs
    when the cache is missing, has another format version or was built
    with other parameters.
    """
    cache_path = Path(data_dir) / entry["dir"] / FEATURES_NAME
    if cache_path.exists():
        try:
            gcc, slf, meta = read_feature_cache(cache_path)
        except FeatureCacheError as exc:
            logger.info("recomputing features: %s", exc)
        else:
            want = config.n_central if config.feature_kind == "gcc" else config.grid_n**2
            have = gcc.shape[1] if config.feature_kind == "gcc" else slf.shape[1]
            if have == want:
                return assemble_input(gcc, slf, meta, config, dtype)
    received, scene = load_example(data_dir, entry)
    frame = extract_frame(received, frame_ms)
    gcc, slf, meta = raw_pair_features(frame, scene, config)
    return assemble_input(gcc, slf, meta, config, dtype)


def load_split_features(
    data_dir,
    manifest: dict,
    split: str,
    config: RelNetConfig,
    frame_ms: float = DEFAULT_FRAME_MS,
    dtype=np.float32,
) -> list[FeatureExample]:
    """FeatureExamples (inputs + target maps) for a whole split."""
    examples = []
    for entry in split_entries(data_dir, manifest, split):
        features = example_features(data_dir, entry, config, frame_ms, dtype)
        width, length, _ = entry["room"]
        grid = Grid(width, length, config.grid_n)
        target = target_map(np.asarray(entry["source_xy"]), grid).astype(dtype)
        examples.append(FeatureExample(features=features, target=target))
    return examples
