"""Synthetic dataset generation and on-disk layout.

Each example lives in its own directory: one float32 WAV per channel
(ch_00.wav ...) at the package's one rate, ``rir.DEFAULT_FS``, the scene
as scene.json and features.bin, a cache of the raw per-pair GCC/SLF
features so training never touches audio again (a stale, unreadable or
non-finite cache is recomputed from the WAVs), an archive like a
checkpoint (:mod:`typedjson`). The features are computed from the float32
samples the WAVs hold, so a recompute from disk equals the cache bit for
bit. A JSON manifest at
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
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal

import numpy as np

from .classical import raw_pair_features
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
    ArchiveHeader,
    RelNetConfig,
    assemble_input,
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
from .typedjson import InputError, build, loads, read_archive, reading, write_archive

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
SPLITS = ("train", "val", "test")
_SPLIT_SEED_OFFSETS = {"train": 0, "val": 1_000_000, "test": 2_000_000}

FEATURES_NAME = "features.bin"
# Version 2: SLF rows average the correlation over each cell's lag interval.
# Version 3: the "version" member also holds the build settings.
# Version 4: a JSON header (_FeaturesHeader) replaces the "version" member.
# Version 5: the rows are computed from the float32 samples of the WAVs, not
# from the float64 signal before it was written.
FEATURES_VERSION = 5


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
        for name in ("train_mic_counts", "val_mic_counts", "test_mic_counts"):
            if not (counts := getattr(self, name)) or min(counts) < 2:
                raise ValueError(f"DatasetConfig.{name} must be non-empty, all counts >= 2, got {counts}")
        if self.scene.mic_counts != (default := SceneDistribution.mic_counts):  # the *_mic_counts set them
            raise ValueError(f"DatasetConfig.scene must be left at mic_counts {default}, got {self.scene.mic_counts}")
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
    # the samples as the WAVs hold them, which features.bin is computed from
    received = add_noise(received, config.snr_db, [seed, 2]).astype(np.float32)

    example_dir = Path(out_root) / split / f"{index:05d}"
    example_dir.mkdir(parents=True, exist_ok=True)
    for k, channel in enumerate(received):
        write_wav(example_dir / f"ch_{k:02d}.wav", channel)
    (example_dir / "scene.json").write_text(scene_to_json(scene))
    gcc, slf, meta = raw_pair_features(extract_frame(received), scene, config.grid_n)
    write_feature_cache(example_dir / FEATURES_NAME, scene, config.grid_n, gcc, slf, meta)

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
    """The dataset's manifest. A missing file, invalid JSON, another version
    (true and 1.0 too) or no splits object raises InputError naming the file
    and the field's JSON pointer; split_entries checks each split it reads."""
    path = Path(data_dir) / MANIFEST_NAME
    with reading(path):
        manifest = loads(path.read_bytes())
        if not isinstance(manifest, dict):
            raise InputError("/: must be a JSON object")
        if type(version := manifest.get("version")) is not int or version != MANIFEST_VERSION:
            raise InputError(f"/version: unsupported manifest version {version!r}")
        if not isinstance(manifest.get("splits"), dict):
            raise InputError("/splits: missing or not an object")
    return manifest


def split_entries(data_dir, manifest: dict, split: str) -> list[dict]:
    """The manifest entries of one split, checked against _Split and
    _Entry, the count the number of entries, each dir a "<split>/<digits>"
    named once (generate_example's), so no example is read from outside the
    split or scored twice. InputError names the manifest and the JSON
    pointer of the first bad field, or the split if the manifest lacks it."""
    with reading(Path(data_dir) / MANIFEST_NAME):
        if split not in manifest["splits"]:
            raise InputError(f"no split {split!r}, the manifest has {sorted(manifest['splits'])}")
        doc = build(_Split, manifest["splits"][split], ["splits", split])
        if doc.count != len(doc.examples):
            raise InputError(f"/splits/{split}/count: {doc.count}, but the split lists {len(doc.examples)} examples")
        seen = set()
        for k, entry in enumerate(doc.examples):
            if entry.dir in seen or not re.fullmatch(rf"{re.escape(split)}/[0-9]+", entry.dir):
                where = f"/splits/{split}/examples/{k}/dir"
                raise InputError(f"{where}: {entry.dir!r} must be a {split}/<digits> listed once")
            seen.add(entry.dir)
    return manifest["splits"][split]["examples"]


@dataclass(frozen=True)
class _FeaturesHeader(ArchiveHeader):
    """A features.bin header: the (fixed) frame length and the grid the rows
    were built with, and the scene fields of the example's manifest entry."""

    frame_ms: Literal[DEFAULT_FRAME_MS]
    grid_n: int
    m: int
    room: tuple[float, float, float]
    t60: float
    source_xy: tuple[float, float]


def write_feature_cache(path, scene: Scene, grid_n: int, gcc: np.ndarray, slf: np.ndarray, meta: np.ndarray) -> None:
    """Write the raw pair features of a scene built on a grid_n grid."""
    header = _FeaturesHeader(
        FEATURES_VERSION, DEFAULT_FFT_SIZE, DEFAULT_N_CENTRAL, DEFAULT_FRAME_MS, grid_n, **_scene_fields(scene)
    )
    write_archive(path, header, gcc=gcc, slf=slf, meta=meta)


def read_feature_cache(
    path, grid_n: int, entry: dict, members: tuple[str, ...]
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """(gcc, slf, meta) of the example of a manifest entry from its features.bin.

    Of the members "gcc", "slf" and "meta" only those named in members are
    decoded (a model reads its feature kind and meta, a classical method
    the one it reduces); the others are None and go unchecked. InputError
    names the file, and the member or the header field where there is one,
    if :func:`typedjson.read_archive` refuses the file (or finds none), its
    header has another version, grid_n or scene field than the entry's, or
    a member read has other than M(M-1)/2 rows of its width or holds a
    value that is NaN or infinite.
    """
    scene = {name: entry[name] for name in ("m", "room", "t60", "source_xy")}
    expected = {"version": FEATURES_VERSION, "grid_n": grid_n, **scene}
    _, arrays = read_archive(path, _FeaturesHeader, members, **expected)
    pairs = entry["m"] * (entry["m"] - 1) // 2
    widths = {"gcc": DEFAULT_N_CENTRAL, "slf": grid_n**2, "meta": PAIR_METADATA_SIZE}
    for member, array in arrays.items():
        if array.shape != (want := (pairs, widths[member])):
            raise InputError(f"member {member!r} has shape {array.shape}, expected {want}", path)
        if not np.isfinite(array).all():
            row, col = np.argwhere(~np.isfinite(array))[0]
            raise InputError(f"member {member!r} holds {array[row, col]} at ({row}, {col})", path)
    return arrays.get("gcc"), arrays.get("slf"), arrays.get("meta")


def load_example_dir(example_dir) -> tuple[np.ndarray, Scene]:
    """Read one example's (M, n) channels and scene back from its directory."""
    scene_path = Path(example_dir) / "scene.json"
    with reading(scene_path):
        scene = scene_from_json(scene_path.read_bytes())
    return _read_channels(example_dir, scene), scene


def _read_channels(example_dir, scene: Scene) -> np.ndarray:
    """The (M, n) channels of the scene's example directory, which must
    hold exactly ch_00.wav .. ch_{M-1}.wav for the scene's M, each of n
    samples at DEFAULT_FS; a missing or extra file, or a channel of
    another rate or length, raises InputError naming it."""
    example_dir = Path(example_dir)
    expected = {f"ch_{k:02d}.wav" for k in range(scene.m)}
    odd = sorted(expected ^ {p.name for p in example_dir.glob("ch_*.wav")})
    if odd:
        state = "is missing" if odd[0] in expected else "is not a channel"
        raise InputError(f"{odd[0]} {state}; scene.json has M = {scene.m}", example_dir)
    channels = []
    for k in range(scene.m):
        wav = example_dir / f"ch_{k:02d}.wav"
        samples, rate = read_wav_mono(wav)
        if rate != DEFAULT_FS:
            raise InputError(f"sampled at {rate} Hz, expected {DEFAULT_FS} Hz", wav)
        if channels and samples.size != channels[0].size:
            raise InputError(f"{samples.size} samples, but ch_00.wav has {channels[0].size}", wav)
        channels.append(samples)
    return np.vstack(channels)


def example_scene(data_dir, entry: dict) -> Scene:
    """The scene.json of a manifest entry's example; no WAV is read. The
    entry's m, room, t60 and source_xy must equal the scene's exactly, since
    both are written from the same floats; InputError naming the manifest
    and the example otherwise."""
    path = Path(data_dir) / entry["dir"] / "scene.json"
    with reading(path):
        scene = scene_from_json(path.read_bytes())
    for name, value in _scene_fields(scene).items():
        if entry[name] != value:
            raise InputError(
                f"example {entry['dir']!r} has {name} {entry[name]!r}, but its scene.json has {value!r}",
                Path(data_dir) / MANIFEST_NAME,
            )
    return scene


def load_example(data_dir, entry: dict) -> tuple[np.ndarray, Scene]:
    """The example of a manifest entry, refused as :func:`example_scene`
    refuses its scene.json before any WAV is read."""
    scene = example_scene(data_dir, entry)
    return _read_channels(Path(data_dir) / entry["dir"], scene), scene


def example_features(data_dir, entry: dict, config: RelNetConfig) -> np.ndarray:
    """Assembled (P, input_size) float32 pair matrix for one example.

    Prefers the on-disk cache, of which it decodes only the configured
    feature kind and the metadata; falls back to recomputing from the WAVs
    when :func:`read_feature_cache` refuses the cache (missing, unreadable,
    stale, of another scene than the entry's, or damaged in a member read);
    :func:`load_example` then refuses an entry that contradicts the example.
    """
    cache_path = Path(data_dir) / entry["dir"] / FEATURES_NAME
    try:
        members = (config.feature_kind, "meta")
        return assemble_input(*read_feature_cache(cache_path, config.grid_n, entry, members), config)
    except InputError as exc:
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
