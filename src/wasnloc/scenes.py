"""Room, microphone and source geometry, plus seeded random scene sampling.

A scene is one simulated world: a shoebox room with a reverberation time,
M microphones and a single static source. Scenes are sampled from a
configurable distribution (uniform room dimensions and T60, uniform device
placement with a minimum mutual/wall separation) and are a pure function of
(distribution, seed). A :class:`Scene` holds the mic geometry as a plain
(M, 3) array and the source position as a (3,) array, so any M passes
through every layer unchanged. Scenes and their arrays are treated as
immutable after construction and are safe to share between workers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .typedjson import InputError, build, loads

DEFAULT_MIN_SEPARATION = 0.5
# Candidate draws per scene before sample_scene gives up on placement.
MAX_PLACEMENT_ATTEMPTS = 10_000

SCENE_JSON_VERSION = 1


class PlacementError(RuntimeError):
    """Rejection sampling ran out of attempts (over-constrained config)."""


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room dimensions in meters and reverberation time in seconds."""

    width: float
    length: float
    height: float
    t60: float

    def __post_init__(self):
        for name in ("width", "length", "height", "t60"):
            if not getattr(self, name) > 0:
                raise ValueError(f"RoomSpec.{name} must be > 0")

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.width, self.length, self.height])

    @property
    def volume(self) -> float:
        return self.width * self.length * self.height

    @property
    def surface_area(self) -> float:
        w, l, h = self.width, self.length, self.height
        return 2.0 * (w * l + w * h + l * h)


@dataclass(frozen=True, eq=False)
class Scene:
    """A room, the (M, 3) mic positions and the (3,) source position in
    meters, the sampling seed and the identifier of the source waveform."""

    room: RoomSpec
    mics: np.ndarray
    source: np.ndarray
    seed: int
    signal_id: str = "synthetic"

    def __post_init__(self):
        mics = np.atleast_2d(np.asarray(self.mics, dtype=float))
        if mics.ndim != 2 or mics.shape[1] != 3 or mics.shape[0] < 1:
            raise ValueError(f"Scene.mics must have shape (M, 3), M >= 1, got {mics.shape}")
        object.__setattr__(self, "mics", mics)
        object.__setattr__(self, "source", np.asarray(self.source, dtype=float).reshape(3))

    @property
    def m(self) -> int:
        return self.mics.shape[0]


@dataclass(frozen=True)
class SceneDistribution:
    """Sampling ranges for random scenes.

    ``mic_counts`` is the set of allowed microphone counts; one count is
    drawn uniformly per scene. All devices (mics and source) are placed
    uniformly at least ``min_separation`` meters from each other and from
    every wall, by rejection sampling with at most MAX_PLACEMENT_ATTEMPTS
    candidate draws per scene.
    """

    width_range: tuple[float, float] = (3.0, 6.0)
    length_range: tuple[float, float] = (3.0, 6.0)
    height_range: tuple[float, float] = (2.0, 4.0)
    t60_range: tuple[float, float] = (0.3, 0.6)
    mic_counts: tuple[int, ...] = (5, 7)
    min_separation: float = DEFAULT_MIN_SEPARATION

    def __post_init__(self):
        for name in ("width_range", "length_range", "height_range", "t60_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"SceneDistribution.{name}: need 0 < lo <= hi, got ({lo}, {hi})")
        if not self.mic_counts or any(int(m) < 2 for m in self.mic_counts):
            raise ValueError("SceneDistribution.mic_counts must be non-empty, all counts >= 2")
        if not 0 <= self.min_separation:
            raise ValueError("SceneDistribution.min_separation must be >= 0")
        for name in ("width_range", "length_range", "height_range"):
            lo, _ = getattr(self, name)
            if lo <= 2 * self.min_separation:
                raise ValueError(
                    f"SceneDistribution.{name}: lower bound {lo} leaves no room for "
                    f"min_separation {self.min_separation}"
                )


def sample_scene(config: SceneDistribution, rng_seed) -> Scene:
    """Draw one scene. Pure function of (config, rng_seed).

    Draw order (fixed, part of the determinism contract): width, length,
    height, t60, microphone count, then the M microphone positions followed
    by the source position, each by rejection against the already-placed
    devices.

    Raises
    ------
    PlacementError
        If MAX_PLACEMENT_ATTEMPTS candidate positions are exhausted.
    """
    rng = np.random.default_rng(rng_seed)
    width = float(rng.uniform(*config.width_range))
    length = float(rng.uniform(*config.length_range))
    height = float(rng.uniform(*config.height_range))
    t60 = float(rng.uniform(*config.t60_range))
    room = RoomSpec(width, length, height, t60)

    m = int(config.mic_counts[rng.integers(len(config.mic_counts))])

    sep = config.min_separation
    lo = np.full(3, sep)
    hi = room.dims - sep
    placed: list[np.ndarray] = []
    attempts = 0
    while len(placed) < m + 1:
        if attempts >= MAX_PLACEMENT_ATTEMPTS:
            raise PlacementError(
                f"could not place {m} mics + source after {attempts} attempts "
                f"(room {width:.2f}x{length:.2f}x{height:.2f}, separation {sep})"
            )
        cand = rng.uniform(lo, hi)
        attempts += 1
        if all(np.linalg.norm(cand - q) >= sep for q in placed):
            placed.append(cand)

    return Scene(room, np.array(placed[:m]), placed[m], int(rng_seed), f"synthetic:{rng_seed}")


def pair_metadata_vector(p_i: np.ndarray, p_j: np.ndarray, room_dims: np.ndarray) -> np.ndarray:
    """(P, 9) normalized rows describing mic pairs and their room.

    Layout: mic i xyz, mic j xyz (each coordinate divided by the matching
    room dimension, so in-room coordinates land in [0, 1]), then the room
    dimensions divided by 10 m. p_i and p_j are (P, 3) arrays.
    """
    dims = np.asarray(room_dims, dtype=float)
    return np.hstack([p_i / dims, p_j / dims, np.broadcast_to(dims / 10.0, np.shape(p_i))])


@dataclass(frozen=True)
class _SourceDoc:
    position: tuple[float, float, float]
    signal_id: str


@dataclass(frozen=True)
class _SceneDoc:
    """The layout of scene.json, read and written field for field."""

    version: int
    seed: int
    room: RoomSpec
    mics: tuple[tuple[float, float, float], ...]
    source: _SourceDoc


def scene_to_json(scene: Scene) -> str:
    """Serialize a scene to a canonical JSON document (stable key order)."""
    mics = tuple(tuple(map(float, p)) for p in scene.mics)
    source = _SourceDoc(tuple(map(float, scene.source)), scene.signal_id)
    doc = _SceneDoc(SCENE_JSON_VERSION, scene.seed, scene.room, mics, source)
    return json.dumps(asdict(doc), indent=2) + "\n"


def scene_from_json(text: str | bytes) -> Scene:
    """Parse a scene_to_json document; InputError at the JSON pointer of
    the first bad field. Another version is refused before any other field
    is read."""
    obj = loads(text)
    if isinstance(obj, dict) and obj.get("version") != SCENE_JSON_VERSION:
        raise InputError(f"/version: unsupported scene JSON version {obj.get('version')!r}")
    doc = build(_SceneDoc, obj, [])
    if not doc.mics:
        raise InputError("/mics: expected at least one mic")
    return Scene(doc.room, np.array(doc.mics), np.array(doc.source.position), doc.seed, doc.source.signal_id)
