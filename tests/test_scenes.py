import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasnloc.classical import raw_pair_features
from wasnloc.scenes import (
    PlacementError,
    RoomSpec,
    Scene,
    SceneDistribution,
    sample_scene,
    scene_from_json,
    scene_to_json,
)
from wasnloc.typedjson import InputError


def make_scene(mics, room=(4.0, 5.0, 3.0), source=(2.0, 2.5, 1.5), t60=0.4, seed=0):
    return Scene(
        room=RoomSpec(*room, t60),
        mics=np.asarray(mics, dtype=float),
        source=np.asarray(source, dtype=float),
        seed=seed,
    )


def validate_scene(scene, min_separation):
    """Raise ValueError unless all joint scene invariants hold."""
    dims = scene.room.dims
    devices = np.vstack([scene.mics, scene.source[None, :]])
    if np.any(devices <= 0.0) or np.any(devices >= dims[None, :]):
        raise ValueError("device outside the room interior")
    if np.any(devices < min_separation - 1e-12) or np.any(
        devices > dims[None, :] - min_separation + 1e-12
    ):
        raise ValueError("device closer than min_separation to a wall")
    n = devices.shape[0]
    if len(scene.mics) < 2:
        raise ValueError("scene needs at least 2 microphones")
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(devices[i] - devices[j]) < min_separation - 1e-12:
                raise ValueError(f"devices {i} and {j} closer than min_separation")


class TestRoomSpec:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            RoomSpec(0.0, 5.0, 3.0, 0.4)
        with pytest.raises(ValueError):
            RoomSpec(4.0, 5.0, 3.0, -0.1)

    def test_volume_and_surface(self):
        room = RoomSpec(4.0, 5.0, 3.0, 0.5)
        assert room.volume == pytest.approx(60.0)
        assert room.surface_area == pytest.approx(94.0)


class TestScene:
    @pytest.mark.parametrize("shape", [(0, 3), (2, 2), (4, 4), (2, 3, 1), (0,)])
    def test_mics_of_wrong_shape_refused(self, shape):
        with pytest.raises(ValueError, match=r"^Scene\.mics must have shape \(M, 3\), M >= 1"):
            make_scene(np.ones(shape))

    def test_source_of_wrong_size_refused(self):
        with pytest.raises(ValueError):
            make_scene([[1.0, 1.0, 1.0]], source=(2.0, 2.5))

    def test_holds_float_arrays(self):
        scene = Scene(RoomSpec(4.0, 5.0, 3.0, 0.4), [[1, 1, 1], [3, 4, 2]], [[2, 2, 1]], seed=0)
        assert scene.mics.dtype == scene.source.dtype == np.float64
        assert (scene.mics.shape, scene.source.shape, scene.m) == ((2, 3), (3,), 2)
        assert scene.signal_id == "synthetic"


class TestSampleScene:
    def test_constraints_hold(self):
        config = SceneDistribution(mic_counts=(5, 7))
        scene = sample_scene(config, 42)
        assert scene.m in (5, 7)
        validate_scene(scene, config.min_separation)

    def test_same_seed_identical(self):
        config = SceneDistribution(mic_counts=(5, 7))
        a = sample_scene(config, 123)
        b = sample_scene(config, 123)
        assert a.room == b.room
        assert np.array_equal(a.mics, b.mics)
        assert np.array_equal(a.source, b.source)

    def test_different_seeds_differ(self):
        config = SceneDistribution()
        a = sample_scene(config, 1)
        b = sample_scene(config, 2)
        assert not np.array_equal(a.mics, b.mics)

    def test_invariants_over_many_seeds(self):
        # spec-level property: every sampled scene satisfies the joint
        # constraints; 10^4 seeds
        config = SceneDistribution(mic_counts=(4, 5, 6, 7))
        for seed in range(10_000):
            scene = sample_scene(config, seed)
            dims = scene.room.dims
            devices = np.vstack([scene.mics, scene.source])
            sep = config.min_separation
            assert np.all(devices >= sep) and np.all(devices <= dims - sep)
            diffs = devices[:, None, :] - devices[None, :, :]
            dists = np.linalg.norm(diffs, axis=-1)
            np.fill_diagonal(dists, np.inf)
            assert dists.min() >= sep

    def test_room_width_uniformity_ks(self):
        # empirical CDF of 10^4 sampled widths against U[3, 6]
        config = SceneDistribution()
        widths = np.sort([sample_scene(config, s).room.width for s in range(10_000)])
        cdf = (widths - 3.0) / 3.0
        n = widths.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        assert ks < 0.02

    def test_placement_error_when_overconstrained(self):
        config = SceneDistribution(
            width_range=(3.0, 3.0),
            length_range=(3.0, 3.0),
            height_range=(2.1, 2.1),
            mic_counts=(7,),
            min_separation=1.0,
        )
        with pytest.raises(PlacementError):
            sample_scene(config, 0)

    def test_invalid_config_ranges(self):
        with pytest.raises(ValueError):
            SceneDistribution(width_range=(6.0, 3.0))
        with pytest.raises(ValueError):
            SceneDistribution(t60_range=(-0.1, 0.4))
        with pytest.raises(ValueError):
            SceneDistribution(mic_counts=())
        with pytest.raises(ValueError):
            SceneDistribution(mic_counts=(1,))
        with pytest.raises(ValueError):
            SceneDistribution(width_range=(0.9, 6.0), min_separation=0.5)


def meta_rows(scene):
    """The pair metadata rows the relation network sees for a scene."""
    frame = np.random.default_rng(0).standard_normal((scene.m, 8000))
    return raw_pair_features(frame, scene, 5)[2]


class TestPairMetadata:
    def test_corner_mic_scales_to_unit(self):
        # pairs are ordered by position, so the corner mic comes second
        scene = make_scene([[4.0, 5.0, 3.0], [0.5, 0.5, 0.5]])
        assert meta_rows(scene)[0, 3:6] == pytest.approx([1.0, 1.0, 1.0])

    def test_room_entries_divided_by_ten(self):
        scene = make_scene([[1, 1, 1], [2, 2, 2]], room=(5.0, 5.0, 3.0))
        assert meta_rows(scene)[0, 6:].tolist() == pytest.approx([0.5, 0.5, 0.3])

    def test_length_nine(self):
        scene = make_scene([[1, 1, 1], [2, 2, 2], [3, 3, 2]])
        assert meta_rows(scene).shape == (3, 9)


class TestSceneJson:
    def test_round_trip_exact(self):
        scene = sample_scene(SceneDistribution(), 77)
        back = scene_from_json(scene_to_json(scene))
        assert back.room == scene.room
        assert np.array_equal(back.mics, scene.mics)
        assert np.array_equal(back.source, scene.source)
        assert back.signal_id == scene.signal_id
        assert back.seed == scene.seed

    def test_serialization_is_deterministic(self):
        scene = sample_scene(SceneDistribution(), 5)
        assert scene_to_json(scene) == scene_to_json(scene)

    def test_rejects_unknown_version(self):
        scene = sample_scene(SceneDistribution(), 5)
        obj = json.loads(scene_to_json(scene))
        obj["version"] = 999
        with pytest.raises(InputError):
            scene_from_json(json.dumps(obj))
        # refused as another version before any other field is read
        with pytest.raises(InputError, match="^/version: unsupported scene JSON version 2$"):
            scene_from_json('{"version": 2, "mics": "none"}')

    def test_missing_field_named(self):
        obj = json.loads(scene_to_json(sample_scene(SceneDistribution(), 5)))
        del obj["source"]["signal_id"]
        with pytest.raises(InputError, match="^/source/signal_id: missing$"):
            scene_from_json(json.dumps(obj))

    def test_mistyped_field_named(self):
        obj = json.loads(scene_to_json(sample_scene(SceneDistribution(), 5)))
        obj["room"]["t60"] = "0.4"
        with pytest.raises(InputError, match="^/room/t60: "):
            scene_from_json(json.dumps(obj))

    def test_malformed_points_named(self):
        obj = json.loads(scene_to_json(sample_scene(SceneDistribution(), 5)))
        obj["mics"][1] = obj["mics"][1][:2]
        with pytest.raises(InputError, match="^/mics/1: "):
            scene_from_json(json.dumps(obj))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), signal_id=st.text(max_size=8))
    def test_round_trip_is_exact_for_any_m(self, m, seed, signal_id):
        scene = dataclasses.replace(sample_scene(SceneDistribution(mic_counts=(m,)), seed), signal_id=signal_id)
        back = scene_from_json(scene_to_json(scene))
        assert back.room == scene.room and back.seed == scene.seed and back.m == m
        assert np.array_equal(back.mics, scene.mics)
        assert np.array_equal(back.source, scene.source)
        assert back.signal_id == signal_id

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 8), data=st.data(), bad=st.sampled_from(["1.0", True, math.nan, [1.0, 2.0]]))
    def test_bad_coordinate_named(self, m, data, bad):
        obj = json.loads(scene_to_json(sample_scene(SceneDistribution(mic_counts=(m,)), m)))
        coordinates = [
            *(("mics", i, j) for i in range(m) for j in range(3)),
            *(("source", "position", j) for j in range(3)),
            *(("room", key) for key in ("width", "length", "height", "t60")),
        ]
        path = data.draw(st.sampled_from(coordinates))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = bad
        with pytest.raises(InputError, match=f"^/{'/'.join(map(str, path))}: expected a"):
            scene_from_json(json.dumps(obj))

    @pytest.mark.parametrize("length", [0, 2, 4])
    @pytest.mark.parametrize("path", [("mics", 3), ("source", "position")], ids=["mic", "source"])
    def test_point_of_wrong_length_named(self, path, length):
        obj = json.loads(scene_to_json(sample_scene(SceneDistribution(mic_counts=(5,)), 5)))
        obj[path[0]][path[1]] = [1.0] * length
        with pytest.raises(InputError, match=f"^/{path[0]}/{path[1]}: expected a list of 3 entries"):
            scene_from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "text, pointer",
        [("[]", "/"), ('{"version": 1,', "/"), (b"\xff", "/"), ('{"version": 1}', "/seed")],
        ids=["not_object", "invalid_json", "bad_utf8", "empty"],
    )
    def test_malformed_document_named(self, text, pointer):
        with pytest.raises(InputError, match=f"^{pointer}: "):
            scene_from_json(text)

    def test_no_mics_refused(self):
        obj = json.loads(scene_to_json(sample_scene(SceneDistribution(), 5)))
        obj["mics"] = []
        with pytest.raises(InputError, match="^/mics: "):
            scene_from_json(json.dumps(obj))
