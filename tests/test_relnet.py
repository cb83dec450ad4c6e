import dataclasses
import json
import zlib

import numpy as np
import pytest
from conftest import FS, anechoic_frame, planar_scene

from wasnloc.features import Grid
from wasnloc.mlp import MlpSpec
from wasnloc.relnet import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    RelNetConfig,
    RelNetModel,
    gnn_localize,
    load_checkpoint,
    mae_loss,
    pair_feature_matrix,
    relnet_forward,
    relnet_forward_features,
    save_checkpoint,
    standardize_features,
    target_map,
)


def small_config(kind="slf", grid_n=5, n_central=32):
    n_out = grid_n * grid_n
    return RelNetConfig(
        feature_kind=kind,
        grid_n=grid_n,
        fft_size=1024,
        n_central=n_central,
        f_spec=MlpSpec((16, n_out)),
        g_spec=MlpSpec((16, n_out)),
    )


class TestTargetMap:
    def test_peak_of_one_at_source_cell_center(self):
        grid = Grid(5.0, 4.0, n=25)
        p = grid.cell_center(100)
        values = target_map(p, grid)
        assert values[100] == 1.0

    def test_one_meter_away_is_inverse_e(self):
        grid = Grid(10.0, 10.0, n=5)  # centers at 1,3,5,...
        values = target_map(np.array([1.0, 1.0]), grid)
        # cell (1,3) on the same row is exactly 2 m away; use a synthetic
        # point 1 m from a center instead
        values = target_map(np.array([1.0, 2.0]), grid)
        assert values[0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_argmax_nearest_cell(self):
        grid = Grid(5.0, 4.0, n=25)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform([0.0, 0.0], [5.0, 4.0])
            values = target_map(p, grid)
            centers = grid.cell_centers()
            nearest = int(np.argmin(np.linalg.norm(centers - p[None, :], axis=1)))
            assert int(np.argmax(values)) == nearest

    def test_values_in_unit_interval(self):
        grid = Grid(6.0, 6.0, n=25)
        values = target_map(np.array([0.5, 5.5]), grid)
        assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_outside_footprint_rejected(self):
        with pytest.raises(ValueError):
            target_map(np.array([6.0, 2.0]), Grid(5.0, 4.0))


class TestMaeLoss:
    def test_zero_when_equal(self):
        x = np.random.default_rng(0).standard_normal(25)
        loss, grad = mae_loss(x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_constant_offset(self):
        x = np.zeros(25)
        loss, _ = mae_loss(x + 0.1, x)
        assert loss == pytest.approx(0.1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal(40)
        target = rng.standard_normal(40)
        _, grad = mae_loss(pred, target)
        h = 1e-6
        for idx in range(0, 40, 7):
            if abs(pred[idx] - target[idx]) < 1e-3:
                continue  # kink
            bumped = pred.copy()
            bumped[idx] += h
            up, _ = mae_loss(bumped, target)
            bumped[idx] -= 2 * h
            down, _ = mae_loss(bumped, target)
            fd = (up - down) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae_loss(np.zeros(4), np.zeros(5))


class TestStandardize:
    def test_gcc_scaled_by_peak_magnitude(self):
        raw = np.array([[0.5, -2.0], [1.0, 0.0]])
        out = standardize_features(raw, "gcc")
        assert np.max(np.abs(out)) == 1.0
        np.testing.assert_allclose(out, raw / 2.0)

    def test_slf_min_max(self):
        raw = np.array([[1.0, 3.0], [2.0, 5.0]])
        out = standardize_features(raw, "slf")
        assert out.min() == 0.0 and out.max() == 1.0

    def test_degenerate_inputs_zeroed(self):
        assert not standardize_features(np.zeros((3, 4)), "gcc").any()
        assert not standardize_features(np.full((3, 4), 2.0), "slf").any()

    def test_slf_rows_scaled_independently(self):
        # one strong pair must not flatten the other pairs' maps
        raw = np.random.default_rng(11).uniform(-0.2, 0.6, size=(6, 25))
        loud = raw.copy()
        loud[2] *= 100.0
        base = standardize_features(raw, "slf")
        out = standardize_features(loud, "slf")
        others = [0, 1, 3, 4, 5]
        np.testing.assert_array_equal(out[others], base[others])
        assert out[2].min() == 0.0 and out[2].max() == 1.0


class TestRelNetForward:
    def test_two_mics_is_g_of_f(self):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=0)
        scene = planar_scene(m=2)
        frame = anechoic_frame(scene)
        features = pair_feature_matrix(frame, scene, config)
        assert features.shape == (1, config.input_size)
        rel, _ = model.f.forward(features[0])
        expected, _ = model.g.forward(rel)
        np.testing.assert_allclose(relnet_forward(model, frame, scene), expected, rtol=1e-6)

    def test_output_size_follows_grid(self):
        config = small_config(grid_n=7)
        model = RelNetModel.init_random(config, rng_seed=1)
        scene = planar_scene(m=4)
        out = relnet_forward(model, anechoic_frame(scene), scene)
        assert out.shape == (49,)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_variable_mic_count(self, m):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=2)
        scene = planar_scene(m=m)
        out = relnet_forward(model, anechoic_frame(scene), scene)
        assert out.shape == (25,)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("kind", ["gcc", "slf"])
    def test_permutation_invariance(self, kind):
        config = small_config(kind=kind)
        model = RelNetModel.init_random(config, rng_seed=3)
        scene = planar_scene(m=5)
        frame = anechoic_frame(scene)
        base = relnet_forward(model, frame, scene)
        perm = [4, 2, 0, 3, 1]
        scene_p = dataclasses.replace(
            scene, mics=type(scene.mics)(scene.mics.positions[perm])
        )
        frame_p = dataclasses.replace(frame, channels=frame.channels[perm])
        swapped = relnet_forward(model, frame_p, scene_p)
        assert int(np.argmax(base)) == int(np.argmax(swapped))
        np.testing.assert_allclose(swapped, base, rtol=1e-4, atol=1e-6)

    def test_duplicated_pairs_leave_output_unchanged(self):
        # pair pooling is a mean: its scale must not grow with the pair count
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=12)
        scene = planar_scene(m=5)
        features = pair_feature_matrix(anechoic_frame(scene), scene, config)
        base = relnet_forward_features(model, features)
        doubled = relnet_forward_features(model, np.vstack([features, features]))
        np.testing.assert_allclose(doubled, base, rtol=1e-5, atol=1e-6)

    def test_gcc_features_have_configured_width(self):
        config = small_config(kind="gcc", n_central=32)
        scene = planar_scene(m=3)
        features = pair_feature_matrix(anechoic_frame(scene), scene, config)
        assert features.shape == (3, 32 + 9)


class TestGnnLocalize:
    def _one_hot_model(self, config, hot_cell):
        model = RelNetModel.init_random(config, rng_seed=4)
        # zero the fusion stack and pin a one-hot output bias
        for w, b in model.g.layers:
            w[:] = 0.0
            b[:] = 0.0
        model.g.layers[-1][1][hot_cell] = 1.0
        return model

    def test_one_hot_model_returns_cell_center(self):
        config = small_config()
        scene = planar_scene(m=3)
        model = self._one_hot_model(config, hot_cell=13)
        grid = Grid(scene.room.width, scene.room.length, config.grid_n)
        result = gnn_localize(model, anechoic_frame(scene), scene)
        np.testing.assert_allclose(result.estimate, grid.cell_center(13))

    def test_estimate_inside_footprint(self):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=5)
        scene = planar_scene(m=4)
        result = gnn_localize(model, anechoic_frame(scene), scene)
        x, y = result.estimate
        assert 0.0 < x < scene.room.width and 0.0 < y < scene.room.length


def rewrite_header(path, edit):
    """Apply edit to a saved checkpoint's JSON header in place."""
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    header = json.loads(raw[8 : 8 + header_len])
    edit(header)
    payload = json.dumps(header).encode()
    path.write_bytes(raw[:4] + np.uint32(len(payload)).tobytes() + payload + raw[8 + header_len :])


def _reference_checkpoint_bytes(model):
    """Frozen copy of the checkpoint writer from before the parameters moved
    into flat buffers: a table entry and a blob slice per (W, b) array."""
    cfg = model.config
    arrays, blobs = [], []
    offset = 0
    for prefix, net in (("f", model.f), ("g", model.g)):
        for k, (w, b) in enumerate(net.layers):
            for part, p in (("w", w), ("b", b)):
                arrays.append({"name": f"{prefix}.{k}.{part}", "shape": list(p.shape), "offset": offset})
                offset += p.size
                blobs.append(np.ascontiguousarray(p, dtype="<f4").tobytes())
    blob = b"".join(blobs)
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
    return CHECKPOINT_MAGIC + np.uint32(len(payload)).tobytes() + payload + blob


class TestCheckpoint:
    def test_bytes_match_per_array_layout(self, tmp_path):
        model = RelNetModel.init_random(small_config(), rng_seed=17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert path.read_bytes() == _reference_checkpoint_bytes(model)

    def test_per_array_file_loads_to_identical_buffers(self, tmp_path):
        model = RelNetModel.init_random(small_config(), rng_seed=18)
        path = tmp_path / "model.ckpt"
        path.write_bytes(_reference_checkpoint_bytes(model))
        loaded = load_checkpoint(path)
        for net, want in ((loaded.f, model.f), (loaded.g, model.g)):
            assert net.flat.dtype == np.float32 and np.array_equal(net.flat, want.flat)
            assert net.grad is None

    def test_round_trip_forward_identical(self, tmp_path):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=6)
        scene = planar_scene(m=4)
        frame = anechoic_frame(scene)
        before = relnet_forward(model, frame, scene)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        after = relnet_forward(loaded, frame, scene)
        np.testing.assert_array_equal(before, after)
        assert loaded.config == model.config

    def test_corrupted_blob_fails_checksum(self, tmp_path):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_header_blob_inconsistency(self, tmp_path):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        rewrite_header(path, lambda header: header.update(blob_floats=header["blob_floats"] + 1))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        rewrite_header(path, lambda header: header.update(version=99))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


    def test_version_1_checkpoint_rejected(self, tmp_path):
        # version 1 models were trained on summed, per-example-scaled input
        model = RelNetModel.init_random(small_config(), rng_seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        rewrite_header(path, lambda header: header.update(version=1))
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["blob_floats", "feature_kind", "grid_n", "g_sizes", "input_size"])
    def test_missing_header_field_named(self, tmp_path, field):
        path = tmp_path / "model.ckpt"
        save_checkpoint(RelNetModel.init_random(small_config(), rng_seed=14), path)
        rewrite_header(path, lambda header: header.pop(field))
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load_checkpoint(path)

    def test_missing_array_shape_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(RelNetModel.init_random(small_config(), rng_seed=15), path)
        rewrite_header(path, lambda header: header["arrays"][2].pop("shape"))
        with pytest.raises(CheckpointError, match="'f.1.w'.*'shape'"):
            load_checkpoint(path)

    def test_transposed_weight_rejected(self, tmp_path):
        # same floats, same count, but W of f.0 declared (16, in) not (in, 16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(RelNetModel.init_random(small_config(), rng_seed=16), path)
        rewrite_header(path, lambda header: header["arrays"][0]["shape"].reverse())
        with pytest.raises(CheckpointError, match="'f.0.w' has shape"):
            load_checkpoint(path)


class TestConfigValidation:
    def test_bad_feature_kind(self):
        with pytest.raises(ValueError):
            RelNetConfig(feature_kind="stft")

    def test_fusion_output_must_match_grid(self):
        with pytest.raises(ValueError):
            RelNetConfig(
                feature_kind="slf",
                grid_n=5,
                f_spec=MlpSpec((16, 24)),
                g_spec=MlpSpec((16, 24)),
            )

    def test_default_specs_are_three_by_grid_squared(self):
        config = RelNetConfig(feature_kind="slf", grid_n=25)
        assert config.f_spec.layer_output_sizes == (625, 625, 625)
        assert config.g_spec.layer_output_sizes == (625, 625, 625)
        assert config.input_size == 625 + 9
