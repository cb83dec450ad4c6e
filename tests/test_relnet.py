import dataclasses
import functools
import json

import numpy as np
import pytest
from conftest import anechoic_frame, planar_scene
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wasnloc.cli import train_configs_from_obj
from wasnloc.features import DEFAULT_FFT_SIZE, DEFAULT_N_CENTRAL, Grid
from wasnloc.relnet import (
    CheckpointError,
    RelNetConfig,
    RelNetModel,
    assemble_input,
    forward_batch,
    gnn_localize,
    load_checkpoint,
    mae_loss,
    raw_pair_features,
    relnet_forward_features,
    save_checkpoint,
    standardize_features,
    target_map,
)
from wasnloc.scenes import SceneDistribution, sample_scene


def small_config(kind="slf", grid_n=5):
    n_out = grid_n * grid_n
    return RelNetConfig(
        feature_kind=kind,
        grid_n=grid_n,
        f_layer_sizes=(16, n_out),
        g_layer_sizes=(16, n_out),
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
        features = assemble_input(*raw_pair_features(frame, scene, config.grid_n), config)
        assert features.shape == (1, config.input_size)
        rel, _ = model.f.forward(features)
        expected, _ = model.g.forward(rel)
        np.testing.assert_allclose(gnn_localize(model, frame, scene).heatmap, expected[0], rtol=1e-6)

    def test_output_size_follows_grid(self):
        config = small_config(grid_n=7)
        model = RelNetModel.init_random(config, rng_seed=1)
        scene = planar_scene(m=4)
        out = gnn_localize(model, anechoic_frame(scene), scene).heatmap
        assert out.shape == (49,)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_variable_mic_count(self, m):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=2)
        scene = planar_scene(m=m)
        out = gnn_localize(model, anechoic_frame(scene), scene).heatmap
        assert out.shape == (25,)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("kind", ["gcc", "slf"])
    def test_permutation_invariance(self, kind):
        config = small_config(kind=kind)
        model = RelNetModel.init_random(config, rng_seed=3)
        scene = planar_scene(m=5)
        frame = anechoic_frame(scene)
        base = gnn_localize(model, frame, scene).heatmap
        perm = [4, 2, 0, 3, 1]
        scene_p = dataclasses.replace(
            scene, mics=scene.mics[perm]
        )
        frame_p = frame[perm]
        swapped = gnn_localize(model, frame_p, scene_p).heatmap
        assert int(np.argmax(base)) == int(np.argmax(swapped))
        np.testing.assert_allclose(swapped, base, rtol=1e-4, atol=1e-6)

    def test_duplicated_pairs_leave_output_unchanged(self):
        # pair pooling is a mean: its scale must not grow with the pair count
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=12)
        scene = planar_scene(m=5)
        features = assemble_input(*raw_pair_features(anechoic_frame(scene), scene, config.grid_n), config)
        base = relnet_forward_features(model, features)
        doubled = relnet_forward_features(model, np.vstack([features, features]))
        np.testing.assert_allclose(doubled, base, rtol=1e-5, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["gcc", "slf"]),
        pairs=st.lists(st.integers(1, 21), min_size=1, max_size=12),
        cuts=st.sets(st.integers(1, 11)),
        seed=st.integers(0, 2**16),
    )
    def test_forward_batch_matches_one_example_forward(self, kind, pairs, cuts, seed):
        """Any split of any examples into batches gives each example the
        heatmap of its own one-example forward, up to float32 rounding
        (BLAS rounds a product of one row differently from one of many)."""
        model = _paper_model(kind)
        rng = np.random.default_rng(seed)
        features = [rng.uniform(0.0, 1.0, (p, model.config.input_size)).astype(np.float32) for p in pairs]
        bounds = [0, *sorted(c for c in cuts if c < len(pairs)), len(pairs)]
        batched = np.vstack([forward_batch(model, features[a:b])[0] for a, b in zip(bounds, bounds[1:])])
        for heatmap, x in zip(batched, features):
            single = relnet_forward_features(model, x)
            np.testing.assert_allclose(heatmap, single, rtol=1e-5, atol=1e-6)
            top_two = np.sort(single)[-2:]
            if top_two[1] - top_two[0] > 1e-4:
                assert int(np.argmax(heatmap)) == int(np.argmax(single))

    def test_gcc_features_have_configured_width(self):
        config = small_config(kind="gcc")
        scene = planar_scene(m=3)
        features = assemble_input(*raw_pair_features(anechoic_frame(scene), scene, config.grid_n), config)
        assert features.shape == (3, 200 + 9)


@functools.cache
def _paper_model(kind):
    """The paper's architecture (625-wide F and G) with seeded random
    weights, the last layer scaled so that on inputs in [0, 1] the heatmap,
    like a trained model's, is of the order of the exp(-distance) target."""
    model = RelNetModel.init_random(RelNetConfig(feature_kind=kind), rng_seed=21)
    model.g.layers[-1][0][...] *= 0.1
    return model


def identity_model(grid_n):
    """F keeps the feature columns and drops the 9 metadata inputs
    (W0 = [I; 0]), every other W of F and G is I, and every bias is 0."""
    model = RelNetModel.init_random(RelNetConfig(feature_kind="slf", grid_n=grid_n))
    for net in (model.f, model.g):
        for w, b in net.layers:
            w[...] = np.eye(*w.shape)
            b[...] = 0.0
    return model


class TestClassicalEquivalence:
    """The relation network with identity F and G averages the per-pair maps
    that classical SLF (SRP-PHAT) sums: ReLU passes the min-max scaled rows
    unchanged. This is the paper's "relation network ~ classical SSL" claim."""

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(2, 8),
        grid_n=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        order_seed=st.integers(0, 2**16),
    )
    def test_identity_model_is_mean_of_standardized_slf_rows(self, m, grid_n, seed, order_seed):
        scene = sample_scene(SceneDistribution(mic_counts=(m,)), seed)
        frame = anechoic_frame(scene, seed=seed)
        _, slf, _ = raw_pair_features(frame, scene, grid_n)
        expected = standardize_features(slf, "slf").mean(axis=0)
        perm = np.random.default_rng(order_seed).permutation(m)
        scene_p = dataclasses.replace(scene, mics=scene.mics[perm])
        frame_p = frame[perm]
        heatmap = gnn_localize(identity_model(grid_n), frame_p, scene_p).heatmap
        np.testing.assert_allclose(heatmap, expected, rtol=0, atol=1e-6)


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


def write_header(path, payload: bytes):
    """Replace a saved checkpoint's header with the given payload bytes."""
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    path.write_bytes(raw[:4] + np.uint32(len(payload)).tobytes() + payload + raw[8 + header_len :])


def read_header(path) -> tuple[dict, bytes]:
    """A saved checkpoint's JSON header and the blob after it."""
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    return json.loads(raw[8 : 8 + header_len]), raw[8 + header_len :]


def rewrite_header(path, edit):
    """Apply edit to a saved checkpoint's JSON header in place."""
    header = read_header(path)[0]
    edit(header)
    write_header(path, json.dumps(header).encode())


def _reference_blob(model):
    """Frozen copy of the checkpoint blob from before the parameters moved
    into flat buffers: a slice per W and b array of F, then of G."""
    return b"".join(
        np.ascontiguousarray(p, dtype="<f4").tobytes()
        for net in (model.f, model.g)
        for w, b in net.layers
        for p in (w, b)
    )


class TestCheckpoint:
    def test_bytes_match_per_array_layout(self, tmp_path):
        model = RelNetModel.init_random(small_config(), rng_seed=17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert read_header(path)[1] == _reference_blob(model)

    def test_round_trip_forward_identical(self, tmp_path):
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=6)
        scene = planar_scene(m=4)
        frame = anechoic_frame(scene)
        before = gnn_localize(model, frame, scene).heatmap
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        after = gnn_localize(loaded, frame, scene).heatmap
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
        # a valid config whose F has one more hidden unit than the blob holds
        config = small_config()
        model = RelNetModel.init_random(config, rng_seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        rewrite_header(path, lambda header: header["config"]["f_layer_sizes"].__setitem__(0, 17))
        with pytest.raises(CheckpointError, match="header field 'config'"):
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

    def test_version_2_checkpoint_rejected(self, tmp_path):
        # a version-2 header spelled the architecture out as fields and an
        # array table; the blob layout is the same
        model = RelNetModel.init_random(small_config(), rng_seed=12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        cfg = model.config
        v2 = {
            "version": 2,
            "feature_kind": cfg.feature_kind,
            "grid_n": cfg.grid_n,
            "fft_size": DEFAULT_FFT_SIZE,
            "n_central": DEFAULT_N_CENTRAL,
            "input_size": cfg.input_size,
            "f_sizes": list(cfg.f_layer_sizes),
            "g_sizes": list(cfg.g_layer_sizes),
            "arrays": [],
            "blob_floats": model.f.flat.size + model.g.flat.size,
            "blob_crc32": read_header(path)[0]["blob_crc32"],
        }
        write_header(path, json.dumps(v2).encode())
        with pytest.raises(CheckpointError, match="version 2, expected 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["feature_kind", "grid_n", "f_layer_sizes", "g_layer_sizes"])
    def test_missing_header_field_named(self, tmp_path, field):
        # no config field is filled from today's defaults
        path = tmp_path / "model.ckpt"
        save_checkpoint(RelNetModel.init_random(small_config(), rng_seed=14), path)
        rewrite_header(path, lambda header: header["config"].pop(field))
        with pytest.raises(CheckpointError, match=f"/config/{field}: missing"):
            load_checkpoint(path)

    def test_negative_grid_n_refused(self, tmp_path):
        config = small_config(grid_n=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(RelNetModel.init_random(config, rng_seed=15), path)
        rewrite_header(path, lambda header: header["config"].update(grid_n=-3))
        with pytest.raises(CheckpointError, match="/config: .*grid_n must be >= 2, got -3"):
            load_checkpoint(path)

    def test_huge_integer_literal_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(RelNetModel.init_random(small_config(), rng_seed=16), path)
        header = read_header(path)[0]
        text = json.dumps({**header, "blob_crc32": 0}).replace('"blob_crc32": 0', '"blob_crc32": 1' + "0" * 5000)
        write_header(path, text.encode())
        with pytest.raises(CheckpointError, match="header /: not valid JSON"):
            load_checkpoint(path)

    def test_header_config_is_a_train_config(self, tmp_path):
        # the header spells the config as train.json does
        model = RelNetModel.init_random(small_config("gcc", grid_n=4), rng_seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        net, _ = train_configs_from_obj(read_header(path)[0]["config"])
        assert net == model.config


CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(RelNetConfig))
HEADER_TARGETS = (
    ("version",),
    ("fft_size",),
    ("n_central",),
    ("config",),
    ("blob_crc32",),
    *(("config", name) for name in CONFIG_FIELDS),
)


def _wrong_type(value):
    return [value] if isinstance(value, str) else str(value)


def _changed(value):
    if isinstance(value, str):
        return {"slf": "gcc", "gcc": "slf"}.get(value, value + "x")
    if isinstance(value, list):
        return [value[0] + 1] + value[1:]
    if isinstance(value, dict):
        return {**value, "extra": 1}
    return value + 1


def _damage(header, target, mutation):
    """Drop, mistype or change the header value at target (a key path) in
    place; returns the text the error must contain: the value's JSON
    pointer, the name of a changed top-level field, or 'config' for a
    changed config value, which may only be inconsistent with the rest."""
    *parents, key = target
    owner = header
    for name in parents:
        owner = owner[name]
    if mutation == "drop":
        del owner[key]
    elif mutation == "wrong_type":
        owner[key] = _wrong_type(owner[key])
    else:
        owner[key] = _changed(owner[key])
        return target[0]
    return "/" + "/".join(target)


class TestCheckpointProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["gcc", "slf"]),
        target=st.sampled_from(HEADER_TARGETS),
        mutation=st.sampled_from(["drop", "wrong_type", "change"]),
    )
    @example(kind="gcc", target=("fft_size",), mutation="change")
    @example(kind="slf", target=("fft_size",), mutation="change")
    @example(kind="gcc", target=("n_central",), mutation="change")
    @example(kind="slf", target=("n_central",), mutation="change")
    def test_each_damaged_field_or_array_named(self, tmp_path_factory, kind, target, mutation):
        """One dropped, mistyped or changed header field, config fields and
        their layer-size arrays included, raises CheckpointError naming it,
        a changed fixed feature size ('fft_size', 'n_central') included."""
        model = RelNetModel.init_random(small_config(kind), rng_seed=21)
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(model, path)
        needles = []
        rewrite_header(path, lambda header: needles.append(_damage(header, target, mutation)))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert needles[0] in str(info.value)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["gcc", "slf"]),
        grid_n=st.integers(2, 6),
        f_hidden=st.lists(st.integers(1, 12), max_size=2),
        g_hidden=st.lists(st.integers(1, 12), max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_reference_writer_output_loads_identically(
        self, tmp_path_factory, kind, grid_n, f_hidden, g_hidden, seed
    ):
        """For any architecture the saved blob equals the frozen per-array
        blob, the header's config is the config's fields by name, and the
        file loads back to the same config and bit-identical buffers."""
        n_out = grid_n * grid_n
        config = RelNetConfig(kind, grid_n, (*f_hidden, n_out), (*g_hidden, n_out))
        model = RelNetModel.init_random(config, rng_seed=seed)
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(model, path)
        header, blob = read_header(path)
        assert blob == _reference_blob(model)
        assert header["config"] == json.loads(json.dumps(dataclasses.asdict(config)))
        loaded = load_checkpoint(path)
        assert loaded.config == config
        assert np.array_equal(loaded.f.flat, model.f.flat) and np.array_equal(loaded.g.flat, model.g.flat)


class TestConfigValidation:
    def test_bad_feature_kind(self):
        with pytest.raises(ValueError):
            RelNetConfig(feature_kind="stft")

    def test_fusion_output_must_match_grid(self):
        with pytest.raises(ValueError):
            RelNetConfig(
                feature_kind="slf",
                grid_n=5,
                f_layer_sizes=(16, 24),
                g_layer_sizes=(16, 24),
            )

    def test_default_specs_are_three_by_grid_squared(self):
        config = RelNetConfig(feature_kind="slf", grid_n=25)
        assert config.f_layer_sizes == (625, 625, 625)
        assert config.g_layer_sizes == (625, 625, 625)
        assert config.input_size == 625 + 9
