import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from conftest import TINY_GRID_N, tiny_dataset_config

from wasnloc.dataset import (
    DatasetConfig,
    FeatureCacheError,
    example_features,
    generate_dataset,
    generate_example,
    load_example,
    load_manifest,
    load_split_features,
    read_feature_cache,
)
from wasnloc.evaluate import evaluate
from wasnloc.features import Grid, extract_frame
from wasnloc.relnet import RelNetConfig, assemble_input, raw_pair_features, target_map
from wasnloc.scenes import scene_from_json
from wasnloc.signals import read_wav_mono, write_wav


class TestGenerateDataset:
    def test_manifest_counts_and_layout(self, tiny_dataset):
        root, manifest = tiny_dataset
        assert manifest["splits"]["train"]["count"] == 6
        assert manifest["splits"]["val"]["count"] == 3
        assert manifest["splits"]["test"]["count"] == 4
        entry = manifest["splits"]["train"]["examples"][0]
        example_dir = root / entry["dir"]
        assert (example_dir / "scene.json").exists()
        assert (example_dir / "features.bin").exists()
        for k in range(entry["m"]):
            assert (example_dir / f"ch_{k:02d}.wav").exists()

    def test_mic_counts_respect_split_config(self, tiny_dataset):
        _, manifest = tiny_dataset
        for entry in manifest["splits"]["train"]["examples"]:
            assert entry["m"] in (4, 5)
        for entry in manifest["splits"]["test"]["examples"]:
            assert entry["m"] in (3, 4, 5)

    def test_seeds_disjoint_across_splits(self, tiny_dataset):
        _, manifest = tiny_dataset
        seeds = [
            entry["seed"]
            for split in manifest["splits"].values()
            for entry in split["examples"]
        ]
        assert len(seeds) == len(set(seeds))

    def test_regeneration_byte_identical(self, tmp_path):
        config = tiny_dataset_config(master_seed=77)
        config = DatasetConfig(**{**config.__dict__, "train": 2, "val": 1, "test": 1})
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_dataset(config, a_dir)
        generate_dataset(config, b_dir)
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel

    def test_parallel_generation_matches_serial(self, tmp_path):
        base = tiny_dataset_config(master_seed=31)
        serial = DatasetConfig(**{**base.__dict__, "train": 3, "val": 1, "test": 1, "workers": 1})
        parallel = DatasetConfig(**{**base.__dict__, "train": 3, "val": 1, "test": 1, "workers": 2})
        generate_dataset(serial, tmp_path / "s")
        generate_dataset(parallel, tmp_path / "p")
        for rel in sorted(p.relative_to(tmp_path / "s") for p in (tmp_path / "s").rglob("*.json")):
            assert (tmp_path / "s" / rel).read_bytes() == (tmp_path / "p" / rel).read_bytes()

    def test_scene_json_matches_manifest_entry(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["test"]["examples"][1]
        scene = scene_from_json((root / entry["dir"] / "scene.json").read_text())
        assert scene.m == entry["m"]
        assert [scene.room.width, scene.room.length, scene.room.height] == entry["room"]
        assert scene.source.position[:2].tolist() == entry["source_xy"]
        assert scene.seed == entry["seed"]


class TestLoadExample:
    def test_channels_round_trip(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        received, scene = load_example(root, entry)
        assert received.m == entry["m"]
        assert received.fs == 16000
        assert np.all(np.isfinite(received.channels))

    def test_measured_snr_close_to_config(self, tmp_path):
        # compare noisy generation against an inf-SNR twin of the same seed
        base = tiny_dataset_config(master_seed=5)
        noisy_cfg = DatasetConfig(**{**base.__dict__, "train": 1, "val": 1, "test": 1})
        clean_cfg = DatasetConfig(
            **{**base.__dict__, "train": 1, "val": 1, "test": 1, "snr_db": math.inf}
        )
        generate_dataset(noisy_cfg, tmp_path / "noisy")
        generate_dataset(clean_cfg, tmp_path / "clean")
        noisy, _ = load_example(tmp_path / "noisy", {"dir": "train/00000", "m": 0} | json.loads((tmp_path / "noisy" / "manifest.json").read_text())["splits"]["train"]["examples"][0])
        clean, _ = load_example(tmp_path / "clean", json.loads((tmp_path / "clean" / "manifest.json").read_text())["splits"]["train"]["examples"][0])
        for k in range(noisy.m):
            p_sig = np.mean(clean.channels[k] ** 2)
            p_noise = np.mean((noisy.channels[k] - clean.channels[k]) ** 2)
            snr = 10 * np.log10(p_sig / p_noise)
            assert snr == pytest.approx(30.0, abs=0.6)  # float32 WAV quantization on top

    def test_bad_scene_json_names_file(self, tiny_dataset, tmp_path):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        obj = json.loads((copy / "scene.json").read_text())
        del obj["seed"]
        (copy / "scene.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"scene\.json: .*'seed'"):
            load_example(tmp_path, entry)

    @pytest.mark.parametrize("bad", ["length", "rate"])
    def test_mismatched_channel_names_wav(self, tiny_dataset, tmp_path, bad):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        samples, fs = read_wav_mono(copy / "ch_01.wav")
        if bad == "length":
            write_wav(copy / "ch_01.wav", samples[:-1], fs)
        else:
            write_wav(copy / "ch_01.wav", samples, fs // 2)
        with pytest.raises(ValueError, match=r"ch_01\.wav: .*ch_00\.wav"):
            load_example(tmp_path, entry)


class TestManifest:
    def _write(self, tiny_dataset, tmp_path, edit):
        root, _ = tiny_dataset
        obj = json.loads((root / "manifest.json").read_text())
        edit(obj)
        (tmp_path / "manifest.json").write_text(json.dumps(obj))

    def test_invalid_json_names_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1,')
        with pytest.raises(ValueError, match=r"manifest\.json: not valid JSON"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m.pop("version"), "'version'"),
            (lambda m: m.pop("splits"), "'splits'"),
            (lambda m: m["splits"]["val"].pop("examples"), r"'splits\.val\.examples'"),
            (lambda m: m["splits"]["test"]["examples"][1].pop("dir"), r"'splits\.test\.examples\[1\]\.dir'"),
            (lambda m: m["splits"]["train"]["examples"][0].update(m="4"), r"'splits\.train\.examples\[0\]\.m'"),
        ],
    )
    def test_missing_field_named(self, tiny_dataset, tmp_path, edit, field):
        self._write(tiny_dataset, tmp_path, edit)
        with pytest.raises(ValueError, match=rf"manifest\.json: .*{field}"):
            load_manifest(tmp_path)

    def test_unknown_split_named(self, tiny_dataset):
        root, manifest = tiny_dataset
        with pytest.raises(ValueError, match=r"manifest\.json: no split 'dev'"):
            load_split_features(root, manifest, "dev", RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N))
        with pytest.raises(ValueError, match=r"manifest\.json: no split 'dev'"):
            evaluate("tdoa", root, "dev", grid_n=TINY_GRID_N)


class TestFeatureCache:
    def test_cache_matches_recompute(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["val"]["examples"][0]
        gcc, slf, meta = read_feature_cache(root / entry["dir"] / "features.bin")
        received, scene = load_example(root, entry)
        frame = extract_frame(received, 500.0)
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        gcc2, slf2, meta2 = raw_pair_features(frame, scene, config)
        np.testing.assert_allclose(gcc, gcc2, atol=1e-6)
        np.testing.assert_allclose(slf, slf2, atol=1e-6)
        np.testing.assert_allclose(meta, meta2, atol=1e-6)

    def test_example_features_uses_cache(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][1]
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        feats = example_features(root, entry, config)
        pairs = entry["m"] * (entry["m"] - 1) // 2
        assert feats.shape == (pairs, TINY_GRID_N**2 + 9)
        gcc, slf, meta = read_feature_cache(root / entry["dir"] / "features.bin")
        np.testing.assert_array_equal(feats, assemble_input(gcc, slf, meta, config))

    def test_grid_mismatch_falls_back_to_recompute(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][2]
        config = RelNetConfig(feature_kind="slf", grid_n=5)  # cache holds grid 6
        feats = example_features(root, entry, config)
        assert feats.shape[1] == 25 + 9

    def test_unversioned_cache_not_served(self, tiny_dataset, tmp_path):
        # a features.bin from before the format version is recomputed
        root, manifest = tiny_dataset
        entry = manifest["splits"]["test"]["examples"][0]
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        expected = example_features(root, entry, config)
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        gcc, slf, meta = read_feature_cache(copy / "features.bin")
        with open(copy / "features.bin", "wb") as fh:
            np.savez(fh, gcc=gcc, slf=np.zeros_like(slf), meta=meta)
        with pytest.raises(FeatureCacheError, match="version None"):
            read_feature_cache(copy / "features.bin")
        np.testing.assert_allclose(example_features(tmp_path, entry, config), expected, atol=1e-6)

    def test_load_split_features_targets(self, tiny_dataset):
        root, manifest = tiny_dataset
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        examples = load_split_features(root, manifest, "val", config)
        assert len(examples) == 3
        entry = manifest["splits"]["val"]["examples"][0]
        grid = Grid(entry["room"][0], entry["room"][1], TINY_GRID_N)
        expected = target_map(np.asarray(entry["source_xy"]), grid)
        np.testing.assert_allclose(examples[0].target, expected, rtol=1e-6)


class TestGenerateExample:
    def test_pure_function_of_seed(self, tmp_path):
        config = tiny_dataset_config(master_seed=13)
        a = generate_example(config, "train", 0, tmp_path / "a")
        b = generate_example(config, "train", 0, tmp_path / "b")
        assert a == b
        assert (tmp_path / "a/train/00000/scene.json").read_bytes() == (
            tmp_path / "b/train/00000/scene.json"
        ).read_bytes()

    def test_anechoic_mode(self, tmp_path):
        from wasnloc.rir import SPEED_OF_SOUND
        from wasnloc.signals import provide_source_signal

        base = tiny_dataset_config(master_seed=17)
        config = DatasetConfig(**{**base.__dict__, "max_order": 0, "snr_db": math.inf})
        entry = generate_example(config, "test", 0, tmp_path)
        received, scene = load_example(tmp_path, entry)
        # anechoic, noiseless channels are exactly the source shifted by
        # the rounded propagation delay and scaled by spherical spreading
        sig = provide_source_signal(config.source, config.duration_s, config.fs, [entry["seed"], 1])
        for k, mic in enumerate(scene.mics.positions):
            dist = np.linalg.norm(scene.source.position - mic)
            delay = int(np.rint(config.fs * dist / SPEED_OF_SOUND))
            expected = np.zeros(received.n_samples)
            expected[delay : delay + sig.size] = sig / (4.0 * math.pi * dist)
            np.testing.assert_allclose(received.channels[k], expected, atol=1e-7)
