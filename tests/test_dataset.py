import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from conftest import TINY_GRID_N, rewrite_header, rewrite_npz, tiny_dataset_config

from wasnloc.classical import raw_pair_features
from wasnloc.dataset import (
    FEATURES_NAME,
    SPLITS,
    DatasetConfig,
    example_features,
    generate_dataset,
    generate_example,
    load_example,
    load_manifest,
    load_split_features,
    read_feature_cache,
    split_entries,
    write_feature_cache,
)
from wasnloc.evaluate import evaluate
from wasnloc.features import Grid, extract_frame
from wasnloc.relnet import RelNetConfig, RelNetModel, assemble_input, target_map
from wasnloc.scenes import SceneDistribution, sample_scene, scene_from_json
from wasnloc.signals import SourceSignalConfig, read_wav_mono, write_wav
from wasnloc.typedjson import InputError


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
        files = {side: sorted(p.relative_to(tmp_path / side) for p in (tmp_path / side).rglob("*") if p.is_file())
                 for side in ("s", "p")}
        assert files["s"] == files["p"]
        assert {rel.suffix for rel in files["s"]} == {".json", ".wav", ".bin"}
        for rel in files["s"]:
            assert (tmp_path / "s" / rel).read_bytes() == (tmp_path / "p" / rel).read_bytes(), rel

    def test_input_error_of_a_worker_names_file(self, tmp_path):
        # raised in a worker process, the error is pickled to the parent
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.wav").write_bytes(b"not a WAV file" * 4)
        base = tiny_dataset_config(master_seed=32, workers=2)
        config = DatasetConfig(**{**base.__dict__, "train": 2, "source": SourceSignalConfig(corpus_dir=str(corpus))})
        with pytest.raises(InputError, match=r"a\.wav: not a complete WAV file") as info:
            generate_dataset(config, tmp_path / "out")
        assert str(info.value).startswith(f"{corpus / 'a.wav'}: ")
        assert info.value.path == corpus / "a.wav"

    def test_scene_json_matches_manifest_entry(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["test"]["examples"][1]
        scene = scene_from_json((root / entry["dir"] / "scene.json").read_text())
        assert scene.m == entry["m"]
        assert [scene.room.width, scene.room.length, scene.room.height] == entry["room"]
        assert scene.source[:2].tolist() == entry["source_xy"]
        assert scene.seed == entry["seed"]


class TestLoadExample:
    def test_channels_round_trip(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        received, scene = load_example(root, entry)
        assert received.shape[0] == entry["m"]
        assert np.all(np.isfinite(received))

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
        for k in range(len(noisy)):
            p_sig = np.mean(clean[k] ** 2)
            p_noise = np.mean((noisy[k] - clean[k]) ** 2)
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
        with pytest.raises(InputError, match=r"scene\.json: /seed: missing"):
            load_example(tmp_path, entry)

    def test_non_finite_channel_names_wav(self, tiny_dataset, tmp_path):
        # once a bare "heatmap contains NaN" from the localizer
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        samples, _ = read_wav_mono(copy / "ch_00.wav")
        samples[:100] = np.nan
        write_wav(copy / "ch_00.wav", samples)
        with pytest.raises(InputError, match=r"ch_00\.wav: sample 0 is nan, expected a finite number"):
            load_example(tmp_path, entry)

    @pytest.mark.parametrize("bad", ["length", "rate"])
    def test_mismatched_channel_names_wav(self, tiny_dataset, tmp_path, bad):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        samples, fs = read_wav_mono(copy / "ch_01.wav")
        if bad == "length":
            write_wav(copy / "ch_01.wav", samples[:-1])
            message = r"ch_01\.wav: .*ch_00\.wav"
        else:
            wavfile.write(copy / "ch_01.wav", fs // 2, samples.astype(np.float32))
            message = r"ch_01\.wav: sampled at 8000 Hz, expected 16000 Hz"
        with pytest.raises(InputError, match=message):
            load_example(tmp_path, entry)

    @pytest.mark.parametrize("bad", ["missing", "extra"])
    def test_channel_files_match_scene_m(self, tiny_dataset, tmp_path, bad):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        m = entry["m"]
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        if bad == "missing":
            name = f"ch_{m - 1:02d}.wav"
            (copy / name).unlink()
        else:
            name = f"ch_{m:02d}.wav"
            shutil.copy(copy / "ch_00.wav", copy / name)
        with pytest.raises(InputError, match=rf"{entry['dir']}: {name} .*scene\.json has M = {m}"):
            load_example(tmp_path, entry)

    def test_truncated_first_channel_named(self, tiny_dataset, tmp_path):
        # a short ch_00.wav is the culprit, not the ch_01.wav compared to it
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][0]
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        raw = (copy / "ch_00.wav").read_bytes()
        (copy / "ch_00.wav").write_bytes(raw[:-400])
        with pytest.raises(InputError, match=r"ch_00\.wav: "):
            load_example(tmp_path, entry)


def _test_entry(manifest, k):
    return manifest["splits"]["test"]["examples"][k]


class TestManifest:
    def _write(self, tiny_dataset, tmp_path, edit):
        root, _ = tiny_dataset
        obj = json.loads((root / "manifest.json").read_text())
        edit(obj)
        (tmp_path / "manifest.json").write_text(json.dumps(obj))

    def test_invalid_json_names_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1,')
        with pytest.raises(InputError, match=r"manifest\.json: /: not valid JSON"):
            load_manifest(tmp_path)

    def test_huge_integer_literal_names_file(self, tmp_path):
        # beyond the 4300-digit limit json.loads raises a plain ValueError
        (tmp_path / "manifest.json").write_text('{"version": 1' + "0" * 5000 + "}")
        with pytest.raises(InputError, match=r"manifest\.json: /: not valid JSON"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m.pop("version"), "/version: unsupported manifest version None"),
            (lambda m: m.pop("splits"), "/splits: missing"),
            (lambda m: m["splits"]["val"].pop("examples"), "/splits/val/examples: missing"),
            (lambda m: m["splits"]["test"]["examples"][1].pop("dir"), "/splits/test/examples/1/dir: missing"),
            (lambda m: m["splits"]["train"]["examples"][0].update(m="4"), "/splits/train/examples/0/m: expected"),
            # true == 1 and 1.0 == 1 in Python, but neither is the integer version
            (lambda m: m.update(version=True), "/version: unsupported manifest version True"),
            (lambda m: m.update(version=1.0), "/version: unsupported manifest version 1.0"),
            # an entry's dir must be <split>/<digits>, once per split
            (lambda m: _test_entry(m, 3).update(dir="/data/test/00000"), "/splits/test/examples/3/dir: '/data/"),
            (lambda m: _test_entry(m, 3).update(dir="../data/test/00001"), "/splits/test/examples/3/dir: '../"),
            (lambda m: _test_entry(m, 3).update(dir="train/00000"), "/splits/test/examples/3/dir: 'train/"),
            (
                lambda m: _test_entry(m, 3).update(_test_entry(m, 0)),
                "/splits/test/examples/3/dir: 'test/00000' must be a test/<digits> listed once",
            ),
            (lambda m: m["splits"]["test"].update(count=999), "/splits/test/count: 999, but the split lists 4"),
        ],
        ids=[
            "version", "splits", "examples", "entry_dir", "entry_m", "version_true", "version_float",
            "dir_absolute", "dir_parent", "dir_other_split", "dir_twice", "count",
        ],
    )
    def test_missing_field_named(self, tiny_dataset, tmp_path, edit, field):
        self._write(tiny_dataset, tmp_path, edit)
        with pytest.raises(InputError, match=rf"manifest\.json: {field}"):
            manifest = load_manifest(tmp_path)
            for split in SPLITS:
                split_entries(tmp_path, manifest, split)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("room", [], "/room: expected a list of 3 entries"),
            ("room", ["4", "4", "3"], "/room/0: expected a number"),
            ("source_xy", [1], "/source_xy: expected a list of 2 entries"),
            ("m", 1, ": m must be >= 2"),
            ("room", [4.0, 0.0, 3.0], r": room \[4\.0, 0\.0, 3\.0\] must be > 0 in every dimension"),
            ("t60", -0.3, r": t60 must be > 0, got -0\.3"),
            ("source_xy", [99, 1], r": source_xy \[99\.0, 1\.0\] outside the room footprint"),
        ],
        ids=["room_empty", "room_strings", "source_xy_short", "one_mic", "room_flat", "t60_negative", "source_outside"],
    )
    def test_bad_entry_named(self, tiny_dataset, tmp_path, field, value, message):
        self._write(tiny_dataset, tmp_path, lambda m: m["splits"]["test"]["examples"][2].update({field: value}))
        manifest = load_manifest(tmp_path)  # entries are checked per split
        assert split_entries(tmp_path, manifest, "train")
        pattern = rf"manifest\.json: /splits/test/examples/2{message}"
        with pytest.raises(InputError, match=pattern):
            split_entries(tmp_path, manifest, "test")
        with pytest.raises(InputError, match=pattern):
            evaluate("tdoa", tmp_path, "test", grid_n=TINY_GRID_N)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("m", lambda e: e["m"] + 1),
            ("room", lambda e: [2 * e["room"][0], 2 * e["room"][1], e["room"][2]]),
            ("source_xy", lambda e: [0.5, 0.5]),
        ],
        ids=["m", "room", "source_xy"],
    )
    def test_entry_contradicting_scene_json_refused(self, tiny_dataset, tmp_path, field, edit):
        root, _ = tiny_dataset
        shutil.copytree(root / "test", tmp_path / "test")
        def contradict(manifest):
            entry = manifest["splits"]["test"]["examples"][2]
            entry[field] = edit(entry)

        self._write(tiny_dataset, tmp_path, contradict)
        manifest = load_manifest(tmp_path)
        entry = split_entries(tmp_path, manifest, "test")[2]
        pattern = rf"manifest\.json: example '{entry['dir']}' has {field} .*, but its scene\.json has "
        with pytest.raises(InputError, match=pattern):
            load_example(tmp_path, entry)
        with pytest.raises(InputError, match=pattern):
            evaluate("slf", tmp_path, "test", grid_n=TINY_GRID_N)
        # the features.bin header records the scene too, so the networks'
        # cached path refuses the entry as well
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N, f_layer_sizes=(8, 36), g_layer_sizes=(8, 36))
        with pytest.raises(InputError, match=pattern):
            evaluate("gnn-slf", tmp_path, "test", checkpoints=[RelNetModel.init_random(config)])
        with pytest.raises(InputError, match=pattern):
            load_split_features(tmp_path, manifest, "test", config)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("m", lambda scene: scene["mics"].pop()),
            ("room", lambda scene: scene["room"].update(width=2 * scene["room"]["width"])),
        ],
        ids=["m", "room"],
    )
    def test_scene_json_contradicting_entry_refused_by_tdoa(self, tiny_dataset, tmp_path, field, edit):
        # the entry and features.bin agree; load_example and TDOA evaluation
        # read scene.json (TDOA for the mics) and must refuse the
        # contradiction there, before any WAV is read, while SLF evaluation
        # reads only features.bin and is unchanged
        root, manifest = tiny_dataset
        shutil.copytree(root / "test", tmp_path / "test")
        shutil.copy(root / "manifest.json", tmp_path / "manifest.json")
        entry = manifest["splits"]["test"]["examples"][2]
        scene_path = tmp_path / entry["dir"] / "scene.json"
        scene = json.loads(scene_path.read_text())
        edit(scene)
        scene_path.write_text(json.dumps(scene))
        pattern = rf"manifest\.json: example '{entry['dir']}' has {field} .*, but its scene\.json has "
        with pytest.raises(InputError, match=pattern):
            load_example(tmp_path, entry)
        with pytest.raises(InputError, match=pattern):
            evaluate("tdoa", tmp_path, "test", grid_n=TINY_GRID_N)
        assert evaluate("slf", tmp_path, "test", grid_n=TINY_GRID_N) == evaluate("slf", root, "test", grid_n=TINY_GRID_N)

    def test_unknown_split_named(self, tiny_dataset):
        root, manifest = tiny_dataset
        with pytest.raises(InputError, match=r"manifest\.json: no split 'dev'"):
            load_split_features(root, manifest, "dev", RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N))
        with pytest.raises(InputError, match=r"manifest\.json: no split 'dev'"):
            evaluate("tdoa", root, "dev", grid_n=TINY_GRID_N)


ALL_MEMBERS = ("gcc", "slf", "meta")


class TestFeatureCache:
    def test_cache_matches_recompute(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["val"]["examples"][0]
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        gcc, slf, meta = read_feature_cache(root / entry["dir"] / "features.bin", config.grid_n, entry, ALL_MEMBERS)
        received, scene = load_example(root, entry)
        frame = extract_frame(received)
        for cached, recomputed in zip((gcc, slf, meta), raw_pair_features(frame, scene, config.grid_n)):
            assert np.array_equal(cached, recomputed)

    def test_example_features_uses_cache(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][1]
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        feats = example_features(root, entry, config)
        pairs = entry["m"] * (entry["m"] - 1) // 2
        assert feats.shape == (pairs, TINY_GRID_N**2 + 9)
        gcc, slf, meta = read_feature_cache(root / entry["dir"] / "features.bin", config.grid_n, entry, ALL_MEMBERS)
        np.testing.assert_array_equal(feats, assemble_input(gcc, slf, meta, config))

    def test_grid_mismatch_falls_back_to_recompute(self, tiny_dataset):
        root, manifest = tiny_dataset
        entry = manifest["splits"]["train"]["examples"][2]
        config = RelNetConfig(feature_kind="slf", grid_n=5)  # cache holds grid 6
        feats = example_features(root, entry, config)
        assert feats.shape[1] == 25 + 9

    def test_unversioned_cache_not_served(self, tiny_dataset, tmp_path):
        # a features.bin from before the format version, of version 3 (a
        # float64 "version" member of the build settings), or of version 4
        # (rows from the float64 signal before it was written as float32)
        # is recomputed
        root, manifest = tiny_dataset
        entry = manifest["splits"]["test"]["examples"][0]
        config = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        expected = example_features(root, entry, config)
        copy = tmp_path / entry["dir"]
        shutil.copytree(root / entry["dir"], copy)
        path = copy / FEATURES_NAME
        gcc, slf, meta = read_feature_cache(path, config.grid_n, entry, ALL_MEMBERS)

        def savez(**older):
            with open(path, "wb") as fh:
                np.savez(fh, **older, gcc=gcc, slf=np.zeros_like(slf), meta=meta)

        def version_4():
            shutil.copy(root / entry["dir"] / FEATURES_NAME, path)
            rewrite_npz(path, lambda members: members.update(slf=np.zeros_like(slf)))
            rewrite_header(path, lambda header: header.update(version=4))

        for write, message in (
            (savez, "no member 'header'"),
            (lambda: savez(version=np.array([3, 1024, 200, TINY_GRID_N, 500.0])), "no member 'header'"),
            (version_4, "header /version: version 4, expected 5"),
        ):
            write()
            with pytest.raises(InputError, match=f"{FEATURES_NAME}: {message}"):
                read_feature_cache(path, config.grid_n, entry, ALL_MEMBERS)
            np.testing.assert_array_equal(example_features(tmp_path, entry, config), expected)

    @pytest.mark.parametrize("built_with", [{"frame_ms": 250.0}, {"fft_size": 512}])
    def test_cache_from_other_parameters_not_served(self, tmp_path, built_with):
        # same widths as a default cache, other numbers: must be recomputed
        ((field, value),) = built_with.items()
        entry = generate_example(tiny_dataset_config(master_seed=19), "train", 0, tmp_path)
        path = tmp_path / entry["dir"] / FEATURES_NAME

        # both settings are fixed, so a foreign one is forged
        rewrite_header(path, lambda header: header.update({field: value}))
        default = RelNetConfig(feature_kind="slf", grid_n=TINY_GRID_N)
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: header /{field}: "):
            read_feature_cache(path, default.grid_n, entry, ALL_MEMBERS)
        received, scene = load_example(tmp_path, entry)
        frame = extract_frame(received)
        expected = assemble_input(*raw_pair_features(frame, scene, default.grid_n), default)
        np.testing.assert_array_equal(example_features(tmp_path, entry, default), expected)

    @staticmethod
    def _damaged_cache(tiny_dataset, tmp_path, damage, kind="slf"):
        """A copy of one example whose features.bin went through damage(path);
        a model of the feature kind must refuse the cache and recompute it
        from the WAVs."""
        root, manifest = tiny_dataset
        entry = manifest["splits"]["test"]["examples"][1]
        shutil.copytree(root / entry["dir"], tmp_path / entry["dir"])
        path = tmp_path / entry["dir"] / FEATURES_NAME
        damage(path)
        config = RelNetConfig(feature_kind=kind, grid_n=TINY_GRID_N)
        received, scene = load_example(tmp_path, entry)
        expected = assemble_input(*raw_pair_features(extract_frame(received), scene, config.grid_n), config)
        np.testing.assert_array_equal(example_features(tmp_path, entry, config), expected)
        return lambda: read_feature_cache(path, config.grid_n, entry, (kind, "meta"))

    def test_truncated_cache_recomputed(self, tiny_dataset, tmp_path):
        def cut(path):
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) // 2])

        read = self._damaged_cache(tiny_dataset, tmp_path, cut)
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable file"):
            read()

    def test_missing_cache_recomputed(self, tiny_dataset, tmp_path):
        read = self._damaged_cache(tiny_dataset, tmp_path, lambda path: path.unlink())
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: No such file or directory"):
            read()

    def test_non_npz_cache_recomputed(self, tiny_dataset, tmp_path):
        read = self._damaged_cache(tiny_dataset, tmp_path, lambda path: path.write_text("not an npz\n" * 20))
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable file"):
            read()

    def test_bare_npy_cache_recomputed(self, tiny_dataset, tmp_path):
        def replace_with_npy(path):
            with np.load(path) as data:
                slf = data["slf"]
            with open(path, "wb") as fh:
                np.save(fh, slf)

        read = self._damaged_cache(tiny_dataset, tmp_path, replace_with_npy)
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable file: File is not a zip file"):
            read()

    @pytest.mark.parametrize("dtype", ["int16", "complex64", ">f4"])
    def test_non_float32_member_recomputed(self, tiny_dataset, tmp_path, dtype):
        # same shape, other type: once served quantized or with a ComplexWarning
        def retype(members):
            members["slf"] = members["slf"].astype(dtype)

        damage = lambda path: rewrite_npz(path, retype)  # noqa: E731
        read = self._damaged_cache(tiny_dataset, tmp_path, damage)
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: member 'slf' holds {dtype}, expected float32"):
            read()

    # a float32 (P, W) member in a layout other than np.savez writes for it:
    # (edit of the array, npy format version)
    OTHER_LAYOUTS = {
        "fortran": (np.asfortranarray, None),
        "3d": (lambda array: array[:, :, None], None),
        "npy_2_0": (lambda array: array, (2, 0)),
    }

    @pytest.mark.parametrize("layout", OTHER_LAYOUTS)
    def test_other_layout_member_recomputed(self, tiny_dataset, tmp_path, layout):
        relay, version = self.OTHER_LAYOUTS[layout]
        edit = lambda members: members.update(slf=relay(members["slf"]))  # noqa: E731
        damage = lambda path: rewrite_npz(path, edit, {"slf": version})  # noqa: E731
        read = self._damaged_cache(tiny_dataset, tmp_path, damage)
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: unreadable member 'slf': not an npy 1.0 C-ordered"):
            read()

    # the model reading each member: gcc only a GCC model, meta any model
    MEMBER_KINDS = {"gcc": "gcc", "slf": "slf", "meta": "slf"}

    @pytest.mark.parametrize("member", ["gcc", "slf", "meta"])
    def test_missing_member_recomputed(self, tiny_dataset, tmp_path, member):
        edit = lambda members: members.pop(member)  # noqa: E731
        damage = lambda path: rewrite_npz(path, edit)  # noqa: E731
        read = self._damaged_cache(tiny_dataset, tmp_path, damage, self.MEMBER_KINDS[member])
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: no member '{member}'"):
            read()

    @pytest.mark.parametrize("member", ["gcc", "slf", "meta"])
    def test_wrong_pair_count_recomputed(self, tiny_dataset, tmp_path, member):
        def drop_row(members):
            members[member] = members[member][:-1]

        damage = lambda path: rewrite_npz(path, drop_row)  # noqa: E731
        read = self._damaged_cache(tiny_dataset, tmp_path, damage, self.MEMBER_KINDS[member])
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: member '{member}' has shape"):
            read()

    @pytest.mark.parametrize("member", ["gcc", "slf", "meta"])
    def test_non_finite_value_recomputed(self, tiny_dataset, tmp_path, member):
        # a NaN row was once served to the network
        def poison(members):
            members[member] = members[member].copy()
            members[member][1, 2] = np.nan

        damage = lambda path: rewrite_npz(path, poison)  # noqa: E731
        read = self._damaged_cache(tiny_dataset, tmp_path, damage, self.MEMBER_KINDS[member])
        with pytest.raises(InputError, match=rf"{FEATURES_NAME}: member '{member}' holds nan at \(1, 2\)"):
            read()

    @pytest.mark.parametrize("kind, other", [("slf", "gcc"), ("gcc", "slf")])
    def test_other_kind_not_decoded(self, tiny_dataset, tmp_path, kind, other):
        # a model reads only its own feature member: damage to the other
        # one goes unnoticed and the cache is still served
        root, manifest = tiny_dataset
        entry = manifest["splits"]["test"]["examples"][1]
        shutil.copytree(root / entry["dir"], tmp_path / entry["dir"])
        path = tmp_path / entry["dir"] / FEATURES_NAME
        config = RelNetConfig(feature_kind=kind, grid_n=TINY_GRID_N)
        expected = assemble_input(*read_feature_cache(path, config.grid_n, entry, ALL_MEMBERS), config)

        def drop_row(members):
            members[other] = members[other][:-1]

        rewrite_npz(path, drop_row)
        cached = read_feature_cache(path, config.grid_n, entry, (kind, "meta"))
        assert cached[ALL_MEMBERS.index(other)] is None
        np.testing.assert_array_equal(example_features(tmp_path, entry, config), expected)

    @settings(max_examples=25, deadline=None)
    @given(master_seed=st.integers(0, 10**6), m=st.integers(2, 8))
    def test_recompute_from_wavs_equals_cache(self, tmp_path_factory, master_seed, m):
        """The rows are computed from the float32 samples the WAVs hold, so
        for any scene and mic count a recompute from an example's WAVs
        equals its features.bin bit for bit."""
        config = replace(tiny_dataset_config(master_seed=master_seed), test_mic_counts=(m,))
        root = tmp_path_factory.mktemp("example")
        entry = generate_example(config, "test", 0, root)
        assume(entry is not None)  # an infeasible scene writes no example
        cached = read_feature_cache(root / entry["dir"] / FEATURES_NAME, config.grid_n, entry, ALL_MEMBERS)
        received, scene = load_example(root, entry)
        for cached_rows, rows in zip(cached, raw_pair_features(extract_frame(received), scene, config.grid_n)):
            assert np.array_equal(cached_rows, rows)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 8), grid_n=st.integers(2, 6), seed=st.integers(0, 2**16))
    def test_write_read_round_trip(self, tmp_path_factory, m, grid_n, seed):
        """For P = 1-28 pairs and any grid, the arrays read back are the
        float32 arrays written, and the header holds the settings and the
        scene fields that a manifest entry of the scene has."""
        scene = sample_scene(SceneDistribution(mic_counts=(m,)), seed)
        rng = np.random.default_rng(seed)
        pairs = m * (m - 1) // 2
        arrays = [rng.standard_normal((pairs, width)).astype(np.float32) for width in (200, grid_n**2, 9)]
        path = tmp_path_factory.mktemp("cache") / FEATURES_NAME
        write_feature_cache(path, scene, grid_n, *arrays)
        room = scene.room
        entry = {"m": m, "room": [room.width, room.length, room.height], "t60": room.t60,
                 "source_xy": scene.source[:2].tolist()}
        for read, written in zip(read_feature_cache(path, grid_n, entry, ALL_MEMBERS), arrays):
            assert read.dtype == np.float32 and np.array_equal(read, written)
        with np.load(path) as data:
            assert sorted(data.files) == ["gcc", "header", "meta", "slf"]
            header = json.loads(data["header"].tobytes())
        built_with = {"version": 5, "fft_size": 1024, "n_central": 200, "frame_ms": 500.0, "grid_n": grid_n}
        assert header == {**built_with, **entry}

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

    def test_negative_max_order_refused(self):
        # a negative reflection order keeps no image, so every channel would be silent
        with pytest.raises(ValueError, match="DatasetConfig.max_order must be >= 0, got -1"):
            DatasetConfig(max_order=-1, snr_db=math.inf)

    def test_anechoic_mode(self, tmp_path):
        from wasnloc.rir import DEFAULT_FS, SPEED_OF_SOUND
        from wasnloc.signals import provide_source_signal_with_id

        base = tiny_dataset_config(master_seed=17)
        config = DatasetConfig(**{**base.__dict__, "max_order": 0, "snr_db": math.inf})
        entry = generate_example(config, "test", 0, tmp_path)
        received, scene = load_example(tmp_path, entry)
        # anechoic, noiseless channels are exactly the source shifted by
        # the rounded propagation delay and scaled by spherical spreading
        sig = provide_source_signal_with_id(config.source, config.duration_s, [entry["seed"], 1])[0]
        for k, mic in enumerate(scene.mics):
            dist = np.linalg.norm(scene.source - mic)
            delay = int(np.rint(DEFAULT_FS * dist / SPEED_OF_SOUND))
            expected = np.zeros(received.shape[1])
            expected[delay : delay + sig.size] = sig / (4.0 * math.pi * dist)
            np.testing.assert_allclose(received[k], expected, atol=1e-7)
