import importlib
import re
import shutil

import numpy as np
import pytest
from conftest import TINY_GRID_N

from wasnloc import dataset, signals
from wasnloc.classical import pick_peak, slf_localize, tdoa_localize
from wasnloc.dataset import (
    FEATURES_NAME,
    example_features,
    load_example_dir,
    load_manifest,
    load_split_features,
    split_entries,
)
from wasnloc.evaluate import EvalReport, evaluate, write_report_csv
from wasnloc.features import Grid, extract_frame
from wasnloc.relnet import RelNetConfig, RelNetModel, load_checkpoint, relnet_forward_features, save_checkpoint
from wasnloc.training import TrainConfig, train

# the package re-exports the function evaluate under its module's name
evaluate_module = importlib.import_module("wasnloc.evaluate")


def tiny_net_config():
    n_out = TINY_GRID_N**2
    return RelNetConfig(
        feature_kind="slf",
        grid_n=TINY_GRID_N,
        f_layer_sizes=(32, n_out),
        g_layer_sizes=(32, n_out),
    )


@pytest.fixture(scope="module")
def tiny_checkpoint(tiny_dataset, tmp_path_factory):
    root, manifest = tiny_dataset
    config = tiny_net_config()
    train_set = load_split_features(root, manifest, "train", config)
    val_set = load_split_features(root, manifest, "val", config)
    model = RelNetModel.init_random(config, rng_seed=0)
    best, _ = train(model, train_set, val_set, TrainConfig(max_epochs=3, batch_size=4, seed=0))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(best, path)
    return path


class TestEvaluate:
    def test_classical_rows_cover_test_mic_counts(self, tiny_dataset):
        root, manifest = tiny_dataset
        report = evaluate("slf", root, split="test", grid_n=TINY_GRID_N)
        present = sorted({e["m"] for e in manifest["splits"]["test"]["examples"]})
        assert [row.m for row in report.rows] == present
        assert sum(row.n_examples for row in report.rows) == 4
        assert all(row.mean_error_m >= 0 for row in report.rows)
        assert all(row.std_error_m is None for row in report.rows)

    def test_classical_needs_no_checkpoint(self, tiny_dataset, tiny_checkpoint):
        root, _ = tiny_dataset
        report = evaluate("tdoa", root, split="test", grid_n=TINY_GRID_N)
        assert report.method == "tdoa"
        # one passed anyway was once ignored without a word
        with pytest.raises(ValueError, match="method 'tdoa' takes no checkpoint, got 1"):
            evaluate("tdoa", root, split="test", grid_n=TINY_GRID_N, checkpoints=[tiny_checkpoint])

    def test_classical_deterministic(self, tiny_dataset):
        root, _ = tiny_dataset
        a = evaluate("slf", root, split="test", grid_n=TINY_GRID_N)
        b = evaluate("slf", root, split="test", grid_n=TINY_GRID_N)
        assert a == b

    def test_gnn_method_requires_checkpoint(self, tiny_dataset):
        root, _ = tiny_dataset
        with pytest.raises(ValueError):
            evaluate("gnn-slf", root, split="test")

    def test_gnn_eval_from_checkpoint(self, tiny_dataset, tiny_checkpoint):
        root, manifest = tiny_dataset
        report = evaluate("gnn-slf", root, split="test", checkpoints=[tiny_checkpoint])
        present = sorted({e["m"] for e in manifest["splits"]["test"]["examples"]})
        assert [row.m for row in report.rows] == present
        assert np.all(np.isfinite([row.mean_error_m for row in report.rows]))

    def test_gnn_feature_kind_mismatch_rejected(self, tiny_dataset, tiny_checkpoint):
        root, _ = tiny_dataset
        model = load_checkpoint(tiny_checkpoint)
        # a path names the checkpoint, a loaded model its place in the list
        for checkpoints, name in (([tiny_checkpoint], tiny_checkpoint), ([model], 1)):
            with pytest.raises(ValueError, match=re.escape(f"checkpoint {name}: feature kind 'slf' does not")):
                evaluate("gnn-gcc", root, split="test", checkpoints=checkpoints)

    def test_multiple_checkpoints_fill_std(self, tiny_dataset, tiny_checkpoint):
        root, _ = tiny_dataset
        report = evaluate(
            "gnn-slf", root, split="test", checkpoints=[tiny_checkpoint, tiny_checkpoint]
        )
        # identical checkpoints: std exactly zero, still reported
        assert all(row.std_error_m == 0.0 for row in report.rows)

    def test_features_read_once_for_all_checkpoints(self, tiny_dataset, tiny_checkpoint, monkeypatch):
        root, manifest = tiny_dataset
        calls = []

        def counting(*args):
            calls.append(args[1]["dir"])
            return example_features(*args)

        monkeypatch.setattr(evaluate_module, "example_features", counting)
        monkeypatch.setattr(evaluate_module, "_BATCH", 3)  # 4 test examples: a full and a partial batch
        evaluate("gnn-slf", root, split="test", checkpoints=[tiny_checkpoint, load_checkpoint(tiny_checkpoint)])
        entries = manifest["splits"]["test"]["examples"]
        assert sorted(calls) == sorted(e["dir"] for e in entries)

    @pytest.mark.parametrize("batch", [1, 3, 32])
    def test_gnn_means_equal_per_example_loop(self, tiny_dataset, tiny_checkpoint, monkeypatch, batch):
        root, _ = tiny_dataset
        model = load_checkpoint(tiny_checkpoint)
        entries = split_entries(root, load_manifest(root), "test")
        errors = []
        for entry in entries:
            heatmap = relnet_forward_features(model, example_features(root, entry, model.config))
            top_two = np.sort(heatmap)[-2:]
            # the batched forward rounds differently in the last bits; a wide
            # enough gap keeps the argmax, so the errors must be equal
            assert top_two[1] - top_two[0] > 1e-4
            width, length, _ = entry["room"]
            estimate = pick_peak(heatmap, Grid(width, length, model.config.grid_n), "max")
            errors.append(np.linalg.norm(estimate - np.asarray(entry["source_xy"])))
        ms = np.array([e["m"] for e in entries])
        want = [(m, float(np.mean(np.array(errors)[ms == m]))) for m in sorted(set(ms.tolist()))]

        monkeypatch.setattr(evaluate_module, "_BATCH", batch)
        report = evaluate("gnn-slf", root, split="test", checkpoints=[model])
        assert [(row.m, row.mean_error_m) for row in report.rows] == want

    def test_mixed_grid_checkpoints_rejected(self, tiny_dataset, tiny_checkpoint, tmp_path):
        root, _ = tiny_dataset
        n_out = (TINY_GRID_N + 1) ** 2
        other = RelNetModel.init_random(
            RelNetConfig(grid_n=TINY_GRID_N + 1, f_layer_sizes=(8, n_out), g_layer_sizes=(8, n_out))
        )
        path = tmp_path / "other.ckpt"
        save_checkpoint(other, path)
        n = TINY_GRID_N
        for checkpoints, message in (
            ([tiny_checkpoint, path], f"checkpoint {path}: grid_n {n + 1}, but checkpoint {tiny_checkpoint} has {n};"),
            ([tiny_checkpoint, other], f"checkpoint 2: grid_n {n + 1}, but checkpoint {tiny_checkpoint} has {n};"),
            ([load_checkpoint(tiny_checkpoint), path], f"checkpoint {path}: grid_n {n + 1}, but checkpoint 1 has {n};"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                evaluate("gnn-slf", root, split="test", checkpoints=checkpoints)

    def test_gnn_gcc_end_to_end(self, tiny_dataset, tmp_path):
        root, manifest = tiny_dataset
        config = RelNetConfig(
            feature_kind="gcc",
            grid_n=TINY_GRID_N,
            f_layer_sizes=(32, TINY_GRID_N**2),
            g_layer_sizes=(32, TINY_GRID_N**2),
        )
        train_set = load_split_features(root, manifest, "train", config)
        val_set = load_split_features(root, manifest, "val", config)
        model = RelNetModel.init_random(config, rng_seed=1)
        best, _ = train(model, train_set, val_set, TrainConfig(max_epochs=2, batch_size=4, seed=1))
        ckpt = tmp_path / "gcc.ckpt"
        save_checkpoint(best, ckpt)
        report = evaluate("gnn-gcc", root, split="test", checkpoints=[ckpt])
        assert np.all(np.isfinite([row.mean_error_m for row in report.rows]))

    def test_unknown_method_rejected(self, tiny_dataset):
        root, _ = tiny_dataset
        with pytest.raises(ValueError):
            evaluate("music", root)

    def test_heatmap_emission(self, tiny_dataset, tmp_path):
        root, _ = tiny_dataset
        evaluate(
            "slf",
            root,
            split="test",
            grid_n=TINY_GRID_N,
            heatmap_count=2,
            heatmap_dir=tmp_path,
        )
        pgms = sorted(tmp_path.glob("*.pgm"))
        assert len(pgms) == 2
        assert pgms[0].read_bytes().startswith(b"P5\n")


class TestClassicalFromCache:
    """tdoa and slf evaluation reduce the float32 rows of each example's
    features.bin, the rows ``localize`` computes from its WAVs, so every
    estimate and heatmap equals the CLI path's, and an example whose cache
    is refused is recomputed to the same result."""

    @staticmethod
    def _cli_results(data_dir, method, grid_n):
        """The CLI's localize per test example: read the example directory,
        take a frame, localize on the room's grid."""
        localize = tdoa_localize if method == "tdoa" else slf_localize
        results = {}
        for entry in split_entries(data_dir, load_manifest(data_dir), "test"):
            received, scene = load_example_dir(data_dir / entry["dir"])
            grid = Grid(scene.room.width, scene.room.length, grid_n)
            results[entry["dir"]] = localize(extract_frame(received), scene, grid)
        return results

    @staticmethod
    def _evaluated(monkeypatch, data_dir, method, grid_n):
        """evaluate's report, its (estimate, heatmap) per example, and the
        examples it recomputed from the WAVs."""
        estimates, recomputed = {}, []
        batch_estimates, load_example = evaluate_module._batch_estimates, evaluate_module.load_example

        def recording(method, data_dir, batch, grids, models):
            out = batch_estimates(method, data_dir, batch, grids, models)
            estimates.update((entry["dir"], result) for entry, result in zip(batch, out[0]))
            return out

        def counting(data_dir, entry):
            recomputed.append(entry["dir"])
            return load_example(data_dir, entry)

        monkeypatch.setattr(evaluate_module, "_batch_estimates", recording)
        monkeypatch.setattr(evaluate_module, "load_example", counting)
        return evaluate(method, data_dir, "test", grid_n=grid_n), estimates, recomputed

    @staticmethod
    def _flip_header_byte(path):
        raw = bytearray(path.read_bytes())
        raw[raw.index(b'"grid_n"') + 2] ^= 1  # inside the header member: its CRC-32 fails
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("method", ["tdoa", "slf"])
    @pytest.mark.parametrize("case", ["cached", "damaged", "other_grid"])
    def test_estimates_equal_cli_path(self, tiny_dataset, tmp_path, monkeypatch, method, case):
        root, manifest = tiny_dataset
        data_dir = tmp_path / "data"
        shutil.copytree(root / "test", data_dir / "test")
        shutil.copy(root / "manifest.json", data_dir / "manifest.json")
        dirs = [entry["dir"] for entry in manifest["splits"]["test"]["examples"]]
        grid_n, recompute = TINY_GRID_N, []
        if case == "damaged":
            (data_dir / dirs[0] / FEATURES_NAME).unlink()
            self._flip_header_byte(data_dir / dirs[1] / FEATURES_NAME)
            recompute = dirs[:2]
        elif case == "other_grid":
            grid_n, recompute = TINY_GRID_N + 1, dirs

        report, estimates, recomputed = self._evaluated(monkeypatch, data_dir, method, grid_n)
        assert recomputed == recompute
        want = self._cli_results(data_dir, method, grid_n)
        assert estimates.keys() == want.keys()
        for name, (estimate, heatmap) in estimates.items():
            assert np.array_equal(estimate, want[name].estimate)
            assert np.array_equal(heatmap, want[name].heatmap)

        entries = manifest["splits"]["test"]["examples"]
        errors = np.array([np.linalg.norm(want[e["dir"]].estimate - np.asarray(e["source_xy"])) for e in entries])
        ms = np.array([e["m"] for e in entries])
        assert [(row.m, row.mean_error_m) for row in report.rows] == [
            (m, float(errors[ms == m].mean())) for m in sorted(set(ms.tolist()))
        ]

    @pytest.mark.parametrize("method", ["tdoa", "slf"])
    @pytest.mark.parametrize("refused", [False, True])
    def test_scene_json_parsed_at_most_once(self, tiny_dataset, monkeypatch, method, refused):
        """TDOA parses each example's scene.json once, for its mics; SLF
        only where the cache is refused (here: built on another grid)."""
        root, manifest = tiny_dataset
        parsed, scene_from_json = [], dataset.scene_from_json

        def counting(raw):
            parsed.append(raw)
            return scene_from_json(raw)

        monkeypatch.setattr(dataset, "scene_from_json", counting)
        evaluate(method, root, "test", grid_n=TINY_GRID_N + refused)
        n_examples = len(manifest["splits"]["test"]["examples"])
        assert len(set(parsed)) == len(parsed) == (n_examples if method == "tdoa" or refused else 0)

    def test_valid_caches_decode_no_wav(self, tiny_dataset, monkeypatch):
        root, _ = tiny_dataset
        expected = {method: evaluate(method, root, "test", grid_n=TINY_GRID_N) for method in ("tdoa", "slf")}

        def refuse(*args, **kwargs):
            raise AssertionError("a WAV was decoded")

        monkeypatch.setattr(signals, "read_wav_mono", refuse)
        monkeypatch.setattr(dataset, "read_wav_mono", refuse)
        for method, report in expected.items():
            assert evaluate(method, root, "test", grid_n=TINY_GRID_N) == report


def test_report_csv(tmp_path):
    from wasnloc.evaluate import EvalRow

    report = EvalReport(
        method="slf",
        rows=(EvalRow(4, 10, 0.5, None), EvalRow(5, 12, 0.4, 0.02)),
    )
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,M,n_examples,mean_error_m,std_error_m"
    assert lines[1] == "slf,4,10,0.5,"
    assert lines[2] == "slf,5,12,0.4,0.02"
