"""Shipping acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the full-pipeline ordering check (criterion 6) generates a
desk-scale dataset and trains a model, so the suite takes tens of minutes.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from conftest import FS, bandlimited_noise

from wasnloc.classical import pick_peak, slf_localize
from wasnloc.dataset import (
    DatasetConfig,
    example_features,
    generate_dataset,
    load_example,
    load_manifest,
    load_split_features,
)
from wasnloc.evaluate import evaluate
from wasnloc.features import Grid, extract_frame, gcc_phat, mean_mic_height
from wasnloc.mlp import Mlp
from wasnloc.relnet import (
    RelNetConfig,
    RelNetModel,
    gnn_localize,
    load_checkpoint,
    mae_loss,
    relnet_forward_features,
    save_checkpoint,
    target_map,
)
from wasnloc.rir import SPEED_OF_SOUND, average_decay_time, simulate_rir
from wasnloc.scenes import SceneDistribution, sample_scene
from wasnloc.signals import auralize
from wasnloc.training import TrainConfig, train


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_gcc_phat_delay_recovery():
    """1000 white-noise trials at 30 dB SNR, integer delays in [-50, 50]:
    exact peak-lag recovery in at least 99%, in under a minute."""
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    frame_len = 8000
    hits = 0
    trials = 1000
    noise_scale = 10.0 ** (-30.0 / 20.0)
    for _ in range(trials):
        delay = int(rng.integers(-50, 51))
        master = rng.standard_normal(frame_len + 200)
        x_i = master[100 : 100 + frame_len]
        x_j = master[100 - delay : 100 - delay + frame_len]
        x_i = x_i + noise_scale * rng.standard_normal(frame_len)
        x_j = x_j + noise_scale * rng.standard_normal(frame_len)
        corr = gcc_phat(np.stack([x_i, x_j]), np.array([[0, 1]]))[0]
        if int(np.argmax(corr)) - corr.size // 2 == -delay:
            hits += 1
    elapsed = time.monotonic() - started
    ok = hits >= 990 and elapsed < 60.0
    report(
        "criterion 1 (GCC-PHAT delay recovery)",
        ok,
        f"{hits}/{trials} exact, {elapsed:.1f}s",
    )


def test_criterion_2_rir_physics():
    """200 random scenes: every RIR's first tap lands exactly on
    round(fs * dist / c); the room's Schroeder decay time (averaged over
    the scene's microphones) is within +-20% of the requested T60."""
    config = SceneDistribution(mic_counts=(5,))
    tap_failures = 0
    ratios = []
    for k in range(200):
        scene = sample_scene(config, 20_000 + k)
        rirs = simulate_rir(scene.room, scene.source, scene.mics, FS)
        for mic, rir in zip(scene.mics, rirs):
            dist = float(np.linalg.norm(scene.source - mic))
            if int(np.flatnonzero(rir)[0]) != int(np.rint(FS * dist / SPEED_OF_SOUND)):
                tap_failures += 1
        ratios.append(average_decay_time(rirs, FS) / scene.room.t60)
    ratios = np.asarray(ratios)
    decay_ok = bool(np.all((ratios >= 0.8) & (ratios <= 1.2)))
    ok = tap_failures == 0 and decay_ok
    report(
        "criterion 2 (RIR physics)",
        ok,
        f"tap failures {tap_failures}/1000, decay ratio "
        f"[{ratios.min():.3f}, {ratios.max():.3f}]",
    )


def test_criterion_3_anechoic_oracle():
    """Reverb off, no noise, 5 mics, 200 scenes with controlled geometry:
    classical SLF lands within one grid-cell diagonal in at least 95%.

    Controlled geometry means the source sits on the grid plane (the mean
    microphone height) at a cell center, so the oracle isolates the
    2-D localization chain from the deliberate planar-grid model error.
    The source signal is band-limited: a noiseless full-band PHAT
    correlation is a single-sample spike, which a 0.2 m grid cannot
    sample; band-limiting gives the correlation its finite mainlobe.
    """
    config = SceneDistribution(mic_counts=(5,))
    within = 0
    for k in range(200):
        scene = sample_scene(config, 10_000 + k)
        grid = Grid(scene.room.width, scene.room.length, 25)
        z_plane = mean_mic_height(scene.mics)
        position = scene.source.copy()
        centers = grid.cell_centers()
        position[:2] = centers[
            np.argmin(np.linalg.norm(centers - position[None, :2], axis=1))
        ]
        position[2] = z_plane
        scene = dataclasses.replace(scene, source=position)
        rng = np.random.default_rng([10_000 + k, 1])
        signal = bandlimited_noise(FS, rng)
        received = auralize(scene, signal, FS, max_order=0)
        frame = extract_frame(received)
        result = slf_localize(frame, scene, grid)
        err = np.linalg.norm(result.estimate - scene.source[:2])
        diagonal = math.hypot(scene.room.width / 25, scene.room.length / 25)
        within += int(err <= diagonal)
    ok = within >= 190
    report("criterion 3 (anechoic SLF oracle)", ok, f"{within}/200 within one cell diagonal")


def test_criterion_4_gradient_correctness():
    """Analytic backprop vs central finite differences (h=1e-5) on 20
    random small nets: relative error < 1e-4 for every parameter away
    from activation kinks; under a minute."""
    started = time.monotonic()
    h = 1e-5
    kink_margin = 1e-3
    checked = 0
    skipped = 0
    worst = 0.0
    for net_seed in range(20):
        rng = np.random.default_rng(3000 + net_seed)
        sizes = tuple(int(s) for s in rng.integers(4, 12, size=3))
        input_size = int(rng.integers(4, 12))
        net = Mlp.init_random(input_size, sizes, rng, dtype=np.float64)
        x = rng.standard_normal((1, input_size))
        target = rng.standard_normal((1, sizes[-1]))

        out, cache = net.forward(x)
        # stay away from both ReLU and MAE kinks; the cache keeps each
        # layer's input, from which its pre-activation is recomputed
        preacts = [a @ w + b for a, (w, b) in zip(cache["inputs"], net.layers)]
        if min(np.min(np.abs(p)) for p in preacts) < kink_margin:
            skipped += 1
            continue
        if np.min(np.abs(out - target)) < kink_margin:
            skipped += 1
            continue
        _, upstream = mae_loss(out, target)
        net.backward(cache, upstream)

        def loss():
            y, _ = net.forward(x)
            return float(np.mean(np.abs(y - target)))

        flat_p, flat_g = net.flat, net.grad
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            up = loss()
            flat_p[idx] = orig - h
            down = loss()
            flat_p[idx] = orig
            fd = (up - down) / (2.0 * h)
            rel = abs(fd - flat_g[idx]) / max(abs(fd), abs(flat_g[idx]), 1e-8)
            worst = max(worst, rel)
            checked += 1
            assert rel < 1e-4, f"net {net_seed}, param {idx}: rel error {rel:.2e}"
    elapsed = time.monotonic() - started
    ok = checked > 1000 and worst < 1e-4 and elapsed < 60.0
    report(
        "criterion 4 (gradient correctness)",
        ok,
        f"{checked} parameters checked, worst rel err {worst:.2e}, "
        f"{skipped} kink-adjacent nets skipped, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def variable_m_workspace(tmp_path_factory):
    """A small {5,7}-trained GNN-SLF checkpoint plus a {4,5,6,7} test set."""
    root = tmp_path_factory.mktemp("acc5")
    config = DatasetConfig(
        train=16,
        val=6,
        test=8,
        train_mic_counts=(5, 7),
        val_mic_counts=(5, 7),
        test_mic_counts=(4, 5, 6, 7),
        master_seed=7000,
        duration_s=0.8,
        workers=1,
    )
    generate_dataset(config, root)
    manifest = load_manifest(root)
    net_config = RelNetConfig(feature_kind="slf", grid_n=25)
    train_set = load_split_features(root, manifest, "train", net_config)
    val_set = load_split_features(root, manifest, "val", net_config)
    model = RelNetModel.init_random(net_config, rng_seed=0)
    best, _ = train(
        model, train_set, val_set, TrainConfig(max_epochs=2, batch_size=8, seed=0)
    )
    ckpt = root / "gnn_slf.ckpt"
    save_checkpoint(best, ckpt)
    return root, manifest, ckpt


def test_criterion_5_variable_mic_contract(variable_m_workspace):
    """A GNN-SLF checkpoint trained on M in {5,7} runs on M in {4,5,6,7}
    with finite outputs, and its argmax is microphone-permutation
    invariant."""
    root, manifest, ckpt = variable_m_workspace
    model = load_checkpoint(ckpt)
    entries = manifest["splits"]["test"]["examples"]
    seen_m = set()
    rng = np.random.default_rng(0)
    for entry in entries:
        received, scene = load_example(root, entry)
        frame = extract_frame(received)
        heatmap = gnn_localize(model, frame, scene).heatmap
        assert heatmap.shape == (625,)
        assert np.all(np.isfinite(heatmap))
        seen_m.add(scene.m)

        perm = rng.permutation(scene.m)
        scene_p = dataclasses.replace(scene, mics=scene.mics[perm])
        frame_p = dataclasses.replace(frame, channels=frame.channels[perm])
        heatmap_p = gnn_localize(model, frame_p, scene_p).heatmap
        assert int(np.argmax(heatmap)) == int(np.argmax(heatmap_p))
    trained_on = set(manifest["config"]["train_mic_counts"])
    ok = seen_m == {4, 5, 6, 7} and trained_on == {5, 7}
    report(
        "criterion 5 (variable-M contract)",
        ok,
        f"trained on {sorted(trained_on)}, evaluated on {sorted(seen_m)}, "
        "finite outputs, permutation-invariant argmax",
    )


@pytest.fixture(scope="module")
def desk_scale_workspace(tmp_path_factory):
    """Criterion 6 workspace: generated dataset + trained GNN-SLF checkpoint.

    2500 training scenes with M in {5,7}, 300 validation scenes, and a
    matched 500-scene test set with M in {4,5,6,7}; T60 uniform in
    [0.3, 0.6] s, 30 dB SNR, synthetic speech-like sources.
    """
    root = tmp_path_factory.mktemp("acc6")
    config = DatasetConfig(
        train=2500,
        val=300,
        test=500,
        train_mic_counts=(5, 7),
        val_mic_counts=(5, 7),
        test_mic_counts=(4, 5, 6, 7),
        master_seed=60_000,
        duration_s=1.0,
        workers=2,
    )
    gen_started = time.monotonic()
    generate_dataset(config, root)
    gen_seconds = time.monotonic() - gen_started

    pipeline_started = time.monotonic()
    manifest = load_manifest(root)
    net_config = RelNetConfig(feature_kind="slf", grid_n=25)
    train_set = load_split_features(root, manifest, "train", net_config)
    val_set = load_split_features(root, manifest, "val", net_config)
    model = RelNetModel.init_random(net_config, rng_seed=0)
    best, history = train(model, train_set, val_set, TrainConfig(seed=0))
    train_seconds = time.monotonic() - pipeline_started
    ckpt = root / "gnn_slf.ckpt"
    save_checkpoint(best, ckpt)
    return root, ckpt, gen_seconds, train_seconds, len(history)


@pytest.mark.slow
def test_criterion_6_desk_scale_ordering(desk_scale_workspace):
    """Paper-ordering reproduction at desk scale: GNN-SLF beats classical
    SLF for every M (>=10% relative at M=4) and classical SLF beats the
    TDOA baseline; feature precomputation plus training within an hour."""
    root, ckpt, gen_seconds, train_seconds, epochs = desk_scale_workspace

    slf_started = time.monotonic()
    slf = evaluate("slf", root, split="test")
    slf_seconds = time.monotonic() - slf_started
    tdoa = evaluate("tdoa", root, split="test")
    gnn = evaluate("gnn-slf", root, split="test", checkpoints=[ckpt])

    # collapse diagnostics (reported, not gated): a model stuck near its
    # prior picks few distinct cells and trails a fixed room-centre guess.
    # Normalized SLF (reported, not gated) is the argmax of the mean of the
    # standardized SLF rows, what the relation network computes with
    # identity weights: the strongest baseline it expresses untrained.
    model = load_checkpoint(ckpt)
    entries = load_manifest(root)["splits"]["test"]["examples"]
    n_cells = model.config.grid_n**2
    gnn_cells = set()
    normalized_errors = {m: [] for m in (4, 5, 6, 7)}
    for e in entries:
        features = example_features(root, e, model.config)
        gnn_cells.add(int(np.argmax(relnet_forward_features(model, features))))
        grid = Grid(e["room"][0], e["room"][1], model.config.grid_n)
        estimate = pick_peak(features[:, :n_cells].mean(axis=0), grid, "max")
        normalized_errors[e["m"]].append(np.linalg.norm(estimate - np.asarray(e["source_xy"])))
    normalized_by_m = {m: float(np.mean(errors)) for m, errors in normalized_errors.items()}
    centre_error = np.mean(
        [np.linalg.norm(np.array(e["room"][:2]) / 2 - e["source_xy"]) for e in entries]
    )

    slf_by_m = {r.m: r.mean_error_m for r in slf.rows}
    gnn_by_m = {r.m: r.mean_error_m for r in gnn.rows}
    beats_everywhere = all(gnn_by_m[m] < slf_by_m[m] for m in (4, 5, 6, 7))
    improvement_m4 = (slf_by_m[4] - gnn_by_m[4]) / slf_by_m[4]
    slf_beats_tdoa = slf.overall_mean < tdoa.overall_mean
    in_budget = train_seconds <= 3600.0
    throughput_ok = slf_seconds <= 300.0  # 500-scene SLF evaluation bound

    detail = (
        f"per-M mean error [m]: "
        + ", ".join(
            f"M={m}: gnn {gnn_by_m[m]:.3f} vs slf {slf_by_m[m]:.3f}" for m in (4, 5, 6, 7)
        )
        + f"; M=4 improvement {improvement_m4 * 100:.1f}%"
        + f"; overall slf {slf.overall_mean:.3f} vs tdoa {tdoa.overall_mean:.3f}"
        + "; normalized slf M=4-7 "
        + "/".join(f"{normalized_by_m[m]:.3f}" for m in (4, 5, 6, 7))
        + ", gnn margin "
        + "/".join(f"{(1 - gnn_by_m[m] / normalized_by_m[m]) * 100:.1f}%" for m in (4, 5, 6, 7))
        + f"; gnn distinct argmax cells {len(gnn_cells)}/{len(entries)}"
        + f", room-centre guess {centre_error:.3f}"
        + f"; features+training {train_seconds / 60:.1f} min ({epochs} epochs), "
        + f"generation {gen_seconds / 60:.1f} min, slf eval {slf_seconds:.0f}s"
    )
    ok = (
        beats_everywhere
        and improvement_m4 >= 0.10
        and slf_beats_tdoa
        and in_budget
        and throughput_ok
    )
    report("criterion 6 (desk-scale ordering)", ok, detail)


def test_criterion_7_target_map_law():
    """Target map: 1 at the source cell, exp(-1) one meter out, argmax at
    the nearest cell, all values in (0, 1]."""
    grid = Grid(10.0, 10.0, n=5)  # centers at 1, 3, 5, 7, 9 on both axes
    at_center = target_map(grid.cell_center(12), grid)
    one_meter = target_map(np.array([1.0, 2.0]), grid)  # 1 m from cell (0, 0)

    rng = np.random.default_rng(7)
    argmax_ok = True
    bounds_ok = True
    fine = Grid(5.0, 4.0, n=25)
    centers = fine.cell_centers()
    for _ in range(100):
        p = rng.uniform([0.0, 0.0], [5.0, 4.0])
        values = target_map(p, fine)
        nearest = int(np.argmin(np.linalg.norm(centers - p[None, :], axis=1)))
        argmax_ok &= int(np.argmax(values)) == nearest
        bounds_ok &= bool(np.all(values > 0.0) and np.all(values <= 1.0))

    ok = (
        at_center[12] == 1.0
        and abs(one_meter[0] - math.exp(-1.0)) <= 1e-9
        and argmax_ok
        and bounds_ok
    )
    report(
        "criterion 7 (target-map law)",
        ok,
        f"peak {at_center[12]}, 1 m value err {abs(one_meter[0] - math.exp(-1.0)):.1e}",
    )


def test_criterion_8_determinism(tmp_path):
    """Identical master seed: byte-identical scene JSONs and bit-identical
    training-loss history."""
    config = DatasetConfig(
        train=4,
        val=2,
        test=2,
        train_mic_counts=(5, 7),
        val_mic_counts=(5, 7),
        test_mic_counts=(4, 6),
        master_seed=8800,
        duration_s=0.6,
        grid_n=10,
        workers=1,
    )
    generate_dataset(config, tmp_path / "a")
    generate_dataset(config, tmp_path / "b")
    scene_jsons = sorted(
        p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("scene.json")
    )
    bytes_ok = len(scene_jsons) == 8 and all(
        (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        for rel in scene_jsons
    )

    manifest = load_manifest(tmp_path / "a")
    net_config = RelNetConfig(
        feature_kind="slf", grid_n=10, f_layer_sizes=(64, 100), g_layer_sizes=(64, 100)
    )
    train_set = load_split_features(tmp_path / "a", manifest, "train", net_config)
    val_set = load_split_features(tmp_path / "a", manifest, "val", net_config)
    histories = []
    for _ in range(2):
        model = RelNetModel.init_random(net_config, rng_seed=1)
        _, history = train(
            model, train_set, val_set, TrainConfig(max_epochs=4, batch_size=2, seed=5)
        )
        histories.append([(h.epoch, h.train_loss, h.val_loss) for h in history])
    history_ok = histories[0] == histories[1]

    ok = bytes_ok and history_ok
    report(
        "criterion 8 (determinism)",
        ok,
        f"scene JSONs byte-identical: {bytes_ok}, loss history bit-identical: {history_ok}",
    )
