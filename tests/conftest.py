"""Shared helpers: controlled scenes, band-limited signals, tiny datasets."""

import numpy as np
import pytest

from wasnloc.dataset import DatasetConfig, generate_dataset
from wasnloc.features import Grid, extract_frame
from wasnloc.rir import DEFAULT_FS as FS
from wasnloc.scenes import RoomSpec, Scene
from wasnloc.signals import auralize

TINY_GRID_N = 6


def tiny_dataset_config(master_seed=11, workers=1):
    return DatasetConfig(
        train=6,
        val=3,
        test=4,
        train_mic_counts=(4, 5),
        val_mic_counts=(4, 5),
        test_mic_counts=(3, 4, 5),
        master_seed=master_seed,
        duration_s=0.6,
        grid_n=TINY_GRID_N,
        workers=workers,
    )


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """A small on-disk dataset shared by the harness-level tests."""
    root = tmp_path_factory.mktemp("tinydata")
    manifest = generate_dataset(tiny_dataset_config(), root)
    return root, manifest


def planar_scene(source_xy=(3.2, 2.6), z=1.5, m=5):
    """Devices at one height, irregular layout: the 2-D grid assumption
    holds exactly and the array has no symmetry-induced ghost points."""
    mics = [
        [0.9, 1.1, z],
        [4.1, 0.8, z],
        [0.7, 3.2, z],
        [3.9, 3.1, z],
        [2.2, 1.7, z],
        [1.4, 2.4, z],
        [3.1, 1.2, z],
    ][:m]
    return Scene(
        room=RoomSpec(5.0, 4.0, 3.0, 0.4),
        mics=np.array(mics),
        source=np.array([source_xy[0], source_xy[1], z]),
        seed=0,
    )


def bandlimited_noise(n, rng, f_lo=100.0, f_pass=1000.0, f_stop=2000.0):
    """Noise with hard band edges; keeps the PHAT correlation peak a few
    samples wide instead of a single-sample spike."""
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / FS)
    mag = np.ones_like(freqs)
    mag[freqs < f_lo] = 0.0
    roll = (freqs >= f_pass) & (freqs < f_stop)
    mag[roll] = 0.5 * (1.0 + np.cos(np.pi * (freqs[roll] - f_pass) / (f_stop - f_pass)))
    mag[freqs >= f_stop] = 0.0
    sig = np.fft.irfft(spec * mag, n)
    return sig / np.sqrt(np.mean(sig**2))


def anechoic_frame(scene, seed=0, duration=1.0):
    rng = np.random.default_rng(seed)
    sig = bandlimited_noise(int(duration * FS), rng)
    received = auralize(scene, sig, max_order=0)
    return extract_frame(received)


def room_grid(scene):
    """The default-size search grid over the scene's room footprint."""
    return Grid(scene.room.width, scene.room.length)
