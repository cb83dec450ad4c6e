"""Properties of the one batched pair path shared by every localizer.

The reference functions below are frozen copies of the per-pair code the
batched stages replaced (one GCC-PHAT, TDOA grid, SLF map and metadata
vector per call, pairs oriented by a tuple comparison of positions). The
batched stages must reproduce them bit for bit, so that cached features and
trained models do not change.
"""

import dataclasses
import itertools
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import room_grid

from wasnloc.classical import pair_correlations, slf_localize, tdoa_localize
from wasnloc import features as features_module
from wasnloc.features import DEFAULT_FFT_SIZE, Grid, gcc_phat, slf_project, theoretical_tdoa_grid
from wasnloc.relnet import raw_pair_features
from wasnloc.rir import DEFAULT_FS as FS, SPEED_OF_SOUND
from wasnloc.scenes import SceneDistribution, sample_scene


def reference_gcc_phat(x_i, x_j, fft_size):
    hop = fft_size // 2
    n_windows = 1 + (x_i.size - fft_size) // hop
    starts = np.arange(n_windows) * hop
    idx = starts[:, None] + np.arange(fft_size)[None, :]
    spec_i = np.fft.rfft(x_i[idx], axis=1)
    spec_j = np.fft.rfft(x_j[idx], axis=1)
    cross = spec_i * np.conj(spec_j)
    cross /= np.maximum(np.abs(cross), 1e-12)
    cc = np.fft.irfft(cross.mean(axis=0), fft_size)
    half = fft_size // 2
    return np.concatenate([cc[-half:], cc[: fft_size - half]])


def reference_tdoa_grid(p_i, p_j, grid, z_plane):
    centers = grid.cell_centers()
    q = np.column_stack([centers, np.full(centers.shape[0], z_plane)])
    d_i = np.linalg.norm(q - np.asarray(p_i, dtype=float)[None, :], axis=1)
    d_j = np.linalg.norm(q - np.asarray(p_j, dtype=float)[None, :], axis=1)
    return (d_i - d_j) / SPEED_OF_SOUND


def reference_slf_project(full, fs, p_i, p_j, grid, z_plane):
    n = grid.n
    u = np.arange(n + 1) * grid.width / n
    v = np.arange(n + 1) * grid.length / n

    def corner_dist(p):
        return np.sqrt(np.add.outer((u - p[0]) ** 2, (v - p[1]) ** 2) + (z_plane - p[2]) ** 2)

    lags = (corner_dist(p_i) - corner_dist(p_j)) * (fs / SPEED_OF_SOUND)
    lo = np.minimum(lags[:-1], lags[1:])
    hi = np.maximum(lags[:-1], lags[1:])
    lo = np.minimum(lo[:, :-1], lo[:, 1:])
    hi = np.maximum(hi[:, :-1], hi[:, 1:])
    half = full.size // 2
    first = np.clip(np.floor(lo).astype(int) + half, 0, full.size - 1)
    last = np.clip(np.ceil(hi).astype(int) + half, 0, full.size - 1)
    csum = np.concatenate([[0.0], np.cumsum(full)])
    return ((csum[last + 1] - csum[first]) / (last - first + 1)).ravel()


def reference_pair_metadata(p_i, p_j, room_dims):
    dims = np.asarray(room_dims, dtype=float)
    return np.concatenate([p_i / dims, p_j / dims, dims / 10.0])


def random_example(m, seed):
    scene = sample_scene(SceneDistribution(mic_counts=(m,)), seed)
    channels = np.random.default_rng(seed).standard_normal((m, FS // 2))
    return channels, scene


examples = st.tuples(st.integers(2, 8), st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(example=examples, grid_n=st.sampled_from([4, 25]))
def test_batched_stages_equal_per_pair_reference(example, grid_n):
    frame, scene = random_example(*example)
    mics = scene.mics
    z_plane = float(np.mean(mics[:, 2]))
    grid = Grid(scene.room.width, scene.room.length, grid_n)

    oriented = []
    for i, j in itertools.combinations(range(scene.m), 2):
        oriented.append((j, i) if tuple(mics[j]) < tuple(mics[i]) else (i, j))
    pairs, corr, plane = pair_correlations(frame, scene)
    assert pairs.tolist() == [list(p) for p in oriented]
    assert plane == z_plane
    gcc, slf, meta = raw_pair_features(frame, scene, grid_n)
    tdoa = theoretical_tdoa_grid(mics, pairs, grid, z_plane)
    assert np.array_equal(slf, slf_project(corr, mics, pairs, grid, z_plane))

    c0 = DEFAULT_FFT_SIZE // 2 - 100
    for row, (i, j) in enumerate(oriented):
        full = reference_gcc_phat(frame[i], frame[j], DEFAULT_FFT_SIZE)
        assert np.array_equal(corr[row], full)
        assert np.array_equal(gcc[row], full[c0 : c0 + 200])
        assert np.array_equal(tdoa[row], reference_tdoa_grid(mics[i], mics[j], grid, z_plane))
        assert np.array_equal(
            slf[row], reference_slf_project(full, FS, mics[i], mics[j], grid, z_plane)
        )
        assert np.array_equal(meta[row], reference_pair_metadata(mics[i], mics[j], scene.room.dims))


@settings(max_examples=15, deadline=None)
@given(example=examples, order_seed=st.integers(0, 2**32 - 1))
def test_relabeling_mics_only_reorders_rows(example, order_seed):
    frame, scene = random_example(*example)
    perm = np.random.default_rng(order_seed).permutation(scene.m)
    scene_p = dataclasses.replace(scene, mics=scene.mics[perm])
    frame_p = frame[perm]

    def by_pair_position(features):
        gcc, slf, meta = features
        order = np.lexsort(meta.T[::-1])  # meta rows name the pair's two positions
        return gcc[order], slf[order], meta[order]

    for a, b in zip(
        by_pair_position(raw_pair_features(frame, scene, 25)),
        by_pair_position(raw_pair_features(frame_p, scene_p, 25)),
    ):
        assert np.array_equal(a, b)
    for localize in (tdoa_localize, slf_localize):
        assert np.array_equal(
            localize(frame, scene, room_grid(scene)).estimate,
            localize(frame_p, scene_p, room_grid(scene_p)).estimate,
        )


@settings(max_examples=60, deadline=None)
@given(
    n_windows=st.integers(1, 6),
    m=st.integers(1, 4),
    pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=13),
    silent=st.booleans(),
    tile=st.sampled_from([1, 2, 3, 64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_windows=1, m=1, pairs=[(0, 0)], silent=False, tile=2, seed=0)
@example(
    n_windows=4,
    m=3,
    pairs=[(0, 1), (1, 0), (2, 2), (0, 1), (1, 2), (2, 0), (0, 0)],
    silent=True,
    tile=2,
    seed=1,
)
def test_gcc_phat_rows_equal_one_pair_calls(n_windows, m, pairs, silent, tile, seed):
    """Any batch of pairs, in tiles of any size, repeated or reversed or with
    i == j, gives each pair the row it gets alone and from the reference."""
    n_samples = DEFAULT_FFT_SIZE + (n_windows - 1) * (DEFAULT_FFT_SIZE // 2)
    channels = np.random.default_rng(seed).standard_normal((m, n_samples))
    if silent:
        channels[-1] = 0.0
    pairs = np.array(pairs) % m
    with mock.patch.object(features_module, "_TILE", tile):
        corr = gcc_phat(channels, pairs)
        assert corr.shape == (len(pairs), DEFAULT_FFT_SIZE)
        for row, (i, j) in enumerate(pairs):
            assert np.array_equal(corr[row], gcc_phat(channels, pairs[row : row + 1])[0])
            assert np.array_equal(corr[row], reference_gcc_phat(channels[i], channels[j], DEFAULT_FFT_SIZE))
