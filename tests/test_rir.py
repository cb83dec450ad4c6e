import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wasnloc import rir as rir_module
from wasnloc.rir import (
    DegenerateGeometryError,
    RIR_LENGTH_T60_FACTOR,
    SPEED_OF_SOUND,
    _axis_images,
    eyring_absorption,
    schroeder_decay_time,
    simulate_rir,
)
from wasnloc.scenes import RoomSpec, SceneDistribution, sample_scene

FS = 16000


class TestEyring:
    def test_hand_computed_value(self):
        # V=60, S=94: alpha = 1 - exp(-0.161*60/47)
        room = RoomSpec(4.0, 5.0, 3.0, 0.5)
        assert eyring_absorption(room) == pytest.approx(0.185786, abs=1e-5)

    def test_long_t60_approaches_zero(self):
        room = RoomSpec(4.0, 5.0, 3.0, 1e6)
        assert 0.0 < eyring_absorption(room) < 1e-5

    def test_doubling_t60_decreases_alpha(self):
        base = RoomSpec(4.0, 5.0, 3.0, 0.3)
        doubled = RoomSpec(4.0, 5.0, 3.0, 0.6)
        assert eyring_absorption(doubled) < eyring_absorption(base)

    def test_alpha_in_unit_interval_over_config_range(self):
        for seed in range(200):
            scene = sample_scene(SceneDistribution(), seed)
            assert 0.0 < eyring_absorption(scene.room) < 1.0


class TestSimulateRir:
    def test_direct_path_only(self):
        # dist 3.43 m at fs 16 kHz, c 343: tap 160, amplitude 1/(4 pi 3.43)
        room = RoomSpec(6.0, 5.0, 3.0, 0.5)
        src = np.array([1.0, 2.5, 1.5])
        mic = np.array([4.43, 2.5, 1.5])
        (rir,) = simulate_rir(room, src, [mic], FS, max_order=0)
        nz = np.flatnonzero(rir)
        assert nz.tolist() == [160]
        assert rir[160] == pytest.approx(1.0 / (4.0 * math.pi * 3.43))

    def test_direct_tap_index_over_random_scenes(self):
        config = SceneDistribution(mic_counts=(4, 7))
        for seed in range(40):
            scene = sample_scene(config, seed)
            rirs = simulate_rir(scene.room, scene.source, scene.mics, FS)
            for mic, rir in zip(scene.mics, rirs):
                dist = np.linalg.norm(scene.source - mic)
                assert np.flatnonzero(rir)[0] == int(np.rint(FS * dist / SPEED_OF_SOUND))

    def test_length_covers_t60(self):
        room = RoomSpec(4.0, 4.0, 3.0, 0.48)
        (rir,) = simulate_rir(room, [1, 1, 1], [[3, 2, 2]], FS)
        assert rir.size >= FS * room.t60

    def test_mirror_symmetry_equal_first_order_delays(self):
        # source and mic mirror-symmetric about the room's mid-plane x=2:
        # the x=0 image of the source seen by the mic and the x=4 image
        # seen from the other side arrive together
        room = RoomSpec(4.0, 4.0, 4.0, 0.4)
        src = np.array([1.5, 2.0, 2.0])
        mic = np.array([2.5, 2.0, 2.0])
        (rir,) = simulate_rir(room, src, [mic], FS, max_order=1)
        # image over x=0 wall: (-1.5, 2, 2) -> dist 4; image over x=4 wall:
        # (6.5, 2, 2) -> dist 4: both land on the same tap
        tap = int(np.rint(FS * 4.0 / SPEED_OF_SOUND))
        assert rir[tap] != 0.0

    def test_matches_brute_force_enumeration(self):
        # independent triple-loop oracle over (n, p) per axis
        fs = 8000
        room = RoomSpec(3.0, 2.5, 2.0, 0.3)
        src = np.array([1.1, 0.8, 0.7])
        mic = np.array([2.2, 1.9, 1.3])
        (rir,) = simulate_rir(room, src, [mic], fs)

        alpha = eyring_absorption(room)
        beta = -math.sqrt(1.0 - alpha)
        n_taps = rir.size
        path = SPEED_OF_SOUND * n_taps / fs
        dims = [room.width, room.length, room.height]
        orders = [math.ceil(path / (2 * d)) for d in dims]
        expected = np.zeros(n_taps)
        for nx in range(-orders[0], orders[0] + 1):
            for px in (0, 1):
                for ny in range(-orders[1], orders[1] + 1):
                    for py in (0, 1):
                        for nz in range(-orders[2], orders[2] + 1):
                            for pz in (0, 1):
                                img = np.array(
                                    [
                                        (1 - 2 * px) * src[0] + 2 * nx * dims[0],
                                        (1 - 2 * py) * src[1] + 2 * ny * dims[1],
                                        (1 - 2 * pz) * src[2] + 2 * nz * dims[2],
                                    ]
                                )
                                d = float(np.linalg.norm(img - mic))
                                refl = (
                                    abs(nx - px) + abs(nx)
                                    + abs(ny - py) + abs(ny)
                                    + abs(nz - pz) + abs(nz)
                                )
                                idx = int(np.rint(fs * d / SPEED_OF_SOUND))
                                if idx < n_taps:
                                    expected[idx] += beta**refl / (4.0 * math.pi * d)
        np.testing.assert_allclose(rir, expected, atol=1e-12)

    def test_tail_energy_decreasing(self):
        room = RoomSpec(5.0, 4.0, 3.0, 0.5)
        (rir,) = simulate_rir(room, [1.2, 1.1, 1.4], [[3.8, 2.9, 1.7]], FS)
        win = int(0.05 * FS)
        energies = [
            np.sum(rir[s : s + win] ** 2) for s in range(0, rir.size - win, win)
        ]
        diffs = np.diff(energies)
        assert np.all(diffs < 0)

    def test_degenerate_geometry(self):
        room = RoomSpec(4.0, 4.0, 3.0, 0.4)
        with pytest.raises(DegenerateGeometryError):
            simulate_rir(room, [2, 2, 1.5], [[2, 2, 1.5]], FS)

    def test_points_outside_room_rejected(self):
        room = RoomSpec(4.0, 4.0, 3.0, 0.4)
        with pytest.raises(ValueError):
            simulate_rir(room, [5.0, 2.0, 1.5], [[2, 2, 1.5]], FS)


def _reference_taps(room, source, mic, fs, max_order=None, c=SPEED_OF_SOUND, chunk=2_000_000):
    """Frozen copy of the untiled vectorized image loop simulate_rir used to
    run: one distance array per x-block, one bincount per block. The taps
    of the tiled loop must equal these bit for bit."""
    source = np.asarray(source, dtype=float)
    mic = np.asarray(mic, dtype=float)
    dims = room.dims
    beta = -math.sqrt(1.0 - eyring_absorption(room))
    n_taps = int(math.ceil(RIR_LENGTH_T60_FACTOR * room.t60 * fs))
    path_limit = c * n_taps / fs
    taps = np.zeros(n_taps)
    (cx, rx), (cy, ry), (cz, rz) = [_axis_images(source[d], dims[d], path_limit) for d in range(3)]
    dy2 = (cy - mic[1])[:, None] ** 2
    dz2 = (cz - mic[2])[None, :] ** 2
    dyz2 = (dy2 + dz2)[None, :, :]
    ryz = (ry[:, None] + rz[None, :])[None, :, :]
    max_refl = int(rx.max() + ry.max() + rz.max())
    beta_pow = beta ** np.arange(max_refl + 1, dtype=float)
    limit2 = (c * n_taps / fs) ** 2
    block = max(1, chunk // dyz2.size)
    for start in range(0, cx.size, block):
        sl = slice(start, start + block)
        d2 = (cx[sl] - mic[0])[:, None, None] ** 2 + dyz2
        keep = d2 < limit2
        if max_order is not None:
            keep &= (rx[sl][:, None, None] + ryz) <= max_order
        if not np.any(keep):
            continue
        dist = np.sqrt(d2[keep])
        refl = np.broadcast_to(ryz, keep.shape)[keep] + np.repeat(
            rx[sl], keep.reshape(keep.shape[0], -1).sum(axis=1)
        )
        idx = np.rint(fs * dist / c).astype(np.int64)
        inside = idx < n_taps
        amp = beta_pow[refl[inside]] / (4.0 * math.pi * dist[inside])
        taps += np.bincount(idx[inside], weights=amp, minlength=n_taps)
    return taps


_unit = st.floats(0.05, 0.95)


class TestTiledImageLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.floats(3.0, 6.0), st.floats(3.0, 6.0), st.floats(3.0, 6.0)),
        t60=st.floats(0.15, 0.6),
        src=st.tuples(_unit, _unit, _unit),
        # M = 1-8 mics drawn from 4 positions, so mics often coincide
        pool=st.lists(st.tuples(_unit, _unit, _unit), min_size=4, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        max_order=st.sampled_from([None, 1, 2, 5]),
    )
    def test_bit_identical_to_reference(self, dims, t60, src, pool, picks, max_order):
        room = RoomSpec(*dims, t60)
        src = np.array(src) * room.dims
        mics = np.array(pool)[picks] * room.dims
        assume(np.min(np.linalg.norm(mics - src, axis=1)) >= 0.01)
        rirs = simulate_rir(room, src, mics, 8000, max_order=max_order)
        assert len(rirs) == len(mics)
        for mic, rir in zip(mics, rirs):
            assert np.array_equal(rir, _reference_taps(room, src, mic, 8000, max_order))

    @pytest.mark.parametrize("tile", [1, 10**9])
    @pytest.mark.parametrize("max_order", [None, 2])
    def test_tile_size_leaves_taps_unchanged(self, monkeypatch, tile, max_order):
        room = RoomSpec(3.7, 5.2, 2.9, 0.45)
        src, mics = [1.1, 3.9, 1.6], [[2.8, 1.3, 1.0], [0.4, 4.8, 2.5], [2.8, 1.3, 1.0]]
        default_tile = rir_module._TILE
        # one summation block, then many small ones
        for chunk in (rir_module._CHUNK, 50_000):
            monkeypatch.setattr(rir_module, "_CHUNK", chunk)
            monkeypatch.setattr(rir_module, "_TILE", default_tile)
            default = simulate_rir(room, src, mics, FS, max_order=max_order)
            monkeypatch.setattr(rir_module, "_TILE", tile)
            tiled = simulate_rir(room, src, mics, FS, max_order=max_order)
            for mic, a, b in zip(mics, default, tiled):
                assert np.array_equal(b, a)
                assert np.array_equal(b, _reference_taps(room, src, mic, FS, max_order, chunk=chunk))

    @pytest.mark.parametrize("bad", [[4.2, 1.0, 1.0], [2.0, 2.0, 0.0], [-0.1, 2.0, 1.0]])
    def test_mic_outside_room_named(self, bad):
        room = RoomSpec(4.0, 4.0, 3.0, 0.4)
        mics = [[1.0, 1.0, 1.0], [3.0, 3.0, 2.0], bad, [1.5, 2.5, 1.2]]
        with pytest.raises(ValueError, match="^mic 2 must lie strictly inside the room"):
            simulate_rir(room, [2.0, 1.0, 1.5], mics, FS)

    def test_mic_on_source_named(self):
        room = RoomSpec(4.0, 4.0, 3.0, 0.4)
        mics = [[1.0, 1.0, 1.0], [3.0, 3.0, 2.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.5]]
        with pytest.raises(DegenerateGeometryError, match="^source coincides with mic 3$"):
            simulate_rir(room, [2.0, 1.0, 1.5], mics, FS)


class TestSchroeder:
    def test_known_exponential_decay(self):
        # synthetic RIR with exactly -60 dB/T60 energy slope
        t60 = 0.45
        n = int(1.5 * t60 * FS)
        t = np.arange(n) / FS
        rng = np.random.default_rng(0)
        taps = np.exp(-3.0 * np.log(10.0) * t / t60) * rng.standard_normal(n)
        est = schroeder_decay_time(taps, FS)
        assert est == pytest.approx(t60, rel=0.05)

    def test_simulated_rir_near_requested_t60(self):
        room = RoomSpec(4.5, 5.5, 3.0, 0.5)
        (rir,) = simulate_rir(room, [1.5, 2.0, 1.2], [[3.5, 4.0, 1.8]], FS)
        assert schroeder_decay_time(rir, FS) == pytest.approx(room.t60, rel=0.2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            schroeder_decay_time(np.zeros(100), FS)
