import dataclasses

import numpy as np
import pytest
from conftest import FS, anechoic_frame, planar_scene, room_grid

from wasnloc.classical import (
    enumerate_pairs,
    pick_peak,
    slf_localize,
    tdoa_localize,
)
from wasnloc.features import Grid, gcc_phat, theoretical_tdoa_grid
from wasnloc.scenes import RoomSpec, Scene


class TestEnumeratePairs:
    def test_three(self):
        assert enumerate_pairs(3) == [(0, 1), (0, 2), (1, 2)]

    def test_count(self):
        assert len(enumerate_pairs(4)) == 6
        assert len(enumerate_pairs(7)) == 21

    def test_two(self):
        assert enumerate_pairs(2) == [(0, 1)]

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_pairs(1)


class TestPickPeak:
    def test_one_hot(self):
        grid = Grid(5.0, 4.0, n=5)
        heat = np.zeros(25)
        heat[7] = 1.0
        np.testing.assert_allclose(pick_peak(heat, grid, "max"), grid.cell_center(7))

    def test_uniform_tie_breaks_to_first_cell(self):
        grid = Grid(5.0, 4.0, n=5)
        np.testing.assert_allclose(pick_peak(np.ones(25), grid, "max"), grid.cell_center(0))
        np.testing.assert_allclose(pick_peak(np.ones(25), grid, "min"), grid.cell_center(0))

    def test_min_max_duality(self):
        grid = Grid(5.0, 4.0, n=5)
        heat = np.random.default_rng(0).standard_normal(25)
        np.testing.assert_array_equal(
            pick_peak(heat, grid, "max"), pick_peak(-heat, grid, "min")
        )

    def test_nan_rejected(self):
        grid = Grid(5.0, 4.0, n=5)
        heat = np.zeros(25)
        heat[3] = np.nan
        with pytest.raises(ValueError):
            pick_peak(heat, grid, "max")

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pick_peak(np.zeros(10), Grid(5.0, 4.0, n=5), "max")


class TestTdoaLocalize:
    def test_anechoic_within_one_cell_diagonal(self):
        scene = planar_scene()
        frame = anechoic_frame(scene)
        result = tdoa_localize(frame, scene, room_grid(scene))
        err = np.linalg.norm(result.estimate - scene.source[:2])
        assert err <= np.hypot(5.0 / 25, 4.0 / 25)

    def test_two_mics_hyperbola_band(self):
        # with one pair the minimum locus is the measured-TDOA hyperbola
        scene = planar_scene()
        scene = dataclasses.replace(scene, mics=scene.mics[:2])
        frame = anechoic_frame(scene)
        result = tdoa_localize(frame, scene, room_grid(scene))
        grid = Grid(5.0, 4.0)
        pair = np.array([[0, 1]])
        measured = (int(np.argmax(gcc_phat(frame, pair)[0])) - 512) / FS
        tdoa = theoretical_tdoa_grid(scene.mics, pair, grid, 1.5)[0]
        est_flat = int(np.argmin(result.heatmap))
        # estimate sits among the cells closest to the measured hyperbola
        best = np.min(np.abs(tdoa - measured))
        assert abs(tdoa[est_flat] - measured) <= best + 1.0 / FS

    def test_map_nonnegative(self):
        scene = planar_scene()
        result = tdoa_localize(anechoic_frame(scene), scene, room_grid(scene))
        assert np.all(result.heatmap >= 0.0)

    def test_mic_permutation_invariant(self):
        scene = planar_scene()
        frame = anechoic_frame(scene)
        base = tdoa_localize(frame, scene, room_grid(scene))
        perm = [3, 0, 4, 1, 2]
        scene_p = dataclasses.replace(scene, mics=scene.mics[perm])
        frame_p = frame[perm]
        swapped = tdoa_localize(frame_p, scene_p, room_grid(scene_p))
        np.testing.assert_array_equal(base.estimate, swapped.estimate)
        np.testing.assert_allclose(swapped.heatmap, base.heatmap, rtol=1e-9)

    def test_channel_count_mismatch(self):
        scene = planar_scene()
        frame = anechoic_frame(scene)
        bad = frame[:3]
        with pytest.raises(ValueError):
            tdoa_localize(bad, scene, room_grid(scene))


class TestSlfLocalize:
    def test_anechoic_within_one_cell_diagonal(self):
        scene = planar_scene()
        frame = anechoic_frame(scene)
        result = slf_localize(frame, scene, room_grid(scene))
        err = np.linalg.norm(result.estimate - scene.source[:2])
        assert err <= np.hypot(5.0 / 25, 4.0 / 25)

    def test_single_pair_bisector_symmetry(self):
        # source on the perpendicular bisector of a 2-mic pair: the map is
        # maximal along the zero-TDOA locus and symmetric about it
        z = 1.5
        scene = Scene(
            room=RoomSpec(4.0, 4.0, 3.0, 0.4),
            mics=np.array([[1.0, 2.0, z], [3.0, 2.0, z]]),
            source=np.array([2.0, 1.0, z]),
            seed=0,
        )
        frame = anechoic_frame(scene)
        result = slf_localize(frame, scene, Grid(4.0, 4.0, n=16))
        heat = result.heatmap.reshape(16, 16)
        np.testing.assert_allclose(heat, heat[::-1, :], atol=1e-6)
        best_u = np.unravel_index(np.argmax(heat), heat.shape)[0]
        assert best_u in (7, 8)

    def test_mic_permutation_invariant(self):
        scene = planar_scene()
        frame = anechoic_frame(scene)
        base = slf_localize(frame, scene, room_grid(scene))
        perm = [2, 4, 0, 3, 1]
        scene_p = dataclasses.replace(scene, mics=scene.mics[perm])
        frame_p = frame[perm]
        swapped = slf_localize(frame_p, scene_p, room_grid(scene_p))
        np.testing.assert_array_equal(base.estimate, swapped.estimate)
        np.testing.assert_allclose(swapped.heatmap, base.heatmap, rtol=1e-9)

    def test_runs_for_any_mic_count(self):
        # localizers need no reconfiguration across M
        for m in (2, 3, 4, 6):
            z = 1.5
            rng = np.random.default_rng(m)
            mics = np.column_stack(
                [rng.uniform(0.6, 4.4, m), rng.uniform(0.6, 3.4, m), np.full(m, z)]
            )
            scene = Scene(
                room=RoomSpec(5.0, 4.0, 3.0, 0.4),
                mics=mics,
                source=np.array([2.5, 2.0, z]),
                seed=0,
            )
            frame = anechoic_frame(scene)
            result = slf_localize(frame, scene, room_grid(scene))
            assert result.heatmap.size == 625
