import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasnloc.features import (
    DEFAULT_FFT_SIZE,
    Grid,
    central_lags,
    extract_frame,
    gcc_phat,
    heatmap_from_csv,
    heatmap_to_csv,
    heatmap_to_pgm,
    slf_project,
    theoretical_tdoa_grid,
)
from wasnloc.rir import DEFAULT_FS as FS, SPEED_OF_SOUND
from wasnloc.typedjson import InputError

PAIR = np.array([[0, 1]])


def peak_lag(x_i, x_j):
    """Lag of the GCC-PHAT peak of one channel pair."""
    return int(np.argmax(gcc_phat(np.stack([x_i, x_j]), PAIR)[0])) - DEFAULT_FFT_SIZE // 2


def one_pair(p_i, p_j):
    """Positions and pair array of a single mic pair."""
    return np.array([p_i, p_j], dtype=float), PAIR


class TestGrid:
    def test_cell_centers_layout(self):
        grid = Grid(5.0, 4.0, n=25)
        centers = grid.cell_centers()
        assert centers.shape == (625, 2)
        # flat index u * n + v: first cell (0.1, 0.08), second varies v
        np.testing.assert_allclose(centers[0], [0.1, 0.08])
        np.testing.assert_allclose(centers[1], [0.1, 0.24])
        np.testing.assert_allclose(centers[25], [0.3, 0.08])
        np.testing.assert_allclose(grid.cell_center(624), [4.9, 3.92])

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid(5.0, 4.0, n=1)


class TestExtractFrame:
    def test_frame_length(self):
        frame = extract_frame(np.random.default_rng(0).standard_normal((3, 2 * FS)))
        assert frame.shape == (3, 8000)

    def test_picks_energetic_window(self):
        data = np.zeros((2, 4 * 8000))
        data[:, 2 * 8000 : 3 * 8000] = 1.0
        frame = extract_frame(data)
        assert np.all(frame == 1.0)

    def test_constant_energy_picks_first(self):
        data = np.ones((1, 3 * 8000))
        data[0, :8000] = -1.0  # same energy, different sign marks window 0
        frame = extract_frame(data)
        assert np.all(frame == -1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            extract_frame(np.zeros((2, 100)))


class TestGccPhat:
    def test_identical_signals_peak_at_zero(self):
        x = np.random.default_rng(1).standard_normal(8000)
        assert peak_lag(x, x) == 0

    def test_known_delay_recovered(self):
        # x_j(t) = x_i(t - 5) -> peak at lag -5 under the sign convention
        rng = np.random.default_rng(2)
        master = rng.standard_normal(9000)
        x_i = master[500:8500]
        x_j = master[495:8495]
        assert peak_lag(x_i, x_j) == -5

    def test_peak_matches_brute_force_oracle(self):
        # oracle: time-domain normalized cross-correlation, argmax over lags
        rng = np.random.default_rng(3)
        master = rng.standard_normal(4000)
        delay = 23
        x_i = master[200:1224 + 1024]
        x_j = master[200 - delay : 1224 + 1024 - delay]

        lags = np.arange(-100, 101)
        scores = []
        for lag in lags:
            a = x_i[200 : 1800]
            b = x_j[200 - lag : 1800 - lag]
            scores.append(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert lags[int(np.argmax(scores))] == -delay

        assert peak_lag(x_i, x_j) == -delay

    def test_central_slice_is_lag_window(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8000)
        full = gcc_phat(np.stack([x, x]), PAIR)
        central = central_lags(full)
        assert central.shape == (1, 200)
        half = 1024 // 2
        np.testing.assert_array_equal(central, full[:, half - 100 : half + 100])
        assert int(np.argmax(full[0])) == half  # lag 0 sits at index fft_size // 2

    def test_swap_reverses_lag_axis(self):
        rng = np.random.default_rng(5)
        master = rng.standard_normal(9000)
        x_i = master[100:8100]
        x_j = master[93:8093]
        ab, ba = gcc_phat(np.stack([x_i, x_j]), np.array([[0, 1], [1, 0]]))
        half = 512
        for lag in range(-200, 201):
            assert ab[half + lag] == pytest.approx(ba[half - lag], abs=1e-9)

    def test_phat_unit_magnitude_spectrum(self):
        # single-window case: respectrum of the raw correlation has |.|=1
        rng = np.random.default_rng(6)
        master = rng.standard_normal(2000)
        x_i = master[100:1124]
        x_j = master[90:1114]
        full = gcc_phat(np.stack([x_i, x_j]), PAIR)[0]
        half = 512
        raw = np.concatenate([full[half:], full[:half]])  # undo centering
        mags = np.abs(np.fft.rfft(raw))
        np.testing.assert_allclose(mags, 1.0, atol=1e-9)

    def test_delay_recovery_under_noise(self):
        # 100 trials at 30 dB SNR, integer delays in [-50, 50]
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(100):
            delay = int(rng.integers(-50, 51))
            master = rng.standard_normal(9200)
            x_i = master[100:8100]
            x_j = master[100 - delay : 8100 - delay]
            scale = 10.0 ** (-30.0 / 20.0)
            x_i = x_i + scale * rng.standard_normal(8000)
            x_j = x_j + scale * rng.standard_normal(8000)
            if peak_lag(x_i, x_j) == -delay:
                hits += 1
        assert hits >= 99

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            gcc_phat(np.zeros((2, 512)), PAIR)


class TestTheoreticalTdoaGrid:
    def test_equidistant_cell_is_zero(self):
        grid = Grid(4.0, 4.0, n=5)
        tdoa = theoretical_tdoa_grid(*one_pair([1.0, 2.0, 1.0], [3.0, 2.0, 1.0]), grid, z_plane=1.0)
        # cells with x=2.0 are equidistant; n=5 puts centers at x=2.0 (u=2)
        mid = tdoa.reshape(5, 5)[2]
        np.testing.assert_allclose(mid, 0.0, atol=1e-12)

    def test_bounded_by_baseline(self):
        grid = Grid(5.0, 4.0)
        p_i, p_j = np.array([1.0, 1.0, 1.5]), np.array([4.0, 3.0, 1.2])
        tdoa = theoretical_tdoa_grid(*one_pair(p_i, p_j), grid, z_plane=1.4)
        bound = np.linalg.norm(p_i - p_j) / SPEED_OF_SOUND
        assert np.all(np.abs(tdoa) <= bound + 1e-12)

    def test_hand_computed_cell(self):
        # mics (1,1,1) and (4,1,1), cell center at (1,1), z=1 -> (0-3)/343
        grid = Grid(10.0, 10.0, n=5)  # centers at 1,3,5,7,9
        tdoa = theoretical_tdoa_grid(*one_pair([1.0, 1.0, 1.0], [4.0, 1.0, 1.0]), grid, z_plane=1.0)
        assert tdoa[0, 0] == pytest.approx((0.0 - 3.0) / 343.0)

    def test_antisymmetry(self):
        grid = Grid(5.0, 4.0)
        mics = np.array([[1.0, 1.0, 1.5], [4.0, 3.0, 1.2]])
        ij, ji = theoretical_tdoa_grid(mics, np.array([[0, 1], [1, 0]]), grid, 1.3)
        np.testing.assert_allclose(ij, -ji, atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(
        mics=st.lists(st.tuples(st.floats(-5.0, 30.0), st.floats(-5.0, 30.0), st.floats(0.0, 6.0)), min_size=2, max_size=9),
        room=st.tuples(st.floats(0.1, 30.0), st.floats(0.1, 30.0)),
        n=st.integers(2, 40),
        z_plane=st.floats(0.0, 6.0),
    )
    def test_equals_norm_of_offsets_bit_for_bit(self, mics, room, n, z_plane):
        """For any M >= 2 and room, every TDOA is the difference of the
        np.linalg.norm distances from the 3-D cell centers, bit for bit."""
        mics = np.array(mics)
        grid = Grid(*room, n)
        pairs = np.array([(i, j) for i in range(len(mics)) for j in range(len(mics)) if i != j])
        centers = grid.cell_centers()
        q = np.column_stack([centers, np.full(len(centers), z_plane)])
        dist = np.linalg.norm(q[None, :, :] - mics[:, None, :], axis=2)
        expected = (dist[pairs[:, 0]] - dist[pairs[:, 1]]) / SPEED_OF_SOUND
        assert np.array_equal(theoretical_tdoa_grid(mics, pairs, grid, z_plane), expected)


class TestSlfProject:
    def _corr_with_peak(self, peak_lag, fft_size=1024):
        full = np.zeros((1, fft_size))
        full[0, fft_size // 2 + peak_lag] = 1.0
        return full

    def test_constant_correlation_uniform_map(self):
        grid = Grid(5.0, 4.0)
        heat = slf_project(np.ones((1, 1024)), *one_pair([1, 1, 1], [4, 3, 1]), grid, z_plane=1.0)
        np.testing.assert_allclose(heat, 1.0)

    def test_out_of_range_lag_clamped(self):
        # a 16-lag correlation cannot cover a 3 m baseline (about 140 lags):
        # cells near a mic read the edge value of their side
        full = np.arange(16.0)[None, :]
        grid = Grid(5.0, 4.0, n=10)
        heat = slf_project(full, *one_pair([1.0, 2.0, 1.0], [4.0, 2.0, 1.0]), grid, z_plane=1.0)
        heat = heat.reshape(10, 10)
        assert np.all(heat[:2] == full[0, 0])  # x < 1 m: lag far below -8
        assert np.all(heat[-2:] == full[0, -1])  # x > 4 m: lag far above 7

    def test_map_max_on_matching_hyperbola(self):
        # exhaustive per-cell oracle: cells whose theoretical TDOA is
        # nearest the peak lag must carry the map maximum
        grid = Grid(5.0, 4.0)
        p_i, p_j = np.array([1.0, 1.0, 1.0]), np.array([4.0, 3.0, 1.0])
        true_lag = 40
        corr = self._corr_with_peak(true_lag)
        heat = slf_project(corr, *one_pair(p_i, p_j), grid, z_plane=1.0)[0]
        tdoa = theoretical_tdoa_grid(*one_pair(p_i, p_j), grid, z_plane=1.0)[0]
        lag_err = np.abs(tdoa * FS - true_lag)
        # a cell covers every lag its footprint spans, so "far" means the
        # whole footprint, sampled densely (9 x 9 points per cell, edges
        # included), lies more than 1 sample from the peak lag
        cell = np.array([grid.width, grid.length]) / grid.n
        steps = np.linspace(-0.5, 0.5, 9)
        footprint_err = np.full(grid.n * grid.n, np.inf)
        for du in steps:
            for dv in steps:
                points = grid.cell_centers() + cell * [du, dv]
                q = np.column_stack([points, np.ones(len(points))])
                d_i = np.linalg.norm(q - p_i, axis=1)
                d_j = np.linalg.norm(q - p_j, axis=1)
                lag = (d_i - d_j) / SPEED_OF_SOUND * FS
                footprint_err = np.minimum(footprint_err, np.abs(lag - true_lag))
        # every cell within 0.25 samples of the peak lag must score higher
        # than every cell whose footprint stays more than 1 sample away
        close = heat[lag_err < 0.25]
        far = heat[footprint_err > 1.0]
        assert close.size > 0
        assert far.size > 0
        assert close.min() > far.max()


class TestHeatmapExport:
    def test_csv_round_trip(self, tmp_path):
        grid = Grid(5.0, 4.0, n=7)
        values = np.random.default_rng(9).standard_normal(49)
        heatmap_to_csv(values, grid, tmp_path / "h.csv")
        back = heatmap_from_csv(tmp_path / "h.csv")
        np.testing.assert_array_equal(back, values)

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("1.0,2.0\n3.0\n", "inhomogeneous"),
            ("1.0,2.0\n3.0,high\n", "could not convert"),
            ("1.0,2.0\n3.0,nan\n", r"cell \(1, 1\) is nan"),
            ("inf,2.0\n3.0,4.0\n", r"cell \(0, 0\) is inf"),
            ("1.0,2.0\n", "square"),
            ("", "square"),
            ("0.5\n", r"at least 2 x 2 cells, got shape \(1, 1\)"),
        ],
        ids=["ragged", "not_a_number", "nan", "inf", "not_square", "empty", "one_cell"],
    )
    def test_csv_refusal_names_file(self, tmp_path, text, problem):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=rf"h\.csv: .*{problem}"):
            heatmap_from_csv(path)

    def test_pgm_format(self, tmp_path):
        grid = Grid(5.0, 4.0, n=4)
        values = np.linspace(0.0, 1.0, 16)
        heatmap_to_pgm(values, grid, tmp_path / "h.pgm")
        raw = (tmp_path / "h.pgm").read_bytes()
        header, pixels = raw.split(b"255\n", 1)
        assert header == b"P5\n4 4\n"
        assert len(pixels) == 16
        assert pixels[0] == 0 and pixels[-1] == 255

    def test_pgm_constant_map(self, tmp_path):
        grid = Grid(5.0, 4.0, n=3)
        heatmap_to_pgm(np.full(9, 2.5), grid, tmp_path / "c.pgm")
        pixels = (tmp_path / "c.pgm").read_bytes().split(b"255\n", 1)[1]
        assert set(pixels) == {0}
