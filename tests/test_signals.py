import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import fftconvolve

from wasnloc.dataset import DatasetConfig
from wasnloc.rir import DEFAULT_FS as FS, SPEED_OF_SOUND, simulate_rir
from wasnloc.scenes import RoomSpec, Scene
from wasnloc.signals import (
    CorpusError,
    SilentChannelError,
    SourceSignalConfig,
    add_noise,
    auralize,
    provide_source_signal_with_id,
    read_wav_mono,
    write_wav,
)


def two_mic_scene(src=(2.0, 2.5, 1.5), mics=((1.0, 1.0, 1.4), (3.9, 3.1, 1.6))):
    return Scene(
        room=RoomSpec(5.0, 4.0, 3.0, 0.4),
        mics=np.asarray(mics, dtype=float),
        source=np.asarray(src, dtype=float),
        seed=0,
    )


class TestAuralize:
    def test_unit_impulse_reproduces_rir(self):
        scene = two_mic_scene()
        impulse = np.zeros(64)
        impulse[0] = 1.0
        out = auralize(scene, impulse)
        rirs = simulate_rir(scene.room, scene.source, scene.mics)
        for k, rir in enumerate(rirs):
            np.testing.assert_allclose(out[k][: rir.size], rir, atol=1e-12)

    def test_direct_path_is_shift_and_scale(self):
        scene = two_mic_scene()
        rng = np.random.default_rng(1)
        sig = rng.standard_normal(2000)
        out = auralize(scene, sig, max_order=0)
        for k, mic in enumerate(scene.mics):
            dist = np.linalg.norm(scene.source - mic)
            delay = int(np.rint(FS * dist / SPEED_OF_SOUND))
            expected = np.zeros(out.shape[1])
            expected[delay : delay + sig.size] = sig / (4.0 * math.pi * dist)
            np.testing.assert_allclose(out[k], expected, atol=1e-12)

    def test_cross_correlation_peak_at_tdoa(self):
        # brute-force time-domain correlation between two direct-path channels
        scene = two_mic_scene()
        rng = np.random.default_rng(2)
        sig = rng.standard_normal(4000)
        out = auralize(scene, sig, max_order=0)
        d = [np.linalg.norm(scene.source - m) for m in scene.mics]
        expected_lag = int(np.rint(FS * d[0] / SPEED_OF_SOUND)) - int(
            np.rint(FS * d[1] / SPEED_OF_SOUND)
        )
        lags = np.arange(-300, 301)
        x0, x1 = out
        corr = [np.dot(x0[300 : -300], np.roll(x1, lag)[300 : -300]) for lag in lags]
        assert lags[int(np.argmax(corr))] == expected_lag

    def test_linearity(self):
        scene = two_mic_scene()
        rng = np.random.default_rng(3)
        sig = rng.standard_normal(500)
        a = auralize(scene, sig)
        b = auralize(scene, 3.5 * sig)
        scale = np.max(np.abs(a))
        np.testing.assert_allclose(b, 3.5 * a, rtol=1e-12, atol=1e-12 * scale)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            auralize(two_mic_scene(), np.array([]))

    @settings(max_examples=25, deadline=None)
    # fftconvolve multiplies a one-sample signal instead of transforming it
    @example(m=8, t60=0.45, n_sig=1, max_order=None, fractions=[(0.3, 0.4, 0.5), *[(0.6, 0.7, 0.2)] * 8], seed=0)
    @example(m=2, t60=0.15, n_sig=1, max_order=0, fractions=[(0.3, 0.4, 0.5), *[(0.6, 0.7, 0.2)] * 8], seed=1)
    @given(
        m=st.integers(2, 8),
        t60=st.sampled_from([0.15, 0.2, 0.45, 0.6]),
        # RIRs are 1.25 T60 long, 3000-12000 taps: the short signals are shorter
        n_sig=st.integers(1, 2000) | st.integers(8000, 16000),
        max_order=st.sampled_from([None, 0]),
        fractions=st.lists(st.tuples(*[st.floats(0.05, 0.95)] * 3), min_size=9, max_size=9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_fftconvolve_per_channel(self, m, t60, n_sig, max_order, fractions, seed):
        room = RoomSpec(5.0, 4.0, 3.0, t60)
        points = np.asarray(fractions) * room.dims
        source, mics = points[0], points[1 : m + 1]
        assume(np.min(np.linalg.norm(mics - source, axis=1)) > 0.01)
        scene = Scene(room=room, mics=mics, source=source, seed=0)
        sig = np.random.default_rng(seed).standard_normal(n_sig)
        out = auralize(scene, sig, max_order=max_order)
        assert out.shape[0] == m
        for k, rir in enumerate(simulate_rir(room, source, mics, max_order=max_order)):
            np.testing.assert_array_equal(out[k], fftconvolve(sig, rir))


class TestAddNoise:
    @settings(max_examples=200, deadline=None)
    @given(
        snr_db=st.floats(-4000.0, 4000.0),
        samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(snr_db=-3076.5, samples=[1.0], seed=0)  # about the lowest accepted SNR
    @example(snr_db=-3230.0, samples=[0.03] * 4, seed=0)  # once accepted, and gave inf
    def test_accepted_snr_keeps_unit_power_noise_finite(self, snr_db, samples, seed):
        try:
            snr_db = DatasetConfig(snr_db=snr_db).snr_db
        except ValueError:
            assume(False)
        clean = np.array([samples])
        assume(np.mean(clean**2) > 0.0)  # add_noise refuses a silent channel
        assert np.isfinite(add_noise(clean, snr_db, seed)).all()

    def test_snr_calibration(self):
        rng = np.random.default_rng(4)
        clean = rng.standard_normal((3, 8000))
        noisy = add_noise(clean, 30.0, 99)
        for k in range(3):
            p_sig = np.mean(clean[k] ** 2)
            p_noise = np.mean((noisy[k] - clean[k]) ** 2)
            snr = 10.0 * np.log10(p_sig / p_noise)
            assert snr == pytest.approx(30.0, abs=0.5)

    def test_infinite_snr_is_identity(self):
        rng = np.random.default_rng(5)
        clean = rng.standard_normal((2, 100))
        out = add_noise(clean, math.inf, 0)
        np.testing.assert_array_equal(out, clean)

    def test_same_seed_same_noise(self):
        rng = np.random.default_rng(6)
        clean = rng.standard_normal((2, 500))
        a = add_noise(clean, 20.0, 7)
        b = add_noise(clean, 20.0, 7)
        np.testing.assert_array_equal(a, b)

    def test_channels_get_independent_noise(self):
        clean = np.ones((2, 500))
        out = add_noise(clean, 10.0, 8)
        n0 = out[0] - 1.0
        n1 = out[1] - 1.0
        assert abs(np.corrcoef(n0, n1)[0, 1]) < 0.2

    def test_silent_channel_rejected(self):
        silent = np.zeros((2, 100))
        with pytest.raises(SilentChannelError):
            add_noise(silent, 30.0, 0)


class TestSyntheticSource:
    def test_length_mean_and_rms(self):
        sig = provide_source_signal_with_id(SourceSignalConfig(), 0.5, 3)[0]
        assert sig.size == 8000
        rms = np.sqrt(np.mean(sig**2))
        assert abs(sig.mean()) < 0.01 * rms
        assert rms == pytest.approx(1.0, rel=1e-9)

    def test_same_seed_identical(self):
        a = provide_source_signal_with_id(SourceSignalConfig(), 0.5, 42)[0]
        b = provide_source_signal_with_id(SourceSignalConfig(), 0.5, 42)[0]
        np.testing.assert_array_equal(a, b)

    def test_syllabic_modulation_present(self):
        # 4 Hz envelope: energy in 125 ms half-periods should alternate
        sig = provide_source_signal_with_id(SourceSignalConfig(), 1.0, 11)[0]
        env = np.abs(sig)
        win = FS // 8
        bins = env[: 8 * win].reshape(8, win).mean(axis=1)
        assert bins.max() > 2.0 * bins.min()

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            provide_source_signal_with_id(SourceSignalConfig(), 0.0, 0)[0]


class TestCorpusSource:
    def test_pass_through_exact_duration(self, tmp_path):
        rng = np.random.default_rng(9)
        wav = (rng.uniform(-0.5, 0.5, 8000)).astype(np.float32)
        wavfile.write(tmp_path / "a.wav", FS, wav)
        sig, signal_id = provide_source_signal_with_id(
            SourceSignalConfig(corpus_dir=str(tmp_path)), 0.5, 0
        )
        assert signal_id == "a.wav"
        np.testing.assert_allclose(sig, wav.astype(float), atol=1e-7)

    def test_pcm16_normalized(self, tmp_path):
        data = (np.array([0, 16384, -16384, 32767])).astype(np.int16)
        wavfile.write(tmp_path / "b.wav", FS, np.tile(data, 2000))
        sig = provide_source_signal_with_id(SourceSignalConfig(corpus_dir=str(tmp_path)), 0.5, 0)[0]
        assert np.max(np.abs(sig)) <= 1.0
        assert sig[1] == pytest.approx(0.5, abs=1e-4)

    def test_short_file_tiled(self, tmp_path):
        wav = np.ones(1000, dtype=np.float32) * 0.25
        wavfile.write(tmp_path / "c.wav", FS, wav)
        sig = provide_source_signal_with_id(SourceSignalConfig(corpus_dir=str(tmp_path)), 0.5, 0)[0]
        assert sig.size == 8000
        assert np.all(sig == 0.25)

    def test_package_import_leaves_out_scipy_signal(self):
        # scipy.signal loads only to resample a corpus file of another rate
        code = "import sys, wasnloc, wasnloc.cli; print('scipy.signal' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_resampled_when_rate_differs(self, tmp_path):
        t = np.arange(32000) / 32000
        wav = np.sin(2 * np.pi * 440 * t).astype(np.float32)
        wavfile.write(tmp_path / "d.wav", 32000, wav)
        sig = provide_source_signal_with_id(SourceSignalConfig(corpus_dir=str(tmp_path)), 0.5, 0)[0]
        assert sig.size == 8000

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            provide_source_signal_with_id(SourceSignalConfig(corpus_dir=str(tmp_path)), 0.5, 0)[0]

    def test_stereo_rejected(self, tmp_path):
        wav = np.zeros((1000, 2), dtype=np.float32)
        wavfile.write(tmp_path / "e.wav", FS, wav)
        with pytest.raises(CorpusError):
            provide_source_signal_with_id(SourceSignalConfig(corpus_dir=str(tmp_path)), 0.5, 0)[0]


class TestWavIo:
    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        sig = rng.standard_normal(1234)
        write_wav(tmp_path / "x.wav", sig)
        back, fs = read_wav_mono(tmp_path / "x.wav")
        assert fs == FS
        np.testing.assert_allclose(back, sig.astype(np.float32), rtol=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named(self, tmp_path, bad):
        sig = np.ones(1000)
        sig[700] = bad
        write_wav(tmp_path / "x.wav", sig)
        with pytest.raises(CorpusError, match=rf"x\.wav: sample 700 is {bad}, expected a finite number"):
            read_wav_mono(tmp_path / "x.wav")

    @pytest.mark.parametrize("damage", ["not_wav", "cut_header", "short_data"])
    def test_bad_file_named(self, tmp_path, damage):
        path = tmp_path / "x.wav"
        write_wav(path, np.ones(1000))
        raw = path.read_bytes()
        if damage == "not_wav":
            path.write_bytes(b"plain text, no RIFF header " * 10)
        elif damage == "cut_header":
            path.write_bytes(raw[:20])
        else:  # the data chunk ends before the length its header gives
            path.write_bytes(raw[:-400])
        with pytest.raises(CorpusError, match=r"x\.wav: "):
            read_wav_mono(path)
