"""Auralization, noise injection at a target SNR, and source waveforms.

The received signal at each microphone is the source waveform convolved
with that microphone's room impulse response, optionally degraded by
independent white Gaussian noise scaled per channel to a prescribed SNR.
Source waveforms come either from a directory of mono WAV files or from a
built-in speech-like generator (pink noise with a slow syllabic amplitude
modulation) so the full pipeline runs without any external corpus.

Signals are plain (M, n) float arrays, row k for mic k, sampled at the
package's one rate ``rir.DEFAULT_FS``; WAVs are written at that rate.

A scene is convolved in one frequency-domain pass: one source spectrum
multiplies the spectra of all M RIRs, the rows of one ``simulate_rir``
array, in one batched transform, so each channel equals
``scipy.signal.fftconvolve`` of the source and its RIR bit for bit.
``scipy.signal`` itself, which doubles the package's memory at import, is
loaded only to resample corpus WAVs of another rate.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import fft
from scipy.io import wavfile

from .rir import DEFAULT_FS, simulate_rir
from .scenes import Scene
from .typedjson import InputError, reading


# The synthetic source: corner frequency of its second-order roll-off, and
# the rate and depth of its syllabic amplitude modulation.
SPECTRAL_ROLLOFF_HZ = 1000.0
SYLLABLE_RATE_HZ = 4.0
MODULATION_DEPTH = 0.8


class SilentChannelError(ValueError):
    """A channel has zero power; SNR scaling is undefined."""


def auralize(scene: Scene, source_signal: np.ndarray, *, max_order: int | None = None) -> np.ndarray:
    """Convolve the source signal with every microphone's RIR: the (M, n)
    received channels.

    All channels share the source's time origin, so inter-channel delays
    are carried entirely by the RIR tap positions. ``max_order=0`` gives
    direct-path-only (anechoic) channels. The M RIRs are the rows of one
    ``simulate_rir`` array over the scene's mics, so they are convolved in
    one batched real FFT against one source spectrum, at fftconvolve's own
    transform length: each channel equals
    ``scipy.signal.fftconvolve(source_signal, taps)`` bit for bit.
    Like fftconvolve, a one-sample source (or a one-tap RIR) is multiplied,
    not transformed.
    """
    sig = np.asarray(source_signal, dtype=float).ravel()
    if sig.size == 0:
        raise ValueError("source signal is empty")
    taps = simulate_rir(scene.room, scene.source, scene.mics, max_order=max_order)
    if min(sig.size, taps.shape[1]) == 1:
        return sig * taps
    n = sig.size + taps.shape[1] - 1
    nfft = fft.next_fast_len(n, True)
    spectra = fft.rfft(sig, nfft) * fft.rfft(taps, nfft, axis=-1)
    return fft.irfft(spectra, nfft, axis=-1)[:, :n].copy()


def add_noise(channels: np.ndarray, snr_db: float, rng_seed) -> np.ndarray:
    """The (M, n) channels with independent white Gaussian noise added per
    channel at the given SNR.

    ``snr_db=math.inf`` is the no-noise sentinel and returns an unchanged
    copy. Noise draws are seeded and consumed channel by channel in order.
    """
    channels = np.asarray(channels, dtype=float)
    if math.isinf(snr_db) and snr_db > 0:
        return channels.copy()
    rng = np.random.default_rng(rng_seed)
    out = np.empty_like(channels)
    for k, x in enumerate(channels):
        power = float(np.mean(x**2))
        if power <= 0.0:
            raise SilentChannelError(f"channel {k} has zero power")
        sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
        out[k] = x + sigma * rng.standard_normal(x.size)
    return out


@dataclass(frozen=True)
class SourceSignalConfig:
    """Where source waveforms come from.

    With ``corpus_dir`` set, files are drawn (seeded) from the mono WAVs in
    that directory; otherwise a synthetic speech-like signal is generated:
    pink-filtered Gaussian noise amplitude-modulated at SYLLABLE_RATE_HZ to
    MODULATION_DEPTH, with a second-order spectral roll-off above
    SPECTRAL_ROLLOFF_HZ mimicking the high-frequency decay of speech.
    """

    corpus_dir: str | None = None


def provide_source_signal_with_id(
    config: SourceSignalConfig, duration: float, rng_seed=0
) -> tuple[np.ndarray, str]:
    """One source waveform of exactly round(duration * DEFAULT_FS) samples,
    and its name: the corpus file, or "synthetic:" and the seed.

    Synthetic signals have zero mean and unit RMS. Corpus files pass
    through unmodified apart from format normalization (int16 -> [-1, 1]
    float), resampling to DEFAULT_FS when rates differ, tiling when shorter
    than the requested duration, and truncation to it.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration * DEFAULT_FS))
    rng = np.random.default_rng(rng_seed)

    if config.corpus_dir is None:
        return _synthetic_speech_like(n, rng), f"synthetic:{_seed_repr(rng_seed)}"

    paths = sorted(Path(config.corpus_dir).glob("*.wav"))
    if not paths:
        raise InputError("no .wav files", config.corpus_dir)
    path = paths[int(rng.integers(len(paths)))]
    sig, file_fs = read_wav_mono(path)
    if sig.size == 0:
        raise InputError("no samples", path)
    if file_fs != DEFAULT_FS:
        from scipy.signal import resample_poly  # kept off the import path, see the module docstring

        sig = resample_poly(sig, DEFAULT_FS, file_fs)
    if sig.size < n:
        sig = np.tile(sig, int(np.ceil(n / sig.size)))
    return sig[:n].astype(float), path.name


def _synthetic_speech_like(n: int, rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / DEFAULT_FS)
    spectrum[0] = 0.0
    spectrum[1:] /= np.sqrt(freqs[1:])
    spectrum /= 1.0 + (freqs / SPECTRAL_ROLLOFF_HZ) ** 2
    pink = np.fft.irfft(spectrum, n)

    t = np.arange(n) / DEFAULT_FS
    phase = rng.uniform(0.0, 2.0 * np.pi)
    envelope = (1.0 - MODULATION_DEPTH) + MODULATION_DEPTH * 0.5 * (
        1.0 + np.sin(2.0 * np.pi * SYLLABLE_RATE_HZ * t + phase)
    )
    sig = pink * envelope
    sig = sig - sig.mean()
    return sig / np.sqrt(np.mean(sig**2))


def _seed_repr(rng_seed) -> str:
    if np.isscalar(rng_seed):
        return str(rng_seed)
    return "-".join(str(int(s)) for s in np.asarray(rng_seed).ravel())


def read_wav_mono(path) -> tuple[np.ndarray, int]:
    """Load a mono WAV as float64 in [-1, 1]. PCM16 and float32 only.

    A missing file, one that is not a WAV, is cut inside its header, whose
    data chunk is shorter than its header says, or that holds a NaN or
    infinite sample raises InputError naming the file.
    """
    with reading(path):
        try:
            with warnings.catch_warnings():
                # scipy only warns and returns the short data
                warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
                fs, data = wavfile.read(path)
        except (ValueError, struct.error, wavfile.WavFileWarning) as exc:
            raise InputError(f"not a complete WAV file: {exc}") from exc
        if data.ndim != 1:
            raise InputError(f"expected mono, got shape {data.shape}")
        if data.dtype == np.int16:
            return data.astype(float) / 32768.0, int(fs)
        if data.dtype != np.float32 and data.dtype != np.float64:
            raise InputError(f"unsupported sample format {data.dtype}")
        if not np.isfinite(data).all():
            bad = int(np.flatnonzero(~np.isfinite(data))[0])
            raise InputError(f"sample {bad} is {data[bad]}, expected a finite number")
        return data.astype(float), int(fs)


def write_wav(path, samples: np.ndarray) -> None:
    """Write one channel as a 32-bit float WAV at DEFAULT_FS."""
    wavfile.write(path, DEFAULT_FS, np.asarray(samples, dtype=np.float32))
