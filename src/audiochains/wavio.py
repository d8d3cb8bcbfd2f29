"""16-bit PCM WAV reading and writing.

Analog volts map onto the integer codes through a full-scale field:
+/-full_scale volts corresponds to +/-32767 (default 1 V peak), so a write
followed by a read is exact to within half an LSB per sample.  Code -32768
reads as -32768/32767 full scale and is written back exactly; only samples
more than half an LSB outside [-32768, 32767] are rejected.  Files are
little-endian RIFF/WAVE with the canonical 44-byte header; anything else is
rejected as UnsupportedWav.
"""

from __future__ import annotations

import wave

import numpy as np

from .errors import UnsupportedWav
from .quantize import INT16_MAX, int16_codes, int16_volts
from .signals import Signal


def wav_rate(sample_rate: float) -> int:
    """The WAV header's frame rate for sample_rate; ValueError unless whole hertz."""
    if not sample_rate.is_integer():
        raise ValueError(f"a WAV sample rate is a whole number of hertz, got {sample_rate}")
    return int(sample_rate)


def write_wav(
    sig: Signal,
    path: str,
    full_scale: float = 1.0,
    right: Signal | None = None,
) -> None:
    """Write one (mono) or two (stereo) channels of 16-bit PCM at a whole-hertz rate."""
    rate = wav_rate(sig.sample_rate)
    channels = [sig] if right is None else [sig, right]
    if right is not None and (
        len(right) != len(sig) or right.sample_rate != sig.sample_rate
    ):
        raise ValueError("stereo channels must share length and sample rate")
    data = np.stack([c.samples for c in channels], axis=1)
    scaled = data / full_scale * INT16_MAX
    codes = int16_codes(scaled)
    if not np.all(np.abs(codes - scaled) <= 0.5):
        raise ValueError("samples exceed full scale and are not representable")
    # a path wave.open cannot open leaves a half-built writer whose __del__ raises
    with open(path, "wb") as fh, wave.open(fh, "wb") as f:
        f.setnchannels(len(channels))
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(codes.astype("<i2").tobytes())


def read_wav(path: str, full_scale: float = 1.0) -> list[Signal]:
    """Read a 16-bit PCM WAV; one Signal per channel (mono or stereo) holding
    every whole frame present: data cut mid-frame loses only its partial frame."""
    try:
        with wave.open(path, "rb") as f:
            n_channels = f.getnchannels()
            width = f.getsampwidth()
            rate = f.getframerate()
            frames = f.readframes(f.getnframes())
    except (wave.Error, EOFError) as exc:
        raise UnsupportedWav(f"not a readable RIFF/WAVE file: {exc}") from exc
    if width != 2:
        raise UnsupportedWav(f"only 16-bit PCM is supported, got {8 * width}-bit")
    if n_channels not in (1, 2):
        raise UnsupportedWav(f"only mono or stereo is supported, got {n_channels} channels")
    whole = len(frames) // (2 * n_channels) * n_channels
    codes = np.frombuffer(frames, dtype="<i2", count=whole).reshape(-1, n_channels)
    volts = int16_volts(codes, full_scale)
    return [Signal(volts[:, ch], float(rate)) for ch in range(n_channels)]
