import tracemalloc

import numpy as np
import pytest

from audiochains.errors import UnsupportedWav
from audiochains.quantize import INT16_MAX
from audiochains.signals import SLICE, Signal, generate_sine
from audiochains.wavio import read_wav, write_wav


def test_silence_file_size_is_header_plus_two_bytes_per_sample(tmp_path):
    path = str(tmp_path / "silence.wav")
    write_wav(Signal(np.zeros(44100), 44100.0), path)
    assert (tmp_path / "silence.wav").stat().st_size == 44 + 2 * 44100


def test_round_trip_within_half_lsb(tmp_path):
    path = str(tmp_path / "sine.wav")
    sig = generate_sine(1000.0, 0.5, 0.1, 44100.0)
    write_wav(sig, path)
    (back,) = read_wav(path)
    assert back.sample_rate == 44100.0
    assert len(back) == len(sig)
    assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 65534.0


def test_stereo_round_trip(tmp_path):
    path = str(tmp_path / "stereo.wav")
    left = generate_sine(500.0, 0.3, 0.05, 48000.0)
    right = generate_sine(750.0, 0.2, 0.05, 48000.0)
    write_wav(left, path, right=right)
    channels = read_wav(path)
    assert len(channels) == 2
    assert len(channels[0]) == len(channels[1]) == len(left)
    assert np.max(np.abs(channels[0].samples - left.samples)) <= 1.0 / 65534.0
    assert np.max(np.abs(channels[1].samples - right.samples)) <= 1.0 / 65534.0


def test_full_scale_field_scales_the_volts(tmp_path):
    path = str(tmp_path / "scaled.wav")
    sig = Signal(np.array([3.3, -3.3, 0.0]), 96000.0)
    write_wav(sig, path, full_scale=3.3)
    (back,) = read_wav(path, full_scale=3.3)
    assert np.max(np.abs(back.samples - sig.samples)) <= 0.5 * 3.3 / 32767.0


def test_int16_extremes_round_trip_exactly(tmp_path):
    path = str(tmp_path / "extremes.wav")
    volts = np.array([-32768 / 32767, 1.0, 0.0])
    write_wav(Signal(volts, 44100.0), path)
    (back,) = read_wav(path)
    assert np.array_equal(back.samples, volts)
    assert open(path, "rb").read()[44:] == np.array([-32768, 32767, 0], "<i2").tobytes()


def test_unrepresentable_samples_rejected(tmp_path):
    path = str(tmp_path / "clip.wav")
    with pytest.raises(ValueError):
        write_wav(Signal(np.array([1.5]), 44100.0), path)


@pytest.mark.parametrize("edge, code", [(INT16_MAX + 0.5, 32767), (-INT16_MAX - 1.5, -32768)])
def test_half_an_lsb_past_the_code_range_is_written_and_beyond_it_refused(tmp_path, edge, code):
    # the volts whose scaled value v / full_scale * INT16_MAX is exactly the edge,
    # and the next float beyond it; each sits past the first slice
    volts = edge / INT16_MAX
    beyond = np.nextafter(volts, np.copysign(np.inf, edge))
    assert volts / 1.0 * INT16_MAX == edge
    assert abs(beyond / 1.0 * INT16_MAX) > abs(edge)
    at = SLICE + 7
    samples = np.zeros(2 * SLICE + 100)
    samples[at] = volts
    path = tmp_path / "edge.wav"
    write_wav(Signal(samples, 44100.0), str(path))
    written = np.frombuffer(path.read_bytes()[44:], "<i2")
    assert written[at] == code and not written[:at].any() and not written[at + 1 :].any()
    samples[at] = beyond
    silence = Signal(np.zeros(len(samples)), 44100.0)
    for left, right in ((Signal(samples, 44100.0), None), (silence, Signal(samples, 44100.0))):
        refused = tmp_path / "refused.wav"
        with pytest.raises(ValueError, match="not representable"):
            write_wav(left, str(refused), right=right)
        assert not refused.exists()


@pytest.mark.parametrize("rate, stereo", [(96000.0, False), (44100.0, True)])
def test_write_peak_memory_stays_under_one_record_length_per_channel(tmp_path, rate, stereo):
    # 3 s records: the writer converts slice by slice into the int16 frames
    left = generate_sine(1000.0, 0.5, 3.0, rate)
    right = generate_sine(750.0, 0.3, 3.0, rate) if stereo else None
    n_channels = 2 if stereo else 1
    path = str(tmp_path / "peak.wav")
    tracemalloc.start()
    try:
        write_wav(left, path, right=right)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_channels * left.samples.nbytes
    back = read_wav(path)
    assert len(back) == n_channels
    assert all(c.samples.flags.c_contiguous for c in back)


def test_fractional_sample_rate_rejected(tmp_path):
    # RIFF stores whole hertz; rounding would mislabel the file's rate
    path = tmp_path / "frac.wav"
    with pytest.raises(ValueError, match="44100.5"):
        write_wav(Signal(np.zeros(16), 44100.5), str(path))
    assert not path.exists()


def test_an_unopenable_path_raises_only_its_oserror(tmp_path):
    # wave.open(path) would leave a half-built writer whose __del__ raises;
    # pyproject.toml turns such an unraisable exception into a failure
    with pytest.raises(FileNotFoundError):
        write_wav(Signal(np.zeros(16), 8000.0), str(tmp_path / "missing" / "x.wav"))


def test_mismatched_stereo_rejected(tmp_path):
    path = str(tmp_path / "bad.wav")
    left = Signal(np.zeros(10), 44100.0)
    right = Signal(np.zeros(9), 44100.0)
    with pytest.raises(ValueError):
        write_wav(left, path, right=right)


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"RIFFxxxxNOTAWAVE" + b"\x00" * 64)
    with pytest.raises(UnsupportedWav):
        read_wav(str(path))


def test_non_16bit_rejected(tmp_path):
    import wave

    path = str(tmp_path / "8bit.wav")
    with wave.open(path, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(1)
        f.setframerate(8000)
        f.writeframes(b"\x80" * 100)
    with pytest.raises(UnsupportedWav):
        read_wav(path)
