import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiochains.adcdac import SampleChainConfig
from audiochains.distortion import calibrate_distortion
from audiochains.errors import AliasedStimulus, ShapeMismatch
from audiochains.i2s import BlockPipelineConfig
from audiochains.mls import MlsConfig
from audiochains.quantize import QuantizerSpec
from audiochains.signals import (
    SLICE,
    Signal,
    delayed_slices,
    generate_sine,
    cosine_samples,
    input_stage,
    phasor_sums,
    require_below_nyquist,
    sine_samples,
)
from audiochains.wavio import read_wav, write_wav


def test_signal_rejects_nan_and_bad_rate():
    with pytest.raises(ValueError):
        Signal(np.array([0.0, np.nan]), 44100.0)
    with pytest.raises(ValueError):
        Signal(np.array([0.0, np.inf]), 44100.0)
    with pytest.raises(ValueError):
        Signal(np.zeros((2, 2)), 44100.0)


def test_signal_is_float64_and_sized():
    sig = Signal([1, 2, 3], 8000)
    assert sig.samples.dtype == np.float64
    assert len(sig) == 3


def test_signal_fields_are_frozen_but_float64_samples_are_shared():
    a = np.zeros(3)
    sig = Signal(a, 8000)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sig.samples = np.ones(3)
    a[0] = 7.0  # the documented alias: no copy is taken
    assert sig.samples[0] == 7.0
    ints = np.zeros(3, dtype=np.int64)
    converted = Signal(ints, 8000)
    ints[0] = 7
    assert converted.samples[0] == 0.0


def test_sine_phase_zero_starts_at_zero_with_sqrt2_peak():
    sig = generate_sine(1000.0, 0.5, 1.0, 44100.0)
    assert sig.samples[0] == 0.0
    # sample grid phases repeat every 441 samples, so the observed peak sits
    # within cos(pi/441) of the true sqrt(2)*0.5 crest
    peak = np.max(np.abs(sig.samples))
    assert peak <= 0.5 * np.sqrt(2.0) + 1e-12
    assert peak == pytest.approx(0.70711, abs=5e-5)


def test_sine_rejects_nyquist_and_bad_duration():
    with pytest.raises(AliasedStimulus):
        generate_sine(22050.0, 0.5, 1.0, 44100.0)
    with pytest.raises(AliasedStimulus):
        generate_sine(30000.0, 0.5, 1.0, 44100.0)


@pytest.mark.parametrize("name, call", [
    pytest.param("sample_rate", lambda v, d: Signal(np.zeros(1), v), id="Signal"),
    pytest.param("duration", lambda v, d: generate_sine(1000.0, 0.5, v, 44100.0),
                 id="generate_sine-duration"),
    pytest.param("amplitude_rms", lambda v, d: generate_sine(1000.0, v, 1.0, 44100.0),
                 id="generate_sine-amplitude_rms"),
    pytest.param("v_max", lambda v, d: QuantizerSpec(v_max=v), id="QuantizerSpec"),
    pytest.param("amplitude", lambda v, d: MlsConfig(12, amplitude=v), id="MlsConfig-amplitude"),
    pytest.param("sample_rate", lambda v, d: MlsConfig(12, sample_rate=v),
                 id="MlsConfig-sample_rate"),
    # inf is refused as a rate, not as a latency beyond the float range
    pytest.param("sample_rate", lambda v, d: BlockPipelineConfig(sample_rate=v),
                 id="BlockPipelineConfig"),
    pytest.param("sample_rate", lambda v, d: SampleChainConfig(sample_rate=v),
                 id="SampleChainConfig"),
    pytest.param("peak_amplitude", lambda v, d: calibrate_distortion(-80.0, v),
                 id="calibrate_distortion"),
    pytest.param("full_scale", lambda v, d: write_wav(
        Signal(np.zeros(1), 8000.0), str(d / "refused.wav"), full_scale=v), id="write_wav"),
    pytest.param("full_scale", lambda v, d: read_wav(str(d / "written.wav"), full_scale=v),
                 id="read_wav"),
])
def test_every_caller_runs_the_positive_and_finite_rule(name, call, tmp_path):
    write_wav(Signal(np.zeros(1), 8000.0), str(tmp_path / "written.wav"))
    for value in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            call(value, tmp_path)
    assert not (tmp_path / "refused.wav").exists()  # a refused write creates no file


def test_require_below_nyquist_names_the_frequency_and_the_rate():
    require_below_nyquist("tone", 22049.5, 44100.0)
    for freq in (22050.0, 30000.0, float("nan")):
        with pytest.raises(AliasedStimulus, match=f"^tone {freq:g} Hz .* got 44100 Hz$"):
            require_below_nyquist("tone", freq, 44100.0)
    with pytest.raises(ValueError, match="30000 Hz .* got 44100 Hz"):  # AliasedStimulus is one
        generate_sine(30000.0, 0.5, 1.0, 44100.0)


def test_sine_rms_closed_form_441_samples():
    # Oracle: over n samples, sum sin^2(w n + p) = n/2 - Re(e^{2ip} D) / 2
    # with D the geometric sum of e^{2iw n}; 441 samples of 1 kHz at
    # 44.1 kHz span exactly 10 cycles, where D telescopes to zero.
    w = 2 * np.pi * 1000.0 / 44100.0
    ratio = np.exp(2j * w)
    D = (ratio**441 - 1.0) / (ratio - 1.0)
    assert abs(D) < 1e-9

    sig = generate_sine(1000.0, 0.5, 441 / 44100.0, 44100.0, phase=0.3)
    assert len(sig) == 441
    assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(0.5, abs=1e-9)


@settings(max_examples=50)
@given(
    cycles=st.integers(min_value=1, max_value=50),
    samples_per_cycle=st.integers(min_value=4, max_value=64),
    amplitude=st.floats(min_value=1e-3, max_value=10.0),
    phase=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_sine_rms_identity_over_whole_cycles(cycles, samples_per_cycle, amplitude, phase):
    fs = 48000.0
    freq = fs / samples_per_cycle
    n = cycles * samples_per_cycle
    sig = generate_sine(freq, amplitude, n / fs, fs, phase=phase)
    assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(amplitude, rel=1e-9)


def _exact_angle(n, freq, fs):
    """2 pi freq k / fs reduced modulo one cycle in integers: freq / fs = p / q
    in lowest terms puts sample k at 2 pi ((p k) mod q) / q."""
    ratio = Fraction(str(freq)) / Fraction(str(fs))
    k = np.arange(n, dtype=np.int64)
    return 2 * np.pi * (ratio.numerator * k % ratio.denominator) / ratio.denominator


@pytest.mark.parametrize(
    "freq, fs, n, phase",
    [
        (1000.0, 44100.0, 125685, 0.0),  # the CLI's i2s analysis record
        (1000.0, 96000.0, 288000, 0.0),  # the adcdac stimulus
        (22000.0, 44100.0, 4410, 0.0),
        (1000.0, 5000.0, 14250, 0.0),
        (1000.0, 44100.0, 4410, 0.3),
    ],
)
def test_phasor_is_the_exactly_reduced_sinusoid(freq, fs, n, phase):
    # np.cos(2 pi f k / fs) is about 5e-12 off over these records
    cos, sin = cosine_samples(n, freq, fs, phase), sine_samples(n, freq, fs, phase)
    angle = _exact_angle(n, freq, fs) + phase
    assert len(cos) == len(sin) == n
    assert np.max(np.abs(cos - np.cos(angle))) <= 4e-15
    assert np.max(np.abs(sin - np.sin(angle))) <= 4e-15


def test_phasor_at_a_non_integer_frequency():
    # freq * k is rounded before its reduction, so here the error grows with k
    n = 144000  # 3 s at 48 kHz
    cos, sin = cosine_samples(n, 1234.567, 48000.0), sine_samples(n, 1234.567, 48000.0)
    angle = _exact_angle(n, 1234.567, 48000.0)
    assert np.max(np.abs(cos - np.cos(angle))) <= 1e-11
    assert np.max(np.abs(sin - np.sin(angle))) <= 1e-11


@pytest.mark.parametrize(
    "freq, fs",
    [
        (997.3, 44100.0),
        (1000.0, 44100.0),
        (19845.0, 44100.0),  # 0.45 fs
        (21609.0, 44100.0),  # 0.49 fs
        (997.3, 96000.0),
        (1000.0, 96000.0),
        (43200.0, 96000.0),  # 0.45 fs
        (47040.0, 96000.0),  # 0.49 fs
    ],
)
@pytest.mark.parametrize("n", [1, 500, 511, 512, 513, 273600])
def test_phasor_sums_match_the_exactly_reduced_sums(n, freq, fs):
    # each frequency is also summed at twice itself, as the THD fit's Gram
    # matrix does; the reference's own rounding grows with n
    for f in (freq, 2.0 * freq):
        angle = _exact_angle(n, f, fs)
        cos_sum, sin_sum = phasor_sums(n, f, fs)
        assert abs(cos_sum - math.fsum(np.cos(angle))) <= 1e-15 * n
        assert abs(sin_sum - math.fsum(np.sin(angle))) <= 1e-15 * n


def test_sine_is_the_phasors_sine_scaled():
    sig = generate_sine(1000.0, 0.5, 0.1, 44100.0, phase=0.7)
    sin = sine_samples(4410, 1000.0, 44100.0, 0.7)
    assert sig.samples.tobytes() == (0.5 * np.sqrt(2.0) * sin).tobytes()


def test_delayed_slices():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    same = lambda v: v
    assert np.array_equal(delayed_slices(same, 0, x), x)
    assert np.array_equal(delayed_slices(same, 2, x), [0.0, 0.0, 1.0, 2.0])
    for delay in (4, 10):  # a delay >= n leaves the zero-filled record, converting nothing
        assert np.array_equal(delayed_slices(lambda v: 1 / 0, delay, x), np.zeros(4))
    with pytest.raises(ValueError):
        delayed_slices(same, -1, x)


@pytest.mark.parametrize("n", [1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 5])
@pytest.mark.parametrize("delay", [0, 1, 3, SLICE])
def test_delayed_slices_is_the_whole_record_conversion_shifted(n, delay):
    a, b = np.random.default_rng(n).standard_normal((2, n))
    seen = []

    def convert(u, v):
        seen.append(len(u))
        return u * 3.0 - v

    want = np.zeros(n)
    want[delay:] = (a * 3.0 - b)[: max(n - delay, 0)]
    assert delayed_slices(convert, delay, a, b).tobytes() == want.tobytes()
    kept = max(n - delay, 0)  # only the samples the delay keeps are converted
    assert seen == [min(SLICE, kept - start) for start in range(0, kept, SLICE)]


def _pin(x):  # the identity converter: each channel's pin itself, float64
    return x


def _codes(x):  # a converter of another dtype: hundredths, as int64 codes
    return np.rint(100.0 * x).astype(np.int64)


def test_input_stage_shapes_each_distinct_signal_once_then_adds_noise_channel_0_first():
    sig = Signal(np.linspace(-1.0, 1.0, 64), 8000.0)
    twin = Signal(sig.samples.copy(), 8000.0)
    shaped = []

    def shape(x):
        shaped.append(x)
        return 2.0 * x

    pins = input_stage(sig, sig, 8000.0, shape, 0.1, np.random.default_rng(3), _pin)
    assert len(shaped) == 1
    ref = np.random.default_rng(3)
    for pin in pins:
        assert pin.tobytes() == (2.0 * sig.samples + ref.normal(0.0, 0.1, 64)).tobytes()
    split = input_stage(sig, twin, 8000.0, shape, 0.1, np.random.default_rng(3), _pin)
    assert len(shaped) == 3
    assert [p.tobytes() for p in split] == [p.tobytes() for p in pins]


def test_input_stage_without_channel_1_draws_one_channel_0_noise():
    sig = Signal(np.linspace(-1.0, 1.0, 64), 8000.0)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    (codes,) = input_stage(sig, None, 8000.0, lambda x: 2.0 * x, 0.1, rng, _codes)
    assert codes.dtype == np.int64  # the converter's dtype
    assert codes.tobytes() == _codes(2.0 * sig.samples + 0.1 * ref.standard_normal(64)).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state  # one 64-sample draw, no more
    (quiet,) = input_stage(sig, None, 8000.0, lambda x: x, 0.1, None, _codes)
    assert quiet.tobytes() == _codes(sig.samples).tobytes()
    with pytest.raises(ShapeMismatch):
        input_stage(sig, None, 16000.0, lambda x: x, 0.0, None, _pin)


def test_input_stage_checks_the_pair_and_draws_noise_only_with_an_rng():
    sig = Signal(np.linspace(-1.0, 1.0, 8), 8000.0)
    quiet = input_stage(sig, sig, 8000.0, lambda x: x, 0.1, None, _pin)
    # the shaped pins converted, nothing drawn; each channel its own output
    assert [pin.tobytes() for pin in quiet] == [sig.samples.tobytes()] * 2
    assert quiet[0] is not quiet[1] and not np.shares_memory(quiet[0], sig.samples)
    for other, rate in ((Signal(np.zeros(7), 8000.0), 8000.0),
                        (Signal(np.zeros(8), 16000.0), 8000.0),
                        (sig, 16000.0)):
        with pytest.raises(ShapeMismatch):
            input_stage(sig, other, rate, lambda x: x, 0.0, None, _pin)


@pytest.mark.parametrize("seed", [None, 4])
def test_input_stage_converts_slice_by_slice_as_one_draw_per_channel(seed):
    # n = SLICE + 1: a full slice, then a one-sample slice, per channel
    n = SLICE + 1
    sig = Signal(np.linspace(-1.0, 1.0, n), 8000.0)
    other = Signal(0.5 * sig.samples, 8000.0)
    seen = []

    def convert(x):
        seen.append(len(x))
        return _codes(x)

    rng = ref = None
    if seed is not None:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = input_stage(sig, other, 8000.0, lambda x: 2.0 * x, 0.1, rng, convert)
    assert [k for k in seen if k] == [SLICE, 1, SLICE, 1]
    for codes, x in zip(got, (sig.samples, other.samples)):
        pin = 2.0 * x if ref is None else 0.1 * ref.standard_normal(n) + 2.0 * x
        assert codes.tobytes() == _codes(pin).tobytes()
    if seed is not None:  # the state of one n-sample draw per channel, channel 0 first
        assert rng.bit_generator.state == ref.bit_generator.state
