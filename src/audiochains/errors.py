"""Exception and warning types shared across the simulator."""


class AudioChainError(Exception):
    """Base class for all simulator errors."""


class AliasedStimulus(AudioChainError, ValueError):
    """A frequency at or above Nyquist (`signals.require_below_nyquist`)."""


class InvalidCode(AudioChainError):
    """Converter code outside the representable range."""


class EmptySignal(AudioChainError):
    """Operation requires a non-empty signal."""


class ShapeMismatch(AudioChainError):
    """Input signals disagree in length or sample rate."""


class DamageVoltage(AudioChainError):
    """Voltage outside the converter's absolute-maximum ratings."""


class OutsideWeakRegime(AudioChainError):
    """Distortion target too strong for the weak-distortion model."""


class UnsupportedOrder(AudioChainError):
    """No primitive feedback taps for the requested LFSR order."""


class TruncatedResponse(AudioChainError):
    """System under test returned fewer samples than it was driven with."""


class NoPeak(AudioChainError):
    """Impulse response contains no usable peak."""


class FundamentalNotFound(AudioChainError):
    """Spectrum peak does not sit at the stated fundamental."""


class UnsupportedWav(AudioChainError):
    """File is not the 16-bit PCM RIFF/WAVE layout this package reads."""


class RealtimeFeasibilityWarning(UserWarning):
    """Conversion plus transfer time exceeds the sample period."""


class NonStandardBlockSizeWarning(UserWarning):
    """Block size is a power of two outside the characterized set."""
