"""Exception hierarchy shared across the toolkit."""


class KwsError(Exception):
    """Base class for all toolkit errors."""


class EmptySignal(KwsError):
    """An operation received a waveform with no samples."""


class InsufficientSamples(KwsError):
    """The signal is shorter than one analysis frame."""


class BadFftSize(KwsError):
    """FFT size is not a power of two or is smaller than the frame."""


class BadFrequency(KwsError):
    """A frequency argument is outside its valid range."""


class DegenerateFilter(KwsError):
    """A filterbank row came out empty at the requested resolution."""


class ConfigMismatch(KwsError):
    """Input data does not match the configuration it is used with."""


class ShapeError(KwsError):
    """Tensor shapes are inconsistent for the requested operation."""


class TokenizeError(KwsError):
    """Text contains a character outside the supported alphabet."""


class UnsupportedFormat(KwsError):
    """An audio file is valid RIFF but not PCM-16 mono at the expected rate."""


class FormatError(KwsError):
    """A file is malformed (bad magic, truncated, wrong version)."""


class ManifestError(KwsError):
    """A manifest line is missing fields or carries invalid values."""


class EmptyDataset(KwsError):
    """A dataset operation received no examples."""


class DegenerateDataset(KwsError):
    """Training data contains only one of the two labels."""


class DegenerateLabels(KwsError):
    """A metric that needs both classes received only one."""


class NonFiniteValue(KwsError):
    """A loss, gradient, score or waveform power is NaN or infinite."""


class InsufficientMemory(KwsError):
    """A training step is estimated to need more memory than is available."""
