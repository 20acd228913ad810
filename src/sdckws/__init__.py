"""Keyword spotting with shifted-delta features and a cross-attention matcher."""

from .dsp import Waveform
from .features import (
    FeatureKind,
    FeatureMatrix,
    FrontEndConfig,
    SdcConfig,
    make_front_end,
    mel_spectrogram,
    mfcc,
    plp,
    rasta_plp,
    sdc,
)
from .metrics import ScoredSet, auc, eer, f1_at
from .model import Checkpoint, KwsModel, ModelConfig, train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "FeatureKind",
    "FeatureMatrix",
    "FrontEndConfig",
    "KwsModel",
    "ModelConfig",
    "ScoredSet",
    "SdcConfig",
    "Waveform",
    "auc",
    "eer",
    "f1_at",
    "make_front_end",
    "mel_spectrogram",
    "mfcc",
    "plp",
    "rasta_plp",
    "sdc",
    "train",
]
