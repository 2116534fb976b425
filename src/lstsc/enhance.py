"""Masking-based enhancement driven by the coherence features.

A mask estimator is any causal frame-wise callable mapping the current
reference-magnitude frame and coherence rows to a gain row in [0, 1]^F.
The built-in heuristic selects bins that look directional (high local
coherence) but not spatially stationary (low global coherence); it stands
in for a learned estimator, which can be slotted behind the same contract.
The estimated mask also feeds the next frame's adaptation schedule, so
the global tracker freezes while the estimate says the target is active.
"""
from __future__ import annotations

import dataclasses
from typing import Protocol

import numpy as np

from .coherence import CoherenceConfig, LstscFeatures, compute_lstsc
from .signal_core import (
    Mask, MultichannelAudio, StftConfig, _check_pipeline_rate, istft, stft_multichannel,
)

__all__ = [
    "MaskEstimator",
    "HeuristicMaskEstimator",
    "heuristic_mask",
    "EnhanceResult",
    "enhance_stream",
]


class MaskEstimator(Protocol):
    """Frame-wise causal mask contract.

    Called exactly once per frame, in clip order, with the
    reference-channel magnitude frame, the frame's final local and global
    coherence rows (warped when the variant warps; the rows of the
    returned ``LstscFeatures``), and the banded (local, global) pair when
    a filterbank is active.  Must return an F-length row with entries in
    [0, 1], using only current and past information.
    """

    def __call__(
        self,
        magnitude: np.ndarray,
        gamma_local: np.ndarray,
        gamma_global: np.ndarray,
        banded: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray: ...


def heuristic_mask(gamma_local_row: np.ndarray, gamma_global_row: np.ndarray) -> np.ndarray:
    """Directional-and-non-stationary selector:
    ``clamp(gamma_local, 0, 1) * (1 - clamp(gamma_global, 0, 1))``."""
    # np.clip(x, 0.0, 1.0) with the same bytes: maximum(0.0, x) keeps x's
    # -0.0 as clip does, without np.clip's per-call overhead
    local = np.minimum(np.maximum(0.0, gamma_local_row), 1.0)
    global_ = np.minimum(np.maximum(0.0, gamma_global_row), 1.0)
    return local * (1.0 - global_)


class HeuristicMaskEstimator:
    """Default estimator: ignores magnitude, applies ``heuristic_mask``."""

    def __call__(
        self,
        magnitude: np.ndarray,
        gamma_local: np.ndarray,
        gamma_global: np.ndarray,
        banded: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        return heuristic_mask(gamma_local, gamma_global)


@dataclasses.dataclass
class EnhanceResult:
    """Enhanced mono output plus the mask and features that produced it."""

    enhanced: MultichannelAudio
    mask: Mask
    features: LstscFeatures


def enhance_stream(
    mixture: MultichannelAudio,
    cfg: CoherenceConfig,
    estimator: MaskEstimator | None = None,
) -> EnhanceResult:
    """Feature extraction, frame-wise masking, and reconstruction on the
    default ``StftConfig`` frames.

    Per frame the engine computes the coherence rows, calls the estimator,
    stores the mask row, and feeds it to the next frame's adaptation
    schedule.  The mask is then applied to the reference channel and the
    signal is rebuilt by weighted overlap-add, trimmed to the input
    length.  Algorithmic latency is the short-term lookahead (``cfg.R``
    frames) plus one frame of synthesis overlap: input replaced from
    sample ``c`` on leaves unchanged the rows that ``stream_frames`` names
    and the enhanced samples before ``c - (cfg.R * hop + frame_len)``.
    The whole path is deterministic: identical inputs give bit-identical
    outputs.
    """
    _check_pipeline_rate(mixture.sample_rate)
    if mixture.num_channels < 2:
        raise ValueError("enhancement requires at least 2 microphones")
    if estimator is None:
        estimator = HeuristicMaskEstimator()

    stft_cfg = StftConfig()
    specs = stft_multichannel(mixture, stft_cfg)
    features = compute_lstsc(
        specs, cfg, mask_feedback=estimator, sample_rate=mixture.sample_rate
    )
    mask = Mask(features.mask)
    samples = istft(specs[0] * mask.data, stft_cfg, length=mixture.num_samples)
    enhanced = MultichannelAudio(samples[np.newaxis, :], mixture.sample_rate)
    return EnhanceResult(enhanced=enhanced, mask=mask, features=features)
