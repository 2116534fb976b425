"""Auditory-band pooling: compress F STFT bins into B perceptual bands.

Band centers are uniformly spaced on the equivalent-rectangular-bandwidth
rate scale (``21.4 * log10(1 + 0.00437 f)``) between 0 Hz and Nyquist,
with triangular weights between adjacent centers.  Features
(coherences, forgetting factors) are pooled as weighted means, so a
constant field stays constant.
"""
from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "ErbFilterbank",
    "design_filterbank",
    "pool_feature",
]


def _erb_rate(freq_hz: np.ndarray | float) -> np.ndarray | float:
    """Map frequency in Hz to the ERB-rate (auditory band number) scale."""
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(freq_hz, dtype=np.float64))


@dataclasses.dataclass(frozen=True)
class ErbFilterbank:
    """Immutable pooling weights.

    ``weights`` is (B, F) nonnegative; ``pi`` holds the per-band weight
    sums used to normalize feature pooling.
    """

    weights: np.ndarray
    centers_hz: np.ndarray
    pi: np.ndarray

    @property
    def num_bins(self) -> int:
        return self.weights.shape[1]


def design_filterbank(sample_rate: int, fft_size: int, bands: int = 48) -> ErbFilterbank:
    """Triangular filters on the ERB-rate axis over one-sided FFT bins."""
    if fft_size % 2 != 0:
        raise ValueError("fft_size must be even")
    num_bins = fft_size // 2 + 1
    if bands < 2:
        raise ValueError("need at least 2 bands")
    if bands > num_bins:
        raise ValueError(f"more bands ({bands}) than frequency bins ({num_bins})")

    bin_hz = np.arange(num_bins) * (sample_rate / fft_size)
    bin_rate = _erb_rate(bin_hz)
    center_rate = np.linspace(bin_rate[0], bin_rate[-1], bands)
    # invert the rate scale for reporting
    centers_hz = (10.0 ** (center_rate / 21.4) - 1.0) / 0.00437

    weights = np.zeros((bands, num_bins))
    for b in range(bands):
        center = center_rate[b]
        lo = center_rate[b - 1] if b > 0 else None
        hi = center_rate[b + 1] if b < bands - 1 else None
        rising = np.ones(num_bins)
        if lo is not None:
            rising = (bin_rate - lo) / (center - lo)
        falling = np.ones(num_bins)
        if hi is not None:
            falling = (hi - bin_rate) / (hi - center)
        weights[b] = np.clip(np.minimum(rising, falling), 0.0, 1.0)

    # Narrow low-frequency triangles can fall entirely between two bins;
    # give such a band its nearest bin so every band pools something.
    for b in range(bands):
        if weights[b].sum() <= 0.0:
            weights[b, int(np.argmin(np.abs(bin_rate - center_rate[b])))] = 1.0

    return ErbFilterbank(weights=weights, centers_hz=centers_hz, pi=weights.sum(axis=1))


def pool_feature(values: np.ndarray, fb: ErbFilterbank) -> np.ndarray:
    """Banded feature: per-band weighted mean (normalized by the weight sum).

    Accepts a single F-vector or an (L, F) matrix; a constant input field
    maps to the same constant in every band.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != fb.num_bins:
        raise ValueError("feature frame length does not match filterbank bins")
    return _pool(values, fb)


def _pool(values: np.ndarray, fb: ErbFilterbank, out: np.ndarray | None = None) -> np.ndarray:
    """``pool_feature`` of float64 ``values`` of the filterbank's width,
    unchecked, written into ``out`` when given."""
    return np.divide(np.matmul(values, fb.weights.T, out=out), fb.pi, out=out)
