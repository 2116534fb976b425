"""Scale-invariant signal-to-distortion ratio.

The estimate is projected onto the reference; the ratio of projected
power to residual power is the score.  Any overall gain on the estimate
cancels, so the metric measures waveform similarity up to scale.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .signal_core import _first_non_finite

__all__ = ["SiSdrReport", "si_sdr"]

_CAP_DB = 100.0


@dataclasses.dataclass(frozen=True)
class SiSdrReport:
    """``value_db`` is capped at +100 dB (numerically perfect estimates)
    and floored at -100 dB (numerically orthogonal ones) so reports stay
    finite; ``projection_gain`` is the optimal scaling applied to the
    reference."""

    value_db: float
    projection_gain: float


def si_sdr(reference: np.ndarray, estimate: np.ndarray) -> SiSdrReport:
    """Scale-invariant SDR of ``estimate`` against ``reference``.

    ``alpha = <estimate, reference> / ||reference||^2`` and the score is
    ``10 log10(||alpha r||^2 / ||estimate - alpha r||^2)``, evaluated over
    the full signals regardless of target presence.  A NaN or infinite
    sample in either input raises ValueError naming the first one.
    """
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.ndim != 1 or estimate.ndim != 1:
        raise ValueError("si_sdr expects mono sample vectors")
    if reference.shape != estimate.shape:
        raise ValueError(
            f"length mismatch: reference {reference.shape[0]}, "
            f"estimate {estimate.shape[0]}"
        )
    for name, values in (("reference", reference), ("estimate", estimate)):
        bad = _first_non_finite(values)
        if bad is not None:
            raise ValueError(f"non-finite {name} sample at index {bad[0]}: {values[bad]}")
    ref_energy = float(np.dot(reference, reference))
    if ref_energy <= 0.0:
        raise ValueError("reference must not be all-zero")

    alpha = float(np.dot(estimate, reference)) / ref_energy
    projected = alpha * reference
    residual = estimate - projected
    signal_power = float(np.dot(projected, projected))
    residual_power = float(np.dot(residual, residual))

    if signal_power <= 0.0:
        return SiSdrReport(value_db=-_CAP_DB, projection_gain=alpha)
    if residual_power <= 0.0 or residual_power / signal_power < 10.0 ** (-_CAP_DB / 10.0):
        return SiSdrReport(value_db=_CAP_DB, projection_gain=alpha)
    value = 10.0 * np.log10(signal_power / residual_power)
    value = float(np.clip(value, -_CAP_DB, _CAP_DB))
    return SiSdrReport(value_db=value, projection_gain=alpha)
