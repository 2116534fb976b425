"""Reference frame engine: one frame at a time.

This is the feature engine's original per-frame implementation, kept
verbatim: ``short_term_whitened_rtf`` sums each frame's window on its own,
and ``stream_frames`` estimates the RTF, scores and updates both trackers
frame by frame.  The block engine in ``lstsc.coherence`` must reproduce
every ``FrameOutput`` field byte for byte.  The equations it shares with
the block engine (whitening, coherence, the lambda schedule, the warp and
band pooling) are imported; the tracker blend is kept in its original
form, without the scalar fast path.
"""
from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from lstsc.coherence import (
    CoherenceConfig,
    MaskFeedback,
    _as_spec_tensor,
    _mask_is_energetic,
    arcsine_warp,
    coherence,
    lambda_schedule,
    whiten,
)
from lstsc.erb import ErbFilterbank, design_filterbank, pool_feature


def short_term_whitened_rtf(
    specs, frame: int, cfg: CoherenceConfig = CoherenceConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-only short-term RTF at one frame.

    Averages ``2R + 1`` frames (truncated at the signal edges) of
    cross-spectra against the reference channel, divides by the averaged
    reference auto-spectrum, and normalizes each entry to unit modulus.

    Returns ``(entries, low_energy)`` where ``entries`` is (F, M-1)
    complex with unit-modulus rows and ``low_energy`` flags bins whose
    reference energy or ratio modulus fell at or below ``cfg.epsilon``;
    flagged bins carry ``1 + 0j`` placeholders.
    """
    tensor = _as_spec_tensor(specs)
    num_frames = tensor.shape[1]
    if not (0 <= frame < num_frames):
        raise ValueError(f"frame {frame} outside [0, {num_frames})")
    lo = max(0, frame - cfg.R)
    hi = min(num_frames - 1, frame + cfg.R)
    block = tensor[:, lo : hi + 1, :]
    ref_re = block[0].real
    ref_im = block[0].imag
    oth_re = block[1:].real
    oth_im = block[1:].imag
    # z_m * conj(z_0) accumulated over the window, kept as separate real
    # and imaginary planes: plain float ufuncs round each product once,
    # whereas fused complex kernels may contract and drift by an ulp.
    cross_re = (oth_re * ref_re + oth_im * ref_im).sum(axis=1)  # (M-1, F)
    cross_im = (oth_im * ref_re - oth_re * ref_im).sum(axis=1)
    auto = (ref_re * ref_re + ref_im * ref_im).sum(axis=0)  # (F,)

    low_ref = auto <= cfg.epsilon
    safe_auto = np.where(low_ref, 1.0, auto)
    # whitened as a transposed view of (M-1, F) memory, so the per-bin flag
    # reduces over contiguous bins; the entries come back C-ordered (F, M-1)
    ratio = np.empty(cross_re.shape, dtype=np.complex128)
    ratio.real = cross_re / safe_auto
    ratio.imag = cross_im / safe_auto
    entries, flagged = whiten(ratio.T, cfg.epsilon)
    entries[low_ref] = 1.0
    return np.ascontiguousarray(entries), low_ref | flagged


def _blend(rbar: np.ndarray, r: np.ndarray, lam) -> np.ndarray:
    """One tracker update: the convex recursion ``lam * rbar + (1 - lam) * r``
    with the endpoints ``lam == 1`` (state kept) and ``lam == 0`` (state
    replaced) exact.  ``lam`` is a scalar or one value per row."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.size and (lam.min() < 0.0 or lam.max() > 1.0):
        raise ValueError("forgetting factor must lie in [0, 1]")
    if lam.ndim == 1:
        lam = lam[:, np.newaxis]
    return np.where(
        lam == 1.0, rbar, np.where(lam == 0.0, r, lam * rbar + (1.0 - lam) * r)
    )


@dataclasses.dataclass
class FrameOutput:
    """Everything the streaming engine produced for one frame.

    ``global_rbar``/``local_rbar`` reference the live post-update tracker
    arrays (copy before storing).  ``mask_halted`` is True when the
    previous frame's feedback mask froze the global tracker for the whole
    frame, in which case ``global_rbar`` is the untouched previous array.
    """

    frame: int
    rtf: np.ndarray
    low_energy: np.ndarray
    gamma_local: np.ndarray
    gamma_global: np.ndarray
    gamma_local_warped: np.ndarray | None
    gamma_global_warped: np.ndarray | None
    lam: np.ndarray
    mask_halted: bool
    mask_row: np.ndarray | None
    local_rbar: np.ndarray
    global_rbar: np.ndarray


def stream_frames(
    specs,
    cfg: CoherenceConfig,
    mask_feedback: MaskFeedback | None = None,
    sample_rate: int = 16000,
    filterbank: ErbFilterbank | None = None,
) -> Iterator[FrameOutput]:
    """Sequential frame-by-frame feature engine.

    Per frame: estimate the whitened short-term RTF; score it against the
    local tracker, then update the local tracker; derive the global
    forgetting factor (fixed, or the time-varying schedule fed by the
    previous frame's mask); score against the global tracker, then update
    it — skipping the update entirely on mask-halted frames so the state
    stays bit-identical.  When ``mask_feedback`` is given it is called
    with the reference-channel magnitude frame and the (warped, when
    enabled) coherence rows, and its output row becomes the next frame's
    halting input.  Latency is ``R`` frames of lookahead from the
    short-term average.
    """
    tensor = _as_spec_tensor(specs)
    num_frames = tensor.shape[1]
    num_bins = tensor.shape[2]

    if filterbank is None and cfg.erb_bands is not None:
        fft_size = 2 * (num_bins - 1)
        filterbank = design_filterbank(sample_rate, fft_size, cfg.erb_bands)

    local_rbar: np.ndarray | None = None
    global_rbar: np.ndarray | None = None
    prev_mask: np.ndarray | None = None

    for frame in range(num_frames):
        rtf, low_energy = short_term_whitened_rtf(tensor, frame, cfg)
        if local_rbar is None:
            # Trackers open on the first observation, so coherence is 1 by
            # definition there (the vector is compared with itself).
            local_rbar = global_rbar = rtf
            gamma_local, gamma_global = np.ones(num_bins), np.ones(num_bins)
        else:
            gamma_local = coherence(rtf, local_rbar, cfg.epsilon)
            gamma_global = coherence(rtf, global_rbar, cfg.epsilon)

        if cfg.time_varying:
            mask_halted = _mask_is_energetic(prev_mask, cfg.beta)
            lam = lambda_schedule(prev_mask, gamma_local, cfg)
        else:
            mask_halted = False
            lam = np.full(num_bins, cfg.lambda_global)

        local_rbar = _blend(local_rbar, rtf, cfg.lambda_local)
        if not mask_halted:
            global_rbar = _blend(global_rbar, rtf, lam)
        # on mask-halted frames global_rbar is reused untouched (bit-identical)

        gamma_local_w = arcsine_warp(gamma_local) if cfg.apply_arcsine else None
        gamma_global_w = arcsine_warp(gamma_global) if cfg.apply_arcsine else None

        mask_row = None
        if mask_feedback is not None:
            magnitude = np.abs(tensor[0, frame])
            local_feat = gamma_local_w if cfg.apply_arcsine else gamma_local
            global_feat = gamma_global_w if cfg.apply_arcsine else gamma_global
            banded = None
            if filterbank is not None:
                banded = (
                    pool_feature(local_feat, filterbank),
                    pool_feature(global_feat, filterbank),
                )
            mask_row = np.asarray(
                mask_feedback(magnitude, local_feat, global_feat, banded),
                dtype=np.float64,
            )
            if mask_row.shape != (num_bins,):
                raise ValueError("mask estimator returned a row of the wrong length")
            if not np.all(np.isfinite(mask_row)) or mask_row.min() < 0.0 or mask_row.max() > 1.0:
                raise ValueError("mask estimator returned values outside [0, 1]")
            prev_mask = mask_row

        yield FrameOutput(
            frame=frame,
            rtf=rtf,
            low_energy=low_energy,
            gamma_local=gamma_local,
            gamma_global=gamma_global,
            gamma_local_warped=gamma_local_w,
            gamma_global_warped=gamma_global_w,
            lam=lam,
            mask_halted=mask_halted,
            mask_row=mask_row,
            local_rbar=local_rbar,
            global_rbar=global_rbar,
        )


