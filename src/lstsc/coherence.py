"""Long/short-term spatial-coherence features from multichannel spectrograms.

Per time-frequency bin, a short-term relative transfer function (RTF) is
estimated from a few consecutive frames against the reference channel,
reduced to phase-only ("whitened") form, and compared with two recursively
averaged references:

* a fast **local** tracker (small forgetting factor) whose coherence
  ``gamma_local`` flags any directional activity, and
* a slow **global** tracker (forgetting factor near one) whose coherence
  ``gamma_global`` locks onto spatially stationary sources.

The comparison is a sign-sensitive cosine similarity in [-1, 1].  The
global tracker optionally runs a time-varying forgetting factor: adaptation
is halted for a whole frame while the previous frame's estimated target
mask is energetic (mean squared value above ``beta``), and otherwise each
bin adapts at ``clamp(1 - gamma_local / 20, 0.95, 1.0)`` so that only
directionally consistent frames are absorbed quickly.  An optional arcsine
warp spreads the similarity scale near +/-1, and an optional auditory
filterbank pools bins into bands.

Trackers are compared before they are updated: the coherence at frame ``l``
uses the state accumulated through frame ``l - 1``, then the state absorbs
the new vector.  Both trackers start from the first frame's vector, so the
features open at 1.
"""
from __future__ import annotations

import dataclasses
import numbers
import os
import struct
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .erb import ErbFilterbank, design_filterbank, pool_feature
from .signal_core import (
    SAMPLE_RATE, StftConfig, WavReader, _in_halves, _stft_channels, first_non_finite
)

__all__ = [
    "CoherenceConfig",
    "FrameBlock",
    "LstscFeatures",
    "VARIANT_SETTINGS",
    "short_term_whitened_rtf",
    "whiten",
    "coherence",
    "lambda_schedule",
    "arcsine_warp",
    "stream_frames",
    "stream_wav",
    "compute_lstsc",
    "write_features",
    "FeatureWriter",
    "read_features",
    "write_plane_csv",
    "export_features_csv",
]

# Named presets: (time-varying global forgetting factor, arcsine warp, bands)
VARIANT_SETTINGS: dict[str, dict] = {
    "lstsc-1": {"time_varying": False, "apply_arcsine": False, "erb_bands": None},
    "lstsc-2": {"time_varying": True, "apply_arcsine": False, "erb_bands": None},
    "lstsc-3": {"time_varying": True, "apply_arcsine": True, "erb_bands": None},
    "lstsc-4": {"time_varying": True, "apply_arcsine": True, "erb_bands": 48},
}

# (exported name, attribute of LstscFeatures), in file
# order; a plane that is None (the warped one when warping is off) is
# skipped.  Band pooling pools these planes.
_EXPORT_PLANES = (
    ("gamma_local", "gamma_local"),
    ("gamma_global", "gamma_global"),
    ("gamma_global_warped", "gamma_global_warped"),
    ("lambda", "lambda_trace"),
)

_LSTS_MAGIC = b"LSTS"
_LSTS_VERSION = 1
_LSTS_HEADER_BYTES = 20


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class CoherenceConfig:
    """Settings for the coherence feature pipeline.

    ``R`` is the frame half-window of the short-term RTF average (2R + 1
    frames, truncated at the edges).  ``lambda_global`` is used when
    ``time_varying`` is False; otherwise the per-frame schedule applies.
    ``epsilon`` guards divisions: bins whose reference energy or RTF
    modulus falls at or below it are flagged low-energy and carry unit
    placeholder entries instead of unstable ratios.
    """

    R: int = 1
    lambda_local: float = 0.01
    lambda_global: float = 0.99
    time_varying: bool = False
    beta: float = 0.01
    epsilon: float = 1e-12
    apply_arcsine: bool = False
    erb_bands: int | None = None

    def __post_init__(self) -> None:
        if not _is_integer(self.R):
            raise ValueError(f"R must be an integer, got {self.R!r}")
        if self.erb_bands is not None and not _is_integer(self.erb_bands):
            raise ValueError(f"erb_bands must be an integer, got {self.erb_bands!r}")
        if self.R < 0:
            raise ValueError("R must be >= 0")
        if not (0.0 <= self.lambda_local <= 1.0):
            raise ValueError("lambda_local must lie in [0, 1]")
        if not (0.0 <= self.lambda_global <= 1.0):
            raise ValueError("lambda_global must lie in [0, 1]")
        # written so that NaN fails
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if self.erb_bands is not None and self.erb_bands < 2:
            raise ValueError("erb_bands must be >= 2 when set")

    @classmethod
    def for_variant(cls, name: str, **overrides) -> "CoherenceConfig":
        """The named variant's settings plus ``overrides`` of the other
        fields; overriding one of the variant's own settings raises
        ``TypeError``."""
        key = name.lower()
        if key not in VARIANT_SETTINGS:
            raise ValueError(
                f"unknown variant {name!r}; choose from {sorted(VARIANT_SETTINGS)}"
            )
        return cls(**VARIANT_SETTINGS[key], **overrides)

    @property
    def warmup_frames(self) -> int:
        """Frames whose short-term window is still truncated at the front."""
        return 2 * self.R + 1


def _as_spec_tensor(specs) -> np.ndarray:
    """``specs`` as an (M, L, F) array with M >= 2, L >= 1 and F >= 1."""
    tensor = np.asarray(specs)
    if tensor.ndim != 3:
        raise ValueError("expected per-channel spectrograms stacked as (M, L, F)")
    if tensor.shape[0] < 2:
        raise ValueError("spatial coherence requires at least 2 microphones")
    if 0 in tensor.shape[1:]:
        raise ValueError(f"spectra need frames and bins, got shape (M, L, F) = {tensor.shape}")
    return tensor


def _reject_non_finite(spectra: np.ndarray, first: int = 0) -> None:
    """Raise ValueError naming the first non-finite entry of (M, n, F)
    ``spectra`` of clip frames ``first`` onward."""
    bad = first_non_finite(spectra)
    if bad is not None:
        channel, frame, bin_ = bad
        raise ValueError(
            f"non-finite spectrum entry at channel {channel}, frame {first + frame}, bin {bin_}"
        )


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
    flagged bins carry ``1 + 0j`` placeholders.  Non-finite entries of
    the frames it averages are rejected.
    """
    tensor = _as_spec_tensor(specs)
    num_frames = tensor.shape[1]
    if not (0 <= frame < num_frames):
        raise ValueError(f"frame {frame} outside [0, {num_frames})")
    lo = max(0, frame - cfg.R)
    _reject_non_finite(tensor[:, lo : frame + cfg.R + 1], lo)
    entries, low_energy = _block_whitened_rtf(tensor, frame, frame + 1, cfg)
    return entries[0], low_energy[0]


def _block_whitened_rtf(
    tensor: np.ndarray, start: int, stop: int, cfg: CoherenceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``short_term_whitened_rtf`` of frames ``[start, stop)`` at once:
    entries (n, F, M-1) and low-energy flags (n, F), the frames in two
    halves (``_in_halves``)."""
    num_mics, _, num_bins = tensor.shape
    entries = np.empty((stop - start, num_bins, num_mics - 1), dtype=np.complex128)
    low = np.empty((stop - start, num_bins), dtype=bool)

    def frames(lo: int, hi: int) -> None:
        _whitened_rtf_rows(tensor, start + lo, start + hi, cfg, entries[lo:hi], low[lo:hi])

    # inline: 1.12-1.20x the two-thread time (30 s 8-mic extract), 1.12x (8 s 4-mic)
    _in_halves(frames, stop - start, _SPLIT_FRAMES)
    return entries, low


def _whitened_rtf_rows(
    tensor: np.ndarray,
    start: int,
    stop: int,
    cfg: CoherenceConfig,
    entries: np.ndarray,
    low: np.ndarray,
) -> None:
    """``_block_whitened_rtf`` of frames ``[start, stop)``, written into
    ``entries`` and ``low``; each frame's bytes are the same whichever
    frames share the call."""
    num_mics, num_frames, num_bins = tensor.shape
    count = stop - start
    lo = max(0, start - cfg.R)
    span = tensor[:, lo : min(num_frames, stop + cfg.R), :]
    # (destination frames, source frames) per window offset, in window
    # order; only the offsets that reach a clip frame from some frame of
    # the block, so a window truncated at a clip edge skips the rest
    windows = []
    for offset in range(max(-cfg.R, 1 - stop), min(cfg.R, num_frames - start - 1) + 1):
        first, last = max(start, -offset), min(stop, num_frames - offset)
        windows.append(
            (slice(first - start, last - start), slice(first + offset - lo, last + offset - lo))
        )

    def window_sums(per_frame: np.ndarray) -> np.ndarray:
        # shifted adds from zeros, as numpy's sum over a window axis
        # accumulates, so even the signs of zero agree
        sums = np.zeros(per_frame.shape[:-2] + (count, num_bins))
        for dst, src in windows:
            sums[..., dst, :] += per_frame[..., src, :]
        return sums

    ref_re = span[0].real
    ref_im = span[0].imag
    oth_re = span[1:].real
    oth_im = span[1:].imag
    auto = window_sums(ref_re * ref_re + ref_im * ref_im)  # (n, F)
    low_ref = auto <= cfg.epsilon
    safe_auto = np.where(low_ref, 1.0, auto)
    # z_m * conj(z_0) as separate real and imaginary planes: plain float
    # ufuncs round each product once, whereas fused complex kernels may
    # contract and drift by an ulp.  The ratio is laid out (n, F, M-1),
    # filled through (M-1, n, F) views of its parts and whitened in place.
    np.divide(
        window_sums(oth_re * ref_re + oth_im * ref_im),
        safe_auto,
        out=entries.real.transpose(2, 0, 1),
    )
    np.divide(
        window_sums(oth_im * ref_re - oth_re * ref_im),
        safe_auto,
        out=entries.imag.transpose(2, 0, 1),
    )
    _, degenerate = _unit_modulus(entries, cfg.epsilon, out=entries)
    entries[low_ref] = 1.0
    low[...] = low_ref
    _flag_rows(degenerate, low)


def whiten(vectors: np.ndarray, epsilon: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each complex entry to unit modulus.

    Entries with modulus at or below ``epsilon`` become ``1 + 0j`` and the
    owning row is flagged.  Returns ``(whitened, flagged_rows)``.  A NaN
    or infinite entry is rejected with ``ValueError``.
    """
    whitened, degenerate = _unit_modulus(_finite_complex(vectors, "vectors"), epsilon)
    if whitened.ndim <= 1:
        return whitened, bool(degenerate.any())
    return whitened, _flag_rows(degenerate, np.zeros(degenerate.shape[:-1], dtype=bool))


def _finite_complex(values, name: str) -> np.ndarray:
    """``values`` as a complex128 array, or ValueError naming its first
    non-finite entry."""
    values = np.asarray(values, dtype=np.complex128)
    bad = first_non_finite(values)
    if bad is not None:
        raise ValueError(f"non-finite entry of {name} at index {bad}: {values[bad]}")
    return values


def _flag_rows(degenerate: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """ORs each row of ``degenerate`` into ``flags`` and returns it, one
    plane of the last axis at a time: cheaper than any(axis=-1) over a
    short last axis."""
    for k in range(degenerate.shape[-1]):
        flags |= degenerate[..., k]
    return flags


# Sums of squares below the smallest normal double have lost bits to
# underflow, and those above the largest have overflowed: such entries
# are recomputed on rescaled parts.
_NORMAL_MIN = 2.0**-1022

# Entries per pass of the sum of squares: ``im * im`` goes through a
# scratch of at most this many doubles (64 kB), not a block-sized one.
_SQUARES_CHUNK = 8192


def _modulus(vectors: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """``sqrt(re*re + im*im)`` of each entry of complex128 ``vectors``,
    and the entries it rescaled.

    Only numpy's correctly rounded ``multiply``, ``add`` and ``sqrt`` are
    used, so a modulus has the same bytes on every platform and C library
    and wherever its entry sits in the array.  An entry whose sum of
    squares overflows, or falls below 2**-1022 while the entry is not
    zero, gets the same formula on its parts scaled by ``2**-e``, ``e``
    the exponent of the larger part (``np.frexp``), and the result is
    scaled back.  ``rescaled`` is None, or the flat (C-order) indices of
    those entries with their scaled real parts, imaginary parts and
    moduli.  Unless some entry needs rescaling, which takes masks of the
    array, the modulus is the only block-sized array allocated (a
    non-contiguous ``vectors`` is copied first).
    """
    flat = vectors.reshape(-1)
    re, im = flat.real, flat.imag
    squares = np.empty(flat.shape)
    scratch = np.empty(min(flat.size, _SQUARES_CHUNK))
    with np.errstate(over="ignore"):
        np.multiply(re, re, out=squares)
        for a in range(0, flat.size, _SQUARES_CHUNK):
            b = min(a + _SQUARES_CHUNK, flat.size)
            np.multiply(im[a:b], im[a:b], out=scratch[: b - a])
            squares[a:b] += scratch[: b - a]
    rescaled = None
    # one min and one max: fewer passes than a mask of the out-of-range
    if flat.size and not (
        np.minimum.reduce(squares) >= _NORMAL_MIN and np.maximum.reduce(squares) < np.inf
    ):
        index = np.flatnonzero((squares < _NORMAL_MIN) | (squares == np.inf))
        index = index[(re[index] != 0.0) | (im[index] != 0.0)]
        if index.size:
            _, exponent = np.frexp(np.maximum(np.abs(re[index]), np.abs(im[index])))
            part_re, part_im = np.ldexp(re[index], -exponent), np.ldexp(im[index], -exponent)
            scaled = np.sqrt(part_re * part_re + part_im * part_im)
            rescaled = (index, part_re, part_im, scaled)
    np.sqrt(squares, out=squares)
    if rescaled is not None:
        with np.errstate(over="ignore"):  # a modulus above the largest double is inf
            squares[index] = np.ldexp(scaled, exponent)
    return squares.reshape(vectors.shape), rescaled


def _unit_modulus(
    vectors: np.ndarray, epsilon: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``whiten`` without the row flags or the finiteness check; returns
    the per-entry degenerate mask.  The whitened entries go to ``out``
    when given, which may be ``vectors`` itself.

    The modulus is ``_modulus``, IEEE arithmetic only.  Rescaled entries
    divide their scaled parts by their scaled modulus, so a subnormal or
    overflowing modulus still gives a unit entry.  Degenerate entries
    divide by 1.0 and are then overwritten, so no division is masked and
    none is 0/0.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    modulus, rescaled = _modulus(vectors)
    degenerate = modulus <= epsilon
    any_degenerate = degenerate.any()
    if any_degenerate:
        modulus[degenerate] = 1.0
    whitened = np.empty_like(vectors) if out is None else out
    np.divide(vectors.real, modulus, out=whitened.real)
    np.divide(vectors.imag, modulus, out=whitened.imag)
    if rescaled is not None:
        index, part_re, part_im, scaled = rescaled
        whitened.real.flat[index] = part_re / scaled
        whitened.imag.flat[index] = part_im / scaled
    if any_degenerate:
        whitened[degenerate] = 1.0
    return whitened, degenerate


def coherence(r: np.ndarray, rbar: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Sign-sensitive coherence of a whitened RTF with a tracker state.

    ``r`` is a whitened (unit-modulus) vector along the last axis and
    ``rbar`` the tracker's recursive average, which is whitened here
    (``whiten(rbar, epsilon)``, minus the row flags it has no use for).
    Returns ``clip(Re{r^H whiten(rbar)} / (M - 1), -1, 1)`` per row.  A
    NaN or infinite entry of either is rejected with ``ValueError``.
    """
    r, rbar = _finite_complex(r, "r"), _finite_complex(rbar, "rbar")
    return _similarity(r, _unit_modulus(rbar, epsilon)[0])


def _clamp_unit(x, out: np.ndarray | None = None):
    """``np.clip(x, -1.0, 1.0)`` with the same bytes (NaN and the signs
    of zero pass through), without ``np.clip``'s per-call overhead."""
    return np.minimum(np.maximum(x, -1.0, out=out), 1.0, out=out)


def _similarity(r: np.ndarray, rbar_white: np.ndarray) -> np.ndarray:
    """``coherence`` against a state that is already whitened.

    The M - 1 products are summed as plane adds in index order, the order
    of the scalar definition.  numpy's own last-axis sum agrees up to
    M - 1 = 7 and switches to pairwise blocks from 8 on.  The planes are
    flattened to 1-D, which numpy adds faster than (1, F) ones.
    """
    prod = r.real * rbar_white.real
    prod += r.imag * rbar_white.imag
    planes = prod.reshape(-1, prod.shape[-1])
    num = planes[:, 0].copy()
    for k in range(1, planes.shape[1]):
        num += planes[:, k]
    num /= r.shape[-1]
    _clamp_unit(num, out=num)
    return num.reshape(prod.shape[:-1])[()]  # a scalar for one vector


class _Blend:
    """The tracker recursion ``rbar_i = lam_i * rbar_(i-1) + (1 - lam_i) * r_i``
    over a block, with the endpoints ``lam == 1`` (state kept) and
    ``lam == 0`` (state replaced) exact.

    The attribute ``states`` is the block's state stack: ``states[0]``
    is ``rbar``, the state before the block (or, when ``rbar`` is None,
    the first frame's vector, which the tracker opens on), and
    ``states[i + 1]`` becomes the state after frame ``i``.  ``lam`` is a
    scalar or one row per
    frame, in [0, 1]: ``CoherenceConfig`` validates the fixed factors and
    ``lambda_schedule`` clips the scheduled ones.  The state-free half
    ``(1 - lam) * r`` is written into ``states[1:]`` for the whole block
    at once, so ``step`` only adds ``lam * rbar``.
    """

    def __init__(self, rtfs: np.ndarray, rbar: np.ndarray | None, lam) -> None:
        states = np.empty((len(rtfs) + 1,) + rtfs.shape[1:], dtype=rtfs.dtype)
        states[0] = rtfs[0] if rbar is None else rbar
        lam = np.asarray(lam, dtype=np.float64)
        # (n, 1, 1) for a fixed factor, (n, F, 1) for one row per frame
        lam = np.broadcast_to(lam, (len(rtfs), 1)) if lam.ndim == 0 else lam
        self.lam = lam[..., np.newaxis]
        np.multiply(1.0 - self.lam, rtfs, out=states[1:])
        self.states, self.rtfs = states, rtfs
        self.keep, self.take = self.lam == 1.0, self.lam == 0.0
        self.keeps = self.keep.any(axis=(1, 2)).tolist()
        self.takes = self.take.any(axis=(1, 2)).tolist()
        self.scratch = np.empty_like(states[0])

    def step(self, i: int, hold: bool = False) -> None:
        """Write the state after frame ``i``; ``hold`` keeps the state
        before it, bit for bit, whatever ``lam`` says."""
        states = self.states
        if hold:
            states[i + 1] = states[i]
            return
        # (1 - lam) * r + lam * rbar: the two products of the recursion,
        # and IEEE addition commutes
        np.multiply(self.lam[i], states[i], out=self.scratch)
        states[i + 1] += self.scratch
        if self.keeps[i]:
            np.copyto(states[i + 1], states[i], where=self.keep[i])
        if self.takes[i]:
            np.copyto(states[i + 1], self.rtfs[i], where=self.take[i])


def _mask_is_energetic(prev_mask_row: np.ndarray | None, beta: float) -> bool:
    if prev_mask_row is None:
        return False
    # np.mean's own pairwise sum and division, without its wrapper
    squares = np.square(prev_mask_row)
    return float(np.add.reduce(squares) / squares.size) > beta


def lambda_schedule(
    prev_mask_row: np.ndarray | None,
    gamma_local_row: np.ndarray,
    cfg: CoherenceConfig = CoherenceConfig(),
) -> np.ndarray:
    """Per-bin global forgetting factor for one frame (or each row of a
    block of frames that share the previous mask).

    If the previous frame's mask is energetic (mean squared value above
    ``beta``) adaptation halts: lambda = 1 everywhere.  Otherwise each bin
    uses ``1 - gamma_local / 20`` clamped into [0.95, 1.0]; the raw value
    exceeds 1 for negative coherence, and clamping keeps the recursion
    convex, equivalent to a halt.  At the first frame the previous mask is
    taken as all-zero (pass None).
    """
    gamma_local_row = np.asarray(gamma_local_row, dtype=np.float64)
    if _mask_is_energetic(prev_mask_row, cfg.beta):
        return np.ones_like(gamma_local_row)
    return np.clip(1.0 - gamma_local_row / 20.0, 0.95, 1.0)


def arcsine_warp(gamma: np.ndarray | float) -> np.ndarray | float:
    """Odd, monotone rescaling ``(2/pi) * arcsin(gamma)``.

    Fixes -1, 0 and 1 exactly (inputs are clamped to [-1, 1] first so
    float dust cannot leak outside the domain).
    """
    return np.arcsin(_clamp_unit(gamma)) / (0.5 * np.pi)


MaskFeedback = Callable[
    [np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None],
    np.ndarray,
]

# Frames per feed-forward block: enough to amortize numpy's per-call
# overhead, few enough that the block buffers stay a few MB at 8 mics.
_BLOCK_FRAMES = 64

# Fewest frames whose RTFs or coherence are worth two threads.
_SPLIT_FRAMES = 8

# Most bytes of tracker states that _tracker scores at once, per thread:
# the whitened states and the similarity products then peak near twice
# this, and a 4-mic half-block (32 frames of 257 x 3 entries, 395 kB) is
# still one slice, which 4-mic clips score faster than two.
_SLICE_BYTES = 1 << 19


def _tracker(
    rtfs: np.ndarray, rbar: np.ndarray | None, lam, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Coherence of a block of frames with a tracker, and its states.

    ``lam`` is a scalar or one row per frame.  ``states[0]`` is the state
    before the block and ``states[i + 1]`` the state after frame ``i``;
    each frame is scored against the state before it by ``coherence``'s
    unchecked ``_similarity``/``_unit_modulus`` path (the engine has
    already rejected non-finite spectra), the frames in two halves
    (``_in_halves``), each half in even slices of at most
    ``_SLICE_BYTES`` of states.  ``rbar`` is None before
    the first frame: the tracker opens on that frame's vector, which is
    then blended in like any other, and its coherence is 1 by definition
    (the vector is compared with itself), not the rounded dot product.
    """
    blend = _Blend(rtfs, rbar, lam)
    for i in range(len(rtfs)):
        blend.step(i)
    states = blend.states
    # the peak is in coherence: free the endpoint masks and scratch row
    del blend
    gamma = np.empty(rtfs.shape[:-1])

    def frames(lo: int, hi: int) -> None:
        # each frame is scored on its own, so any slicing gives its bytes
        pieces = max(1, -(-(hi - lo) * states[0].nbytes // _SLICE_BYTES))
        bounds = [lo + (hi - lo) * k // pieces for k in range(pieces + 1)]
        for a, b in zip(bounds, bounds[1:]):
            gamma[a:b] = _similarity(rtfs[a:b], _unit_modulus(states[a:b], epsilon)[0])

    # inline: 1.24-1.26x the two-thread time (30 s 8-mic extract), 1.15x (8 s 4-mic)
    _in_halves(frames, len(rtfs), _SPLIT_FRAMES)
    if rbar is None:
        gamma[0] = 1.0
    return gamma, states


def _estimate_mask(
    mask_feedback: MaskFeedback,
    magnitude: np.ndarray,
    local_feat: np.ndarray,
    global_feat: np.ndarray,
    filterbank: ErbFilterbank | None,
) -> np.ndarray:
    """One estimator call, its row checked for length and range."""
    banded = None
    if filterbank is not None:
        banded = (pool_feature(local_feat, filterbank), pool_feature(global_feat, filterbank))
    mask_row = np.asarray(
        mask_feedback(magnitude, local_feat, global_feat, banded), dtype=np.float64
    )
    if mask_row.shape != magnitude.shape:
        raise ValueError("mask estimator returned a row of the wrong length")
    # min and max propagate NaN, which fails both comparisons
    if not (np.minimum.reduce(mask_row) >= 0.0 and np.maximum.reduce(mask_row) <= 1.0):
        raise ValueError("mask estimator returned values outside [0, 1]")
    return mask_row


class _Engine:
    """The feature engine's per-block body and the state it carries from
    one block to the next: both trackers' states, the whitened global
    state (kept while halted frames leave the state as is) and the
    previous mask row.  With ``cfg.erb_bands`` set it designs the
    filterbank for ``num_bins``-bin spectra at ``sample_rate``."""

    def __init__(
        self,
        cfg: CoherenceConfig,
        mask_feedback: MaskFeedback | None,
        num_bins: int,
        sample_rate: int = SAMPLE_RATE,
    ) -> None:
        self.cfg = cfg
        self.mask_feedback = mask_feedback
        self.filterbank = None
        if cfg.erb_bands is not None:
            self.filterbank = design_filterbank(sample_rate, 2 * (num_bins - 1), cfg.erb_bands)
        self.steered = cfg.time_varying and mask_feedback is not None
        self.local_rbar: np.ndarray | None = None
        self.global_rbar: np.ndarray | None = None
        self.global_white: np.ndarray | None = None
        self.prev_mask: np.ndarray | None = None

    def block(self, tensor: np.ndarray, start: int, stop: int, first: int = 0) -> FrameBlock:
        """The ``FrameBlock`` of clip frames ``[start, stop)``, the next
        ones after the blocks before it.

        ``tensor`` holds clip frames from ``first`` on, with ``first`` at
        most ``max(0, start - R)``; it ends at the end of the clip or at
        least ``R`` frames past ``stop``, so every short-term window is
        truncated where the clip's own is.
        """
        cfg, steered = self.cfg, self.steered
        begin, end = start - first, stop - first
        # Feed-forward stage: nothing here reads the mask.
        rtf, low_energy = _block_whitened_rtf(tensor, begin, end, cfg)
        gamma_local, local_states = _tracker(rtf, self.local_rbar, cfg.lambda_local, cfg.epsilon)
        self.local_rbar = local_states[-1].copy()
        del local_states
        # lambda of every frame that no mask halts
        if cfg.time_varying:
            lam = lambda_schedule(None, gamma_local, cfg)
        else:
            lam = np.full(gamma_local.shape, cfg.lambda_global)
        if steered:
            blend = _Blend(rtf, self.global_rbar, lam)
            gamma_global, states = np.empty_like(gamma_local), blend.states
        else:
            # lstsc-1's scalar spares _Blend the (n, F) rows
            global_lam = lam if cfg.time_varying else cfg.lambda_global
            gamma_global, states = _tracker(rtf, self.global_rbar, global_lam, cfg.epsilon)
        gamma_local_w = gamma_global_w = None
        if cfg.apply_arcsine:
            gamma_local_w = arcsine_warp(gamma_local)
            gamma_global_w = np.empty_like(gamma_global) if steered else arcsine_warp(gamma_global)
        halted = np.zeros(stop - start, dtype=bool)
        mask = None

        if self.mask_feedback is not None:
            # Sequential stage: everything downstream of the mask feedback.
            local_feat, global_feat = (
                (gamma_local_w, gamma_global_w) if cfg.apply_arcsine else (gamma_local, gamma_global)
            )
            mask = np.empty_like(gamma_local)
            magnitudes = np.abs(tensor[0, begin:end])
            # Rows [i, scored) of gamma_global were scored against the
            # state before frame i; a row stays valid while the frames
            # before it in its batch are halted, which leave the state as
            # is.  A released frame discards the rows after it.  Batches
            # grow 1, 1, 2, 4, ... (the rows scored since the last
            # release or the block's start), so strictly alternating
            # halts score no row twice.
            scored = run = 0
            for i in range(stop - start):
                if steered:
                    if i == scored:
                        if start + i == 0:
                            gamma_global[0] = 1.0
                            scored = 1
                        else:
                            scored = min(stop - start, i + max(1, run))
                            if self.global_white is None:
                                self.global_white = _unit_modulus(states[i], cfg.epsilon)[0]
                            gamma_global[i:scored] = _similarity(rtf[i:scored], self.global_white)
                        if cfg.apply_arcsine:
                            gamma_global_w[i:scored] = arcsine_warp(gamma_global[i:scored])
                        run += scored - i
                    halted[i] = hold = _mask_is_energetic(self.prev_mask, cfg.beta)
                    # a halted frame reuses the state untouched (bit-identical)
                    blend.step(i, hold=hold)
                    if not hold:
                        self.global_white = None
                        scored, run = i + 1, 0
                mask[i] = self.prev_mask = _estimate_mask(
                    self.mask_feedback, magnitudes[i], local_feat[i], global_feat[i],
                    self.filterbank,
                )
            lam[halted] = 1.0

        self.global_rbar = states[-1].copy()
        block = FrameBlock(
            start=start,
            rtf=rtf,
            low_energy=low_energy,
            gamma_local=gamma_local,
            gamma_global=gamma_global,
            gamma_local_warped=gamma_local_w,
            gamma_global_warped=gamma_global_w,
            lambda_trace=lam,
            mask_halted=halted,
            mask=mask,
            global_rbar=states[1:],
        )
        if self.filterbank is not None:
            # warp first, pool second
            for _, name in _EXPORT_PLANES:
                plane = getattr(block, name)
                if plane is not None:
                    setattr(block, "banded_" + name, pool_feature(plane, self.filterbank))
        return block


def stream_frames(
    specs,
    cfg: CoherenceConfig,
    mask_feedback: MaskFeedback | None = None,
    sample_rate: int = SAMPLE_RATE,
) -> Iterator[FrameBlock]:
    """Block-by-block feature engine: one ``FrameBlock`` per
    ``_BLOCK_FRAMES`` frames, in clip order.

    Per frame: estimate the whitened short-term RTF; score it against the
    local tracker, then update the local tracker; derive the global
    forgetting factor (fixed, or the time-varying schedule fed by the
    previous frame's mask); score against the global tracker, then update
    it — skipping the update entirely on mask-halted frames so the state
    stays bit-identical.  When ``mask_feedback`` is given it is called
    with the reference-channel magnitude frame and the (warped, when
    enabled) coherence rows, and its output row becomes the next frame's
    halting input.  Latency is ``R`` frames of lookahead from the
    short-term average: input replaced from sample ``c`` on leaves the
    rows of every frame ``t`` whose RTF window ends before ``c``
    (``(t + R) * hop + frame_len <= c``) byte for byte unchanged.
    Non-finite spectra are rejected.

    Only the time-varying schedule reads the mask, so everything else runs
    once per block (the feed-forward stage): the RTFs, the local tracker
    and its coherence, the mask-free lambda rows and, unless an estimator
    steers it, the global tracker and its coherence.  With an estimator,
    a loop over the block's frames then calls it and runs the global
    tracker it steers, scoring halted runs in batches.  Where two CPUs
    are available, the RTFs and the trackers' coherence run in two
    halves of the block's frames on two threads
    (``signal_core._in_halves``), so two halves' temporaries exist at
    once; the outputs are the same bytes.
    """
    tensor = _as_spec_tensor(specs)
    _reject_non_finite(tensor)
    _, num_frames, num_bins = tensor.shape
    engine = _Engine(cfg, mask_feedback, num_bins, sample_rate)
    for start in range(0, num_frames, _BLOCK_FRAMES):
        yield engine.block(tensor, start, min(start + _BLOCK_FRAMES, num_frames))


def stream_wav(reader: WavReader, cfg: CoherenceConfig) -> Iterator[FrameBlock]:
    """``stream_frames`` of the WAV file that ``reader`` reads, on the
    default ``StftConfig`` frames, each block's frames read from the file.

    For the block of clip frames ``[start, stop)`` the samples of frames
    ``[max(0, start - R), min(L, stop + R))`` are read and transformed
    into one (M, min(L, 64 + 2R), F) spectra buffer that the whole stream
    reuses.  A frame's spectrum does not depend on the frames transformed
    with it, so the blocks are bit for bit those of ``stream_frames`` on
    the whole clip's ``stft_multichannel``.  The stream holds the buffer,
    a block's span of samples while it is transformed and the engine's
    block: O(64 + 2R) frames, whatever the clip's length.  ``R`` has no
    upper bound; an ``R`` of the clip's length makes every block read and
    transform the whole clip again.  Where two CPUs are available, the
    STFTs run in two halves of the mics and the engine's kernels in two
    halves of a block's frames (``signal_core._in_halves``); the blocks
    are the same bytes.  A reader of fewer than 2 channels or of less
    than one frame of samples raises ValueError here, before any block;
    spectra that overflow are rejected by the block that reads them,
    naming the first bad entry (the reader has rejected non-finite
    samples).
    """
    if reader.num_channels < 2:
        raise ValueError("spatial coherence requires at least 2 microphones")
    stft_cfg = StftConfig()
    hop, frame_len = stft_cfg.hop, stft_cfg.frame_len
    num_frames = stft_cfg.num_frames(reader.num_samples)
    engine = _Engine(cfg, None, stft_cfg.num_bins, reader.sample_rate)
    spectra = np.empty(
        (reader.num_channels, min(num_frames, _BLOCK_FRAMES + 2 * cfg.R), stft_cfg.num_bins),
        dtype=np.complex128,
    )

    def blocks() -> Iterator[FrameBlock]:
        for start in range(0, num_frames, _BLOCK_FRAMES):
            stop = min(start + _BLOCK_FRAMES, num_frames)
            first, end = max(0, start - cfg.R), min(num_frames, stop + cfg.R)
            span = spectra[:, : end - first]
            samples = reader.read(first * hop, (end - 1) * hop + frame_len)
            _stft_channels(samples, stft_cfg, span)
            # the block needs none of the samples
            del samples
            _reject_non_finite(span, first)
            yield engine.block(span, start, stop, first)

    return blocks()


@dataclasses.dataclass
class LstscFeatures:
    """Assembled feature tensors for one clip.

    Bin-level planes are (L, F); banded planes (when the filterbank is
    enabled) are (L, B) and pool the warped planes where warping is on
    (warp first, pool second).  ``lambda_trace`` records the applied
    global forgetting factor, ``mask_halted`` which frames were frozen by
    feedback, and ``low_energy`` which bins carried placeholder RTFs.
    The first ``CoherenceConfig.warmup_frames`` frames use truncated
    averaging windows and freshly initialized trackers.
    """

    gamma_local: np.ndarray
    gamma_global: np.ndarray
    gamma_local_warped: np.ndarray | None
    gamma_global_warped: np.ndarray | None
    lambda_trace: np.ndarray
    low_energy: np.ndarray
    mask_halted: np.ndarray
    mask: np.ndarray | None
    banded_gamma_local: np.ndarray | None = None
    banded_gamma_global: np.ndarray | None = None
    banded_gamma_global_warped: np.ndarray | None = None
    banded_lambda_trace: np.ndarray | None = None

    @property
    def num_frames(self) -> int:
        return self.gamma_local.shape[0]

    @property
    def num_bins(self) -> int:
        return self.gamma_local.shape[1]

    @property
    def frames(self) -> slice:
        """The clip frames these rows hold: all of them."""
        return slice(0, self.num_frames)


@dataclasses.dataclass(kw_only=True)
class FrameBlock(LstscFeatures):
    """Everything the streaming engine produced for a block of frames:
    the ``LstscFeatures`` rows of clip frames ``start`` onward, plus
    ``rtf`` and ``global_rbar``, (n, F, M-1): the whitened RTFs and the
    global tracker state after each frame.

    A frame flagged in ``mask_halted`` had its previous feedback mask
    freeze the global tracker; its state row equals the one before it bit
    for bit and its ``lambda_trace`` row is all ones.  With ``erb_bands``
    set, the ``banded_*`` fields are the block's rows of the exported
    planes pooled into bands, one product per plane.
    """

    start: int
    rtf: np.ndarray
    global_rbar: np.ndarray

    @property
    def frames(self) -> slice:
        """The clip frames of this block."""
        return slice(self.start, self.start + len(self.mask_halted))


def compute_lstsc(
    specs,
    cfg: CoherenceConfig,
    mask_feedback: MaskFeedback | None = None,
    sample_rate: int = SAMPLE_RATE,
) -> LstscFeatures:
    """Run the streaming engine over a whole clip and collect the outputs.

    Each plane is allocated once, as the first block's field of the same
    name, and filled a block of rows at a time; the fields a setting turns
    off stay None: the warped planes without ``cfg.apply_arcsine``, the
    mask without ``mask_feedback`` and the banded planes without
    ``cfg.erb_bands``.
    """
    tensor = np.asarray(specs)
    names = [field.name for field in dataclasses.fields(LstscFeatures)]
    planes: dict[str, np.ndarray] = {}
    for block in stream_frames(tensor, cfg, mask_feedback, sample_rate=sample_rate):
        if not planes:
            # stream_frames has checked the tensor's shape
            for name in names:
                rows = getattr(block, name)
                if rows is not None:
                    planes[name] = np.empty((tensor.shape[1],) + rows.shape[1:], rows.dtype)
        for name, plane in planes.items():
            plane[block.frames] = getattr(block, name)
        # it would pin the block's buffers while the engine computes the next
        del block
    return LstscFeatures(**{**dict.fromkeys(names), **planes})


def _export_planes(source) -> list[tuple[str, np.ndarray]]:
    """The exported planes of an ``LstscFeatures`` (a whole clip's, or a
    ``FrameBlock``'s rows), by export name, in file order: ``gamma_local,
    gamma_global[, gamma_global_warped], lambda`` — 3 planes without
    warping, 4 with.  When bands are on every plane is its banded
    counterpart (B-wide), with the warped plane pooled after warping."""
    prefix = "banded_" if source.banded_gamma_local is not None else ""
    planes = [(name, getattr(source, prefix + attr)) for name, attr in _EXPORT_PLANES]
    return [(name, plane) for name, plane in planes if plane is not None]


def _csv_path(base_path: str | Path, name: str) -> Path:
    """``<stem>.<name>.csv`` next to ``base_path``, whatever its suffix."""
    base = Path(base_path)
    stem = base.stem if base.suffix else base.name
    return base.with_name(f"{stem}.{name}.csv")


def write_features(path: str | Path, features: LstscFeatures) -> None:
    """Binary feature export: the whole clip as one ``FeatureWriter`` block.

    Layout (little-endian): magic ``LSTS``, u32 version, u32 L, u32 K
    (bins or bands), u32 plane count, then each plane as row-major
    float32.  Plane order: gamma_local, gamma_global, gamma_global_warped
    (when warping is enabled), lambda trace.
    """
    with FeatureWriter(path, features.num_frames) as writer:
        writer.write([features])


class FeatureWriter:
    """A clip's exported planes, written a block of frames at a time.

    A block is an ``LstscFeatures``: a ``FrameBlock`` of ``stream_frames``
    or ``stream_wav``, or a whole clip's features (``write_features``).
    The binary file gets the layout ``write_features`` documents and, with
    ``csv``, the CSV files ``export_features_csv`` writes.  The header is
    written from ``num_frames`` and the first block's width when that
    block arrives.  Each block's exported rows (banded when the engine
    pools them) go as float32 to their offsets in every plane as the block
    arrives, so no whole plane is held.  A block whose planes are not all
    (its frames, the width) raises before any of its rows is written.

    Use it as a context manager: a clean exit checks that all
    ``num_frames`` frames were written and closes the files, and an
    exception (or a missing frame) removes the files it opened.
    """

    def __init__(self, path: str | Path, num_frames: int, csv: bool = False) -> None:
        self.path = Path(path)
        self.num_frames = num_frames
        self.csv = csv
        # the planes' width, from the first block
        self.width: int | None = None
        # the files opened so far, the binary one first
        self.paths: list[Path] = []
        self._files: list = []
        self._next = 0

    @property
    def csv_paths(self) -> list[Path]:
        return self.paths[1:]

    def __enter__(self) -> "FeatureWriter":
        return self

    def write(self, blocks) -> None:
        """Write the rows of ``blocks``, the clip's next blocks of frames."""
        for block in blocks:
            self._write(block)
            # it would pin the block's buffers while the next one is computed
            del block

    def _write(self, block: LstscFeatures) -> None:
        frames = block.frames
        if frames.start != self._next or frames.stop > self.num_frames:
            raise ValueError(
                f"expected the block at frame {self._next} of {self.num_frames}, "
                f"got frames {frames.start} to {frames.stop}"
            )
        named = _export_planes(block)
        rows = [plane for _, plane in named]
        width = rows[0].shape[-1] if self.width is None else self.width
        if any(plane.shape != (frames.stop - frames.start, width) for plane in rows):
            raise ValueError("feature planes disagree on shape")
        if not self._files:
            self._open([name for name, _ in named], width)
        binary = self._files[0]
        for index, plane_rows in enumerate(rows):
            binary.seek(_LSTS_HEADER_BYTES + 4 * width * (index * self.num_frames + frames.start))
            binary.write(np.ascontiguousarray(plane_rows, dtype="<f4").tobytes())
        for fh, plane_rows in zip(self._files[1:], rows):
            fh.write(_csv_block(plane_rows))
        self._next = frames.stop

    def _open(self, names: list[str], width: int) -> None:
        targets = [self.path] + ([_csv_path(self.path, name) for name in names] if self.csv else [])
        for target in targets:
            self._files.append(open(target, "wb"))
            self.paths.append(target)
        self.width = width
        self._files[0].write(
            _LSTS_MAGIC + struct.pack("<IIII", _LSTS_VERSION, self.num_frames, width, len(names))
        )

    def __exit__(self, exc_type, exc, tb) -> None:
        complete = exc_type is None and self._next == self.num_frames
        for fh in self._files:
            fh.close()
        if not complete:
            for path in self.paths:
                path.unlink(missing_ok=True)
        if exc_type is None and not complete:
            raise ValueError(
                f"the feature file holds {self.num_frames} frames, {self._next} were written"
            )


def read_features(path: str | Path) -> dict:
    """Parse a binary feature file back into header fields and planes.

    The header is checked against the file's length before any plane is
    read; each plane is then read from its offset, so at most one plane's
    float32 bytes are held beside the float64 planes.
    """
    with open(Path(path), "rb") as fh:
        header = fh.read(_LSTS_HEADER_BYTES)
        if header[:4] != _LSTS_MAGIC:
            raise ValueError("not a feature file (bad magic)")
        if len(header) < _LSTS_HEADER_BYTES:
            raise ValueError(
                f"feature file truncated: {len(header)} bytes, header needs {_LSTS_HEADER_BYTES}"
            )
        version, frames, width, count = struct.unpack_from("<IIII", header, 4)
        if version != _LSTS_VERSION:
            raise ValueError(f"unsupported feature file version {version}")
        plane_bytes = 4 * frames * width
        if os.fstat(fh.fileno()).st_size != _LSTS_HEADER_BYTES + plane_bytes * count:
            raise ValueError("feature file truncated or oversized")
        planes = []
        for index in range(count):
            fh.seek(_LSTS_HEADER_BYTES + index * plane_bytes)
            plane = np.fromfile(fh, dtype="<f4", count=frames * width)
            planes.append(plane.reshape(frames, width).astype(np.float64))
    return {
        "version": version,
        "num_frames": frames,
        "width": width,
        "num_planes": count,
        "planes": planes,
    }


# Rows formatted per numpy pass: a few MB of temporaries at 257 columns.
_CSV_BLOCK_ROWS = 256

# A "%.9e" field without its sign is 15 bytes, 16 with the separator:
# two little-endian words, "d.ddd" + "ddd" and "ddd" + "e+dd" + separator.
# Each table holds a piece's ASCII bytes, shifted to its place in the word.
_CSV_DIGITS = np.array(
    [int.from_bytes(f"{q:03d}".encode(), "little") for q in range(1000)], dtype=np.uint64
)
# "d.ddd" for 0...9999: the leading digit and "." then the other three
_CSV_LEAD = np.repeat(
    np.arange(ord("0"), ord("9") + 1, dtype=np.uint64) | np.uint64(ord(".") << 8), 1000
) | np.tile(_CSV_DIGITS << np.uint64(16), 10)
_CSV_MID = _CSV_DIGITS << np.uint64(40)
_CSV_EXP = np.array(
    [int.from_bytes(f"e{e:+03d}".encode(), "little") << 24 for e in range(-99, 100)],
    dtype=np.uint64,
)
_CSV_COMMA = np.uint64(ord(",") << 56)
_CSV_NEWLINE = np.uint64(ord("\n") << 56)
# 10**(9 - e) for e in -99...99, each correctly rounded; exact for |9 - e| <= 22
_CSV_SCALE = np.array([float(f"1e{9 - e}") for e in range(-99, 100)])


def _csv_block(rows: np.ndarray) -> bytes:
    """CSV text of a float64 block: ``"%.9e"`` fields, ``,``, ``\\n``.

    Each value's ten significant digits are ``n = rint(|x| 10^(9-e))``
    with ``e = floor(log10 |x|)``.  Both the power of ten and the product
    are correctly rounded, so below 1e10 the scaled value is within 2.3e-6
    of the exact product.  A value is proven when its scaled value lies in
    [1e9, 1e10 - 1/2), more than 1e-5 from a half-integer; zeros are
    proven too.  A row holding an unproven value (a wrong exponent guess,
    a near tie, a three-digit exponent, NaN or inf) is formatted by
    Python's ``%`` operator.
    """
    count, cols = rows.shape
    live = np.isfinite(rows) & (rows != 0.0)
    a = np.abs(rows)
    a[~live] = 1.0
    # an exponent past +-99 is clipped, which puts y outside [1e9, 1e10)
    e = np.clip(np.floor(np.log10(a)), -99.0, 99.0).astype(np.intp) + 99
    y = a * _CSV_SCALE[e]
    n = np.rint(y)
    ok = live & (y >= 1e9) & (n < 1e10) & (np.abs(y - n) < 0.5 - 1e-5)
    proven = ok | (rows == 0.0)
    # zeros (and the unproven values, rewritten below) print as 0.000000000e+00
    n[~ok] = 0.0
    e[~ok] = 99
    # n < 1e10 splits exactly in float64: 4 + 3 + 3 digits
    lead = np.floor(n / 1e6)
    rest = n - lead * 1e6
    mid = np.floor(rest / 1e3)
    low = rest - mid * 1e3
    sep = np.full(cols, _CSV_COMMA)
    sep[-1] = _CSV_NEWLINE
    words = np.empty((count, cols, 2), dtype="<u8")
    words[..., 0] = _CSV_LEAD[lead.astype(np.intp)] | _CSV_MID[mid.astype(np.intp)]
    words[..., 1] = _CSV_DIGITS[low.astype(np.intp)] | _CSV_EXP[e] | sep

    negative = np.signbit(rows) & proven
    if negative.any():
        signed = np.empty((count, cols, 17), dtype=np.uint8)
        signed[..., 0] = ord("-")
        signed[..., 1:] = words.view(np.uint8).reshape(count, cols, 16)
        keep = np.ones(signed.shape, dtype=bool)
        keep[..., 0] = negative
        text = signed[keep].tobytes()
    else:
        text = words.tobytes()

    unproven = np.flatnonzero(~proven.all(axis=1))
    if unproven.size == 0:
        return text
    row_bytes = 16 * cols + negative.sum(axis=1)
    ends = np.cumsum(row_bytes)
    row_format = ",".join(["%.9e"] * cols) + "\n"
    pieces, start = [], 0
    for r in unproven:
        pieces.append(text[start : ends[r] - row_bytes[r]])
        pieces.append((row_format % tuple(rows[r].tolist())).encode("ascii"))
        start = ends[r]
    pieces.append(text[start:])
    return b"".join(pieces)


def write_plane_csv(path: str | Path, plane: np.ndarray) -> None:
    """Write a 2-D float plane as CSV, one row per line.

    Each value is written as Python's ``"%.9e" % value``, with ``,``
    between values and ``\\n`` after each row: the bytes numpy's text
    writer gives for ``delimiter=","`` and ``fmt="%.9e"``.  Formatting runs
    in numpy, ``_CSV_BLOCK_ROWS`` rows at a time.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2 or plane.shape[1] == 0:
        raise ValueError(f"a CSV plane must be 2-D with columns, got shape {plane.shape}")
    with open(path, "wb") as fh:
        for start in range(0, len(plane), _CSV_BLOCK_ROWS):
            fh.write(_csv_block(plane[start : start + _CSV_BLOCK_ROWS]))


def export_features_csv(base_path: str | Path, features: LstscFeatures) -> list[Path]:
    """Write one CSV per exported plane next to ``base_path``.

    ``base_path`` may carry any suffix; files are named
    ``<stem>.<plane>.csv`` in the same directory and written by
    ``write_plane_csv``.  Returns written paths.
    """
    written = []
    for name, plane in _export_planes(features):
        out = _csv_path(base_path, name)
        write_plane_csv(out, plane)
        written.append(out)
    return written
