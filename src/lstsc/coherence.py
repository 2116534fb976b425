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
import math
import numbers
import os
import struct
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import signal_core
from .erb import ErbFilterbank, _pool, design_filterbank, pool_feature
from .signal_core import (
    SAMPLE_RATE, StftConfig, WavReader, _Arena, _check_pipeline_rate, _first_non_finite,
    _stft_channels, _tiles,
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
    "write_feature_blocks",
    "read_features",
    "write_plane_csv",
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
    bad = _first_non_finite(spectra)
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
    complex with unit-modulus rows (a transposed view of the engine's
    pair-major (M-1, F) row) and ``low_energy`` flags bins whose
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
    entries, low_energy = _block_whitened_rtf(
        tensor, frame, frame + 1, cfg, _Arena(signal_core._TILE_BYTES)
    )
    return entries[0].T, low_energy[0]


def _block_whitened_rtf(
    tensor: np.ndarray,
    start: int,
    stop: int,
    cfg: CoherenceConfig,
    arena: _Arena,
    entries: np.ndarray | None = None,
    low: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``short_term_whitened_rtf`` of frames ``[start, stop)`` at once:
    pair-major entries (n, M-1, F), so each pair's F bins are one
    contiguous run, and low-energy flags (n, F), written into ``entries``
    and ``low`` when given, in tiles of frames whose scratch
    (``_whitened_rtf_rows``) fits the budget of ``arena``.  Windows wider
    than such a tile take the frames in one tile, whose scratch outgrows
    the budget as the spectra do."""
    num_mics, _, num_bins = tensor.shape
    pairs = num_mics - 1
    if entries is None:
        entries = np.empty((stop - start, pairs, num_bins), dtype=np.complex128)
        low = np.empty((stop - start, num_bins), dtype=bool)
    # the rows of F bins the budget holds, less the windows' 2R frames of
    # products and partners, over a frame's products, partners and
    # reference energy
    rows = arena.budget // (8 * num_bins) - 4 * pairs * cfg.R
    step = rows // (2 * pairs + 1)
    if step < max(cfg.R, 1):
        # windows wider than a tile: the frames in one tile, so that their
        # window sums stay few and long (split into tiles of bins, a 30 s
        # 8-mic extract at R = 70 took 1.6x the time)
        step = stop - start
    for a, b in _tiles(0, stop - start, max(step, 1)):
        _whitened_rtf_rows(tensor, start + a, start + b, cfg, entries[a:b], low[a:b], arena)
    return entries, low


def _whitened_rtf_rows(
    tensor: np.ndarray,
    start: int,
    stop: int,
    cfg: CoherenceConfig,
    entries: np.ndarray,
    low: np.ndarray,
    arena: _Arena,
) -> None:
    """``_block_whitened_rtf`` of frames ``[start, stop)``, written into
    the (n, M-1, F) ``entries`` and the (n, F) ``low``; each entry's bytes
    are the same whichever frames share the call.

    The products, their window sums and the moduli live in ``arena``, one
    float64 plane per mic pair and quantity, laid out (frame, pair, bin)
    as the entries are; the ratios are written into ``entries`` and
    whitened there by ``_unit_modulus``, its sums of squares in the
    arena.  Every write runs over contiguous runs of F bins.
    """
    num_mics, num_frames, num_bins = tensor.shape
    pairs, count = num_mics - 1, stop - start
    lo = max(0, start - cfg.R)
    span = tensor[:, lo : min(num_frames, stop + cfg.R), :]
    reach = span.shape[1]
    # (destination frames, source frames) per window offset, in window
    # order; only the offsets that reach a clip frame from some frame of
    # the block, so a window truncated at a clip edge skips the rest
    windows = []
    for offset in range(max(-cfg.R, 1 - stop), min(cfg.R, num_frames - start - 1) + 1):
        first, last = max(start, -offset), min(stop, num_frames - offset)
        windows.append(
            (slice(first - start, last - start), slice(first + offset - lo, last + offset - lo))
        )

    def window_sums(per_frame: np.ndarray, sums: np.ndarray) -> np.ndarray:
        # shifted adds from zeros, as numpy's sum over a window axis
        # accumulates, so even the signs of zero agree; frames are the
        # first axis, so each add runs over one contiguous run of memory
        sums[...] = 0.0
        for dst, src in windows:
            sums[dst] += per_frame[src]
        return sums

    # (frame, pair, bin) planes; the reference power and the moduli reuse
    # the products' first doubles, their partners and the window sums the
    # partners'
    planes = (reach, pairs, num_bins)
    prods, parts, safe = arena.take(planes, planes, (count, num_bins))
    ref, oth = span[0], span[1:].transpose(1, 0, 2)
    ref_re, ref_im, oth_re, oth_im = ref.real, ref.imag, oth.real, oth.imag
    power, square = (
        plane.reshape(-1)[: reach * num_bins].reshape(reach, num_bins) for plane in (prods, parts)
    )
    np.multiply(ref_re, ref_re, out=power)
    power += np.multiply(ref_im, ref_im, out=square)
    np.less_equal(window_sums(power, safe), cfg.epsilon, out=low)
    any_low = low.any()
    if any_low:
        np.copyto(safe, 1.0, where=low)
    by_pair = safe[:, np.newaxis]
    # the ratio's parts go straight into the entries
    re, im = entries.real, entries.imag
    sums = parts[:count]
    # z_m * conj(z_0) as separate real and imaginary planes: plain float
    # ufuncs round each product once, whereas fused complex kernels may
    # contract and drift by an ulp
    ref_re, ref_im = ref_re[:, np.newaxis], ref_im[:, np.newaxis]
    np.multiply(oth_re, ref_re, out=prods)
    prods += np.multiply(oth_im, ref_im, out=parts)
    np.divide(window_sums(prods, sums), by_pair, out=re)
    np.multiply(oth_im, ref_re, out=prods)
    prods -= np.multiply(oth_re, ref_im, out=parts)
    np.divide(window_sums(prods, sums), by_pair, out=im)
    moduli, square = prods[:count], parts[:count]
    _, degenerate = _unit_modulus(entries, cfg.epsilon, entries, moduli, square)
    if any_low:
        np.copyto(entries, 1.0, where=low[:, np.newaxis])
    if degenerate is not None:
        _flag_rows(degenerate, low, axis=1)


def whiten(vectors: np.ndarray, epsilon: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each complex entry to unit modulus.

    Entries with modulus at or below ``epsilon`` become ``1 + 0j`` and the
    owning row is flagged.  Returns ``(whitened, flagged_rows)``.  A NaN
    or infinite entry is rejected with ``ValueError``.
    """
    whitened, degenerate = _unit_modulus(_finite_complex(vectors, "vectors"), epsilon)
    if whitened.ndim <= 1:
        return whitened, degenerate is not None
    flags = np.zeros(whitened.shape[:-1], dtype=bool)
    return whitened, flags if degenerate is None else _flag_rows(degenerate, flags)


def _finite_complex(values, name: str) -> np.ndarray:
    """``values`` as a complex128 array, or ValueError naming its first
    non-finite entry."""
    values = np.asarray(values, dtype=np.complex128)
    bad = _first_non_finite(values)
    if bad is not None:
        raise ValueError(f"non-finite entry of {name} at index {bad}: {values[bad]}")
    return values


def _flag_rows(degenerate: np.ndarray, flags: np.ndarray, axis: int = -1) -> np.ndarray:
    """ORs each row of ``degenerate`` along its pair axis ``axis`` into
    ``flags`` and returns it, one plane of that axis at a time: cheaper
    than any(axis=axis) over a short axis."""
    lead = (slice(None),) * (axis % degenerate.ndim)
    for k in range(degenerate.shape[axis]):
        flags |= degenerate[lead + (k,)]
    return flags


# Sums of squares below the smallest normal double have lost bits to
# underflow, and those above the largest have overflowed: such entries
# are recomputed on rescaled parts.
_NORMAL_MIN = 2.0**-1022

# Entries per pass of the sum of squares: ``im * im`` goes through a
# scratch of at most this many doubles (64 kB), not a block-sized one.
_SQUARES_CHUNK = 8192


def _modulus(
    vectors: np.ndarray, squares: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, tuple | None]:
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
    moduli.

    The moduli go to ``squares`` when given, a C-contiguous float64 array
    of the vectors' shape that holds their sums of squares first, and
    ``im * im`` to ``scratch``, of the same shape, when given, else to a
    scratch of at most ``_SQUARES_CHUNK`` doubles, a chunk at a time.  So
    unless some entry needs rescaling, which takes masks of the array, the
    modulus is the only block-sized array allocated, and none is where
    the caller gives both (without ``scratch``, the imaginary parts of a
    non-contiguous ``vectors`` are copied first).
    """
    re, im = vectors.real, vectors.imag
    if squares is None:
        squares = np.empty(vectors.shape)
    with np.errstate(over="ignore"):
        np.multiply(re, re, out=squares)
        if scratch is not None:
            squares += np.multiply(im, im, out=scratch)
        else:
            flat, im = squares.reshape(-1), im.reshape(-1)
            scratch = np.empty(min(flat.size, _SQUARES_CHUNK))
            for a in range(0, flat.size, _SQUARES_CHUNK):
                b = min(a + _SQUARES_CHUNK, flat.size)
                np.multiply(im[a:b], im[a:b], out=scratch[: b - a])
                flat[a:b] += scratch[: b - a]
    rescaled = None
    # one min and one max: fewer passes than a mask of the out-of-range
    if squares.size and not (
        np.minimum.reduce(squares, axis=None) >= _NORMAL_MIN
        and np.maximum.reduce(squares, axis=None) < np.inf
    ):
        index = np.flatnonzero((squares < _NORMAL_MIN) | (squares == np.inf))
        re, im = vectors.real.flat[index], vectors.imag.flat[index]
        live = (re != 0.0) | (im != 0.0)
        index, re, im = index[live], re[live], im[live]
        if index.size:
            _, exponent = np.frexp(np.maximum(np.abs(re), np.abs(im)))
            part_re, part_im = np.ldexp(re, -exponent), np.ldexp(im, -exponent)
            scaled = np.sqrt(part_re * part_re + part_im * part_im)
            rescaled = (index, part_re, part_im, scaled)
    np.sqrt(squares, out=squares)
    if rescaled is not None:
        with np.errstate(over="ignore"):  # a modulus above the largest double is inf
            squares.flat[index] = np.ldexp(scaled, exponent)
    return squares, rescaled


def _unit_modulus(
    vectors: np.ndarray,
    epsilon: float,
    out=None,
    squares: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple:
    """``whiten`` without the row flags or the finiteness check: the
    whitened entries, and the per-entry degenerate mask, or None when no
    entry is degenerate.

    The whitened entries go to ``out`` when given: a complex array, which
    may be ``vectors`` itself, or a pair of float64 arrays for their real
    and imaginary parts, which is then what is returned.  ``squares`` and
    ``scratch`` are ``_modulus``'s; the imaginary parts are written
    first, so ``squares`` may be the real parts' array of such a pair.

    The modulus is ``_modulus``, IEEE arithmetic only.  Rescaled entries
    divide their scaled parts by their scaled modulus, so a subnormal or
    overflowing modulus still gives a unit entry.  Whether any entry is
    degenerate is read from the least modulus; only then is the mask
    built, and its entries divide by 1.0 and are then overwritten, so no
    division is masked and none is 0/0.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    modulus, rescaled = _modulus(vectors, squares, scratch)
    degenerate = None
    if modulus.size and np.minimum.reduce(modulus, axis=None) <= epsilon:
        degenerate = modulus <= epsilon
        modulus[degenerate] = 1.0
    whitened = np.empty_like(vectors) if out is None else out
    white_re, white_im = (
        (whitened.real, whitened.imag) if isinstance(whitened, np.ndarray) else whitened
    )
    np.divide(vectors.imag, modulus, out=white_im)
    np.divide(vectors.real, modulus, out=white_re)
    if rescaled is not None:
        index, part_re, part_im, scaled = rescaled
        white_re.flat[index] = part_re / scaled
        white_im.flat[index] = part_im / scaled
    if degenerate is not None:
        white_re[degenerate] = 1.0
        white_im[degenerate] = 0.0
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
    """``coherence`` against a state that is already whitened
    (``_correlate`` on new arrays)."""
    shape = np.broadcast_shapes(r.shape, rbar_white.shape)
    out = np.empty(shape[:-1])
    _correlate(r, rbar_white.real, rbar_white.imag, out, np.empty(shape), np.empty(shape))
    return out[()]  # a scalar for one vector


def _correlate(
    r: np.ndarray,
    white_re: np.ndarray,
    white_im: np.ndarray,
    out: np.ndarray,
    prod: np.ndarray,
    part: np.ndarray,
    axis: int = -1,
) -> None:
    """Writes ``clip(Re{r^H w} / (M - 1), -1, 1)`` of each vector along
    the pair axis ``axis`` into ``out``, for the whitened ``w`` with parts
    ``white_re`` and ``white_im``; ``prod`` and ``part`` are scratch of
    the products' shape, and may be ``white_re`` and ``white_im``
    themselves.

    The M - 1 products are summed as plane adds in index order, the order
    of the scalar definition.  numpy's own sum over the pair axis agrees
    up to M - 1 = 7 and switches to pairwise blocks from 8 on.  On the
    engine's pair-major (n, M - 1, F) arrays (``axis=1``) each plane is a
    run of contiguous bins per frame.
    """
    np.multiply(r.real, white_re, out=prod)
    np.multiply(r.imag, white_im, out=part)
    prod += part
    lead = (slice(None),) * (axis % prod.ndim)
    pairs = prod.shape[axis]
    np.copyto(out, prod[lead + (0,)])
    for k in range(1, pairs):
        out += prod[lead + (k,)]
    out /= pairs
    _clamp_unit(out, out=out)


class _Blend:
    """The tracker recursion ``rbar_i = lam_i * rbar_(i-1) + (1 - lam_i) * r_i``
    over a block, with the endpoints ``lam == 1`` (state kept) and
    ``lam == 0`` (state replaced) exact.

    The attribute ``states`` is the block's state stack, ``states`` when
    given, else a new one: ``states[0]`` is ``rbar``, the state before the
    block (or, when ``rbar`` is None, the first frame's vector, which the
    tracker opens on), and ``states[i + 1]`` becomes the state after frame
    ``i``.  ``lam`` is a scalar or one row per frame, in [0, 1]:
    ``CoherenceConfig`` validates the fixed factors and
    ``lambda_schedule`` clips the scheduled ones.  The state-free half
    ``(1 - lam) * r`` is written into ``states[1:]`` for the whole block
    at once, so ``step`` only adds ``lam * rbar``.

    The vectors are pair-major: ``rtfs`` is (n, M - 1, F) and the stack
    (n + 1, M - 1, F), so a row of ``lam`` meets each pair's bins as one
    contiguous run.
    """

    def __init__(
        self,
        rtfs: np.ndarray,
        rbar: np.ndarray | None,
        lam,
        states: np.ndarray | None = None,
        spare: np.ndarray | None = None,
    ) -> None:
        if states is None:
            states = np.empty((len(rtfs) + 1,) + rtfs.shape[1:], dtype=rtfs.dtype)
        states[0] = rtfs[0] if rbar is None else rbar
        lam = np.asarray(lam, dtype=np.float64)
        # (n, 1, 1) for a fixed factor, (n, 1, F) for one row per frame
        lam = np.broadcast_to(lam, (len(rtfs), 1)) if lam.ndim == 0 else lam
        self.lam = lam[:, np.newaxis]
        # 1 - lam goes into ``spare``, an (n, F) float64 array whose
        # contents are not needed, when given
        if spare is not None and lam.shape == spare.shape:
            spare = np.subtract(1.0, lam, out=spare)[:, np.newaxis]
        else:
            spare = 1.0 - self.lam
        np.multiply(spare, rtfs, out=states[1:])
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
    return _released_lambda(gamma_local_row)


def _released_lambda(gamma_local: np.ndarray, out: np.ndarray | None = None):
    """``1 - gamma_local / 20`` clamped into [0.95, 1.0], written into
    ``out`` when given."""
    lam = np.subtract(1.0, np.divide(gamma_local, 20.0, out=out), out=out)
    return np.clip(lam, 0.95, 1.0, out=out)


def arcsine_warp(gamma: np.ndarray | float) -> np.ndarray | float:
    """Odd, monotone rescaling ``(2/pi) * arcsin(gamma)``.

    Fixes -1, 0 and 1 exactly (inputs are clamped to [-1, 1] first so
    float dust cannot leak outside the domain).
    """
    return _warp(gamma)


def _warp(gamma, out: np.ndarray | None = None):
    """``arcsine_warp``, written into ``out`` when given."""
    return np.divide(np.arcsin(_clamp_unit(gamma, out=out), out=out), 0.5 * np.pi, out=out)


MaskFeedback = Callable[
    [np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None],
    np.ndarray,
]

# Frames per feed-forward block: enough to amortize numpy's per-call
# overhead, few enough that the block buffers stay a few MB at 8 mics.
_BLOCK_FRAMES = 64


def _tracker(
    rtfs: np.ndarray,
    rbar: np.ndarray | None,
    lam,
    epsilon: float,
    states: np.ndarray,
    gamma: np.ndarray,
    arena: _Arena,
) -> None:
    """Coherence of a block of frames with a tracker, written into
    ``gamma``, and its states, written into ``states``: pair-major, the
    (n, M - 1, F) ``rtfs`` and the (n + 1, M - 1, F) stack.

    ``lam`` is a scalar or one row per frame.  ``states[0]`` is the state
    before the block and ``states[i + 1]`` the state after frame ``i``;
    each frame is scored against the state before it by ``coherence``'s
    unchecked path (the engine has already rejected non-finite spectra),
    in tiles on ``arena`` (``_score``).  ``rbar`` is None before the
    first frame: the tracker opens on that frame's vector, which is then
    blended in like any other, and its coherence is 1 by definition (the
    vector is compared with itself), not the rounded dot product.
    """
    # gamma is scored after the blend: until then it is the blend's spare
    blend = _Blend(rtfs, rbar, lam, states, spare=gamma)
    for i in range(len(rtfs)):
        blend.step(i)
    del blend
    _score(rtfs, states, gamma, epsilon, arena)
    if rbar is None:
        gamma[0] = 1.0


def _tile_budget(frames: int, num_bins: int, pairs: int) -> int:
    """The scratch budget of the arena of an engine whose first block
    holds ``frames`` frames: the two float64 planes of a scoring tile of
    half those frames (32 of a full block) of (M - 1, F) entries, at most
    ``signal_core._TILE_BYTES``.  So the arena holds no more than that
    tile, but for the RTFs of windows wider than a tile
    (``_block_whitened_rtf``).  A budget of the whole block's scoring ran
    no faster and peaked higher."""
    return min(signal_core._TILE_BYTES, 16 * -(-frames // 2) * num_bins * pairs)


def _tile_frames(entries: np.ndarray, arena: _Arena) -> int:
    """Frames of pair-major (n, M - 1, F) ``entries`` per tile whose two
    float64 planes fit ``arena``'s budget."""
    return max(1, min(len(entries), arena.budget // (16 * entries[0].size)))


def _score(
    rtfs: np.ndarray, states: np.ndarray, gamma: np.ndarray, epsilon: float, arena: _Arena
) -> None:
    """``gamma[i] = _similarity(rtfs[i], _unit_modulus(states[i])[0])``
    for each frame, in tiles of frames whose whitened parts, and their
    moduli before them, live in two planes of ``arena``; each frame is
    scored on its own, so any tiling gives its bytes."""
    tile = _tile_frames(rtfs, arena)
    white_re, white_im = arena.take(*[(tile,) + rtfs.shape[1:]] * 2)
    for a, b in _tiles(0, len(rtfs), tile):
        wr, wi = white_re[: b - a], white_im[: b - a]
        _unit_modulus(states[a:b], epsilon, (wr, wi), wr, wi)
        _correlate(rtfs[a:b], wr, wi, gamma[a:b], wr, wi, axis=1)


def _correlate_tiles(rtfs: np.ndarray, white: np.ndarray, gamma: np.ndarray, arena: _Arena) -> None:
    """``gamma[:] = _similarity(rtfs, white)`` for the pair-major (n, M - 1,
    F) ``rtfs`` and one whitened (M - 1, F) state, in tiles of frames
    whose products live in ``arena``."""
    tile = _tile_frames(rtfs, arena)
    prod, part = arena.take(*[(tile,) + rtfs.shape[1:]] * 2)
    for a, b in _tiles(0, len(rtfs), tile):
        _correlate(
            rtfs[a:b], white.real, white.imag, gamma[a:b], prod[: b - a], part[: b - a], axis=1
        )


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


def _overlaid(*layouts: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """One array per (shape, dtype) layout, all laid over the start of one
    byte buffer as long as the largest: for arrays that are never in use
    at the same time."""
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layouts]
    buffer = np.empty(max(sizes), dtype=np.uint8)
    return [
        buffer[:size].view(dtype).reshape(shape) for size, (shape, dtype) in zip(sizes, layouts)
    ]


class _WorkingSet:
    """The arrays one stream's blocks are computed in: the pair-major
    (n, M - 1, F) RTF entries and (n, F) low-energy flags, the (n + 1,
    M - 1, F) state stack that the local tracker and then the global one
    use, the block's rows by
    ``FrameBlock`` field name and, for ``stream_wav``, the (M, s, F)
    spectra of a block's span of frames and the (M, t) samples they are
    transformed from.

    The samples are read only by the STFT and the RTF entries written
    only after it, so the two share their memory (``_overlaid``), as do
    the spectra, which only the RTFs read, and the stack, written after
    them.  A ``FrameBlock``'s arrays are views of these arrays, and every
    view holds a reference to the buffer that owns its memory (a block's
    ``rtf`` and ``global_rbar`` are (n, F, M - 1) transposed views of the
    entries and the stack), so ``free``
    (``sys.getrefcount`` of each owner, against its count when nothing but
    the working set held it) says whether any view of the previous block
    is still alive outside the engine.
    """

    def __init__(
        self,
        frames: int,
        num_bins: int,
        num_mics: int,
        rows: dict[str, int],
        span_frames: int = 0,
        span_samples: int = 0,
    ) -> None:
        entries = (frames, num_mics - 1, num_bins)
        self.rtf, self.samples = _overlaid(
            (entries, np.complex128), ((num_mics, span_samples), np.float64)
        )
        self.spectra, self.states = _overlaid(
            ((num_mics, span_frames, num_bins), np.complex128),
            ((frames + 1,) + entries[1:], np.complex128),
        )
        self.low_energy = np.empty((frames, num_bins), dtype=bool)
        self.rows = {name: np.empty((frames, width)) for name, width in rows.items()}
        self.refs = self._counts()

    def _counts(self) -> list[int]:
        owners = [self.rtf.base, self.spectra.base, self.low_energy, *self.rows.values()]
        return [sys.getrefcount(owner) for owner in owners]

    def free(self) -> bool:
        return self._counts() == self.refs


class _Engine:
    """The feature engine's per-block body and the state it carries from
    one block to the next: both trackers' states, the whitened global
    state (kept while halted frames leave the state as is) and the
    previous mask row.  With ``cfg.erb_bands`` set it designs the
    filterbank for ``num_bins``-bin spectra at ``sample_rate``.

    It also owns the stream's memory: a ``_WorkingSet`` allocated at the
    first block and reused by every later one while no view of the
    previous block is alive (else a new one), and one scratch arena,
    which the STFT of ``stream_wav`` shares.  With
    ``span_frames`` and ``span_samples``, the working set also holds the
    spectra of a block's span of frames and its samples (``stream_wav``),
    which ``work`` hands out."""

    def __init__(
        self,
        cfg: CoherenceConfig,
        mask_feedback: MaskFeedback | None,
        num_bins: int,
        sample_rate: int = SAMPLE_RATE,
        span_frames: int = 0,
        span_samples: int = 0,
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
        self.arena: _Arena | None = None
        self.working_set: _WorkingSet | None = None
        self.span = (span_frames, span_samples)
        # the working set's rows, by FrameBlock field name, and their widths
        names = ["gamma_local", "gamma_global", "lambda_trace"]
        if cfg.apply_arcsine:
            names[2:2] = ["gamma_local_warped", "gamma_global_warped"]
        self.rows = dict.fromkeys(names, num_bins)
        if self.filterbank is not None:
            self.rows.update(
                {"banded_" + name: cfg.erb_bands for _, name in _EXPORT_PLANES if name in names}
            )
        if mask_feedback is not None:
            self.rows.update(mask=num_bins, magnitudes=num_bins)

    def work(self, num_mics: int, num_bins: int, count: int) -> _WorkingSet:
        """The working set for the next block, of ``count`` frames, at
        most the first block's: the previous block's if it is free."""
        if self.arena is None:
            self.arena = _Arena(_tile_budget(count, num_bins, num_mics - 1))
        if self.working_set is None or not self.working_set.free():
            self.working_set = _WorkingSet(count, num_bins, num_mics, self.rows, *self.span)
        return self.working_set

    def block(
        self,
        tensor: np.ndarray,
        start: int,
        stop: int,
        first: int = 0,
        work: _WorkingSet | None = None,
    ) -> FrameBlock:
        """The ``FrameBlock`` of clip frames ``[start, stop)``, the next
        ones after the blocks before it.

        ``tensor`` holds clip frames from ``first`` on, with ``first`` at
        most ``max(0, start - R)``; it ends at the end of the clip or at
        least ``R`` frames past ``stop``, so every short-term window is
        truncated where the clip's own is.  ``work`` is the working set
        that ``work`` returned for this block, when ``tensor`` is its
        spectra; else the block asks for one.
        """
        cfg, steered = self.cfg, self.steered
        begin, end = start - first, stop - first
        count = stop - start
        if work is None:
            num_mics, _, num_bins = tensor.shape
            work = self.work(num_mics, num_bins, count)
        arena = self.arena
        rows = {name: plane[:count] for name, plane in work.rows.items()}
        rows.setdefault("gamma_local_warped", None)
        rows.setdefault("gamma_global_warped", None)
        gamma_local, gamma_global, lam = (
            rows["gamma_local"], rows["gamma_global"], rows["lambda_trace"]
        )
        states = work.states[: count + 1]
        # Feed-forward stage: nothing here reads the mask.  Nothing after
        # it reads the spectra, which the stack may overwrite.
        rtf, low_energy = _block_whitened_rtf(
            tensor, begin, end, cfg, arena, work.rtf[:count], work.low_energy[:count]
        )
        if self.mask_feedback is not None:
            magnitudes = np.abs(tensor[0, begin:end], out=rows["magnitudes"])
        _tracker(rtf, self.local_rbar, cfg.lambda_local, cfg.epsilon, states, gamma_local, arena)
        # the local states are dead once scored: the global tracker's
        # states overwrite them
        self.local_rbar = states[-1].copy()
        # lambda of every frame that no mask halts
        if cfg.time_varying:
            _released_lambda(gamma_local, out=lam)
        else:
            lam.fill(cfg.lambda_global)
        if steered:
            blend = _Blend(rtf, self.global_rbar, lam, states, spare=gamma_global)
        else:
            # lstsc-1's scalar spares _Blend the (n, F) rows
            global_lam = lam if cfg.time_varying else cfg.lambda_global
            _tracker(rtf, self.global_rbar, global_lam, cfg.epsilon, states, gamma_global, arena)
        gamma_local_w, gamma_global_w = rows["gamma_local_warped"], rows["gamma_global_warped"]
        if cfg.apply_arcsine:
            _warp(gamma_local, out=gamma_local_w)
            if not steered:
                _warp(gamma_global, out=gamma_global_w)
        halted = np.zeros(count, dtype=bool)
        mask = None

        if self.mask_feedback is not None:
            # Sequential stage: everything downstream of the mask feedback.
            local_feat, global_feat = (
                (gamma_local_w, gamma_global_w) if cfg.apply_arcsine else (gamma_local, gamma_global)
            )
            mask = rows["mask"]
            # Rows [i, scored) of gamma_global were scored against the
            # state before frame i; a row stays valid while the frames
            # before it in its batch are halted, which leave the state as
            # is.  A released frame discards the rows after it.  Batches
            # grow 1, 1, 2, 4, ... (the rows scored since the last
            # release or the block's start), so strictly alternating
            # halts score no row twice.
            scored = run = 0
            for i in range(count):
                if steered:
                    if i == scored:
                        if start + i == 0:
                            gamma_global[0] = 1.0
                            scored = 1
                        else:
                            scored = min(count, i + max(1, run))
                            if self.global_white is None:
                                self.global_white = _unit_modulus(states[i], cfg.epsilon)[0]
                            _correlate_tiles(
                                rtf[i:scored], self.global_white, gamma_global[i:scored], arena
                            )
                        if cfg.apply_arcsine:
                            _warp(gamma_global[i:scored], out=gamma_global_w[i:scored])
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
            rtf=rtf.transpose(0, 2, 1),
            low_energy=low_energy,
            gamma_local=gamma_local,
            gamma_global=gamma_global,
            gamma_local_warped=gamma_local_w,
            gamma_global_warped=gamma_global_w,
            lambda_trace=lam,
            mask_halted=halted,
            mask=mask,
            global_rbar=states[1:].transpose(0, 2, 1),
        )
        if self.filterbank is not None:
            # warp first, pool second
            for _, name in _EXPORT_PLANES:
                plane = getattr(block, name)
                if plane is not None:
                    banded = _pool(plane, self.filterbank, out=rows["banded_" + name])
                    setattr(block, "banded_" + name, banded)
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
    tracker it steers, scoring halted runs in batches.  The kernels run
    on the calling thread, in tiles on the stream's one scratch arena.

    A block's arrays are views of the stream's working set, which the
    first block allocates.  The next block reuses it when no view of the
    previous block is alive anywhere (the consumer dropped the block and
    every array it took from it), as ``compute_lstsc`` and
    ``write_feature_blocks`` do; otherwise it gets a new one, so blocks
    kept in a list, or a row kept across the next block, keep their
    bytes.
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
    ``[max(0, start - R), min(L, stop + R))`` are read into the stream's
    working set, over its RTF entries, and transformed into its (M,
    min(L, 64 + 2R), F) spectra, which the trackers' state stack overlays
    once the RTFs have read them.  A frame's spectrum does not depend on the
    frames transformed with it, so the blocks are bit for bit those of
    ``stream_frames`` on the whole clip's ``stft_multichannel``.  The
    stream holds its working set and one scratch arena: O(64 + 2R)
    frames, whatever the clip's length, allocated at the first block and
    reused by every later one while no view of the previous block is
    alive (see ``stream_frames``).  ``R`` has no upper bound; an ``R`` of
    the clip's length makes every block read and transform the whole clip
    again.  The STFT and the engine's kernels run on the calling thread.
    A reader not at 16 kHz, of fewer than 2 channels or of less than one
    frame of samples raises ValueError here, before any block; spectra that overflow are rejected by the block that reads
    them, naming the first bad entry (the reader has rejected non-finite
    samples).
    """
    _check_pipeline_rate(reader.sample_rate)
    if reader.num_channels < 2:
        raise ValueError("spatial coherence requires at least 2 microphones")
    stft_cfg = StftConfig()
    num_frames = stft_cfg.num_frames(reader.num_samples)
    span_frames = min(num_frames, _BLOCK_FRAMES + 2 * cfg.R)
    span_samples = (span_frames - 1) * stft_cfg.hop + stft_cfg.frame_len
    engine = _Engine(cfg, None, stft_cfg.num_bins, SAMPLE_RATE, span_frames, span_samples)

    def block(start: int) -> FrameBlock:
        # no local outlives the call: a reference to the working set left
        # here would keep the next block from reusing it
        stop = min(start + _BLOCK_FRAMES, num_frames)
        first, end = max(0, start - cfg.R), min(num_frames, stop + cfg.R)
        work = engine.work(reader.num_channels, stft_cfg.num_bins, stop - start)
        span = work.spectra[:, : end - first]
        samples = reader.read(
            first * stft_cfg.hop, (end - 1) * stft_cfg.hop + stft_cfg.frame_len, work.samples
        )
        _stft_channels(samples, stft_cfg, span, engine.arena, 0, end - first)
        _reject_non_finite(span, first)
        return engine.block(span, start, stop, first, work)

    def blocks() -> Iterator[FrameBlock]:
        for start in range(0, num_frames, _BLOCK_FRAMES):
            yield block(start)

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
    global tracker state after each frame, transposed views of the
    engine's pair-major (n, M-1, F) arrays.

    A frame flagged in ``mask_halted`` had its previous feedback mask
    freeze the global tracker; its state row equals the one before it bit
    for bit and its ``lambda_trace`` row is all ones.  With ``erb_bands``
    set, the ``banded_*`` fields are the block's rows of the exported
    planes pooled into bands, one product per plane.

    The arrays (all but ``mask_halted``) are views of the stream's working
    set: the stream overwrites them with the next block only if no view
    of this block is alive by then, and else gives the next block new
    ones (``stream_frames``).
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
    ``cfg.erb_bands``.  Each block is dropped before the next is asked
    for, so the stream reuses one working set.
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
            del rows
        for name, plane in planes.items():
            plane[block.frames] = getattr(block, name)
        # a view of the block left alive would keep the next block from
        # reusing the stream's working set
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


def _exported_names(cfg: CoherenceConfig) -> list[str]:
    """The export names of the planes a ``cfg`` stream writes, in file
    order: the warped global plane only where warping is on."""
    return [name for name, attr in _EXPORT_PLANES
            if cfg.apply_arcsine or attr != "gamma_global_warped"]


def _csv_path(path: Path, name: str) -> Path:
    """The CSV file of the exported plane ``name`` beside the feature file
    ``path``: ``<stem>.<name>.csv``."""
    return path.with_name(f"{path.stem}.{name}.csv")


def write_features(path: str | Path, features: LstscFeatures) -> None:
    """Binary feature export: ``write_feature_blocks`` of the whole clip.

    Layout (little-endian): magic ``LSTS``, u32 version, u32 L, u32 K
    (bins or bands), u32 plane count, then each plane as row-major
    float32.  Plane order: gamma_local, gamma_global, gamma_global_warped
    (when warping is enabled), lambda trace.
    """
    write_feature_blocks(path, features.num_frames, [features])


def write_feature_blocks(
    path: str | Path, num_frames: int, blocks: Iterable[LstscFeatures], csv: bool = False
) -> tuple[int | None, list[Path]]:
    """Write a clip's exported planes a block of frames at a time.

    A block is an ``LstscFeatures``: a ``FrameBlock`` of ``stream_frames``
    or ``stream_wav``, or a whole clip's features (``write_features``).
    The binary file at ``path`` gets the layout ``write_features``
    documents.  With ``csv``, each plane also goes to
    ``<stem>.<plane>.csv`` next to ``path``, whatever its suffix, named
    ``gamma_local``, ``gamma_global``, ``gamma_global_warped`` or
    ``lambda``, with the bytes ``write_plane_csv`` writes for the whole
    plane.  The header is written from ``num_frames`` and the first
    block's width when that block arrives.  Each block's exported rows
    (banded when the engine pools them) go as float32 to their offsets in
    every plane as the block arrives, so no whole plane is held, and
    dropped before the next one is asked for (``stream_frames``).  A block
    out of order, or whose planes are not all (its frames, the width),
    raises before any of its rows is written.  If ``blocks`` raises, ends
    short of ``num_frames`` frames, or a file cannot be opened, the files
    opened so far are removed.  Returns the width and the files written,
    the binary one first.
    """
    path = Path(path)
    width = None
    paths: list[Path] = []
    files: list = []
    written = 0
    complete = False
    try:
        for block in blocks:
            frames = block.frames
            if frames.start != written or frames.stop > num_frames:
                raise ValueError(
                    f"expected the block at frame {written} of {num_frames}, "
                    f"got frames {frames.start} to {frames.stop}"
                )
            named = _export_planes(block)
            # no view of the block may outlive this iteration, neither the
            # block nor the names below: the stream then reuses its
            # working set for the next block
            del block
            if width is None:
                width = named[0][1].shape[-1]
            if any(rows.shape != (frames.stop - frames.start, width) for _, rows in named):
                raise ValueError("feature planes disagree on shape")
            if not files:
                targets = [path]
                if csv:
                    targets += [_csv_path(path, name) for name, _ in named]
                for target in targets:
                    files.append(open(target, "wb"))
                    paths.append(target)
                files[0].write(
                    _LSTS_MAGIC + struct.pack("<IIII", _LSTS_VERSION, num_frames, width, len(named))
                )
            for index, (_, rows) in enumerate(named):
                files[0].seek(_LSTS_HEADER_BYTES + 4 * width * (index * num_frames + frames.start))
                files[0].write(np.ascontiguousarray(rows, dtype="<f4").tobytes())
            for fh, (_, rows) in zip(files[1:], named):
                fh.write(_csv_block(rows))
            del named, rows
            written = frames.stop
        if written != num_frames:
            raise ValueError(f"the feature file holds {num_frames} frames, {written} were written")
        complete = True
    finally:
        for fh in files:
            fh.close()
        if not complete:
            for target in paths:
                target.unlink(missing_ok=True)
    return width, paths


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
