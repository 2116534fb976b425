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
import struct
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .erb import ErbFilterbank, design_filterbank, pool_feature

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
    "compute_lstsc",
    "write_features",
    "read_features",
    "export_features_csv",
]

# Named presets: (time-varying global forgetting factor, arcsine warp, bands)
VARIANT_SETTINGS: dict[str, dict] = {
    "lstsc-1": {"time_varying": False, "apply_arcsine": False, "erb_bands": None},
    "lstsc-2": {"time_varying": True, "apply_arcsine": False, "erb_bands": None},
    "lstsc-3": {"time_varying": True, "apply_arcsine": True, "erb_bands": None},
    "lstsc-4": {"time_varying": True, "apply_arcsine": True, "erb_bands": 48},
}

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
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.epsilon <= 0.0:
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


def _as_spec_tensor(specs, scan: bool = True) -> np.ndarray:
    """``specs`` as an (M, L, F) array with M >= 2 and, when ``scan`` is
    set, finite entries; ``compute_lstsc`` leaves the scan to the engine."""
    tensor = np.asarray(specs)
    if tensor.ndim != 3:
        raise ValueError("expected per-channel spectrograms stacked as (M, L, F)")
    if tensor.shape[0] < 2:
        raise ValueError("spatial coherence requires at least 2 microphones")
    if scan:
        # the sum is finite for all-finite spectra short of overflow; only
        # then is the allocating scan needed
        with np.errstate(over="ignore", invalid="ignore"):
            total = tensor.sum()
        if not np.isfinite(total):
            bad = np.argwhere(~np.isfinite(tensor))
            if bad.size:
                channel, frame, bin_ = bad[0]
                raise ValueError(
                    f"non-finite spectrum entry at channel {channel}, frame {frame}, bin {bin_}"
                )
    return tensor


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
    entries, low_energy = _block_whitened_rtf(tensor, frame, frame + 1, cfg)
    return entries[0], low_energy[0]


def _block_whitened_rtf(
    tensor: np.ndarray, start: int, stop: int, cfg: CoherenceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``short_term_whitened_rtf`` of frames ``[start, stop)`` at once:
    entries (n, F, M-1) and low-energy flags (n, F)."""
    num_mics, num_frames, num_bins = tensor.shape
    count = stop - start
    lo = max(0, start - cfg.R)
    span = tensor[:, lo : min(num_frames, stop + cfg.R), :]
    # (destination frames, source frames) per window offset, in window
    # order; a window truncated at a clip edge skips its missing offsets
    windows = []
    for offset in range(-cfg.R, cfg.R + 1):
        first, last = max(start, -offset), min(stop, num_frames - offset)
        if first < last:
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
    # contract and drift by an ulp.  The ratio is laid out (n, F, M-1)
    # and filled through (M-1, n, F) views of its parts.
    ratio = np.empty((count, num_bins, num_mics - 1), dtype=np.complex128)
    np.divide(
        window_sums(oth_re * ref_re + oth_im * ref_im),
        safe_auto,
        out=ratio.real.transpose(2, 0, 1),
    )
    np.divide(
        window_sums(oth_im * ref_re - oth_re * ref_im),
        safe_auto,
        out=ratio.imag.transpose(2, 0, 1),
    )
    entries, flagged = whiten(ratio, cfg.epsilon)
    entries[low_ref] = 1.0
    return entries, low_ref | flagged


def whiten(vectors: np.ndarray, epsilon: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each complex entry to unit modulus.

    Entries with modulus at or below ``epsilon`` become ``1 + 0j`` and the
    owning row is flagged.  Returns ``(whitened, flagged_rows)``.
    """
    whitened, degenerate = _unit_modulus(vectors, epsilon)
    flagged = degenerate.any(axis=-1) if whitened.ndim > 1 else bool(degenerate.any())
    return whitened, flagged


def _unit_modulus(vectors: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """``whiten`` without the row flags; returns the per-entry degenerate mask."""
    vectors = np.asarray(vectors, dtype=np.complex128)
    modulus = np.hypot(vectors.real, vectors.imag)
    degenerate = modulus <= epsilon
    live = ~degenerate
    whitened = np.ones_like(vectors)
    np.divide(vectors.real, modulus, out=whitened.real, where=live)
    np.divide(vectors.imag, modulus, out=whitened.imag, where=live)
    return whitened, degenerate


def coherence(r: np.ndarray, rbar: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Sign-sensitive coherence of a whitened RTF with a tracker state.

    ``r`` is a whitened (unit-modulus) vector along the last axis and
    ``rbar`` the tracker's recursive average, which is whitened here
    (``whiten(rbar, epsilon)``, minus the row flags it has no use for).
    Returns ``clip(Re{r^H whiten(rbar)} / (M - 1), -1, 1)`` per row.
    """
    return _similarity(np.asarray(r, dtype=np.complex128), _unit_modulus(rbar, epsilon)[0])


def _similarity(r: np.ndarray, rbar_white: np.ndarray) -> np.ndarray:
    """``coherence`` against a state that is already whitened."""
    num = (r.real * rbar_white.real + r.imag * rbar_white.imag).sum(axis=-1)
    return np.clip(num / r.shape[-1], -1.0, 1.0)


def _blend(rbar: np.ndarray, r: np.ndarray, lam) -> np.ndarray:
    """One tracker update: the convex recursion ``lam * rbar + (1 - lam) * r``
    with the endpoints ``lam == 1`` (state kept) and ``lam == 0`` (state
    replaced) exact.  ``lam`` is a scalar or one value per row."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim == 0 and 0.0 < lam < 1.0:
        return lam * rbar + (1.0 - lam) * r
    if lam.size and (lam.min() < 0.0 or lam.max() > 1.0):
        raise ValueError("forgetting factor must lie in [0, 1]")
    if lam.ndim == 1:
        lam = lam[:, np.newaxis]
    return np.where(
        lam == 1.0, rbar, np.where(lam == 0.0, r, lam * rbar + (1.0 - lam) * r)
    )


def _mask_is_energetic(prev_mask_row: np.ndarray | None, beta: float) -> bool:
    if prev_mask_row is None:
        return False
    return float(np.mean(np.square(prev_mask_row))) > beta


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
    clipped = np.clip(gamma, -1.0, 1.0)
    return np.arcsin(clipped) / (0.5 * np.pi)


@dataclasses.dataclass
class FrameBlock:
    """Everything the streaming engine produced for a block of frames.

    The block holds clip frames ``start`` onward, one row per frame on the
    leading axis of every field; the field names are those of
    ``LstscFeatures``.  ``rtf`` and ``global_rbar`` are (n, F, M-1): the
    whitened RTFs and the global tracker state after each frame.
    ``mask_halted`` flags the frames whose previous feedback mask froze
    the global tracker; such a frame's state row equals the one before it
    bit for bit and its ``lambda_trace`` row is all ones.
    """

    start: int
    rtf: np.ndarray
    low_energy: np.ndarray
    gamma_local: np.ndarray
    gamma_global: np.ndarray
    gamma_local_warped: np.ndarray | None
    gamma_global_warped: np.ndarray | None
    lambda_trace: np.ndarray
    mask_halted: np.ndarray
    mask: np.ndarray | None
    global_rbar: np.ndarray

    @property
    def frames(self) -> slice:
        """The clip frames of this block."""
        return slice(self.start, self.start + len(self.mask_halted))


MaskFeedback = Callable[
    [np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None],
    np.ndarray,
]

# Frames per feed-forward block: enough to amortize numpy's per-call
# overhead, few enough that the block buffers stay a few MB at 8 mics.
_BLOCK_FRAMES = 64


def _tracker(
    rtfs: np.ndarray, rbar: np.ndarray | None, lam, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Coherence of a block of frames with a tracker, and its states.

    ``lam`` is a scalar or one row per frame.  ``states[0]`` is the state
    before the block and ``states[i + 1]`` the state after frame ``i``;
    each frame is scored against the state before it, all in one
    ``coherence`` call.  ``rbar`` is None before the first frame: the
    tracker opens on that frame's vector, which is then blended in like
    any other, and its coherence is 1 by definition (the vector is
    compared with itself), not the rounded dot product.
    """
    states = _open_states(rtfs, rbar)
    rows = np.ndim(lam) > 0
    for i, rtf in enumerate(rtfs):
        states[i + 1] = _blend(states[i], rtf, lam[i] if rows else lam)
    gamma = coherence(rtfs, states[:-1], epsilon)
    if rbar is None:
        gamma[0] = 1.0
    return gamma, states


def _open_states(rtfs: np.ndarray, rbar: np.ndarray | None) -> np.ndarray:
    """A tracker's state stack for a block, ``states[0]`` filled in."""
    states = np.empty((len(rtfs) + 1,) + rtfs.shape[1:], dtype=rtfs.dtype)
    states[0] = rtfs[0] if rbar is None else rbar
    return states


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
    if not np.all(np.isfinite(mask_row)) or mask_row.min() < 0.0 or mask_row.max() > 1.0:
        raise ValueError("mask estimator returned values outside [0, 1]")
    return mask_row


def stream_frames(
    specs,
    cfg: CoherenceConfig,
    mask_feedback: MaskFeedback | None = None,
    sample_rate: int = 16000,
    filterbank: ErbFilterbank | None = None,
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
    short-term average.  Non-finite spectra are rejected.

    Only the time-varying schedule reads the mask, so everything else runs
    once per block (the feed-forward stage): the RTFs, the local tracker
    and its coherence, the mask-free lambda rows and, unless an estimator
    steers it, the global tracker and its coherence.  With an estimator,
    a loop over the block's frames then calls it and runs the global
    tracker it steers.
    """
    tensor = _as_spec_tensor(specs)
    num_frames = tensor.shape[1]

    if filterbank is None and cfg.erb_bands is not None:
        fft_size = 2 * (tensor.shape[2] - 1)
        filterbank = design_filterbank(sample_rate, fft_size, cfg.erb_bands)

    steered = cfg.time_varying and mask_feedback is not None
    local_rbar: np.ndarray | None = None
    global_rbar: np.ndarray | None = None
    # whiten(global_rbar), kept while halted frames leave the state as is
    global_white: np.ndarray | None = None
    prev_mask: np.ndarray | None = None

    for start in range(0, num_frames, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, num_frames)
        # Feed-forward stage: nothing here reads the mask.
        rtf, low_energy = _block_whitened_rtf(tensor, start, stop, cfg)
        gamma_local, local_states = _tracker(rtf, local_rbar, cfg.lambda_local, cfg.epsilon)
        local_rbar = local_states[-1].copy()
        del local_states
        # lambda of every frame that no mask halts
        if cfg.time_varying:
            lam = lambda_schedule(None, gamma_local, cfg)
        else:
            lam = np.full(gamma_local.shape, cfg.lambda_global)
        if steered:
            gamma_global, states = np.empty_like(gamma_local), _open_states(rtf, global_rbar)
        else:
            # lstsc-1's scalar keeps _blend's fast path
            global_lam = lam if cfg.time_varying else cfg.lambda_global
            gamma_global, states = _tracker(rtf, global_rbar, global_lam, cfg.epsilon)
        gamma_local_w = gamma_global_w = None
        if cfg.apply_arcsine:
            gamma_local_w = arcsine_warp(gamma_local)
            gamma_global_w = np.empty_like(gamma_global) if steered else arcsine_warp(gamma_global)
        halted = np.zeros(stop - start, dtype=bool)
        mask = magnitudes = None
        local_feat, global_feat = (
            (gamma_local_w, gamma_global_w) if cfg.apply_arcsine else (gamma_local, gamma_global)
        )

        if mask_feedback is not None:
            # Sequential stage: everything downstream of the mask feedback.
            mask = np.empty_like(gamma_local)
            magnitudes = np.abs(tensor[0, start:stop])
            for i in range(stop - start):
                if steered:
                    halted[i] = _mask_is_energetic(prev_mask, cfg.beta)
                    if start + i == 0:
                        gamma_global[i] = 1.0
                    else:
                        if global_white is None:
                            global_white = _unit_modulus(states[i], cfg.epsilon)[0]
                        gamma_global[i] = _similarity(rtf[i], global_white)
                    if halted[i]:
                        # the state is reused untouched (bit-identical)
                        states[i + 1] = states[i]
                        lam[i] = 1.0
                    else:
                        states[i + 1] = _blend(states[i], rtf[i], lam[i])
                        global_white = None
                    if cfg.apply_arcsine:
                        gamma_global_w[i] = arcsine_warp(gamma_global[i])
                mask[i] = prev_mask = _estimate_mask(
                    mask_feedback, magnitudes[i], local_feat[i], global_feat[i], filterbank
                )

        global_rbar = states[-1].copy()
        yield FrameBlock(
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
        # free this block's buffers before the next block allocates its own
        del rtf, low_energy, gamma_local, gamma_global, gamma_local_w, gamma_global_w
        del lam, halted, mask, states, magnitudes, local_feat, global_feat


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
    banded_gamma_local: np.ndarray | None
    banded_gamma_global: np.ndarray | None
    banded_gamma_global_warped: np.ndarray | None
    banded_lambda_trace: np.ndarray | None

    @property
    def num_frames(self) -> int:
        return self.gamma_local.shape[0]

    @property
    def num_bins(self) -> int:
        return self.gamma_local.shape[1]


def compute_lstsc(
    specs,
    cfg: CoherenceConfig,
    mask_feedback: MaskFeedback | None = None,
    sample_rate: int = 16000,
) -> LstscFeatures:
    """Run the streaming engine over a whole clip and collect the outputs.

    Each plane is allocated once and filled a block of rows at a time;
    the warped planes exist only with ``cfg.apply_arcsine`` and the mask
    only with ``mask_feedback``.  With ``cfg.erb_bands`` set, banded
    (L, B) planes are added alongside.
    """
    tensor = _as_spec_tensor(specs, scan=False)  # stream_frames scans it
    _, num_frames, num_bins = tensor.shape
    filterbank = None
    if cfg.erb_bands is not None:
        filterbank = design_filterbank(sample_rate, 2 * (num_bins - 1), cfg.erb_bands)

    names = ["gamma_local", "gamma_global", "lambda_trace", "low_energy"]
    if cfg.apply_arcsine:
        names += ["gamma_local_warped", "gamma_global_warped"]
    if mask_feedback is not None:
        names.append("mask")
    planes = {
        name: np.empty((num_frames, num_bins), bool if name == "low_energy" else np.float64)
        for name in names
    }
    planes["mask_halted"] = np.empty(num_frames, dtype=bool)
    for block in stream_frames(
        tensor, cfg, mask_feedback, sample_rate=sample_rate, filterbank=filterbank
    ):
        for name, plane in planes.items():
            plane[block.frames] = getattr(block, name)
        # it would pin the block's buffers while the engine computes the next
        del block

    if filterbank is not None:
        # warp first, pool second
        for name in ("gamma_local", "gamma_global", "gamma_global_warped", "lambda_trace"):
            if name in planes:
                planes["banded_" + name] = pool_feature(planes[name], filterbank)
    # the planes a setting turns off stay None
    absent = dict.fromkeys(field.name for field in dataclasses.fields(LstscFeatures))
    return LstscFeatures(**{**absent, **planes})


# (exported name, LstscFeatures attribute), in file order; a plane that
# is None (the warped one when warping is off) is skipped.
_EXPORT_PLANES = (
    ("gamma_local", "gamma_local"),
    ("gamma_global", "gamma_global"),
    ("gamma_global_warped", "gamma_global_warped"),
    ("lambda", "lambda_trace"),
)


def _export_planes(features: LstscFeatures) -> list[tuple[str, np.ndarray]]:
    """Named planes for export, in documented order.

    ``gamma_local, gamma_global[, gamma_global_warped], lambda`` — 3 planes
    without warping, 4 with.  When the filterbank is enabled every plane is
    its banded counterpart (B-wide), with the warped plane pooled after
    warping.
    """
    prefix = "banded_" if features.banded_gamma_local is not None else ""
    planes = [(name, getattr(features, prefix + attr)) for name, attr in _EXPORT_PLANES]
    return [(name, plane) for name, plane in planes if plane is not None]


def write_features(path: str | Path, features: LstscFeatures) -> None:
    """Binary feature export.

    Layout (little-endian): magic ``LSTS``, u32 version, u32 L, u32 K
    (bins or bands), u32 plane count, then each plane as row-major
    float32.  Plane order: gamma_local, gamma_global, gamma_global_warped
    (when warping is enabled), lambda trace.
    """
    planes = [plane for _, plane in _export_planes(features)]
    frames, width = planes[0].shape
    with open(Path(path), "wb") as fh:
        fh.write(_LSTS_MAGIC)
        fh.write(struct.pack("<IIII", _LSTS_VERSION, frames, width, len(planes)))
        for plane in planes:
            if plane.shape != (frames, width):
                raise ValueError("feature planes disagree on shape")
            fh.write(np.ascontiguousarray(plane, dtype="<f4").tobytes())


def read_features(path: str | Path) -> dict:
    """Parse a binary feature file back into header fields and planes."""
    raw = Path(path).read_bytes()
    if raw[:4] != _LSTS_MAGIC:
        raise ValueError("not a feature file (bad magic)")
    if len(raw) < _LSTS_HEADER_BYTES:
        raise ValueError(
            f"feature file truncated: {len(raw)} bytes, header needs {_LSTS_HEADER_BYTES}"
        )
    version, frames, width, count = struct.unpack_from("<IIII", raw, 4)
    if version != _LSTS_VERSION:
        raise ValueError(f"unsupported feature file version {version}")
    expected = _LSTS_HEADER_BYTES + 4 * frames * width * count
    if len(raw) != expected:
        raise ValueError("feature file truncated or oversized")
    planes = []
    offset = _LSTS_HEADER_BYTES
    for _ in range(count):
        plane = np.frombuffer(raw, dtype="<f4", count=frames * width, offset=offset)
        planes.append(plane.reshape(frames, width).astype(np.float64))
        offset += 4 * frames * width
    return {
        "version": version,
        "num_frames": frames,
        "width": width,
        "num_planes": count,
        "planes": planes,
    }


def export_features_csv(base_path: str | Path, features: LstscFeatures) -> list[Path]:
    """Write one CSV per exported plane next to ``base_path``.

    ``base_path`` may carry any suffix; files are named
    ``<stem>.<plane>.csv`` in the same directory.  Returns written paths.
    """
    base = Path(base_path)
    stem = base.stem if base.suffix else base.name
    written = []
    for name, plane in _export_planes(features):
        out = base.with_name(f"{stem}.{name}.csv")
        np.savetxt(out, plane, delimiter=",", fmt="%.9e")
        written.append(out)
    return written
