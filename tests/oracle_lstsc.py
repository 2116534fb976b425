"""Brute-force reference implementation of the coherence feature chain.

Pure-Python loops, no incremental state reuse and no shared code with the
streaming engine: every quantity is recomputed directly from its defining
formula.  Used to pin the engine's numerics.
"""
from __future__ import annotations

import math

import numpy as np


def _whiten_entry(value: complex, epsilon: float) -> tuple[complex, bool]:
    value = complex(value)
    # IEEE multiply, add and sqrt, the engine's definition; abs() would
    # round with the C library's hypot
    modulus = math.sqrt(value.real * value.real + value.imag * value.imag)
    if modulus <= epsilon:
        return 1.0 + 0.0j, True
    return complex(value.real / modulus, value.imag / modulus), False


def _short_term_rtf(specs, frame, R, epsilon):
    """(entries, low_energy) for one frame; entries is [F][M-1] lists."""
    num_channels = len(specs)
    num_frames = len(specs[0])
    num_bins = len(specs[0][0])
    lo = max(0, frame - R)
    hi = min(num_frames - 1, frame + R)
    entries = []
    low_energy = []
    for f in range(num_bins):
        den = 0.0
        for n in range(lo, hi + 1):
            ref = specs[0][n][f]
            den += ref.real * ref.real + ref.imag * ref.imag
        row = []
        flagged = den <= epsilon
        for m in range(1, num_channels):
            num_re = 0.0
            num_im = 0.0
            for n in range(lo, hi + 1):
                zm = specs[m][n][f]
                zr = specs[0][n][f]
                num_re += zm.real * zr.real + zm.imag * zr.imag
                num_im += zm.imag * zr.real - zm.real * zr.imag
            if den <= epsilon:
                row.append(1.0 + 0.0j)
            else:
                entry, bad = _whiten_entry(
                    complex(num_re / den, num_im / den), epsilon
                )
                row.append(entry)
                flagged = flagged or bad
        entries.append(row)
        low_energy.append(flagged)
    return entries, low_energy


def _coherence_whitened_form(r_vec, rbar_vec, epsilon):
    """Real inner product over (M-1) after whitening the tracker vector.

    Both operands carry unit-modulus entries (the short-term vector by
    construction, the tracker after whitening), so the norm product in
    the general definition reduces to M-1 exactly.
    """
    whitened = [_whiten_entry(v, epsilon)[0] for v in rbar_vec]
    inner = 0.0
    for rv, wv in zip(r_vec, whitened):
        inner += rv.real * wv.real + rv.imag * wv.imag
    value = inner / len(r_vec)
    return min(1.0, max(-1.0, value))


def oracle_lstsc(specs, R, lambda_local, lambda_global, time_varying, beta,
                 epsilon, apply_arcsine, mask_rows=None):
    """Direct transliteration of the feature recurrences.

    ``specs`` is (M, L, F) complex; ``mask_rows`` is an optional (L, F)
    list of feedback mask rows (row ``l`` plays the role of the estimate
    produced at frame ``l``, halting frame ``l + 1``).

    Returns dict with gamma_local, gamma_global, optional warped planes,
    and the applied lambda trace, all as (L, F) float arrays.
    """
    specs = [[list(frame) for frame in channel] for channel in np.asarray(specs)]
    num_channels = len(specs)
    num_frames = len(specs[0])
    num_bins = len(specs[0][0])

    gamma_local = [[0.0] * num_bins for _ in range(num_frames)]
    gamma_global = [[0.0] * num_bins for _ in range(num_frames)]
    lam_trace = [[0.0] * num_bins for _ in range(num_frames)]

    rtf = []
    for l in range(num_frames):
        entries, _ = _short_term_rtf(specs, l, R, epsilon)
        rtf.append(entries)

    local_state = [list(row) for row in rtf[0]]
    global_state = [list(row) for row in rtf[0]]

    for l in range(num_frames):
        r = rtf[l]
        for f in range(num_bins):
            # at the opening frame the trackers hold r itself: coherence is
            # exactly 1 by definition, not a numerical self-comparison
            if l == 0:
                gamma_local[l][f] = 1.0
            else:
                gamma_local[l][f] = _coherence_whitened_form(r[f], local_state[f], epsilon)

        if time_varying:
            halted = False
            if l > 0 and mask_rows is not None:
                mean_sq = sum(v * v for v in mask_rows[l - 1]) / num_bins
                halted = mean_sq > beta
            for f in range(num_bins):
                if halted:
                    lam_trace[l][f] = 1.0
                else:
                    raw = 1.0 - gamma_local[l][f] / 20.0
                    lam_trace[l][f] = min(1.0, max(0.95, raw))
        else:
            for f in range(num_bins):
                lam_trace[l][f] = lambda_global

        for f in range(num_bins):
            if l == 0:
                gamma_global[l][f] = 1.0
            else:
                gamma_global[l][f] = _coherence_whitened_form(r[f], global_state[f], epsilon)

        for f in range(num_bins):
            for m in range(num_channels - 1):
                local_state[f][m] = (
                    lambda_local * local_state[f][m]
                    + (1.0 - lambda_local) * r[f][m]
                )
                lam = lam_trace[l][f]
                global_state[f][m] = (
                    lam * global_state[f][m] + (1.0 - lam) * r[f][m]
                )

    result = {
        "gamma_local": np.array(gamma_local),
        "gamma_global": np.array(gamma_global),
        "lambda_trace": np.array(lam_trace),
    }
    if apply_arcsine:
        warp = lambda g: math.asin(min(1.0, max(-1.0, g))) / (0.5 * math.pi)
        result["gamma_local_warped"] = np.vectorize(warp)(result["gamma_local"])
        result["gamma_global_warped"] = np.vectorize(warp)(result["gamma_global"])
    return result


def oracle_short_term_rtf(specs, frame, R, epsilon):
    """Public wrapper returning numpy arrays (F, M-1) and (F,)."""
    entries, low = _short_term_rtf(
        [[list(fr) for fr in ch] for ch in np.asarray(specs)], frame, R, epsilon
    )
    return np.array(entries), np.array(low, dtype=bool)
