"""Reference image-source enumeration for one source/microphone pair.

This is the simulator's original per-pair implementation, kept verbatim:
it rebuilds the full (N, 3) image lattice for every pair.  The separable
per-source enumeration in ``lstsc.roomsim`` must reproduce its taps byte
for byte.
"""
from __future__ import annotations

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s


def _image_source_taps(
    room_dims: np.ndarray,
    src: np.ndarray,
    mic: np.ndarray,
    fs: int,
    beta: float,
    duration: float,
) -> np.ndarray:
    """Vectorized image enumeration; returns the tap vector."""
    num_taps = int(round(duration * fs))
    max_dist = duration * SPEED_OF_SOUND
    counts = np.ceil(max_dist / (2.0 * room_dims)).astype(int)
    grids = [np.arange(-c, c + 1) for c in counts]
    nx, ny, nz = np.meshgrid(*grids, indexing="ij")
    orders = np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=1)

    taps = np.zeros(num_taps)
    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                parity = np.array([px, py, pz])
                pos = (1 - 2 * parity) * src + 2.0 * orders * room_dims
                dist = np.sqrt(((pos - mic) ** 2).sum(axis=1))
                reflections = (
                    np.abs(orders - parity).sum(axis=1) + np.abs(orders).sum(axis=1)
                )
                if beta == 0.0:
                    amplitude = np.where(reflections == 0, 1.0, 0.0)
                else:
                    amplitude = beta**reflections
                amplitude = amplitude / (4.0 * np.pi * np.maximum(dist, 1e-9))
                delay = np.round(dist / SPEED_OF_SOUND * fs).astype(int)
                keep = delay < num_taps
                taps += np.bincount(
                    delay[keep], weights=amplitude[keep], minlength=num_taps
                )
    return taps
