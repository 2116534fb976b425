"""Reference image-source enumeration for one source/microphone pair.

This is the simulator's original per-pair implementation, kept verbatim:
it rebuilds the full (N, 3) image lattice for every pair and keeps the
images that land with one ``bincount`` per parity.  ``lstsc.roomsim``
enumerates per source, visits only the images inside each microphone's
delay ball, in blocks, and adds them with ``np.add.at`` in this lattice
order; it must reproduce these taps byte for byte.

The reference holds the whole lattice at once, so its cost grows with
the cube of the duration: a 6 x 5 x 3 m room at 0.853 s (a scene's
response) takes about 0.45 s and 47 MB of traced memory, and the
1.6 s of a T60 0.7 calibration probe 3.5 s and 292 MB.
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
