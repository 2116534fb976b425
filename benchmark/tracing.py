"""In-memory spans around the lstsc package's public calls.

The tracer wraps a fixed list of public functions (and the default mask
estimator's ``__call__``) by rebinding every module attribute of the
loaded ``lstsc`` modules that refers to them, so calls made inside the
package, such as ``enhance_stream`` calling ``istft``, are recorded too.
Nothing in the package changes; ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the
index of the enclosing span (or None), ``op`` is the (round, kind) of the
benchmark operation that was running, and ``counts`` holds values read
from the call's arguments and result at the same boundary.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np

NAME, START, END, PARENT, OP, COUNTS = range(6)


def _lstsc_counts(args, kwargs, result) -> dict:
    return {
        "frames": int(result.mask_halted.shape[0]),
        "halted": int(np.count_nonzero(result.mask_halted)),
        "low_energy": float(np.mean(result.low_energy)),
    }


def _mix_counts(args, kwargs, result) -> dict:
    stems = kwargs["stems"] if "stems" in kwargs else args[1]
    pairs = sum(len(rirs) for rirs in result.rirs.values())
    useful = sum(
        len(rirs) for role, rirs in result.rirs.items() if np.any(stems[role])
    )
    return {"rir_pairs": pairs, "rir_useful": useful}


def _stft_counts(args, kwargs, result) -> dict:
    return {"bytes": int(result.nbytes)}


# (module, attribute, count extractor); "Class.method" names a method.
TARGETS = (
    ("signal_core", "load_wav", None),
    ("signal_core", "save_wav", None),
    ("signal_core", "stft_multichannel", _stft_counts),
    ("signal_core", "istft", None),
    ("coherence", "short_term_whitened_rtf", None),
    ("coherence", "stream_frames", None),
    ("coherence", "compute_lstsc", _lstsc_counts),
    ("coherence", "write_features", None),
    ("erb", "design_filterbank", None),
    ("erb", "pool_feature", None),
    ("enhance", "enhance_stream", None),
    ("enhance", "HeuristicMaskEstimator.__call__", None),
    ("roomsim", "simulate_rir", None),
    ("roomsim", "mix_scene", _mix_counts),
    ("scenarios", "build_sifting_scenario", None),
    ("scenarios", "intermittent_speech", None),
    ("scenarios", "stationary_noise", None),
    ("scenarios", "frame_coverage", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: tuple | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, count):
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumer time between frames is
            # not charged to the generator
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                frames = fn(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        item = next(frames)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][COUNTS] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every reference to a traced function in loaded lstsc modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lstsc" or n.startswith("lstsc.")]
        for module_name, attr, count in TARGETS:
            owner = sys.modules[f"lstsc.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(f"{module_name}.{cls_name}", original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()


def _durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """Per-span duration and the time its direct children cover."""
    duration = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[PARENT] is not None:
            child[s[PARENT]] += d
    return duration, child


def layer_metrics(spans: list[list], round_index: int) -> dict[str, float]:
    """Per-layer figures of one traced round (times in ms)."""
    duration, child = _durations(spans)
    picked = [i for i, s in enumerate(spans) if s[OP] is not None and s[OP][0] == round_index]

    def select(name, kind=None):
        return [
            i for i in picked
            if spans[i][NAME] == name and (kind is None or spans[i][OP][1] == kind)
        ]

    def total(name, kind=None, own=False):
        return 1e3 * sum(duration[i] - (child[i] if own else 0.0) for i in select(name, kind))

    def counts(name, kind=None):
        return [spans[i][COUNTS] for i in select(name, kind)]

    lstsc_counts = counts("coherence.compute_lstsc")
    enhance_counts = counts("coherence.compute_lstsc", "enhance_l3")
    mixes = counts("roomsim.mix_scene")
    halted = sum(c["halted"] for c in enhance_counts)
    enhanced_frames = sum(c["frames"] for c in enhance_counts)
    pairs = sum(c["rir_pairs"] for c in mixes)
    return {
        "signal_core.stft_ms": total("signal_core.stft_multichannel"),
        "signal_core.istft_ms": total("signal_core.istft"),
        "signal_core.wav_io_ms": total("signal_core.load_wav") + total("signal_core.save_wav"),
        "signal_core.stft_bytes": max((c["bytes"] for c in counts("signal_core.stft_multichannel")), default=0),
        "coherence.rtf_ms": total("coherence.short_term_whitened_rtf"),
        "coherence.stream_l1_ms": total("coherence.stream_frames", "extract_l1"),
        "coherence.assemble_l4_ms": total("coherence.compute_lstsc", "extract_l4", own=True),
        "coherence.feedback_loop_ms": total("coherence.compute_lstsc", "enhance_l3")
        - total("enhance.HeuristicMaskEstimator", "enhance_l3"),
        "coherence.write_features_ms": total("coherence.write_features"),
        "coherence.frames": max((c["frames"] for c in lstsc_counts), default=0),
        "coherence.halted_frac": halted / enhanced_frames if enhanced_frames else 0.0,
        "coherence.low_energy_frac": float(np.mean([c["low_energy"] for c in lstsc_counts])) if lstsc_counts else 0.0,
        "erb.design_ms": total("erb.design_filterbank"),
        "erb.pool_ms": total("erb.pool_feature"),
        "enhance.estimator_ms": total("enhance.HeuristicMaskEstimator"),
        "enhance.estimator_calls": len(select("enhance.HeuristicMaskEstimator")),
        "roomsim.rir_ms": total("roomsim.simulate_rir", "scene"),
        "roomsim.rir_pairs": len(select("roomsim.simulate_rir", "scene")),
        "roomsim.rir_useful_frac": sum(c["rir_useful"] for c in mixes) / pairs if pairs else 0.0,
        "roomsim.mix_ms": total("roomsim.mix_scene", "scene", own=True),
        "scenarios.stems_ms": total("scenarios.intermittent_speech", "scene")
        + total("scenarios.stationary_noise", "scene"),
        "scenarios.label_ms": total("scenarios.frame_coverage", "scene"),
        "cli.self_ms": total("cli.main", own=True),
    }


def calibrate_ms(spans: list[list]) -> float:
    """Duration of the first simulate_rir call, which calibrates the walls."""
    for s in spans:
        if s[NAME] == "roomsim.simulate_rir":
            return 1e3 * (s[END] - s[START])
    return 0.0
