"""Rows run in two halves on two threads (``signal_core._in_halves``):
the helper's own contract, byte identity of every call site against the
plain single-call path, and a forked child's worker."""
from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_bytes
from lstsc import coherence, roomsim, signal_core
from lstsc.coherence import (
    VARIANT_SETTINGS,
    CoherenceConfig,
    FrameBlock,
    StreamingExtractor,
    compute_lstsc,
)
from lstsc.enhance import HeuristicMaskEstimator
from lstsc.roomsim import Rir, _image
from lstsc.signal_core import MultichannelAudio, StftConfig, _in_halves, stft_multichannel

STFT = StftConfig()
# frames on both sides of the engine's split threshold (8) and block (64)
FRAME_COUNTS = [1, 7, 8, 9, 63, 64, 65, 200]
# seconds any one call may take before the test counts it as hung
TIMEOUT = 20.0


def _plain(task, count, least):
    task(0, count)


@contextlib.contextmanager
def _path(kind: str):
    """Run the block inside on one path: ``plain`` replaces the helper by
    one ``task(0, count)`` call in every module that uses it, ``inline``
    takes the helper's one-CPU path and ``threads`` its two-thread path,
    whatever the host's CPU count."""
    modules = (signal_core, coherence, roomsim)
    saved = signal_core._CPUS, [module._in_halves for module in modules]
    try:
        if kind == "plain":
            for module in modules:
                module._in_halves = _plain
        else:
            signal_core._CPUS = 1 if kind == "inline" else 2
        yield
    finally:
        signal_core._CPUS = saved[0]
        for module, helper in zip(modules, saved[1]):
            module._in_halves = helper


def _on_each_path(run):
    """``run()`` on the plain path, then on the helper's inline and
    two-thread paths."""
    results = {}
    for kind in ("plain", "inline", "threads"):
        with _path(kind):
            results[kind] = run()
    return results


def _assert_same(results, fields):
    want = results["plain"]
    for kind in ("inline", "threads"):
        for name in fields:
            assert same_bytes(getattr(results[kind], name), getattr(want, name)), (kind, name)


def _within(seconds: float, call):
    """``call()`` on a thread of its own, which must end within
    ``seconds``; returns its result or raises its error."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the call did not end within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _random_specs(rng, num_mics, num_frames):
    shape = (num_mics, num_frames, STFT.num_bins)
    specs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # silent frames and bins make the low-energy flags fire
    specs[:, rng.random(num_frames) < 0.1] = 0.0
    specs[:, :, rng.random(STFT.num_bins) < 0.05] = 0.0
    return specs


def _paired(lower, upper, around=contextlib.nullcontext) -> None:
    """``_in_halves`` over 10 rows on the two-thread path, called inside
    ``around()``; the lower half runs ``lower()`` once the upper half has
    started ``upper()``, which therefore runs on the worker."""
    started = threading.Event()

    def task(lo, hi):
        if lo == 0:
            assert started.wait(TIMEOUT)
            lower()
        else:
            started.set()
            upper()

    def call():
        with around():
            _in_halves(task, 10, 2)

    with _path("threads"):
        _within(TIMEOUT, call)


def _nothing() -> None:
    pass


class TestHelper:
    """The contract of ``_in_halves`` itself."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 8, 9, 64, 65])
    def test_halves_cover_every_row_once(self, count):
        calls = []
        with _path("threads"):
            _within(TIMEOUT, lambda: _in_halves(lambda lo, hi: calls.append((lo, hi)), count, 8))
        rows = sorted(row for lo, hi in calls for row in range(lo, hi))
        assert rows == list(range(count))
        assert len(calls) == (1 if count < 8 else 2)

    def test_upper_half_runs_on_the_worker_in_the_callers_context(self):
        seen = {}

        def upper():
            seen["thread"] = threading.current_thread().name
            seen["over"] = np.geterr()["over"]

        _paired(_nothing, upper, lambda: np.errstate(over="ignore"))
        assert seen["thread"].startswith("lstsc-halves")
        assert seen["over"] == "ignore"

    @pytest.mark.parametrize("failing", ["lower", "upper", "both"])
    def test_an_error_reaches_the_caller_after_both_halves_end(self, failing):
        ended = threading.Event()

        def lower():
            if failing != "upper":
                raise ValueError("the lower half failed")

        def upper():
            try:
                time.sleep(0.05)
                if failing != "lower":
                    raise KeyError("the upper half failed")
            finally:
                ended.set()

        error, message = (
            (KeyError, "'the upper half failed'")
            if failing == "upper"
            else (ValueError, "the lower half failed")
        )
        with pytest.raises(error) as info:
            _paired(lower, upper)
        assert str(info.value) == message
        assert ended.is_set()
        # the next call still runs both halves, the upper one on the worker
        names = []
        _paired(_nothing, lambda: names.append(threading.current_thread().name))
        assert len(names) == 1 and names[0].startswith("lstsc-halves")

    def test_a_call_from_the_worker_runs_inline(self):
        inner = []

        def nested(lo, hi):
            inner.append((lo, hi, threading.current_thread().name))

        _paired(_nothing, lambda: _in_halves(nested, 20, 2))
        ((lo, hi, name),) = inner
        assert (lo, hi) == (0, 20) and name.startswith("lstsc-halves")


class TestSameBytes:
    """Every call site gives the bytes of one plain call on both of the
    helper's paths."""

    @settings(max_examples=16, deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANT_SETTINGS)),
        estimator=st.booleans(),
        num_mics=st.integers(2, 9),
        num_frames=st.sampled_from(FRAME_COUNTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_compute_lstsc(self, variant, estimator, num_mics, num_frames, seed):
        specs = _random_specs(np.random.default_rng(seed), num_mics, num_frames)
        cfg = CoherenceConfig.for_variant(variant)
        feedback = HeuristicMaskEstimator() if estimator else None
        results = _on_each_path(lambda: compute_lstsc(specs, cfg, feedback))
        _assert_same(results, [field.name for field in dataclasses.fields(results["plain"])])

    @settings(max_examples=16, deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANT_SETTINGS)),
        num_mics=st.integers(2, 9),
        num_frames=st.sampled_from(FRAME_COUNTS),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streaming_extractor(self, variant, num_mics, num_frames, cuts, seed):
        rng = np.random.default_rng(seed)
        num_samples = STFT.frame_len + STFT.hop * (num_frames - 1)
        samples = 0.1 * rng.standard_normal((num_mics, num_samples))
        bounds = [0] + sorted(int(cut * num_samples) for cut in cuts) + [num_samples]
        cfg = CoherenceConfig.for_variant(variant)

        def run():
            extractor = StreamingExtractor(cfg, num_mics)
            blocks = []
            for lo, hi in zip(bounds, bounds[1:]):
                blocks += extractor.push(samples[:, lo:hi])
            return blocks + extractor.flush()

        results = _on_each_path(run)
        for kind in ("inline", "threads"):
            assert len(results[kind]) == len(results["plain"])
            for block, want in zip(results[kind], results["plain"]):
                for field in dataclasses.fields(FrameBlock):
                    assert same_bytes(getattr(block, field.name), getattr(want, field.name)), (
                        kind, block.start, field.name
                    )

    @settings(max_examples=20, deadline=None)
    @given(
        num_mics=st.integers(2, 9),
        num_frames=st.sampled_from(FRAME_COUNTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stft_multichannel(self, num_mics, num_frames, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((num_mics, STFT.frame_len + STFT.hop * (num_frames - 1)))
        audio = MultichannelAudio(samples, 16000)
        results = _on_each_path(lambda: stft_multichannel(audio))
        for kind in ("inline", "threads"):
            assert same_bytes(results[kind], results["plain"]), kind

    @settings(max_examples=20, deadline=None)
    @given(
        num_mics=st.integers(2, 9),
        length=st.sampled_from([1, 7, 400, 5000]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_image(self, num_mics, length, seed, data):
        rng = np.random.default_rng(seed)
        stem = rng.standard_normal(length)
        tap_counts = data.draw(st.lists(st.sampled_from([1, 377, 380, 1024, 4097]),
                                        min_size=num_mics, max_size=num_mics))
        rirs = [
            Rir(sample_rate=16000, taps=0.1 * rng.standard_normal(n), source_distance=1.0)
            for n in tap_counts
        ]
        results = _on_each_path(lambda: _image(stem, rirs, length))
        for kind in ("inline", "threads"):
            assert same_bytes(results[kind], results["plain"]), kind


def _child_features(specs, queue) -> None:
    features = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-4"))
    workers = [t for t in threading.enumerate() if t.name.startswith("lstsc-halves")]
    queue.put((features.gamma_global_warped.tobytes(), len(workers)))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_starts_a_worker_of_its_own():
    specs = _random_specs(np.random.default_rng(3), 4, 200)
    cfg = CoherenceConfig.for_variant("lstsc-4")
    with _path("threads"):
        want = compute_lstsc(specs, cfg).gamma_global_warped.tobytes()
        assert signal_core._worker is not None
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_child_features, args=(specs, queue))
        child.start()
        try:
            got, workers = queue.get(timeout=TIMEOUT)
            child.join(TIMEOUT)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
                child.join()
    assert got == want
    assert workers == 1
