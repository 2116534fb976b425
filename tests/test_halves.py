"""Work handed to the one worker thread (``signal_core._alongside`` and
``signal_core._in_halves``): the helpers' own contract, byte identity of
every call site against the plain single-call path, and a forked child's
worker."""
from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import tempfile
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import same_bytes
from lstsc import cli, coherence, roomsim, signal_core
from lstsc.coherence import (
    VARIANT_SETTINGS,
    CoherenceConfig,
    FrameBlock,
    compute_lstsc,
    stream_wav,
)
from lstsc.enhance import HeuristicMaskEstimator
from lstsc.roomsim import (
    ROLE_ORDER,
    ArrayGeometry,
    MixSpec,
    mix_scene,
    sample_scene,
)
from lstsc.scenarios import DEFAULT_STEM_KINDS, STEM_KINDS, render_scene
from lstsc.signal_core import (
    MultichannelAudio,
    StftConfig,
    _alongside,
    _in_halves,
    stft_multichannel,
)

STFT = StftConfig()
# frames on both sides of the engine's split threshold (8) and block (64)
FRAME_COUNTS = [1, 7, 8, 9, 63, 64, 65, 200]
# seconds any one call may take before the test counts it as hung
TIMEOUT = 20.0


def _plain(task, count, least):
    task(0, count)


def _plain_alongside(background, foreground):
    fore = foreground()
    return background(), fore


# each helper and the plain call that replaces it on the plain path
_PLAIN = {"_in_halves": _plain, "_alongside": _plain_alongside}


@contextlib.contextmanager
def _path(kind: str):
    """Run the block inside on one path: ``plain`` replaces the helpers by
    plain calls in every module that uses them, ``inline`` takes the
    helpers' one-CPU path and ``threads`` their two-thread path, whatever
    the host's CPU count."""
    saved = [
        (module, name, getattr(module, name))
        for module in (signal_core, coherence, roomsim)
        for name in _PLAIN
        if hasattr(module, name)
    ]
    cpus = signal_core._CPUS
    try:
        if kind == "plain":
            for module, name, _ in saved:
                setattr(module, name, _PLAIN[name])
        else:
            signal_core._CPUS = 1 if kind == "inline" else 2
        yield
    finally:
        signal_core._CPUS = cpus
        for module, name, helper in saved:
            setattr(module, name, helper)


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


def _handed(background, foreground, around=contextlib.nullcontext):
    """``_alongside(background, foreground)`` on the two-thread path,
    called inside ``around()``, with ``foreground()`` started once the
    worker has started ``background()``; returns the pair of results."""
    started = threading.Event()

    def back():
        started.set()
        return background()

    def fore():
        assert started.wait(TIMEOUT)
        return foreground()

    def call():
        with around():
            return _alongside(back, fore)

    with _path("threads"):
        return _within(TIMEOUT, call)


def _thread() -> str:
    return threading.current_thread().name


class TestAlongside:
    """The contract of ``_alongside`` itself."""

    def test_background_runs_on_the_worker_in_the_callers_context(self):
        def background():
            return _thread(), np.geterr()["over"]

        (thread, over), caller = _handed(background, _thread, lambda: np.errstate(over="ignore"))
        assert thread.startswith("lstsc-halves") and not caller.startswith("lstsc-halves")
        assert over == "ignore"

    @pytest.mark.parametrize("failing", ["foreground", "background", "both"])
    def test_an_error_reaches_the_caller_after_both_end(self, failing):
        ended = threading.Event()

        def background():
            try:
                time.sleep(0.05)
                if failing != "foreground":
                    raise KeyError("the background failed")
            finally:
                ended.set()

        def foreground():
            if failing != "background":
                raise ValueError("the foreground failed")

        error, message = (
            (KeyError, "'the background failed'")
            if failing == "background"
            else (ValueError, "the foreground failed")
        )
        with pytest.raises(error) as info:
            _handed(background, foreground)
        assert str(info.value) == message
        assert ended.is_set()
        # the next call still hands its background to the worker
        (thread, _) = _handed(_thread, _nothing)
        assert thread.startswith("lstsc-halves")

    def test_the_background_has_ended_when_it_returns(self):
        ended = threading.Event()

        def background():
            time.sleep(0.05)
            ended.set()
            return "background"

        assert _handed(background, lambda: "foreground") == ("background", "foreground")
        assert ended.is_set()

    def test_a_call_from_the_worker_runs_inline(self):
        order = []

        def nested():
            return _alongside(
                lambda: order.append(("background", _thread())),
                lambda: order.append(("foreground", _thread())),
            )

        _handed(nested, _nothing)
        assert [side for side, _ in order] == ["foreground", "background"]
        assert all(name.startswith("lstsc-halves") for _, name in order)

    def test_one_cpu_runs_the_foreground_then_the_background_on_the_caller(self):
        order = []
        with _path("inline"):
            pair = _within(TIMEOUT, lambda: _alongside(
                lambda: order.append(("background", _thread())) or 1,
                lambda: order.append(("foreground", _thread())) or 2,
            ))
        assert pair == (1, 2)
        assert [side for side, _ in order] == ["foreground", "background"]
        assert order[0][1] == order[1][1] and not order[0][1].startswith("lstsc-halves")

    def test_a_background_the_busy_worker_has_not_started_runs_on_the_caller(self):
        _handed(_nothing, _nothing)  # the worker exists
        release = threading.Event()
        busy = signal_core._worker.submit(release.wait, TIMEOUT)
        try:
            with _path("threads"):
                pair = _within(TIMEOUT, lambda: _alongside(_thread, _thread))
        finally:
            release.set()
            busy.result(TIMEOUT)
        assert pair[0] == pair[1] and not pair[0].startswith("lstsc-halves")

    @pytest.mark.parametrize("worker", ["idle", "busy"])
    def test_no_work_item_keeps_the_background_alive(self, worker):
        # the idle worker holds the item it ran until it takes the next;
        # a busy one leaves the item the caller cancelled in its queue.
        # Neither may keep the arrays of a call that has returned alive.
        _handed(_nothing, _nothing)  # the worker exists
        release = threading.Event()
        busy = None
        if worker == "busy":
            busy = signal_core._worker.submit(release.wait, TIMEOUT)
        try:
            with _path("threads"):
                freed = _within(TIMEOUT, _background_freed)
        finally:
            release.set()
            if busy is not None:
                busy.result(TIMEOUT)
        assert freed


def _background_freed() -> bool:
    """Whether an array that only an ``_alongside`` background refers to
    is freed once the call returns."""

    def call():
        payload = np.zeros(4)
        _alongside(payload.sum, _nothing)
        return weakref.ref(payload)

    return call()() is None


def _scene_stems(rng, seconds: float, silent) -> dict[str, np.ndarray]:
    n = int(round(seconds * 16000))
    return {
        role: np.zeros(n) if role in silent else rng.standard_normal(n)
        for role in ROLE_ORDER
    }


def _mix_or_error(scene, stems, spec, noise_seed):
    """``mix_scene``'s result, or the message of the ``ValueError`` it
    raises."""
    try:
        return mix_scene(scene, stems, spec, noise_seed=noise_seed)
    except ValueError as exc:
        return str(exc)


def _assert_same_mix(results):
    want = results["plain"]
    for kind in ("inline", "threads"):
        got = results[kind]
        if isinstance(want, str):
            assert got == want, kind
            continue
        signals = {"mixture": got.mixture, **got.images, "noise": got.noise}
        wanted = {"mixture": want.mixture, **want.images, "noise": want.noise}
        assert list(signals) == list(wanted)
        for name, audio in wanted.items():
            assert same_bytes(signals[name].samples, audio.samples), (kind, name)
        assert got.gains == want.gains, kind
        for level in ("realized_sir_db", "realized_snr_db"):
            assert same_bytes(getattr(got, level), getattr(want, level)), (kind, level)


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
        R=st.sampled_from([0, 1, 70]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stream_wav(self, variant, num_mics, num_frames, R, seed):
        # stream_wav: the per-mic STFTs of each block's span of samples and
        # the engine's kernels
        rng = np.random.default_rng(seed)
        num_samples = STFT.frame_len + STFT.hop * (num_frames - 1)
        samples = 0.1 * rng.standard_normal((num_samples, num_mics))
        cfg = CoherenceConfig.for_variant(variant, R=R)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            wavfile.write(path, 16000, samples.astype(np.float32))
            reader = signal_core.WavReader(path)
            results = _on_each_path(lambda: list(stream_wav(reader, cfg)))
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

    @settings(max_examples=12, deadline=None)
    @given(
        num_mics=st.integers(1, 9),
        silent=st.sets(st.sampled_from(ROLE_ORDER)),
        t60=st.just(0.2),
        sir_db=st.sampled_from([0.0, 15.0, -3000.0]),
        snr_db=st.sampled_from([30.0, -3000.0]),
        seed=st.integers(0, 2**16),
    )
    # silent stems, no directional power at all (the noise is scaled to
    # zero) and the float32 overflow message; the sources split 2/1 (at
    # T60 0.7, whose passes span several blocks), 1/1 and 1/0
    @example(num_mics=8, silent=set(), t60=0.2, sir_db=0.0, snr_db=30.0, seed=0)
    @example(num_mics=7, silent={"non_target"}, t60=0.2, sir_db=15.0, snr_db=30.0, seed=1)
    @example(num_mics=1, silent={"target"}, t60=0.2, sir_db=0.0, snr_db=30.0, seed=2)
    @example(num_mics=9, silent=set(ROLE_ORDER), t60=0.2, sir_db=0.0, snr_db=30.0, seed=3)
    @example(num_mics=3, silent=set(), t60=0.2, sir_db=-3000.0, snr_db=30.0, seed=4)
    @example(num_mics=4, silent=set(), t60=0.2, sir_db=0.0, snr_db=-3000.0, seed=5)
    @example(num_mics=5, silent=set(), t60=0.7, sir_db=5.0, snr_db=25.0, seed=6)
    @example(num_mics=3, silent={"non_target", "interferer"}, t60=0.2, sir_db=0.0, snr_db=30.0,
             seed=7)
    def test_mix_scene(self, num_mics, silent, t60, sir_db, snr_db, seed):
        rng = np.random.default_rng(seed)
        scene = sample_scene(seed, array=ArrayGeometry.circular(num_mics), t60=t60)
        spec = MixSpec(sir_db=sir_db, snr_db=snr_db, clip_seconds=0.25, allow_off_grid=True)
        stems = _scene_stems(rng, spec.clip_seconds, silent)
        results = _on_each_path(lambda: _mix_or_error(scene, stems, spec, seed))
        _assert_same_mix(results)
        if isinstance(results["plain"], str):
            assert results["plain"].startswith("the mix overflows float32 WAV samples: the ")
            return
        mixture = results["plain"].mixture.samples
        top = max(mixture.max(), -mixture.min())
        if top == 0.0:
            return
        # a float32 limit just under the mixture's peak: each path must find
        # that whole-array peak, whichever row it lies in
        saved = roomsim._WAV_SAMPLE_MAX
        roomsim._WAV_SAMPLE_MAX = float(np.nextafter(top, 0.0))
        try:
            results = _on_each_path(lambda: _mix_or_error(scene, stems, spec, seed))
        finally:
            roomsim._WAV_SAMPLE_MAX = saved
        assert results["plain"] == (
            f"the mix overflows float32 WAV samples: the mixture peaks at {top:.3g} "
            f"(sir_db {sir_db}, snr_db {snr_db})"
        )
        _assert_same_mix(results)

    def test_simulate_bundle(self, tmp_path):
        # 7 mics: the two sounding sources split 1/1, and the noise is
        # drawn beside the gain passes
        config = tmp_path / "scene.json"
        config.write_text(
            '{"array": {"kind": "circular", "num_mics": 7}, "mix": {"clip_seconds": 0.5}}'
        )

        def run(kind: str):
            out = tmp_path / kind
            assert cli.main(["simulate", "--seed", "3", "--config", str(config), "--out", str(out)]) == 0
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        bundles = {}
        for kind in ("plain", "inline", "threads"):
            with _path(kind):
                bundles[kind] = _within(TIMEOUT, lambda: run(kind))
        assert len(bundles["plain"]) == 6
        for kind in ("inline", "threads"):
            assert bundles[kind] == bundles["plain"], kind


def test_a_cold_scene_calibrates_once_on_two_threads():
    # the two threads render a source each, and both need the walls
    scene = sample_scene(8, array=ArrayGeometry.circular(3), t60=0.2)
    spec = MixSpec(clip_seconds=0.25)
    stems = _scene_stems(np.random.default_rng(8), spec.clip_seconds, {"non_target"})
    roomsim._calibrate.cache_clear()
    with _path("threads"):
        _within(TIMEOUT, lambda: mix_scene(scene, stems, spec))
    assert roomsim._calibrate.cache_info().misses == 1


def _scene_bytes() -> bytes:
    """The samples of a rendered 5-mic scene: its two sounding sources
    split 1/1 and its noise is drawn beside the gain passes."""
    makers = {role: STEM_KINDS[DEFAULT_STEM_KINDS[role]] for role in ROLE_ORDER}
    spec = MixSpec(clip_seconds=0.5)
    mix = render_scene(4, makers, spec=spec, array=ArrayGeometry.circular(5)).mix
    return b"".join(audio.samples.tobytes() for audio in (mix.mixture, *mix.images.values(), mix.noise))


def _child_outputs(specs, queue) -> None:
    features = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-4"))
    scene = _scene_bytes()
    workers = [t for t in threading.enumerate() if t.name.startswith("lstsc-halves")]
    queue.put((features.gamma_global_warped.tobytes(), scene, len(workers)))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_starts_a_worker_of_its_own():
    specs = _random_specs(np.random.default_rng(3), 4, 200)
    cfg = CoherenceConfig.for_variant("lstsc-4")
    with _path("threads"):
        want = compute_lstsc(specs, cfg).gamma_global_warped.tobytes()
        want_scene = _scene_bytes()
        assert signal_core._worker is not None
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_child_outputs, args=(specs, queue))
        child.start()
        try:
            got, got_scene, workers = queue.get(timeout=TIMEOUT)
            child.join(TIMEOUT)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
                child.join()
    assert got == want
    assert got_scene == want_scene
    assert workers == 1
