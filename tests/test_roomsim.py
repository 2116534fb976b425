"""Room acoustics: image-source RIRs, reverberation-time round trips, the
scene-sampling protocol, and level-exact mixing."""
from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

import oracle_roomsim
from lstsc import signal_core
from lstsc.signal_core import MultichannelAudio
from lstsc.roomsim import (
    SPEED_OF_SOUND,
    ArrayGeometry,
    MixSpec,
    Rir,
    RoomScene,
    SceneConstraints,
    Source,
    measure_t60,
    mix_scene,
    sample_scene,
    _BLOCK_POINTS,
    _calibrate,
    _fast_len,
    _image,
    _image_source_taps,
    _reach,
    simulate_rir,
    simulate_rirs,
)

ROOM = (6.0, 5.0, 3.0)


class TestImageConvolution:
    """The mixer's convolution, pinned to scipy as an oracle."""

    def test_fast_len_is_scipys_next_fast_len(self):
        from scipy.fft import next_fast_len

        for n in [*range(1, 5001), 500_001, 524_289, 531_441, 1_000_003, 9_765_626, 2**31 + 1]:
            assert _fast_len(n) == next_fast_len(n, True), n

    def test_image_equals_fftconvolve_with_unequal_taps(self):
        # RIRs of unequal lengths, so the transform length differs between
        # mics; two of them share one, whose stem transform is reused
        rng = np.random.default_rng(11)
        length = 5000
        stem = rng.standard_normal(length)
        rirs = [
            Rir(sample_rate=16000, taps=0.1 * rng.standard_normal(n), source_distance=1.0)
            for n in (1, 377, 380, 1024, 4097, 6000)
        ]
        image = _image(stem, rirs, length)
        assert image.shape == (len(rirs), length)
        for row, rir in zip(image, rirs):
            assert row.tobytes() == fftconvolve(stem, rir.taps)[:length].tobytes()
        # a one-sample clip
        (row,) = _image(stem[:1], rirs[2:3], 1)
        assert row.tobytes() == fftconvolve(stem[:1], rirs[2].taps)[:1].tobytes()


class TestArrayGeometry:
    def test_ula_default(self):
        arr = ArrayGeometry.ula()
        assert arr.num_mics == 4
        assert np.allclose(arr.positions[:, 0], [-0.12, -0.04, 0.04, 0.12])
        assert np.allclose(arr.positions[:, 1:], 0.0)

    def test_circular(self):
        arr = ArrayGeometry.circular(7, 0.08)
        assert arr.num_mics == 7
        radii = np.linalg.norm(arr.positions[:, :2], axis=1)
        assert np.allclose(radii, 0.04)
        assert np.allclose(arr.positions[:, 2], 0.0)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ArrayGeometry([[0, 0, 0], [0, 0, 0]])

    @pytest.mark.parametrize(
        "positions",
        [[[0.3, 0.3], [0.34, 0.3, 0.0]], [[0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0]],
         [["x", 0.0, 0.0]], 0.5, [[[0.0, 0.0, 0.0]]]],
        ids=["ragged", "m-by-4", "not-numbers", "scalar", "3-d"],
    )
    def test_positions_that_are_not_an_m_by_3_array_rejected(self, positions):
        with pytest.raises(ValueError, match=r"^positions must be \(M, 3\), got "):
            ArrayGeometry(positions)

    def test_one_3_vector_is_a_one_mic_array(self):
        assert ArrayGeometry([0.1, 0.2, 0.3]).positions.tolist() == [[0.1, 0.2, 0.3]]

    def test_placed(self):
        arr = ArrayGeometry.ula(2, 0.1)
        placed = arr.placed((1.0, 2.0, 3.0))
        assert np.allclose(placed, [[0.95, 2.0, 3.0], [1.05, 2.0, 3.0]])


_NOT_MICS = r"^mic_positions must be a non-empty \(M, 3\) array, got "


class TestSceneValidation:
    def _mics(self):
        return ArrayGeometry.ula().placed((3.0, 1.5, 1.2))

    def _scene(self, sources):
        return RoomScene(
            room_dims=np.array(ROOM), t60=0.3,
            mic_positions=self._mics(), sources=sources,
        )

    def test_valid_scene(self):
        scene = self._scene([
            Source(np.array([3.0, 2.5, 1.2]), "target"),
            Source(np.array([4.0, 2.6, 1.2]), "non_target"),
            Source(np.array([2.0, 2.6, 1.2]), "interferer"),
        ])
        assert np.allclose(scene.array_center, [3.0, 1.5, 1.2])
        assert [src.role for src in scene.sources] == ["target", "non_target", "interferer"]

    def test_source_outside_ring_rejected(self):
        with pytest.raises(ValueError, match="range"):
            self._scene([
                Source(np.array([3.0, 1.9, 1.2]), "target"),  # 0.4 m < 0.7 m
                Source(np.array([4.0, 2.6, 1.2]), "non_target"),
                Source(np.array([2.0, 2.6, 1.2]), "interferer"),
            ])

    def test_angle_violation_rejected(self):
        with pytest.raises(ValueError, match="angular"):
            self._scene([
                Source(np.array([3.00, 2.5, 1.2]), "target"),
                Source(np.array([3.05, 2.6, 1.2]), "non_target"),
                Source(np.array([2.00, 2.6, 1.2]), "interferer"),
            ])

    def test_target_must_be_closest(self):
        with pytest.raises(ValueError, match="target"):
            self._scene([
                Source(np.array([3.0, 3.4, 1.2]), "target"),
                Source(np.array([4.0, 2.2, 1.2]), "non_target"),
                Source(np.array([2.0, 2.2, 1.2]), "interferer"),
            ])

    def test_source_outside_room_rejected(self):
        with pytest.raises(ValueError, match="outside room"):
            self._scene([
                Source(np.array([3.0, -0.5, 1.2]), "target"),
                Source(np.array([4.0, 2.6, 1.2]), "non_target"),
                Source(np.array([2.0, 2.6, 1.2]), "interferer"),
            ])

    @pytest.mark.parametrize(
        "roles",
        [
            ("target", "target", "interferer"),
            ("target", "non_target"),
            ("target", "interferer", "non_target"),
            ("non_target", "target", "interferer"),
        ],
    )
    def test_one_source_per_role_in_role_order(self, roles):
        positions = [[3.0, 2.5, 1.2], [4.0, 2.6, 1.2], [2.0, 2.6, 1.2]]
        with pytest.raises(ValueError, match="one per role"):
            self._scene([Source(np.array(pos), role) for pos, role in zip(positions, roles)])

    @pytest.mark.parametrize("low", [0.0, -1.0])
    def test_non_positive_range_low_end_rejected(self, low):
        # a target on the mic centroid would divide by its zero range
        center = self._mics().mean(axis=0)
        sources = [
            Source(center.copy(), "target"),
            Source(np.array([4.0, 2.6, 1.2]), "non_target"),
            Source(np.array([2.0, 2.6, 1.2]), "interferer"),
        ]
        with pytest.raises(ValueError, match="range_bounds must have a positive low end"):
            RoomScene(room_dims=np.array(ROOM), t60=0.3, mic_positions=self._mics(),
                      sources=sources, range_bounds=(low, 2.0))

    @pytest.mark.parametrize("t60", [np.nan, np.inf])
    def test_non_finite_t60_rejected(self, t60):
        scene = self._scene([
            Source(np.array([3.0, 2.5, 1.2]), "target"),
            Source(np.array([4.0, 2.6, 1.2]), "non_target"),
            Source(np.array([2.0, 2.6, 1.2]), "interferer"),
        ])
        with pytest.raises(ValueError, match="t60 must be positive and finite"):
            RoomScene(scene.room_dims, t60, scene.mic_positions, scene.sources)
        with pytest.raises(ValueError, match="t60 must be finite"):
            simulate_rirs(ROOM, t60, scene.sources[0].position, scene.mic_positions)

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"room_dims": [6.0, 5.0, [3.0]]}, r"^room_dims must be three positive lengths, got "),
            ({"mic_positions": [[2.96, 1.5], [3.04, 1.5, 1.2]]}, _NOT_MICS),
            ({"mic_positions": [[[2.96, 1.5, 1.2]] * 3]}, _NOT_MICS),
            ({"mic_positions": np.zeros((0, 3))}, _NOT_MICS),
        ],
        ids=["ragged-room-dims", "ragged-mics", "3-d-mics", "no-mics"],
    )
    def test_room_dims_or_mics_of_the_wrong_shape_rejected(self, changes, message):
        sources = [
            Source(np.array([3.0, 2.5, 1.2]), "target"),
            Source(np.array([4.0, 2.6, 1.2]), "non_target"),
            Source(np.array([2.0, 2.6, 1.2]), "interferer"),
        ]
        kwargs = {"room_dims": ROOM, "t60": 0.3, "mic_positions": self._mics(), **changes}
        with pytest.raises(ValueError, match=message):
            RoomScene(sources=sources, **kwargs)

    @pytest.mark.parametrize("position", [[2.1, 3.1], [[2.1], 3.1, 1.7], ["x", 3.1, 1.7]])
    def test_source_that_is_not_a_3_vector_rejected(self, position):
        with pytest.raises(ValueError, match="^source position must be a 3-vector, got "):
            Source(position, "target")


class TestImageSource:
    def test_anechoic_direct_path(self):
        src = np.array([2.0, 2.0, 1.5])
        mic = np.array([3.6, 2.0, 1.5])
        rir = simulate_rir(ROOM, None, src, mic, absorption=1.0)
        dist = 1.6
        delay = round(dist / SPEED_OF_SOUND * 16000)
        amp = 1.0 / (4.0 * np.pi * dist)
        assert rir.taps[delay] == pytest.approx(amp, rel=1e-12)
        others = np.delete(rir.taps, delay)
        assert np.max(np.abs(others)) <= amp * 1e-6

    def test_direct_delay_matches_geometry(self, rng):
        for _ in range(25):
            src = rng.uniform([0.5, 0.5, 0.5], [5.5, 4.5, 2.5])
            mic = rng.uniform([0.5, 0.5, 0.5], [5.5, 4.5, 2.5])
            if np.linalg.norm(src - mic) < 0.2:
                continue
            rir = simulate_rir(ROOM, None, src, mic, absorption=1.0)
            onset = int(np.flatnonzero(np.abs(rir.taps) > 1e-12)[0])
            expected = round(np.linalg.norm(src - mic) / SPEED_OF_SOUND * 16000)
            assert abs(onset - expected) <= 1

    def test_mirror_symmetry(self):
        # source on the room's x-center plane, mics mirrored about it
        src = np.array([3.0, 2.0, 1.25])
        mic_a = np.array([2.5, 3.0, 1.0])
        mic_b = np.array([3.5, 3.0, 1.0])
        rir_a = simulate_rir(ROOM, None, src, mic_a, absorption=0.35, duration=0.25)
        rir_b = simulate_rir(ROOM, None, src, mic_b, absorption=0.35, duration=0.25)
        assert rir_a.taps.shape == rir_b.taps.shape
        assert np.allclose(rir_a.taps, rir_b.taps, atol=1e-12)

    def test_t60_round_trip(self):
        src = np.array([2.0, 3.2, 1.6])
        mic = np.array([3.4, 1.8, 1.1])
        rir = simulate_rir(ROOM, 0.3, src, mic)
        measured = measure_t60(rir)
        assert abs(measured - 0.3) / 0.3 <= 0.25

    def test_outside_room_rejected(self):
        with pytest.raises(ValueError, match="outside room"):
            simulate_rir(ROOM, 0.3, [7.0, 1.0, 1.0], [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("src", [[2.1, 3.1], [[2.1, 3.1, 1.7]], 2.0, [[2.1], 3.1, 1.7]])
    def test_source_that_is_not_a_3_vector_rejected(self, src):
        with pytest.raises(ValueError, match="^source position must be a 3-vector"):
            simulate_rirs(ROOM, None, src, [[3.7, 1.9, 1.1]], absorption=0.4)

    @pytest.mark.parametrize(
        "mics", [[[3.7, 1.9], [3.7, 2.1, 1.1]], [3.7, 1.9, 1.1], [], [["x", 1.9, 1.1]]]
    )
    def test_mics_that_are_not_an_m_by_3_array_rejected(self, mics):
        message = r"^microphone positions must be a non-empty \(M, 3\) array, got "
        with pytest.raises(ValueError, match=message):
            simulate_rirs(ROOM, None, [2.1, 3.1, 1.7], mics, absorption=0.4)

    @pytest.mark.parametrize("dims", [[6.0, 5.0, [3.0]], [6.0, 5.0], [6.0, 5.0, -3.0], "6x5x3"])
    def test_room_dims_that_are_not_three_positive_lengths_rejected(self, dims):
        with pytest.raises(ValueError, match="^room_dims must be three positive lengths, got "):
            simulate_rirs(dims, None, [2.1, 3.1, 1.7], [[3.7, 1.9, 1.1]], absorption=0.4)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            simulate_rir(ROOM, 0.3, [3.0, 2.0, 1.0], [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("duration", [0.0, -0.1])
    def test_non_positive_duration_rejected(self, duration):
        mics = [[3.0, 2.5, 1.2], [3.08, 2.5, 1.2]]
        with pytest.raises(ValueError, match="duration"):
            simulate_rirs(ROOM, 0.3, [2.0, 2.0, 1.5], mics, duration=duration)

    def test_deterministic(self):
        src = [2.0, 2.0, 1.5]
        mic = [3.0, 2.5, 1.2]
        a = simulate_rir(ROOM, None, src, mic, absorption=0.4, duration=0.1)
        b = simulate_rir(ROOM, None, src, mic, absorption=0.4, duration=0.1)
        assert np.array_equal(a.taps, b.taps)


@st.composite
def _image_source_cases(draw):
    """Room, source, 1-8 mics inside it, beta and one duration per mic."""
    dims = np.array([draw(st.floats(2.0, 9.0)) for _ in range(3)])
    inside = st.floats(0.01, 0.99)
    src = np.array([draw(inside) for _ in range(3)]) * dims
    num_mics = draw(st.integers(1, 8))
    mics = np.array([[draw(inside) for _ in range(3)] for _ in range(num_mics)])
    beta = draw(st.one_of(st.just(0.0), st.floats(0.3, 0.97)))
    durations = [draw(st.floats(0.001, 0.3)) for _ in range(num_mics)]
    return dims, src, mics * dims, beta, durations


def _delay(d2: float, fs: int) -> float:
    """The image enumeration's delay of a squared distance, in numpy."""
    return float(np.round(np.sqrt(np.float64(d2)) / SPEED_OF_SOUND * fs))


# a 2 m cube at 0.4 s: 71**3 points per parity, many blocks, and most
# (x, y) rows of the lattice's corners lie outside the delay ball
_CUBE = (np.full(3, 2.0), np.array([0.7, 1.3, 0.4]),
         np.array([[1.5, 0.5, 1.6], [1.52, 0.5, 1.6]]), 0.8, [0.4, 0.36])
# beta = 0: the direct paths alone
_ANECHOIC = (np.array([3.0, 4.0, 2.5]), np.array([1.0, 1.2, 0.8]),
             np.array([[2.0, 3.0, 1.5], [2.5, 0.5, 2.0], [0.2, 3.9, 0.1]]), 0.0,
             [0.05, 0.12, 0.2])
# the benchmark's room at a scene's response length
_SCENE = (np.array([6.0, 5.0, 3.0]), np.array([2.0, 3.2, 1.6]),
          np.array([[3.4, 1.8, 1.1]]), 0.93, [0.853])


class TestImageSourceOracle:
    @settings(max_examples=40, deadline=None)
    @given(_image_source_cases())
    @example(_CUBE)
    @example(_ANECHOIC)
    @example(_SCENE)
    def test_taps_match_per_pair_oracle_bytes(self, case):
        dims, src, mics, beta, durations = case
        taps = _image_source_taps(dims, src, mics, 16000, beta, durations)
        assert len(taps) == len(mics)
        for mic, duration, got in zip(mics, durations, taps):
            want = oracle_roomsim._image_source_taps(
                dims, src, mic, 16000, beta, duration
            )
            assert got.tobytes() == want.tobytes()

    def test_cube_example_spans_blocks_and_skips_rows(self):
        dims, src, mics, _, durations = _CUBE
        count = int(np.ceil(durations[0] * SPEED_OF_SOUND / (2.0 * dims[0])))
        side = 2 * count + 1
        assert side**3 > 8 * _BLOCK_POINTS
        # (x, y) rows whose offsets alone reach past the first response
        reach = _reach(round(durations[0] * 16000), 16000)
        dx, dy = (
            (s + 2.0 * np.arange(-count, count + 1) * length - m) ** 2
            for s, length, m in zip(src[:2], dims[:2], mics[0][:2])
        )
        assert np.count_nonzero(dx[:, None] + dy > reach) > side**2 // 10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**7), st.integers(1, 192000))
    @example(1, 16000)
    @example(13648, 16000)
    def test_reach_is_the_last_squared_distance_that_lands(self, size, fs):
        reach = _reach(size, fs)
        assert reach >= 0.0
        assert _delay(reach, fs) < size <= _delay(np.nextafter(reach, math.inf), fs)

    def test_simulate_rirs_matches_pairs(self):
        src = [2.0, 3.2, 1.6]
        mics = ArrayGeometry.circular(5, 0.1).placed((3.4, 1.8, 1.1))
        rirs = simulate_rirs(ROOM, 0.3, src, mics)
        assert len(rirs) == 5
        for mic, rir in zip(mics, rirs):
            pair = simulate_rir(ROOM, 0.3, src, mic)
            assert rir.taps.tobytes() == pair.taps.tobytes()
            assert rir.source_distance == pair.source_distance

    def test_calibration_and_enumeration_memory_is_bounded(self):
        # the whole image lattice of this T60 holds 240 MB of temporaries;
        # blocked enumeration holds about 2.7 MB (rows, gains, one block)
        src = [2.0, 3.2, 1.6]
        mics = ArrayGeometry.ula().placed((3.0, 1.5, 1.2))
        _calibrate.cache_clear()
        tracemalloc.start()
        try:
            rirs = simulate_rirs(ROOM, 1.0, src, mics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rirs) == 4
        assert peak < 10e6

    def test_simulate_rirs_validates_every_mic(self):
        mics = [[3.0, 2.5, 1.2], [3.0, 9.0, 1.2]]
        with pytest.raises(ValueError, match="outside room"):
            simulate_rirs(ROOM, 0.3, [2.0, 2.0, 1.5], mics)
        mics = [[3.0, 2.5, 1.2], [2.0, 2.0, 1.5]]
        with pytest.raises(ValueError, match="coincident"):
            simulate_rirs(ROOM, 0.3, [2.0, 2.0, 1.5], mics)
        with pytest.raises(ValueError, match=r"\(M, 3\)"):
            simulate_rirs(ROOM, 0.3, [2.0, 2.0, 1.5], [])


class TestMeasureT60:
    def test_synthetic_exponential(self):
        fs = 16000
        t = np.arange(int(0.5 * fs)) / fs
        rng = np.random.default_rng(7)
        taps = 10.0 ** (-3.0 * t / 0.5) * rng.standard_normal(t.size)
        measured = measure_t60(Rir(sample_rate=fs, taps=taps, source_distance=1.0))
        assert abs(measured - 0.5) / 0.5 <= 0.10

    def test_anechoic_tap_errors(self):
        taps = np.zeros(1000)
        taps[50] = 0.1
        with pytest.raises(ValueError, match="decay range not reached"):
            measure_t60(Rir(sample_rate=16000, taps=taps, source_distance=1.0))

    def test_empty_rir_rejected(self):
        with pytest.raises(ValueError):
            measure_t60(Rir(sample_rate=16000, taps=np.zeros(0), source_distance=1.0))


class TestSampleScene:
    def test_deterministic(self):
        a = sample_scene(123)
        b = sample_scene(123)
        assert np.array_equal(a.mic_positions, b.mic_positions)
        for sa, sb in zip(a.sources, b.sources):
            assert sa.role == sb.role
            assert np.array_equal(sa.position, sb.position)

    def test_protocol_sweep(self):
        constraints = SceneConstraints()
        center = np.asarray(constraints.array_center)
        lo, hi = constraints.range_bounds
        for seed in range(10_000):
            scene = sample_scene(seed)
            offsets = np.stack([s.position for s in scene.sources]) - center
            radii = np.linalg.norm(offsets, axis=1)
            assert np.all(radii >= lo - 1e-12) and np.all(radii <= hi + 1e-12)
            assert np.all(offsets[:, 1] >= -1e-12)  # frontal half-plane
            unit = offsets / radii[:, None]
            cos = np.clip(unit @ unit.T, -1.0, 1.0)
            angles = np.degrees(np.arccos(cos[np.triu_indices(3, k=1)]))
            assert np.all(angles >= constraints.min_angle_deg - 1e-9)
            target_radius = radii[[src.role for src in scene.sources].index("target")]
            assert target_radius <= radii.min() + 1e-12

    def test_impossible_constraints_exhaust_budget(self):
        constraints = SceneConstraints(range_bounds=(1.9, 2.0), min_angle_deg=175.0,
                                       max_attempts=50)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            sample_scene(0, constraints=constraints)

    @pytest.mark.parametrize(
        "field,value,words",
        [
            ("room_dims", (6.0, 5.0), "room_dims must hold 3 finite numbers"),
            ("room_dims", (6.0, 5.0, np.inf), "room_dims must hold 3 finite numbers"),
            ("room_dims", (6.0, 0.0, 3.0), "room_dims must be positive"),
            ("array_center", (3.0, 1.5, 1.2, 0.0), "array_center must hold 3 finite numbers"),
            ("array_center", ("a", "b", "c"), "array_center must hold 3 finite numbers"),
            ("range_bounds", (1.0,), "range_bounds must hold 2 finite numbers"),
            ("range_bounds", (2.0, 1.0), "range_bounds must be (lo, hi) with lo <= hi"),
            ("azimuth_deg", (0.0, np.nan), "azimuth_deg must hold 2 finite numbers"),
            ("azimuth_deg", (180.0, 0.0), "azimuth_deg must be (lo, hi) with lo <= hi"),
            ("min_angle_deg", np.nan, "min_angle_deg must be finite and non-negative"),
            ("min_angle_deg", -1.0, "min_angle_deg must be finite and non-negative"),
            ("wall_margin", np.nan, "wall_margin must be finite and non-negative"),
            ("wall_margin", -0.05, "wall_margin must be finite and non-negative"),
            ("range_bounds", (-1.0, 2.0), "range_bounds must have a positive low end"),
            ("range_bounds", (0.0, 2.0), "range_bounds must have a positive low end"),
        ],
    )
    def test_constraint_vectors_validated(self, field, value, words):
        with pytest.raises(ValueError, match=re.escape(words)):
            SceneConstraints(**{field: value})

    def test_custom_array(self):
        scene = sample_scene(5, array=ArrayGeometry.circular(7, 0.08))
        assert scene.mic_positions.shape == (7, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        mics=st.lists(st.tuples(*[st.floats(-0.4, 0.4)] * 3), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        lo=st.floats(0.3, 1.5),
        width=st.floats(0.0, 1.0),
        min_angle_deg=st.floats(0.0, 60.0),
        wall_margin=st.floats(0.0, 0.2),
    )
    @example(mics=[(0.3, 0.3, 0.0), (0.34, 0.3, 0.0), (0.3, 0.34, 0.0)], seed=1,
             lo=0.7, width=1.3, min_angle_deg=15.0, wall_margin=0.05)
    @example(mics=[(-0.1, 0.0, 0.0), (0.0, 0.05, 0.0), (0.1, 0.0, 0.02)], seed=34,
             lo=0.7, width=1.3, min_angle_deg=15.0, wall_margin=0.05)
    def test_sampled_scenes_pass_the_protocol_around_the_mic_centroid(
        self, mics, seed, lo, width, min_angle_deg, wall_margin
    ):
        # the array's origin, where it is placed, need not be its centroid
        mics = np.array(mics)
        gaps = np.linalg.norm(mics[:, None] - mics[None], axis=-1)
        assume(np.all(gaps[np.triu_indices(len(mics), k=1)] > 1e-6))
        constraints = SceneConstraints(
            range_bounds=(lo, lo + width), min_angle_deg=min_angle_deg,
            wall_margin=wall_margin, max_attempts=200,
        )
        try:
            scene = sample_scene(seed, array=ArrayGeometry(mics), constraints=constraints)
        except RuntimeError as exc:
            assert "budget exhausted" in str(exc)
            return
        positions = np.stack([src.position for src in scene.sources])
        assert np.all(positions > wall_margin) and np.all(positions < np.array(ROOM) - wall_margin)
        offsets = positions - scene.array_center
        radii = np.linalg.norm(offsets, axis=1)
        assert np.all((lo <= radii) & (radii <= lo + width))
        unit = offsets / radii[:, None]
        cos = np.clip(unit @ unit.T, -1.0, 1.0)
        angles = np.arccos(cos[np.triu_indices(3, k=1)])
        assert np.all(angles >= np.radians(min_angle_deg) - 1e-9)
        assert radii[0] <= radii.min() + 1e-9


class TestMixScene:
    @pytest.fixture()
    def scene(self):
        return sample_scene(42)

    @pytest.fixture()
    def stems(self, rng):
        n = 16000  # 1-second clips keep the mixer tests quick
        return {
            "target": rng.standard_normal(n),
            "non_target": rng.standard_normal(n),
            "interferer": rng.standard_normal(n),
        }

    def _spec(self, **kw):
        defaults = dict(sir_db=0.0, snr_db=30.0, clip_seconds=1.0, allow_off_grid=True)
        defaults.update(kw)
        return MixSpec(**defaults)

    def test_realized_levels(self, scene, stems):
        for sir in (0.0, 5.0, 15.0):
            result = mix_scene(scene, stems, self._spec(sir_db=sir), noise_seed=3)
            p_t = np.mean(result.images["target"].samples[0] ** 2)
            p_i = np.mean(result.images["interferer"].samples[0] ** 2)
            assert abs(10.0 * np.log10(p_t / p_i) - sir) <= 0.01
            assert abs(result.realized_sir_db - sir) <= 0.01
            assert abs(result.realized_snr_db - 30.0) <= 0.01

    def test_non_target_equal_power(self, scene, stems):
        result = mix_scene(scene, stems, self._spec(), noise_seed=3)
        p_t = np.mean(result.images["target"].samples[0] ** 2)
        p_n = np.mean(result.images["non_target"].samples[0] ** 2)
        assert abs(10.0 * np.log10(p_t / p_n)) <= 0.01

    @pytest.mark.parametrize("snr_db", [-3000.0, -3200.0])
    def test_noise_that_overflows_is_rejected(self, scene, stems, snr_db):
        # scaled by about 1e150 the noise passes float32's limit, and at
        # -3200 dB float64's too: the overflow check is the one guard the
        # unscanned outputs have
        with pytest.raises(ValueError, match="the mix overflows float32 WAV samples: the "):
            mix_scene(scene, stems, self._spec(snr_db=snr_db), noise_seed=3)

    def test_outputs_are_not_scanned_again(self, scene, stems, monkeypatch):
        # the overflow check has shown every sample finite; an array passed
        # in from outside is still scanned
        def scan(array):
            raise AssertionError(f"a {array.shape} output was scanned")

        monkeypatch.setattr(signal_core, "_first_non_finite", scan)
        result = mix_scene(scene, stems, self._spec(), noise_seed=3)
        for audio in (result.mixture, *result.images.values(), result.noise):
            assert audio.samples.dtype == np.float64 and audio.samples.shape == (4, 16000)
            assert audio.sample_rate == 16000
        monkeypatch.undo()
        with pytest.raises(ValueError, match="non-finite audio sample at channel 0, sample 0"):
            MultichannelAudio(np.full((2, 3), np.nan), 16000)

    def test_bit_exact_additivity(self, scene, stems):
        result = mix_scene(scene, stems, self._spec(), noise_seed=9)
        resum = (
            (result.images["target"].samples + result.images["non_target"].samples)
            + result.images["interferer"].samples
        ) + result.noise.samples
        assert np.array_equal(resum, result.mixture.samples)

    def test_silent_non_target(self, scene, stems):
        stems = dict(stems)
        stems["non_target"] = np.zeros(16000)
        result = mix_scene(scene, stems, self._spec(), noise_seed=3)
        assert result.gains["non_target"] == 1.0
        assert not result.images["non_target"].samples.any()
        assert result.rirs["non_target"] == []
        assert len(result.rirs["target"]) == scene.num_mics
        assert np.isfinite(result.mixture.samples).all()

    def test_all_silent_stems_realize_no_levels(self, scene):
        silent = {role: np.zeros(16000) for role in ("target", "non_target", "interferer")}
        result = mix_scene(scene, silent, self._spec(), noise_seed=3)
        assert result.realized_sir_db is None and result.realized_snr_db is None
        assert not result.mixture.samples.any()
        assert all(rirs == [] for rirs in result.rirs.values())

    def test_short_stem_rejected(self, scene, stems):
        stems = dict(stems)
        stems["target"] = stems["target"][:100]
        with pytest.raises(ValueError, match="shorter than clip length"):
            mix_scene(scene, stems, self._spec())

    def test_missing_stem_rejected(self, scene, stems):
        stems = dict(stems)
        del stems["interferer"]
        with pytest.raises(ValueError, match="missing stem"):
            mix_scene(scene, stems, self._spec())

    def test_images_are_gain_times_convolution(self, scene, stems):
        result = mix_scene(scene, stems, self._spec(), noise_seed=3)
        for role, rirs in result.rirs.items():
            assert len(rirs) == scene.num_mics
            for m, rir in enumerate(rirs):
                want = fftconvolve(stems[role], rir.taps)[: len(stems[role])]
                want = want * result.gains[role]
                assert np.array_equal(result.images[role].samples[m], want)

    def test_noise_seed_determinism(self, scene, stems):
        a = mix_scene(scene, stems, self._spec(), noise_seed=7)
        b = mix_scene(scene, stems, self._spec(), noise_seed=7)
        assert np.array_equal(a.mixture.samples, b.mixture.samples)
        c = mix_scene(scene, stems, self._spec(), noise_seed=8)
        assert not np.array_equal(a.noise.samples, c.noise.samples)

    def test_off_grid_levels_rejected(self, scene, stems):
        with pytest.raises(ValueError, match="grid"):
            MixSpec(sir_db=2.5, snr_db=30.0)
        with pytest.raises(ValueError, match="grid"):
            MixSpec(sir_db=0.0, snr_db=23.0)
        spec = MixSpec(sir_db=2.5, snr_db=23.0, allow_off_grid=True)
        assert spec.sir_db == 2.5

    @pytest.mark.parametrize("clip_seconds", [1e-6, 3e-5, -1.0, 0.0])
    def test_clip_shorter_than_one_sample_rejected(self, clip_seconds):
        with pytest.raises(ValueError, match="clip_seconds must span at least one sample"):
            MixSpec(clip_seconds=clip_seconds)
        assert MixSpec(clip_seconds=1 / 16000).num_samples == 1

    @pytest.mark.parametrize("field", ["sir_db", "snr_db", "clip_seconds"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_levels_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MixSpec(allow_off_grid=True, **{field: value})

    @pytest.mark.parametrize("field", ["sir_db", "snr_db"])
    @pytest.mark.parametrize("level", [4000.0, -4000.0, 3090.0, -3240.0])
    def test_levels_whose_power_ratio_is_not_a_positive_float_rejected(self, field, level):
        # 10 ** (level / 10) overflows above about 3082.5 dB and is 0
        # below about -3236 dB
        with pytest.raises(ValueError, match=f"{field} {level} dB gives a power ratio"):
            MixSpec(allow_off_grid=True, **{field: level})
        assert MixSpec(allow_off_grid=True, **{field: 3000.0 if level > 0 else -3000.0})

    def test_grid_values_accepted(self):
        for sir in (0, 5, 10, 15):
            for snr in (20, 25, 30):
                MixSpec(sir_db=float(sir), snr_db=float(snr))
