"""Benchmark of the lstsc package: scene simulation, feature extraction and
enhancement, end to end and per layer.

    python3 benchmark/run.py --workload clip8s_t07 --seed 0 --seconds 45 --trace 0

Every workload runs the same four operations on its own seeded scene:
``scene`` (simulate the scene), ``extract_l1`` and ``extract_l4``
(coherence features, variants lstsc-1 and lstsc-4) and ``enhance_l3``
(mask-feedback enhancement, lstsc-3).  The workloads differ in the input
properties the code's cost depends on: clip length and channel count,
reverberation time, and whether the operations go through the Python API
or through the command-line interface with its WAV and feature-file I/O.

Set-up (imports, one untimed operation of each kind, which also runs the
wall-absorption calibration and filterbank design) is timed as
``setup_s``.  Operations then repeat, each kind at least twice, for
``--seconds``; an operation that would end past them is not started.
``scene_s`` is the median seconds per scene; each ``*_xrt`` is a
throughput, clip seconds processed per second spent in operations of that
kind, scaled to a host of fixed speed by ``HostProbe``, which runs after
every measured operation.  Every output
is checked, and its digest must match the set-up run's; an operation that
raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics; ``peak_mem_mb`` comes from
one more, untimed ``extract_l4`` under tracemalloc.  ``--trace 1`` alternates
untraced rounds with rounds traced by ``tracing.Tracer`` and prints the
per-layer metrics, plus ``trace.overhead_ms``: traced minus untraced time
of one round.  Machine details, problems and spans go to
``.bench_out/`` in the checkout.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import time

_START = time.perf_counter()

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS/OpenMP pools are sized when numpy loads, so pin them first.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import platform
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    # import_module, because the package re-exports a function named coherence
    cli, coherence, enhance, metrics, scenarios, signal_core = (
        importlib.import_module(f"lstsc.{name}")
        for name in ("cli", "coherence", "enhance", "metrics", "scenarios", "signal_core")
    )
except ImportError:  # main() reports the missing sources
    pass
OUT_DIR = ROOT / ".bench_out"
FS = 16000
KINDS = ("scene", "extract_l1", "extract_l4", "enhance_l3")
VARIANTS = {"extract_l1": "lstsc-1", "extract_l4": "lstsc-4", "enhance_l3": "lstsc-3"}
MIN_SAMPLES = 2
# the mixing levels both scene paths default to, and how exactly the
# mixer must realize them
SIR_DB, SNR_DB = 0.0, 30.0
LEVEL_TOLERANCE_DB = 1e-9
# Band pooling is a weighted mean, which may round a few ulps past +-1.
RANGE_TOLERANCE = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    """Scene and path of one workload; ``num_mics`` sizes the CLI's circular
    array, API scenes use the 4-mic ULA of ``build_sifting_scenario``."""

    t60: float
    clip_seconds: float
    num_mics: int
    cli: bool


WORKLOADS = {
    # 30 s, 8-mic circle at T60 0.3, everything through lstsc.cli.main
    "long30s_m8_cli": Workload(t60=0.3, clip_seconds=30.0, num_mics=8, cli=True),
    # the 8 s 4-mic ULA sifting clip through the API, reverberant: image
    # enumeration dominates the scene
    "clip8s_t07": Workload(t60=0.7, clip_seconds=8.0, num_mics=4, cli=False),
}


# The shared host's speed drifts by up to a third over minutes, and the
# feature operations of a run slow together.  Their throughputs are
# therefore scaled by the probe's median time in the run over
# PROBE_REFERENCE_S, its typical time on a 2-vCPU Xeon VM, and read as on a
# host where the probe takes that long.  There, between ten 45 s runs,
# scaling cut their spread (interquartile range over median) from 0.09-0.17
# to 0.05-0.07.  Scene times are not scaled: scene simulation does not
# follow the probe as closely, and in the same runs scaling moved their
# spread from 0.07-0.13 to 0.04-0.24.
PROBE_REFERENCE_S = 0.03


class HostProbe:
    """Fixed work that does not use lstsc, of the program's kinds: a
    per-frame loop of small complex array operations, FFT round trips,
    pure-Python arithmetic and a pass over arrays larger than the cache."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal((200, 4, 257)) + 1j * rng.standard_normal((200, 4, 257))
        self.signal = rng.standard_normal((4, 32000))
        self.points = rng.standard_normal((300000, 3))
        self.bins = rng.integers(0, 20000, 300000)

    def __call__(self) -> float:
        """Runs the probe once; returns the seconds it took."""
        start = time.perf_counter()
        acc = np.zeros((4, 257), complex)
        for frame in self.frames:
            acc = 0.9 * acc + 0.1 * frame * frame.conj()
            np.abs(acc).max()
        for _ in range(4):
            np.fft.irfft(np.fft.rfft(self.signal, axis=1), axis=1)
        total = 0
        for i in range(60000):
            total += i * i % 7
        dist = np.sqrt(((self.points - 0.5) ** 2).sum(axis=1))
        np.bincount(self.bins, weights=0.9**dist, minlength=20000)
        return time.perf_counter() - start


def _digest(*chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


def _planes(features) -> list:
    """Every 2-D float array a feature result carries."""
    return [
        v for v in vars(features).values()
        if isinstance(v, np.ndarray) and v.ndim == 2 and v.dtype.kind == "f"
    ]


def _plane_problems(planes, num_frames: int, widths) -> list[str]:
    problems = []
    for plane in planes:
        if plane.shape[0] != num_frames or plane.shape[1] not in widths:
            problems.append(f"plane shape {plane.shape}, expected ({num_frames}, {widths})")
        elif not np.all(np.isfinite(plane)):
            problems.append("non-finite feature values")
        elif plane.min() < -1.0 - RANGE_TOLERANCE or plane.max() > 1.0 + RANGE_TOLERANCE:
            problems.append("feature values outside [-1, 1]")
    return problems


def _scene_problems(sir_db, snr_db, labels) -> list[str]:
    problems = []
    if sir_db is None or abs(sir_db - SIR_DB) > LEVEL_TOLERANCE_DB:
        problems.append(f"realized SIR {sir_db} dB, requested {SIR_DB}")
    if abs(snr_db - SNR_DB) > LEVEL_TOLERANCE_DB:
        problems.append(f"realized SNR {snr_db} dB, requested {SNR_DB}")
    if not all(np.any(label) for label in labels):
        problems.append("empty frame label")
    return problems


def frame_labels(target_ref: np.ndarray, num_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Target-active and target-absent frames from the target image alone.

    A frame is active within 20 dB of the loudest target frame and absent
    more than 60 dB below it (past the reverberant tail); warm-up frames
    are neither.  The same rule serves API and CLI scenes.
    """
    cfg = signal_core.StftConfig()
    frames = np.lib.stride_tricks.sliding_window_view(target_ref, cfg.frame_len)[:: cfg.hop][:num_frames]
    power = np.einsum("ij,ij->i", frames, frames)
    active = power >= 1e-2 * power.max()
    absent = power <= 1e-6 * power.max()
    warmup = coherence.CoherenceConfig().warmup_frames
    active[:warmup] = absent[:warmup] = False
    return active, absent


class ApiRunner:
    """Operations through the package's Python API."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.configs = {k: coherence.CoherenceConfig.for_variant(v) for k, v in VARIANTS.items()}

    def call(self, kind: str):
        if kind == "scene":
            return scenarios.build_sifting_scenario(
                self.seed, t60=self.workload.t60, clip_seconds=self.workload.clip_seconds
            )
        if kind == "enhance_l3":
            return enhance.enhance_stream(self.mixture, self.configs[kind])
        specs = signal_core.stft_multichannel(self.mixture)
        return coherence.compute_lstsc(specs, self.configs[kind], sample_rate=FS)

    def check(self, kind: str, out) -> tuple[str, list[str]]:
        if kind == "scene":
            self.mixture = out.mixture
            self.target = out.mix.images["target"].samples[0]
            self.num_frames = signal_core.StftConfig().num_frames(out.mixture.num_samples)
            labels = (out.target_active, out.interferer_only)
            problems = _scene_problems(out.mix.realized_sir_db, out.mix.realized_snr_db, labels)
            return _digest(out.mixture.samples), problems
        if kind == "enhance_l3":
            self.enhanced = out.enhanced.samples[0]
            problems = _plane_problems(_planes(out.features), self.num_frames, (257,))
            if out.enhanced.num_samples != self.mixture.num_samples:
                problems.append("enhanced length differs from input")
            if not np.all(np.isfinite(out.enhanced.samples)):
                problems.append("non-finite enhanced samples")
            if out.mask.data.min() < 0.0 or out.mask.data.max() > 1.0:
                problems.append("mask outside [0, 1]")
            return _digest(out.enhanced.samples, out.mask.data), problems
        planes = _planes(out)
        if kind == "extract_l4":
            self.margin_plane = out.banded_gamma_global_warped
        return _digest(*planes), _plane_problems(planes, self.num_frames, (257, 48))


class CliRunner:
    """Operations through ``lstsc.cli.main``, in process, on WAV files."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = workdir
        config = {
            "t60": workload.t60,
            "array": {"kind": "circular", "num_mics": workload.num_mics},
            "mix": {"clip_seconds": workload.clip_seconds},
        }
        (workdir / "scene.config.json").write_text(json.dumps(config))
        self.num_samples = int(round(workload.clip_seconds * FS))
        self.num_frames = signal_core.StftConfig().num_frames(self.num_samples)

    def _argv(self, kind: str) -> list[str]:
        d = self.dir
        if kind == "scene":
            return ["simulate", "--config", str(d / "scene.config.json"), "--seed", str(self.seed), "--out", str(d / "scene")]
        mixture = str(d / "scene" / "mixture.wav")
        if kind == "enhance_l3":
            return ["enhance", "--in", mixture, "--variant", VARIANTS[kind], "--out", str(d / "enhanced.wav")]
        return ["extract", "--in", mixture, "--variant", VARIANTS[kind], "--out", str(d / f"{kind}.lsts")]

    def call(self, kind: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self._argv(kind))

    def check(self, kind: str, code: int) -> tuple[str, list[str]]:
        if code != 0:
            return "", [f"lstsc {self._argv(kind)[0]} exited with {code}"]
        d = self.dir
        if kind == "scene":
            files = sorted((d / "scene").iterdir())
            manifest = json.loads((d / "scene" / "scene.json").read_text())
            self.target = signal_core.load_wav(d / "scene" / "target.wav").samples[0]
            labels = frame_labels(self.target, self.num_frames)
            problems = _scene_problems(manifest["realized_sir_db"], manifest["realized_snr_db"], labels)
            return _digest(*(f.read_bytes() for f in files)), problems
        if kind == "enhance_l3":
            wav = d / "enhanced.wav"
            enhanced = signal_core.load_wav(wav)
            self.enhanced = enhanced.samples[0]
            problems = []
            if enhanced.num_samples != self.num_samples:
                problems.append(f"enhanced WAV has {enhanced.num_samples} samples, expected {self.num_samples}")
            if not np.all(np.isfinite(enhanced.samples)):
                problems.append("non-finite enhanced samples")
            return _digest(wav.read_bytes(), (d / "enhanced.mask.csv").read_bytes()), problems
        path = d / f"{kind}.lsts"
        parsed = coherence.read_features(path)
        width, count = (48, 4) if kind == "extract_l4" else (257, 3)
        problems = []
        if (parsed["width"], parsed["num_planes"]) != (width, count):
            problems.append(f"feature header {parsed['width']} wide x {parsed['num_planes']} planes, expected {width} x {count}")
        problems += _plane_problems(parsed["planes"], self.num_frames, (width,))
        if kind == "extract_l4" and len(parsed["planes"]) == 4:
            self.margin_plane = parsed["planes"][2]  # gamma_global_warped, banded
        return _digest(path.read_bytes()), problems


class Ledger:
    """Runs operations, checks them and keeps their times and failures."""

    def __init__(self, runner, tracer) -> None:
        self.runner = runner
        self.tracer = tracer
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.times: dict[tuple[bool, str], list[float]] = {}
        self.peak_bytes = 0

    def run(self, round_id, kind: str, traced: bool = False, memory: bool = False) -> None:
        """One operation; with ``memory``, its tracemalloc peak goes to ``peak_bytes``."""
        self.attempted += 1
        try:
            if memory:
                tracemalloc.start()
            if traced:
                self.tracer.op = (round_id, kind)
                with self.tracer.span(f"op.{kind}"):
                    start = time.perf_counter()
                    out = self.runner.call(kind)
                    elapsed = time.perf_counter() - start
                self.tracer.op = None
            else:
                start = time.perf_counter()
                out = self.runner.call(kind)
                elapsed = time.perf_counter() - start
            if memory:
                self.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            digest, problems = self.runner.check(kind, out)
        except Exception as exc:  # a failing operation is counted, not fatal
            if tracemalloc.is_tracing():
                tracemalloc.stop()
            if self.tracer is not None:
                self.tracer.op = None
            self.problems.append(f"{round_id}:{kind}: {type(exc).__name__}: {exc}")
            return
        expected = self.digests.setdefault(kind, digest)
        if digest != expected:
            problems.append("output digest differs from the set-up run")
        if problems:
            self.problems.append(f"{round_id}:{kind}: " + "; ".join(problems))
        if round_id != "setup" and not memory:
            self.times.setdefault((traced, kind), []).append(elapsed)

    def median(self, kind: str, traced: bool = False) -> float:
        return statistics.median(self.times[(traced, kind)])

    def throughput(self, kind: str, clip_seconds: float) -> float:
        # Work done per second, as suits batch work.  The machine's speed
        # drifts over ~10 s; under that drift the total spread no more
        # than the median between ten runs (7-15% against 8-21%).
        times = self.times[(False, kind)]
        return clip_seconds * len(times) / sum(times)


def quality(runner) -> dict[str, float]:
    """Sifting margin of the lstsc-4 features and SI-SDR of the enhanced
    output, both against the scene's target image."""
    active, absent = frame_labels(runner.target, runner.margin_plane.shape[0])
    return {
        "coherence.sifting_margin": float(runner.margin_plane[absent].mean() - runner.margin_plane[active].mean()),
        "enhance.si_sdr_db": metrics.si_sdr(runner.target, runner.enhanced).value_db,
    }


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _fits(loop_start: float, seconds: float, expected: float) -> bool:
    """Whether work expected to take ``expected`` s ends within the run."""
    return time.perf_counter() - loop_start + expected <= seconds


def run_workload(name: str, workload: Workload, seed: int, seconds: float, trace: bool, start: float) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    tracer = tracing.Tracer() if trace else None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = (CliRunner if workload.cli else ApiRunner)(workload, seed, Path(tmp))
        ledger = Ledger(runner, tracer)
        if trace:
            tracer.install()
        for kind in KINDS:
            ledger.run("setup", kind, traced=trace)
        if trace:
            tracer.uninstall()
        setup_s = time.perf_counter() - start

        probe_s: list[float] = []
        loop_start = time.perf_counter()
        if trace:
            # one operation of each kind per round, every other round traced
            rounds = 0
            while rounds < MIN_SAMPLES or _fits(loop_start, seconds, (time.perf_counter() - loop_start) / rounds):
                traced = rounds % 2 == 1
                if traced:
                    tracer.install()
                for kind in KINDS:
                    ledger.run(rounds, kind, traced=traced)
                if traced:
                    tracer.uninstall()
                rounds += 1
        else:
            # The kind with the least measured time goes next, so that a
            # slow scene does not leave the feature operations few samples.
            count = dict.fromkeys(KINDS, 0)
            spent = dict.fromkeys(KINDS, 0.0)
            probe = HostProbe()
            while True:
                kind = min(KINDS, key=lambda k: (count[k] >= MIN_SAMPLES, spent[k]))
                if count[kind] >= MIN_SAMPLES and not _fits(loop_start, seconds, spent[kind] / count[kind]):
                    break
                begin = time.perf_counter()
                ledger.run(count[kind], kind)
                spent[kind] += time.perf_counter() - begin
                count[kind] += 1
                probe_s.append(probe())

        if trace:
            per_round = [tracing.layer_metrics(tracer.spans, r) for r in range(1, rounds, 2)]
            values = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
            values["roomsim.calibrate_ms"] = tracing.calibrate_ms(tracer.spans)
            values.update(quality(runner))
            values["trace.overhead_ms"] = 1e3 * sum(
                ledger.median(kind, traced=True) - ledger.median(kind) for kind in KINDS
            )
        else:
            # extract_l4 only: its peak matches enhance_l3's within 5% while
            # tracemalloc slows the CLI's per-row mask CSV writer 7x
            ledger.run("memory", "extract_l4", memory=True)
            clip = workload.clip_seconds
            slowdown = statistics.median(probe_s) / PROBE_REFERENCE_S
            print(f"# host slowdown {slowdown:.4f}: probe median {statistics.median(probe_s):.5f} s "
                  f"over {len(probe_s)} probes, reference {PROBE_REFERENCE_S} s")
            values = {
                "setup_s": setup_s,
                "scene_s": ledger.median("scene"),
                "extract_l1_xrt": ledger.throughput("extract_l1", clip) * slowdown,
                "extract_l4_xrt": ledger.throughput("extract_l4", clip) * slowdown,
                "enhance_l3_xrt": ledger.throughput("enhance_l3", clip) * slowdown,
                "peak_mem_mb": ledger.peak_bytes / 1e6,
            }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    report = {
        "workload": name,
        "seed": seed,
        "machine": machine(),
        "times_s": {f"{kind}{'.traced' if traced else ''}": t for (traced, kind), t in ledger.times.items()},
        "problems": ledger.problems,
        "probe_s": probe_s,
        "spans": tracer.spans if trace else [],
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report))
    print(f"# {name} seed {seed}: {report['machine']}")
    for label, samples in report["times_s"].items():
        print(f"# {label}: {len(samples)} samples, median {statistics.median(samples):.4f} s, "
              f"range {min(samples):.4f}-{max(samples):.4f} s")
    failed = len(ledger.problems)
    return {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lstsc" / "__init__.py").is_file():
        print(f"error: no lstsc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), _START)
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
