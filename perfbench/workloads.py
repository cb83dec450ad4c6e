"""The benchmark's workloads, their output checks and their metrics.

Every workload runs the whole wasnloc pipeline in one process, as a user
does: ``simulate`` (``generate_dataset``), ``train`` on the generated
train/val splits, then ``eval`` (``evaluate`` once per method, and a
per-example ``localize`` loop that mirrors the CLI) on its test split. The
workloads differ in the rooms they simulate, so every end-to-end and
per-layer metric is measured on each of them.

- paper: the paper's rooms, T60 0.3-0.6 s. Image-source RIR synthesis
  dominates generation.
- dry: rooms with T60 0.15-0.2 s. RIRs are short, so pair features, WAV
  I/O and the network weigh more.

The run is a closed loop with one client: the next operation starts
when the previous one has returned. Set-up runs the pipeline on a tiny
fixed dataset ``Sizes.setup_repeats`` times. The measured part generates
the pipeline's dataset, trains once, then runs rounds of a small dataset,
a training and an evaluation round until the timed operations have used
``seconds``, so that every metric is sampled over the whole run. Times
are wall-clock seconds corrected for the machine's speed (see clock.py).
In a traced run every operation is run twice in a row, untraced and then
traced, on the same inputs; the per-layer numbers come from the traced
copies and the tracing overhead from comparing the two.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from clock import CAL_REF_S, Clock, Timing, seconds
from spans import Tracer

from wasnloc.dataset import FEATURES_NAME, MANIFEST_NAME, SPLITS, DatasetConfig
from wasnloc.features import Grid
from wasnloc.relnet import PAIR_METADATA_SIZE, RelNetConfig, RelNetModel
from wasnloc.scenes import SceneDistribution, sample_scene, scene_from_json
from wasnloc.training import TrainConfig

# Program entry points are looked up on their modules at call time, so
# that the tracer's wrappers are the ones called while it is installed.
# (The package re-exports the function ``evaluate`` under the name of its
# module, hence import_module.)
CLASSICAL = importlib.import_module("wasnloc.classical")
DATASET = importlib.import_module("wasnloc.dataset")
EVALUATE = importlib.import_module("wasnloc.evaluate")
FEATURES = importlib.import_module("wasnloc.features")
RELNET = importlib.import_module("wasnloc.relnet")
TRAINING = importlib.import_module("wasnloc.training")
# Calls made every few milliseconds inside long operations, where the
# clock may take a calibration sample: per example, per training step.
CLOCK_CHECKPOINTS = (
    (DATASET, "generate_example"),
    (EVALUATE, "load_example"),
    (EVALUATE, "example_features"),
    (TRAINING, "adam_step"),
)

# The rooms each workload simulates; mic counts are DatasetConfig's
# defaults (train/val M in {5, 7}, test M in {4, 5, 6, 7}).
SCENES = {
    "paper": SceneDistribution(),
    "dry": SceneDistribution(t60_range=(0.15, 0.2)),
}
WORKLOADS = tuple(SCENES)
EVAL_METHODS = ("tdoa", "slf", "gnn-slf")
GRID_N = 25  # the CLI's default grid

# Workload seeds are spaced so that the scene seeds of two workload seeds
# (master_seed + split offset + index) do not overlap. Within one, the
# candidates for the pipeline's dataset start at 0 and the small datasets
# at FILL_BASE, DATASET_STRIDE apart.
SEED_STRIDE = 10_000_000
DATASET_STRIDE = 1_000
FILL_BASE = 5_000_000
BALANCE_TRIES = 300
# How far a split's count of one mic count may be from an equal share.
BALANCE_TOLERANCE = {"train": 1, "val": 1, "test": 2}
# Set-up runs the pipeline on this fixed dataset, so that its time does
# not depend on which scenes a seed draws.
WARMUP_MASTER_SEED = 1_000_000_000
# evaluate() and the localize loop compute the same per-example errors.
AGREEMENT_TOL_M = 1e-9
# A round repeats a method's evaluate() until its calls add up to this many
# wall seconds, so that a fast method gets as many samples as its noise needs.
EVAL_MIN_S = 0.8

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gen_scenes_per_s": "1/s",
    "train_epoch_s": "s",
    "gnn_error_m": "m",
    "eval_tdoa_scenes_per_s": "1/s",
    "eval_slf_scenes_per_s": "1/s",
    "eval_gnn_scenes_per_s": "1/s",
    "localize_slf_mbal_median_ms": "ms",
    "localize_slf_tail_ms": "ms",
    "localize_gnn_mbal_median_ms": "ms",
    "localize_gnn_tail_ms": "ms",
    "tdoa_error_m": "m",
    "slf_error_m": "m",
}
PER_LAYER = {
    # simulate
    "rir.simulate_rir_ms_per_mic": "ms",
    "signals.convolve_ms_per_mic": "ms",
    "signals.add_noise_ms": "ms",
    "signals.provide_source_signal_ms": "ms",
    "scenes.sample_scene_ms": "ms",
    "features.extract_frame_ms": "ms",
    "relnet.raw_pair_features_ms_per_pair": "ms",
    "dataset.write_example_ms": "ms",
    "dataset.bytes_written": "B/scene",
    "rir.mics": "count",
    "features.pairs": "count",
    # train
    "mlp.forward_f_ms": "ms",
    "mlp.forward_g_ms": "ms",
    "mlp.backward_ms": "ms",
    "mlp.adam_step_ms": "ms",
    "relnet.mae_loss_ms": "ms",
    "training.self_ms_per_step": "ms",
    "mlp.gflop_per_step_computed": "GFLOP",
    "mlp.matmul_gflops": "GFLOP/s",
    "mlp.adam_bytes_per_step_computed": "MB",
    "mlp.adam_gbps": "GB/s",
    "dataset.load_split_features_s": "s",
    # eval
    "dataset.load_example_dir_ms": "ms",
    "dataset.example_features_ms": "ms",
    "features.gcc_phat_ms_per_pair": "ms",
    "features.slf_project_ms_per_pair": "ms",
    "features.theoretical_tdoa_grid_ms_per_pair": "ms",
    "classical.tdoa_localize_ms.m4": "ms",
    "classical.tdoa_localize_ms.m7": "ms",
    "classical.slf_localize_ms.m4": "ms",
    "classical.slf_localize_ms.m7": "ms",
    "relnet.relnet_forward_features_ms.m4": "ms",
    "relnet.relnet_forward_features_ms.m7": "ms",
    "localize_slf_p50_ms.m4": "ms",
    "localize_slf_p50_ms.m7": "ms",
    "localize_gnn_p50_ms.m4": "ms",
    "localize_gnn_p50_ms.m7": "ms",
    "evaluate.self_s.tdoa": "s",
    "evaluate.self_s.slf": "s",
    "evaluate.self_s.gnn-slf": "s",
    "relnet.load_checkpoint_ms": "ms",
    "trace.overhead_pct": "%",
}
UNITS = {**END_TO_END, **PER_LAYER}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; the smoke test shrinks these."""

    setup_repeats: int = 3
    warmup_split: tuple[int, int, int] = (1, 1, 2)
    split: tuple[int, int, int] = (32, 8, 128)  # train / val / test scenes of the pipeline's dataset
    fill_split: tuple[int, int, int] = (3, 1, 2)  # one per round: DatasetConfig's 15k/5k/10k proportions
    train_epochs: int = 24
    localize_passes: int = 3
    localize_every: int = 2  # the localize loop takes every second test example


def _div(a: float, b: float) -> float:
    return a / b if b else math.nan


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def _percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if len(values) else math.nan


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # the first MAX_PROBLEMS
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    MAX_PROBLEMS = 20

    def count(self, problems: list[str], ops: int = 1, failed: int | None = None) -> None:
        """Record ``ops`` attempted operations; by default all fail if any problem."""
        self.attempted += ops
        self.failed += (ops if problems else 0) if failed is None else failed
        self.problems.extend(problems[: max(0, self.MAX_PROBLEMS - len(self.problems))])

    def put(self, name: str, value: float | None) -> None:
        """Record a metric. NaN or None means no operation or span fed it
        (they all failed, or the package lacks a traced function): the
        metric is left out and named in the details."""
        if value is None or not math.isfinite(value):
            self.details.setdefault("unavailable", []).append(name)
            return
        self.metrics[name] = (float(value), UNITS[name])

    def put_timed(self, name: str, value_at) -> None:
        """Record ``value_at(False)``, from times corrected for machine speed,
        and keep ``value_at(True)``, from raw wall times, in the details."""
        self.put(name, value_at(False))
        raw = value_at(True)
        self.details.setdefault("uncorrected", {})[name] = raw if math.isfinite(raw) else None


class Run:
    """State shared by one workload run: directories, tracer, timing."""

    def __init__(self, workload: str, work: Path, seed: int, seconds: float, trace: bool, sizes: Sizes):
        self.scene = SCENES[workload]
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.tracer = Tracer()
        # In a traced run, calibration samples taken inside an operation are
        # spans of their own, so no layer's self time includes them.
        self.clock = Clock(
            CLOCK_CHECKPOINTS, span=(lambda: self.tracer.span("perfbench.calibrate")) if trace else None
        )
        self.result = Result()
        self.measure_start = math.nan  # perf_counter() when set-up ended
        self.timings: dict[bool, list[Timing]] = {False: [], True: []}  # by traced

    def modes(self):
        """Untraced, then (in a traced run) traced: one op per mode."""
        return (False, True) if self.trace else (False,)

    def installed(self, traced: bool, mlps=None):
        return self.tracer.installed(mlps) if traced else nullcontext()

    def timed_call(self, traced: bool, fn, *args, paired: bool = True, **kwargs):
        """(fn's result, Timing) for one measured operation. The tracing
        overhead compares the ops that ran both untraced and traced."""
        out, timing = self.clock.time(fn, *args, **kwargs)
        if paired:
            self.timings[traced].append(timing)
        return out, timing

    def rounds(self, at_least: int):
        """Round numbers 0, 1, ...: at least ``at_least``, then more while one
        more round of the mean length so far ends within ``seconds`` of
        wall time after set-up. Wall time, so that a loop whose operations
        fail at once still ends in time."""
        start, k = time.perf_counter(), 0
        while k < at_least or (time.perf_counter() - start) * (k + 1) / max(k, 1) <= self.left(start):
            yield k
            k += 1

    def left(self, at: float | None = None) -> float:
        """Seconds of the measured budget left at perf_counter() ``at`` (now)."""
        used = (time.perf_counter() if at is None else at) - self.measure_start
        return max(0.0, self.seconds - used)

    def setup(self, prepare) -> None:
        """``prepare(dir)`` setup_repeats times, each in a fresh directory;
        ``setup_s`` is the median. A set-up that raises is a failed
        operation; the run goes on."""
        timings = []
        for k in range(self.sizes.setup_repeats):
            directory = self.work / f"setup{k}"
            self.tracer.phase = f"setup{k}"
            self.clock.calibrate()
            try:
                with self.installed(self.trace):
                    _, timing = self.clock.time(prepare, directory)
                timings.append(timing)
                self.result.count([])
            except Exception as exc:
                self.result.count([f"set-up: {exc!r}"])
            shutil.rmtree(directory, ignore_errors=True)
        self.clock.calibrate()
        self.tracer.phase = "measure"
        self.result.details["setup_s_each"] = seconds(timings)
        if not self.trace:
            self.result.put_timed("setup_s", lambda raw: _median(seconds(timings, raw)))
        self.measure_start = time.perf_counter()

    def stop(self) -> None:
        """End a measured loop: the calibration sample after its last op."""
        self.clock.calibrate()

    def finish(self) -> Result:
        """Add the metrics and details every run has."""
        res = self.result
        if self.trace:
            traced, untraced = (sum(seconds(self.timings[t])) for t in (True, False))
            res.put("trace.overhead_pct", 100.0 * (_div(traced, untraced) - 1.0))
        else:
            res.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        samples = self.clock.samples
        res.details["measured_wall_s"] = time.perf_counter() - self.measure_start
        res.details["missing_bindings"] = sorted(self.clock.skipped | self.tracer.skipped)
        res.details["calibration"] = {
            "ref_s": CAL_REF_S,
            "median_s": statistics.median(samples),
            "min_s": min(samples),
            "max_s": max(samples),
            "samples": len(samples),
        }
        return res


# ---------------------------------------------------------------- checks


def check_dataset(root: Path, config: DatasetConfig) -> list[tuple[str, str]]:
    """(where, problem) pairs for a generated dataset; empty when well formed.

    ``where`` is an example's directory, or "manifest" for the whole dataset.
    The manifest's count plus skipped must equal the number requested for
    every split. Every example needs M readable WAVs of equal, non-zero
    length, a scene.json the package parses with M mics, and, when features
    are precomputed, a features.bin of finite (P, n_central), (P, grid_n^2)
    and (P, 9) arrays.
    """
    root = Path(root)
    try:
        manifest = json.loads((root / MANIFEST_NAME).read_text())
    except (OSError, ValueError) as exc:
        return [("manifest", f"unreadable: {exc!r}")]
    problems = []
    for split in SPLITS:
        info = manifest["splits"][split]
        if info["count"] + manifest["skipped"][split] != config.split_count(split):
            problems.append(("manifest", f"{split}: {info['count']} + {manifest['skipped'][split]} skipped != requested"))
        if info["count"] != len(info["examples"]):
            problems.append(("manifest", f"{split}: count {info['count']} != {len(info['examples'])} listed"))
        for entry in info["examples"]:
            problems += [(entry["dir"], p) for p in _check_example(root / entry["dir"], entry["m"], config)]
    return problems


def _messages(problems: list[tuple[str, str]]) -> list[str]:
    return [f"{where}: {what}" for where, what in problems]


def _check_example(example: Path, m: int, config: DatasetConfig) -> list[str]:
    problems = []
    try:
        scene = scene_from_json((example / "scene.json").read_text())
        if scene.m != m:
            problems.append(f"scene.json has {scene.m} mics, manifest says {m}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"scene.json: {exc!r}")
    lengths = set()
    for k in range(m):
        try:
            fs, data = wavfile.read(example / f"ch_{k:02d}.wav")
            if fs != config.fs or data.ndim != 1 or data.size == 0 or not np.all(np.isfinite(data)):
                problems.append(f"ch_{k:02d}.wav: bad rate, shape or samples")
            lengths.add(data.size)
        except (OSError, ValueError) as exc:
            problems.append(f"ch_{k:02d}.wav: {exc!r}")
    if len(lengths) > 1:
        problems.append(f"channels differ in length: {sorted(lengths)}")
    if (example / f"ch_{m:02d}.wav").exists():
        problems.append(f"more than {m} channels")
    if config.precompute_features:
        p = m * (m - 1) // 2
        want = {"gcc": (p, config.n_central), "slf": (p, config.grid_n**2), "meta": (p, PAIR_METADATA_SIZE)}
        try:
            with np.load(example / FEATURES_NAME, allow_pickle=False) as data:
                for key, shape in want.items():
                    arr = data[key]
                    if arr.shape != shape or not np.all(np.isfinite(arr)):
                        problems.append(f"{FEATURES_NAME}[{key}]: shape {arr.shape}, want finite {shape}")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{FEATURES_NAME}: {exc!r}")
    return problems


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------- pipeline


def _localize(kind: str, example_dir: Path, model):
    """The CLI's ``localize``: read the example, take a frame, localize."""
    received, scene = DATASET.load_example_dir(example_dir)
    frame = FEATURES.extract_frame(received)
    if kind == "slf":
        grid = Grid(scene.room.width, scene.room.length, GRID_N)
        result = CLASSICAL.slf_localize(frame, scene, grid)
    elif kind == "tdoa":
        grid = Grid(scene.room.width, scene.room.length, GRID_N)
        result = CLASSICAL.tdoa_localize(frame, scene, grid)
    else:
        result = RELNET.gnn_localize(model, frame, scene)
    return result.estimate, scene


def _outside_room(estimate, scene) -> bool:
    x, y = estimate
    return not (0.0 <= x <= scene.room.width and 0.0 <= y <= scene.room.length)


def _per_m_means(entries, errors) -> dict[int, float]:
    ms = np.array([e["m"] for e in entries])
    errors = np.asarray(errors)
    return {int(m): float(errors[ms == m].mean()) for m in sorted(set(ms.tolist()))}


def m_balanced_median(samples: list[tuple[int, float]]) -> float:
    """Mean over mic counts of the median latency at each count.

    Latency grows with the M^2 pairs, so the plain median of a split sits
    in the gap between the M = 5 and M = 6 clusters and jumps with the mix
    of counts a seed draws. Weighting every count equally, as the split's
    uniform draw does on average, keeps it steady.
    """
    by_m: dict[int, list[float]] = {}
    for m, dt in samples:
        by_m.setdefault(m, []).append(dt)
    return statistics.fmean(statistics.median(v) for v in by_m.values()) if by_m else math.nan


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of n samples beyond it (p50 at least)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def _check_report(method: str, report, n_examples: int, want: dict[int, float] | None) -> list[str]:
    problems = []
    if sum(r.n_examples for r in report.rows) != n_examples:
        problems.append(f"evaluate {method}: rows do not cover the {n_examples} examples")
    if not all(math.isfinite(r.mean_error_m) for r in report.rows):
        problems.append(f"evaluate {method}: non-finite mean error")
    if want is not None:
        got = {r.m: r.mean_error_m for r in report.rows}
        if got.keys() != want.keys() or any(abs(got[m] - want[m]) > AGREEMENT_TOL_M for m in want):
            problems.append(f"evaluate {method}: per-M means {got} differ from the localize loop's {want}")
    return problems


class Pipeline:
    """simulate -> train -> eval on one run's inputs.

    ``generate`` is the ``simulate`` step, ``train_once`` one ``train``
    call and ``eval_round`` one ``evaluate`` per method plus, in the first
    rounds, a ``localize`` pass over part of the test split. Each keeps the
    untraced timings its end-to-end metrics come from. A step whose input
    is missing (an earlier step failed) does nothing; the failure has been
    counted where it happened.
    """

    def __init__(self, run: Run):
        self.run = run
        self.res = run.result
        self.net_config = RelNetConfig()  # paper architecture: SLF features, 625-wide F and G
        self.data_dir: Path | None = None
        self.manifest: dict | None = None
        self.train_sets = None
        self.model: RelNetModel | None = None
        self.reference: dict[str, dict[int, float]] = {}
        self.scenes = {False: 0, True: 0}
        self.written = 0
        self.gen_s: list[Timing] = []
        self.train_s: list[Timing] = []
        self.eval_s: dict[str, list[Timing]] = {m: [] for m in EVAL_METHODS}
        self.reports = {}
        # (kind, traced) -> example dir -> (M, timings of its localize calls)
        self.localized = {(kind, traced): {} for kind in ("slf", "gnn") for traced in (False, True)}
        self.train_config = TrainConfig(
            max_epochs=run.sizes.train_epochs, patience=run.sizes.train_epochs, seed=run.seed
        )

    def _config(self, split: tuple[int, int, int], master_seed: int) -> DatasetConfig:
        tr, va, te = split
        return DatasetConfig(train=tr, val=va, test=te, master_seed=master_seed, scene=self.run.scene, workers=1)

    def _train_val(self, data_dir: Path, manifest: dict):
        return [DATASET.load_split_features(data_dir, manifest, s, self.net_config) for s in ("train", "val")]

    def warm_up(self, directory: Path) -> None:
        """Set-up: the pipeline once on a tiny fixed dataset, so that every
        code path the measured steps take has run before."""
        data = directory / "data"
        manifest = DATASET.generate_dataset(self._config(self.run.sizes.warmup_split, WARMUP_MASTER_SEED), data)
        model, _ = TRAINING.train(
            RelNetModel.init_random(self.net_config, rng_seed=0),
            *self._train_val(data, manifest),
            TrainConfig(max_epochs=1, seed=0),
        )
        RELNET.save_checkpoint(model, directory / "gnn_slf.ckpt")
        model = RELNET.load_checkpoint(directory / "gnn_slf.ckpt")
        for method in EVAL_METHODS:
            EVALUATE.evaluate(method, data, "test", grid_n=GRID_N, checkpoints=[model] if method.startswith("gnn-") else None)
        entry = manifest["splits"]["test"]["examples"][0]
        for kind in ("slf", "gnn"):
            _localize(kind, data / entry["dir"], model)

    # ------------------------------------------------------------ simulate

    def balanced_seed(self, split: tuple[int, int, int]) -> int:
        """The master seed of the pipeline's dataset: the first candidate
        whose splits draw each allowed mic count about equally often
        (BALANCE_TOLERANCE), or the first candidate if none of
        BALANCE_TRIES does.

        Work per scene grows with M (per mic) and M^2 (per pair), so a
        dataset that happens to draw more large arrays is slower to
        generate, train on and evaluate; a balanced mix keeps the work of
        every seed alike. The mic counts are drawn with the package's own
        ``sample_scene``, as ``generate_example`` draws them.
        """
        first = self.run.seed * SEED_STRIDE
        for j in range(BALANCE_TRIES):
            config = self._config(split, first + j * DATASET_STRIDE)
            if all(self._balanced(config, name) for name in ("val", "train", "test")):
                return config.master_seed
        return first

    @staticmethod
    def _balanced(config: DatasetConfig, split: str) -> bool:
        counts = config.split_mic_counts(split)
        dist = replace(config.scene, mic_counts=counts)
        drawn = []
        for i in range(config.split_count(split)):
            try:
                drawn.append(sample_scene(dist, config.example_seed(split, i)).m)
            except Exception:  # an infeasible scene is skipped, as generation skips it
                continue
        share = len(drawn) / len(counts)
        return all(abs(drawn.count(m) - share) <= BALANCE_TOLERANCE[split] for m in counts)

    def generate(self, split: tuple[int, int, int], master_seed: int, keep: bool = False) -> None:
        """``generate_dataset`` on one dataset. With ``keep`` it runs once,
        traced in a traced run, and if well formed it is the input of the
        later steps."""
        run, res = self.run, self.res
        config = self._config(split, master_seed)
        requested = sum(split)
        for traced in (run.trace,) if keep else run.modes():
            out = run.work / f"gen{master_seed}{'t' if traced else ''}"
            try:
                with run.installed(traced):
                    manifest, timing = run.timed_call(
                        traced, DATASET.generate_dataset, config, out, paired=not (keep and traced)
                    )
            except Exception as exc:  # a raised operation is a failed one
                res.count([f"generate_dataset: {exc!r}"], ops=requested)
                shutil.rmtree(out, ignore_errors=True)
                continue
            # Each requested scene is one operation: skipped or malformed ones fail.
            problems = check_dataset(out, config)
            done = sum(manifest["splits"][s]["count"] for s in SPLITS)
            bad = {where for where, _ in problems}
            failed = requested if "manifest" in bad else requested - done + len(bad)
            res.count(_messages(problems), ops=requested, failed=failed)
            self.scenes[traced] += done
            if traced:
                self.written += _dir_bytes(out) - (out / MANIFEST_NAME).stat().st_size
            else:
                self.gen_s.append(timing)
            if keep and not failed:
                self.data_dir, self.manifest = out, manifest
            else:
                shutil.rmtree(out, ignore_errors=True)

    # ------------------------------------------------------------ train

    def prepare_train(self) -> None:
        """Load the train/val features (untimed; traced in a traced run)."""
        if self.data_dir is None:
            return
        run = self.run
        run.tracer.phase = "prep"
        try:
            with run.installed(run.trace):
                self.train_sets = self._train_val(self.data_dir, self.manifest)
        except Exception as exc:
            self.res.count([f"load_split_features: {exc!r}"])
        finally:
            run.tracer.phase = "measure"

    def train_once(self) -> None:
        """One ``train`` call from the same seeded init; the first model
        whose checks pass is the one evaluated."""
        if self.train_sets is None:
            return
        run, res, epochs = self.run, self.res, self.train_config.max_epochs
        for traced in run.modes():
            model = RelNetModel.init_random(self.net_config, rng_seed=run.seed)
            try:
                with run.installed(traced, mlps={"f": model.f, "g": model.g}):
                    (best, history), timing = run.timed_call(
                        traced, TRAINING.train, model, *self.train_sets, self.train_config
                    )
            except Exception as exc:
                res.count([f"train: {exc!r}"])
                continue
            losses = [x for h in history for x in (h.train_loss, h.val_loss)]
            problems = [] if all(math.isfinite(x) for x in losses) else [f"non-finite loss in {losses}"]
            if len(history) != epochs:
                problems.append(f"trained {len(history)} epochs, expected {epochs}")
            res.count(problems)
            if not traced:
                self.train_s.append(timing)
                if self.model is None and not problems:
                    self.model = best

    # ------------------------------------------------------------ eval

    def prepare_eval(self) -> None:
        """Untimed: the CLI's checkpoint round trip of the trained model, and
        the reference per-M errors of tdoa and slf through the CLI path,
        which the per-M means of evaluate() must reproduce."""
        if self.data_dir is None:
            return
        run, res = self.run, self.res
        if self.model is not None:
            run.tracer.phase = "prep"
            ckpt = run.work / "gnn_slf.ckpt"
            try:
                with run.installed(run.trace):
                    RELNET.save_checkpoint(self.model, ckpt)
                    for _ in range(run.sizes.setup_repeats):
                        loaded = RELNET.load_checkpoint(ckpt)
                self.model = loaded
            except Exception as exc:
                res.count([f"checkpoint save/load: {exc!r}"])
                self.model = None
            finally:
                run.tracer.phase = "measure"
        entries = self.manifest["splits"]["test"]["examples"]
        for method in ("tdoa", "slf"):
            errors = []
            for entry in entries:
                try:
                    estimate, scene = _localize(method, self.data_dir / entry["dir"], None)
                except Exception as exc:
                    res.count([f"localize {method} {entry['dir']}: {exc!r}"])
                    continue
                res.count([f"{method} estimate outside the room"] if _outside_room(estimate, scene) else [])
                errors.append(float(np.linalg.norm(estimate - np.asarray(entry["source_xy"]))))
            if len(errors) == len(entries):  # otherwise already failed, with nothing to compare
                self.reference[method] = _per_m_means(entries, errors)

    def eval_round(self, k: int) -> None:
        """``evaluate`` per method (EVAL_MIN_S); in the first ``localize_passes``
        rounds, also one ``localize`` per kind on every ``localize_every``-th
        test example. A fixed number
        of passes keeps the samples per example, and so the tail
        percentile, independent of speed. Without a model only the
        classical methods run."""
        if self.data_dir is None:
            return
        run, res = self.run, self.res
        entries = self.manifest["splits"]["test"]["examples"]
        methods = EVAL_METHODS if self.model is not None else EVAL_METHODS[:2]
        kinds = ("slf", "gnn") if self.model is not None else ("slf",)
        for traced in run.modes():
            with run.installed(traced):
                for method in methods:
                    checkpoints = [self.model] if method.startswith("gnn-") else None
                    spent = 0.0
                    while spent < EVAL_MIN_S:
                        try:
                            report, timing = run.timed_call(
                                traced, EVALUATE.evaluate, method, self.data_dir, "test", grid_n=GRID_N,
                                checkpoints=checkpoints,
                            )
                        except Exception as exc:
                            res.count([f"evaluate {method}: {exc!r}"])
                            break
                        spent += timing.raw
                        if not traced:
                            self.eval_s[method].append(timing)
                        self.reports.setdefault(method, report)
                        res.count(_check_report(method, report, len(entries), self.reference.get(method)))
                if k >= run.sizes.localize_passes:
                    continue
                for entry in entries[:: run.sizes.localize_every]:
                    for kind in kinds:
                        try:
                            with run.tracer.span(f"localize.{kind}") if traced else nullcontext():
                                (estimate, scene), timing = run.timed_call(
                                    traced, _localize, kind, self.data_dir / entry["dir"], self.model
                                )
                        except Exception as exc:
                            res.count([f"localize {kind} {entry['dir']}: {exc!r}"])
                            continue
                        res.count([f"{kind} estimate outside the room"] if _outside_room(estimate, scene) else [])
                        self.localized[(kind, traced)].setdefault(entry["dir"], (scene.m, []))[1].append(timing)

    # ------------------------------------------------------------ metrics

    def _latency(self, kind: str, traced: bool, raw: bool = False) -> list[tuple[int, float]]:
        """(M, median seconds over the passes) per example."""
        return [(m, statistics.median(seconds(t, raw))) for m, t in self.localized[(kind, traced)].values()]

    def report(self) -> None:
        """Put the metrics; call after the run's last calibration sample."""
        run, res = self.run, self.res
        n_test = len(self.manifest["splits"]["test"]["examples"]) if self.manifest else 0
        if run.trace:
            res.put("dataset.bytes_written", _div(self.written, self.scenes[True]))
            for m in (4, 7):
                for kind in ("slf", "gnn"):
                    at_m = [dt for mm, dt in self._latency(kind, True) if mm == m]
                    res.put(f"localize_{kind}_p50_ms.m{m}", 1e3 * _median(at_m))
            _layer_metrics(run)
        else:
            res.put_timed("gen_scenes_per_s", lambda raw: _div(self.scenes[False], sum(seconds(self.gen_s, raw))))
            epochs = self.train_config.max_epochs
            res.put_timed("train_epoch_s", lambda raw: _median(seconds(self.train_s, raw)) / epochs)
            names = ("eval_tdoa_scenes_per_s", "eval_slf_scenes_per_s", "eval_gnn_scenes_per_s")
            for method, name in zip(EVAL_METHODS, names):
                res.put_timed(name, lambda raw, t=self.eval_s[method]: _div(n_test, _median(seconds(t, raw))))
            for kind in ("slf", "gnn"):
                n = len(self.localized[(kind, False)])
                pct = tail_percentile(n) if n else math.nan
                res.put_timed(
                    f"localize_{kind}_mbal_median_ms", lambda raw: 1e3 * m_balanced_median(self._latency(kind, False, raw))
                )
                res.put_timed(
                    f"localize_{kind}_tail_ms",
                    lambda raw: 1e3 * _percentile([dt for _, dt in self._latency(kind, False, raw)], pct),
                )
                res.details[f"localize_{kind}_tail"] = {"percentile": pct, "samples": n}
            for method, name in zip(EVAL_METHODS, ("tdoa_error_m", "slf_error_m", "gnn_error_m")):
                res.put(name, self.reports[method].overall_mean if method in self.reports else None)
        res.details.update(
            gen_scenes=self.scenes[False],
            train_calls=len(self.train_s),
            eval_calls={m: len(t) for m, t in self.eval_s.items()},
            test_examples=n_test,
            agreement_tol_m=AGREEMENT_TOL_M,
        )


def _layer_metrics(run: Run) -> None:
    """The per-layer metrics that come from the traced copies' spans."""
    res = run.result
    layers = Layers(run.tracer, run.clock)
    # simulate
    mics = layers.calls("rir.simulate_rir")
    pairs = layers.total("relnet.raw_pair_features", "pairs")
    res.put("rir.simulate_rir_ms_per_mic", _div(layers.ms("rir.simulate_rir"), mics))
    res.put("signals.convolve_ms_per_mic", _div(layers.ms("signals.auralize", own=True), mics))
    res.put("signals.add_noise_ms", layers.ms_per_call("signals.add_noise"))
    res.put("signals.provide_source_signal_ms", layers.ms_per_call("signals.provide_source_signal"))
    res.put("scenes.sample_scene_ms", layers.ms_per_call("scenes.sample_scene"))
    res.put("features.extract_frame_ms", layers.ms_per_call("features.extract_frame"))
    res.put("relnet.raw_pair_features_ms_per_pair", _div(layers.ms("relnet.raw_pair_features"), pairs))
    writing = (
        layers.ms("signals.write_wav") + layers.ms("dataset.write_feature_cache")
        + layers.ms("dataset.generate_example", own=True)
    )
    res.put("dataset.write_example_ms", _div(writing, layers.calls("dataset.generate_example")))
    res.put("rir.mics", mics or None)
    res.put("features.pairs", pairs or None)
    # train
    steps = layers.calls("mlp.adam_step")
    res.put("mlp.forward_f_ms", _div(layers.ms("mlp.forward_f"), steps))
    res.put("mlp.forward_g_ms", _div(layers.ms("mlp.forward_g"), steps))
    res.put("mlp.backward_ms", _div(layers.ms("mlp.backward"), steps))
    res.put("mlp.adam_step_ms", _div(layers.ms("mlp.adam_step"), steps))
    res.put("relnet.mae_loss_ms", _div(layers.ms("relnet.mae_loss"), steps))
    own = layers.ms("training.train", own=True) + layers.ms("training.validation", own=True)
    res.put("training.self_ms_per_step", _div(own, steps))
    matmul = ("mlp.forward_f", "mlp.forward_g", "mlp.backward")
    flops = sum(layers.total(n, "flops") for n in matmul)
    res.put("mlp.gflop_per_step_computed", _div(flops, steps) / 1e9)
    res.put("mlp.matmul_gflops", _div(flops, sum(layers.ms(n) for n in matmul)) / 1e6)
    adam_bytes = layers.total("mlp.adam_step", "bytes")
    res.put("mlp.adam_bytes_per_step_computed", _div(adam_bytes, steps) / 1e6)
    res.put("mlp.adam_gbps", _div(adam_bytes, layers.ms("mlp.adam_step")) / 1e6)
    res.put("dataset.load_split_features_s", layers.ms("dataset.load_split_features", phase="prep") / 1e3 or None)
    # eval
    res.put("dataset.load_example_dir_ms", layers.ms_per_call("dataset.load_example_dir"))
    res.put("dataset.example_features_ms", layers.ms_per_call("dataset.example_features"))
    res.put("features.gcc_phat_ms_per_pair", layers.ms_per_call("features.gcc_phat"))
    res.put("features.slf_project_ms_per_pair", layers.ms_per_call("features.slf_project"))
    res.put("features.theoretical_tdoa_grid_ms_per_pair", layers.ms_per_call("features.theoretical_tdoa_grid"))
    for m in (4, 7):
        for name in ("classical.tdoa_localize", "classical.slf_localize", "relnet.relnet_forward_features"):
            res.put(f"{name}_ms.m{m}", layers.median_ms(name, m=m))
    for method in EVAL_METHODS:
        own_ms = layers.ms("evaluate.evaluate", own=True, method=method)
        res.put(f"evaluate.self_s.{method}", _div(own_ms, layers.calls("evaluate.evaluate", method=method)) / 1e3)
    res.put("relnet.load_checkpoint_ms", layers.median_ms("relnet.load_checkpoint", phase="prep"))


# ---------------------------------------------------------------- layers


class Layers:
    """Per-layer sums over a tracer's spans of one phase ("measure" by
    default, or "prep": loading features and the checkpoint), in seconds at
    the clock's reference speed (each span scaled by the samples around its
    start)."""

    def __init__(self, tracer: Tracer, clock: Clock):
        self.spans = []
        for s, own in zip(tracer.spans, tracer.self_times()):
            factor = clock.factor_at(s.start)
            self.spans.append((s, s.duration * factor, own * factor))

    def _select(self, name, phase="measure", **where):
        return [
            x for x in self.spans
            if x[0].name == name and x[0].phase == phase and all(x[0].counts.get(k) == v for k, v in where.items())
        ]

    def calls(self, name, **where) -> int:
        return len(self._select(name, **where))

    def ms(self, name, own: bool = False, **where) -> float:
        """Milliseconds in ``name``'s spans, or their self time with ``own``."""
        return 1e3 * sum(o if own else d for _, d, o in self._select(name, **where))

    def ms_per_call(self, name) -> float:
        return _div(self.ms(name), self.calls(name))

    def median_ms(self, name, **where) -> float:
        return 1e3 * _median(d for _, d, _ in self._select(name, **where))

    def total(self, name, key) -> float:
        return sum(s.counts[key] for s, _, _ in self._select(name))


def run_workload(workload: str, work: Path, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes()) -> tuple[Result, Tracer]:
    """One run: set-up, the pipeline's dataset, a first training, then
    rounds of (a small dataset, a training, an evaluation round) until the
    run's seconds are used, with at least ``localize_passes`` rounds."""
    run = Run(workload, Path(work), seed, seconds, trace, sizes)
    run.work.mkdir(parents=True, exist_ok=True)
    pipeline = Pipeline(run)
    master_seed = pipeline.balanced_seed(sizes.split)
    run.setup(pipeline.warm_up)
    pipeline.generate(sizes.split, master_seed, keep=True)
    pipeline.prepare_train()
    pipeline.train_once()
    pipeline.prepare_eval()
    for k in run.rounds(at_least=sizes.localize_passes):
        pipeline.generate(sizes.fill_split, seed * SEED_STRIDE + FILL_BASE + k * DATASET_STRIDE)
        pipeline.train_once()
        pipeline.eval_round(k)
    run.stop()
    pipeline.report()
    run.result.details["master_seed"] = master_seed
    return run.finish(), run.tracer
