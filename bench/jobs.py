"""The three jobs the benchmark times, each with the checks on its outputs.

* `TrainJob`: seeded SGD (`training.train`) on the `toy` config at batch 32
  over a dataset rendered in set-up. One operation is one SGD step.
* `ExplainJob`: the per-frame study on pre-rendered `mixed` frames with the
  committed trained `toy` weights: what `visback explain` computes, then
  `segment` and the 63-forward `run_shift_experiment`. One operation is one
  frame.
* `GenEvalJob`: render scenes, save and reload them as a dataset directory,
  and score them with batched inference on the `default` config with seeded
  init weights. One operation is one round of `GEN_ROUND` scenes.

Every job calls the program through module attributes (`network.forward`,
`harness.run_shift_experiment`, ...) so the tracer's hooks see the calls.
A job records each operation with the phase it ran in ("untraced" or
"traced"); only untraced operations feed the end-to-end metrics.

Times are calibrated: `Calibration` runs a fixed kernel right before and
after every timed part of an operation (and every SGD step), and the part's
wall time is scaled by REFERENCE_S / (the kernel's mean time around it).
The CPU speed of a shared host drifts by a third between minutes; the
kernel slows with it, so the calibrated time of a fixed piece of work stays
put (block-to-block variation fell from 10% raw to 1.7% calibrated in a
100 s probe).
"""

from __future__ import annotations

import contextlib
import math
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from visback import harness, network, saliency, scenes, training
from visback.config import default_config, toy_config
from visback.tensor import Tensor
from visback.weights import init_weights, load_weights

from oracles import mask_loops

WEIGHTS_PATH = Path(__file__).resolve().parent / "toy_weights.pnw"
BATCH = 32            # SGD batch of the train job (the TrainConfig default)
TRAIN_SEED = 0        # what `visback train` uses without --seed; the data carries the workload seed
EVAL_BATCH = 64       # evaluate_mse batch of the gen_eval job (its default)
GEN_ROUND = 64        # scenes per gen_eval round
FRAME_POOL = 16       # distinct frames the explain job cycles through
CONVERGED_EPOCHS = 4  # the toy net sits on a plateau for ~3 epochs; only longer runs must descend
DESCENT = 0.8         # ... to below this share of the first epoch's loss (0.46-0.63 seen at 1000 x 4)
MASK_TOL = 1e-5       # acceptance 2: mask vs the straight-loop reference
BATCH_REL_TOL = 1e-5  # per-frame steer_all vs forward_batch on the same shifted frames
MSE_REL_TOL = 1e-6    # evaluate_mse vs per-frame forward errors
MSE_SAMPLE = 4        # frames per gen_eval round checked against per-frame forward


def job_rng(seed: int, job: str) -> np.random.Generator:
    """Independent seeded stream per job, so a job's inputs do not depend on the others."""
    return np.random.default_rng([seed, zlib.crc32(job.encode())])


REFERENCE_S = 1e-3  # calibrated times are in units where the calibration kernel takes 1 ms


class Calibration:
    """A fixed mix of small GEMMs, interpreter work and memory copies, the
    three kinds of work the program does; its time tracks the host's speed."""

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)
        self.buf = np.zeros(1 << 18, np.float32)
        self.samples: list[float] = []
        for _ in range(5):  # the first calls pay for BLAS start-up and page faults
            self()
        self.samples.clear()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            self.a @ self.a
        x = 0
        for k in range(20000):
            x += k
        for _ in range(5):
            self.buf.copy()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds


class Stopwatch:
    """Times consecutive parts of one operation, each between two calibrations."""

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.parts: dict[str, tuple[float, float]] = {}  # name -> (wall seconds, scale)
        self.ref = calibrate()
        self.t0 = time.perf_counter()

    def lap(self, name: str) -> None:
        wall = time.perf_counter() - self.t0
        ref = self.calibrate()
        self.parts[name] = (wall, 2 * REFERENCE_S / (self.ref + ref))
        self.ref = ref
        self.t0 = time.perf_counter()


@dataclass
class Op:
    phase: str
    ok: bool
    parts: dict = field(default_factory=dict)  # name -> (wall seconds, calibration scale)

    def ms(self, part: str | None = None) -> float:
        """Calibrated milliseconds of the whole operation or of one part."""
        items = self.parts.values() if part is None else [self.parts[part]]
        return 1e3 * sum(wall * scale for wall, scale in items)

    def wall_ms(self, part: str | None = None) -> float:
        items = self.parts.values() if part is None else [self.parts[part]]
        return 1e3 * sum(wall for wall, _ in items)


class Job:
    name = ""
    pause = staticmethod(contextlib.nullcontext)  # replaced by Tracer.paused in a traced run
    between_steps = None  # () -> None; lets a long operation host other jobs' operations

    def __init__(self, calibrate: Calibration):
        self.calibrate = calibrate
        self.ops: list[Op] = []
        self.errors: list[str] = []
        self.stopped = False

    def run_one(self, phase: str) -> None:
        """One operation; an exception fails it and stops the job."""
        if self.stopped:
            return
        try:
            self.step(phase)
        except Exception as exc:  # a failing program must still yield a result line
            self.errors.append(f"{self.name}: {type(exc).__name__}: {exc}")
            self.ops.append(Op(phase, False))
            self.stopped = True

    def untraced(self) -> list[Op]:
        return [op for op in self.ops if op.phase == "untraced" and op.ok]


class TrainJob(Job):
    name = "train"

    def __init__(self, calibrate: Calibration, seed: int, n_scenes: int, epochs: int):
        super().__init__(calibrate)
        rng = job_rng(seed, self.name)
        self.data_seed = int(rng.integers(2**31))
        self.n_scenes = n_scenes
        self.epochs = epochs
        self.reference = None  # loss history of the first call

    def setup(self) -> None:
        self.cfg = toy_config()
        self.dataset = training.generate_dataset(self.n_scenes, style="mixed", seed=self.data_seed)
        self.variance = self.dataset.label_variance()

    def step(self, phase: str) -> None:
        """One seeded training run; records every SGD step in it as an operation.

        Each step runs between two calibrations. They and the operations
        `between_steps` hosts are taken out of the step and run times.
        """
        marks: list[tuple[float, float, float]] = []  # (entry time, loss, calibration) per loss+grads call
        paused = 0.0
        original = getattr(network, "_loss_and_grads_batch", None)
        if original is not None:
            def marker(*args, **kwargs):
                nonlocal paused
                t = time.perf_counter()
                if self.between_steps is not None:
                    self.between_steps()
                ref = self.calibrate()
                paused += time.perf_counter() - t
                t = time.perf_counter() - paused
                loss, grads = original(*args, **kwargs)
                marks.append((t, loss, ref))
                return loss, grads
            network._loss_and_grads_batch = marker
        try:
            tc = training.TrainConfig(epochs=self.epochs, batch_size=BATCH, seed=TRAIN_SEED)
            t0 = time.perf_counter()
            _, losses = training.train(self.cfg, tc, self.dataset)
            t1 = time.perf_counter() - paused
        finally:
            if original is not None:
                network._loss_and_grads_batch = original

        n_steps = self.epochs * math.ceil(self.n_scenes / BATCH)
        if marks:
            edges = [t for t, _, _ in marks] + [t1]
            refs = [r for _, _, r in marks] + [self.calibrate()]
            steps = [Op(phase, True, {"step": (b - a, 2 * REFERENCE_S / (ra + rb))})
                     for a, b, ra, rb in zip(edges, edges[1:], refs, refs[1:])]
        else:  # the step boundary hook is gone: spread the call evenly
            scale = REFERENCE_S / self.calibrate()
            steps = [Op(phase, True, {"step": ((t1 - t0) / n_steps, scale)}) for _ in range(n_steps)]
        ok = (
            len(steps) == n_steps
            and all(math.isfinite(loss) for _, loss, _ in marks)
            and all(math.isfinite(v) for v in losses)
            and (self.epochs < CONVERGED_EPOCHS or losses[-1] < DESCENT * losses[0])
            and (self.reference is None or tuple(losses) == self.reference)
        )
        if self.reference is None:
            self.reference = tuple(losses)
        if not ok:
            self.errors.append(f"train: step count {len(steps)}/{n_steps} or loss history {losses} failed")
        for op in steps:
            op.ok = ok
        self.ops.extend(steps)

    def samples_per_step(self) -> float:
        """Mean batch size: the last batch of an epoch holds the remainder."""
        return self.n_scenes / math.ceil(self.n_scenes / BATCH)

    def metrics(self) -> dict:
        steps = [op.ms() for op in self.untraced()]
        losses = self.reference or (float("nan"),)
        return {
            "train_samples_per_s": 1e3 * self.samples_per_step() * len(steps) / sum(steps) if steps else None,
            "train_step_ms_p50": percentile(steps, 50),
            "train_step_ms_p90": percentile(steps, 90),
            "train_loss_ratio": float(np.mean(losses)) / self.variance,
        }

    def details(self) -> dict:
        losses = self.reference or (float("nan"),)
        ops = self.untraced()
        return {
            "scenes": self.n_scenes, "epochs": self.epochs, "batch": BATCH,
            "step_ms": tail_info([op.ms() for op in ops]),
            "step_wall_ms_p50": percentile([op.wall_ms() for op in ops], 50),
            "final_epoch_loss_ratio": losses[-1] / self.variance,
            "epoch_loss_ratios": [v / self.variance for v in losses],
        }


class ExplainJob(Job):
    name = "explain"

    def __init__(self, calibrate: Calibration, seed: int):
        super().__init__(calibrate)
        self.frame_seed = int(job_rng(seed, self.name).integers(2**31))
        self.references: dict[int, tuple] = {}

    def setup(self) -> None:
        self.weights = load_weights(WEIGHTS_PATH)
        self.cfg = self.weights.config
        if self.cfg != toy_config():
            raise ValueError(f"{WEIGHTS_PATH} does not hold a toy-config model")
        rng = np.random.default_rng(self.frame_seed)
        self.frames = [
            scenes.render_scene_rgb(training.sample_scene_params(rng, "mixed"),
                                    self.cfg.input_width, self.cfg.input_height)
            for _ in range(FRAME_POOL)
        ]
        self.radius = harness.scaled_dilation_radius(self.cfg.input_width)

    def step(self, phase: str) -> None:
        k = len(self.ops) % FRAME_POOL
        rgb = self.frames[k]
        watch = Stopwatch(self.calibrate)
        image = Tensor(scenes.rgb_to_yuv(rgb))
        out, trace = network.forward(self.cfg, self.weights, image)
        mask, _ = saliency.compute_mask(trace, self.cfg)
        watch.lap("explain")
        seg = harness.segment(mask, harness.DEFAULT_THRESHOLD, self.radius)
        result = harness.run_shift_experiment(self.cfg, self.weights, image, seg, harness.DEFAULT_SHIFTS)
        watch.lap("shift")
        with self.pause():
            ok = self.check(k, image, out.inverse_turning_radius, trace, mask, seg, result)
        self.ops.append(Op(phase, ok, watch.parts))

    def check(self, k, image, pred, trace, mask, seg, result) -> bool:
        series = (result.steer_class1, result.steer_class2, result.steer_all)
        fits = [result.fit(mode) for mode in harness.MODES]
        problems = []
        m = mask.data
        if m.shape != (self.cfg.input_height, self.cfg.input_width):
            problems.append(f"mask shape {m.shape}")
        if not (m.min() >= 0.0 and m.max() == 1.0):
            problems.append(f"mask range [{m.min()}, {m.max()}]")
        i0 = result.shifts.index(0)
        if not all(s[i0] == pred for s in series):
            problems.append("dx=0 steering differs from the explain prediction")
        if not all(math.isfinite(v) for f in fits for v in (f.slope, f.intercept, f.r_squared)):
            problems.append("non-finite line fit")
        if k not in self.references:
            problems += self._reference_checks(image, trace, m, seg, result)
            self.references[k] = (m.tobytes(), series)
        elif self.references[k] != (m.tobytes(), series):
            problems.append("rerun of the same frame is not bit-identical")
        if problems:
            self.errors.append(f"explain frame {k}: " + "; ".join(problems))
        return not problems

    def _reference_checks(self, image, trace, m, seg, result) -> list[str]:
        """Straight-loop mask oracle and a batched forward over the shifted frames."""
        problems = []
        geoms = []
        for i in self.cfg.conv_indices():
            g = self.cfg.layers[i].geometry
            geoms.append((g.kernel_h, g.kernel_w, g.stride_h, g.stride_w))
        maps = [t.data.astype(np.float64) for _, t in trace.conv_entries]
        want = mask_loops(maps, geoms, m.shape)
        if not np.allclose(m, want, rtol=MASK_TOL, atol=MASK_TOL):
            problems.append(f"mask deviates from mask_loops by {np.abs(m - want).max():.2e}")
        shifted = np.stack([harness.shift_class(image, seg, "all", dx).data for dx in result.shifts])
        batch = network.forward_batch(self.cfg, self.weights, shifted)
        steer = np.asarray(result.steer_all)
        scale = float(np.abs(steer).max())
        if not np.allclose(steer, batch, rtol=0.0, atol=BATCH_REL_TOL * scale):
            problems.append(f"steer_all deviates from forward_batch by {np.abs(steer - batch).max():.2e}")
        return problems

    def metrics(self) -> dict:
        explain = [op.ms("explain") for op in self.untraced()]
        shift = [op.ms("shift") for op in self.untraced()]
        return {
            "explain_ms_p50": percentile(explain, 50),
            "explain_ms_p90": percentile(explain, 90),
            "shift_ms_p50": percentile(shift, 50),
            "shift_ms_p90": percentile(shift, 90),
        }

    def details(self) -> dict:
        ops = self.untraced()
        return {
            "frames": len(ops), "distinct_frames": len(self.references),
            "explain_ms": tail_info([op.ms("explain") for op in ops]),
            "shift_ms": tail_info([op.ms("shift") for op in ops]),
            "shift_wall_ms_p50": percentile([op.wall_ms("shift") for op in ops], 50),
        }

    def batch_speedup(self, reps: int = 5) -> float:
        """Serial per-frame forward time over forward_batch time, both on 2 x FRAME_POOL frames."""
        images = [Tensor(scenes.rgb_to_yuv(rgb)) for rgb in self.frames] * 2
        stack = np.stack([im.data for im in images])
        serial, batched = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            for im in images:
                network.forward(self.cfg, self.weights, im)
            t1 = time.perf_counter()
            network.forward_batch(self.cfg, self.weights, stack)
            t2 = time.perf_counter()
            serial.append(t1 - t0)
            batched.append(t2 - t1)
        return float(np.median(serial) / np.median(batched))


class GenEvalJob(Job):
    name = "gen_eval"

    def __init__(self, calibrate: Calibration, seed: int, workdir: Path):
        super().__init__(calibrate)
        rng = job_rng(seed, self.name)
        self.weight_seed = int(rng.integers(2**31))
        self.round_rng = np.random.default_rng(int(rng.integers(2**31)))
        self.workdir = workdir

    def setup(self) -> None:
        self.cfg = default_config()
        self.weights = init_weights(self.cfg, seed=self.weight_seed)

    def step(self, phase: str) -> None:
        target = self.workdir / "dataset"
        shutil.rmtree(target, ignore_errors=True)
        seed = int(self.round_rng.integers(2**31))
        watch = Stopwatch(self.calibrate)
        ds = training.generate_dataset(GEN_ROUND, style="mixed", seed=seed)
        watch.lap("gen")
        ds.save(target)
        loaded = training.FrameDataset.load(target)
        watch.lap("io")
        mse = training.evaluate_mse(self.cfg, self.weights, loaded, batch_size=EVAL_BATCH)
        watch.lap("eval")
        with self.pause():
            ok = self.check(ds, loaded, mse)
        self.ops.append(Op(phase, ok, watch.parts))

    def check(self, ds, loaded, mse) -> bool:
        problems = []
        if not (np.array_equal(ds.images_rgb, loaded.images_rgb) and ds.images_rgb.dtype == loaded.images_rgb.dtype
                and ds.labels.tobytes() == loaded.labels.tobytes()):
            problems.append("load(save(ds)) is not bit-identical")
        sample = training.FrameDataset(loaded.images_rgb[:MSE_SAMPLE], loaded.labels[:MSE_SAMPLE])
        batched = training.evaluate_mse(self.cfg, self.weights, sample, batch_size=EVAL_BATCH)
        errors = [
            (network.forward(self.cfg, self.weights, sample.frame(i).image_yuv)[0].inverse_turning_radius
             - float(sample.labels[i])) ** 2
            for i in range(len(sample))
        ]
        serial = float(np.mean(errors))
        if not (math.isfinite(mse) and abs(batched - serial) <= MSE_REL_TOL * abs(serial)):
            problems.append(f"evaluate_mse {batched!r} vs per-frame {serial!r}, dataset mse {mse!r}")
        if problems:
            self.errors.append("gen_eval: " + "; ".join(problems))
        return not problems

    def rate(self, part: str, calibrated: bool = True):
        """Frames per second of one part over all untraced rounds."""
        ops = self.untraced()
        if not ops:
            return None
        return 1e3 * GEN_ROUND * len(ops) / sum(op.ms(part) if calibrated else op.wall_ms(part) for op in ops)

    def metrics(self) -> dict:
        return {"gen_scenes_per_s": self.rate("gen"), "eval_frames_per_s": self.rate("eval")}

    def details(self) -> dict:
        # Save+load is reported here and not as an end-to-end metric: its time
        # moved by up to 3x between runs with the filesystem's writeback state,
        # which no CPU calibration tracks.
        return {"rounds": len(self.untraced()), "scenes_per_round": GEN_ROUND, "eval_batch": EVAL_BATCH,
                "dataset_io_frames_per_s": self.rate("io"), "dataset_io_wall_frames_per_s": self.rate("io", False)}


# --- statistics -----------------------------------------------------------------

def percentile(values, q):
    return float(np.percentile(values, q)) if values else None


def tail_info(values) -> dict:
    """Median, p90, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            best = q
            break
    return {
        "n": n, "p50": percentile(values, 50), "p90": percentile(values, 90),
        "p90_samples_beyond": int(n * 0.1),
        "tail_percentile": best, "tail_value": percentile(values, best) if best else None,
    }
