"""Dataset plumbing and the SGD loop.

Frames are kept as uint8 RGB and converted to network-ready YUV per batch (a
2000-frame set stays under 100 MB this way). Viewpoint augmentation happens on
the fly: every epoch each sampled frame is re-warped by a fresh lateral shift
drawn from the configured range, with the label corrected toward lane center.
Everything is driven by one seeded generator, so a (config, dataset, seed)
triple reproduces the weight trajectory bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import imageio, network, scenes
from .config import NetworkConfig
from .fileutil import atomic_write_text
from .scenes import STYLES, LabeledFrame, SceneParams
from .tensor import Tensor
from .weights import WeightSet, init_weights

LABELS_FILE = "labels.csv"
FRAMES_DIR = "frames"
LABELS_HEADER = "frame,steering"


class DatasetError(ValueError):
    """Unreadable or inconsistent dataset directory."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss={loss})")
        self.epoch = epoch
        self.loss = loss


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    augmentation_shift_range: float = 0.6   # meters; 0 disables augmentation
    steering_correction_gain: float = scenes.OFFSET_GAIN  # 1/(m*m)

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.augmentation_shift_range) and self.augmentation_shift_range >= 0.0):
            raise ValueError(f"augmentation_shift_range must be >= 0, got {self.augmentation_shift_range}")
        if not (np.isfinite(self.steering_correction_gain) and self.steering_correction_gain > 0.0):
            raise ValueError(f"steering_correction_gain must be > 0, got {self.steering_correction_gain}")


def _to_yuv_batch(rgb_uint8: np.ndarray) -> np.ndarray:
    """(B, H, W, 3) uint8 -> (B, 3, H, W) float32 YUV.

    The result is a transposed view of NHWC memory, the layout the batched
    network path runs in, so handing it to the network costs no copy.
    """
    return scenes._yuv_channels_last(rgb_uint8).transpose(0, 3, 1, 2)


@dataclass(frozen=True)
class FrameDataset:
    """A stack of labeled frames: (N, H, W, 3) uint8 RGB plus (N,) float32 labels."""

    images_rgb: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        imgs = np.asarray(self.images_rgb)
        labs = np.asarray(self.labels, dtype=np.float32)
        if imgs.ndim != 4 or imgs.shape[3] != 3 or imgs.dtype != np.uint8:
            raise DatasetError(f"images must be (N, H, W, 3) uint8, got {imgs.shape} {imgs.dtype}")
        if labs.ndim != 1 or labs.shape[0] != imgs.shape[0]:
            raise DatasetError(f"labels shape {labs.shape} does not match {imgs.shape[0]} frames")
        if labs.size and not np.all(np.isfinite(labs)):
            raise DatasetError("labels contain non-finite values")
        imgs = np.ascontiguousarray(imgs)
        imgs.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "images_rgb", imgs)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.images_rgb.shape[0]

    def frame(self, i: int) -> LabeledFrame:
        yuv = scenes.rgb_to_yuv(self.images_rgb[i])
        return LabeledFrame(Tensor(yuv), float(self.labels[i]))

    def label_variance(self) -> float:
        return float(np.var(self.labels.astype(np.float64)))

    def save(self, directory) -> None:
        """Write frames/NNNNNN.ppm plus labels.csv; byte-stable for a given dataset."""
        root = Path(directory)
        frames = root / FRAMES_DIR
        frames.mkdir(parents=True, exist_ok=True)
        lines = [LABELS_HEADER]
        for i in range(len(self)):
            stem = f"{i:06d}"
            imageio.write_ppm(frames / f"{stem}.ppm", self.images_rgb[i])
            lines.append(f"{stem},{float(self.labels[i])!r}")
        atomic_write_text(root / LABELS_FILE, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, directory) -> "FrameDataset":
        root = Path(directory)
        labels_path = root / LABELS_FILE
        if not labels_path.is_file():
            raise DatasetError(f"{labels_path}: missing labels file")
        with open(labels_path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{labels_path}: empty file") from None
            if header != LABELS_HEADER.split(","):
                raise DatasetError(f"{labels_path}: bad header {header!r}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise DatasetError(f"{labels_path}:{lineno}: expected 2 fields, got {len(row)}")
                try:
                    rows.append((row[0], float(row[1])))
                except ValueError:
                    raise DatasetError(f"{labels_path}:{lineno}: bad steering value {row[1]!r}") from None

        images, labels = [], []
        shape = None
        for stem, steering in rows:
            frame_path = root / FRAMES_DIR / f"{stem}.ppm"
            try:
                img = imageio.read_ppm(frame_path)
            except (OSError, imageio.ImageFormatError) as exc:
                raise DatasetError(f"frame {stem}: {exc}") from None
            if shape is None:
                shape = img.shape
            elif img.shape != shape:
                raise DatasetError(f"frame {stem}: size {img.shape} differs from {shape}")
            images.append(img)
            labels.append(steering)
        if not images:
            return cls(np.zeros((0, 1, 1, 3), np.uint8), np.zeros(0, np.float32))
        return cls(np.stack(images), np.asarray(labels, np.float32))


def sample_scene_params(rng: np.random.Generator, style: str = "mixed") -> SceneParams:
    """Draw one scene from the training distribution (symmetric around straight-ahead)."""
    chosen = rng.choice(STYLES) if style == "mixed" else style
    return SceneParams(
        lane_offset=float(rng.uniform(-1.0, 1.0)),
        heading=float(rng.uniform(-0.15, 0.15)),
        curvature=float(rng.uniform(-0.015, 0.015)),
        style=str(chosen),
        seed=int(rng.integers(0, 2**31)),
    )


def generate_dataset(n: int, style: str = "mixed", seed: int = 0,
                     width: int = 200, height: int = 66) -> FrameDataset:
    """Render n seeded scenes into a dataset; deterministic in every argument."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if style != "mixed" and style not in STYLES:
        raise ValueError(f"style must be 'mixed' or one of {STYLES}, got {style!r}")
    rng = np.random.default_rng(seed)
    images = np.empty((n, height, width, 3), np.uint8)
    labels = np.empty(n, np.float32)
    for i in range(n):
        p = sample_scene_params(rng, style)
        images[i] = scenes.render_scene_rgb(p, width, height)
        labels[i] = scenes.ground_truth_steering(p.lane_offset, p.heading, p.curvature)
    return FrameDataset(images, labels)


def _augment_batch(imgs: np.ndarray, labels: np.ndarray, shifts: np.ndarray,
                   gain: float) -> tuple[np.ndarray, np.ndarray]:
    """Lateral viewpoint warp of a (B, H, W, 3) stack, one shift per frame,
    with the labels re-aimed by ``gain * shift``."""
    b, h, w = imgs.shape[:3]
    src = np.stack([scenes.lateral_source_columns(h, w, float(s)) for s in shifts])
    rows = np.arange(b * h, dtype=np.int64).reshape(b, h, 1) * w  # flat pixel index of each row start
    out = np.take(imgs.reshape(-1, 3), (rows + src).reshape(-1), axis=0)
    return out.reshape(imgs.shape), (labels - gain * shifts).astype(np.float32)


def train(cfg: NetworkConfig, tc: TrainConfig, dataset: FrameDataset) -> tuple[WeightSet, tuple[float, ...]]:
    """Seeded SGD on mean squared steering error.

    Returns the trained weights and the per-epoch loss history (sample-mean
    over each epoch's batches, augmentation included). Raises DivergenceError
    the moment a batch loss stops being finite.
    """
    n = len(dataset)
    if n == 0:
        raise DatasetError("cannot train on an empty dataset")
    if dataset.images_rgb.shape[1:3] != (cfg.input_height, cfg.input_width):
        raise DatasetError(
            f"dataset frames are {dataset.images_rgb.shape[1:3]}, config wants "
            f"{(cfg.input_height, cfg.input_width)}"
        )

    rng = np.random.default_rng(tc.seed)
    start = init_weights(cfg, seed=tc.seed)
    buffers = {i: (w.copy(), b.copy()) for i, (w, b) in start.arrays.items()}
    # The WeightSet's arrays are read-only views of these buffers, so the
    # in-place updates below show through it.
    weights = WeightSet(cfg, buffers)

    lr = np.float32(tc.learning_rate)
    losses: list[float] = []
    for epoch in range(tc.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, tc.batch_size):
            idx = order[lo : lo + tc.batch_size]
            imgs = dataset.images_rgb[idx]
            labs = dataset.labels[idx]
            if tc.augmentation_shift_range > 0.0:
                shifts = rng.uniform(-tc.augmentation_shift_range, tc.augmentation_shift_range, idx.size)
                imgs, labs = _augment_batch(imgs, labs, shifts, tc.steering_correction_gain)
            x = _to_yuv_batch(imgs)
            loss, grads = network._loss_and_grads_batch(cfg, weights, x, labs)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, loss)
            for i, (gw, gb) in grads.items():
                w, b = buffers[i]
                w -= lr * gw
                b -= lr * gb
            total += loss * idx.size
        losses.append(total / n)

    return weights, tuple(losses)


def evaluate_mse(cfg: NetworkConfig, weights: WeightSet, dataset: FrameDataset,
                 batch_size: int = 64) -> float:
    """Mean squared steering error over the un-augmented dataset."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if n == 0:
        raise DatasetError("cannot evaluate on an empty dataset")
    total = 0.0
    for lo in range(0, n, batch_size):
        x = _to_yuv_batch(dataset.images_rgb[lo : lo + batch_size])
        preds = network.forward_batch(cfg, weights, x)
        diff = preds.astype(np.float64) - dataset.labels[lo : lo + batch_size].astype(np.float64)
        total += float((diff**2).sum())
    return total / n
