"""Command-line front end: dataset generation, training, explanation, shifting.

    visback gen     --scenes N --style S --seed K --out DIR
    visback train   --config C --data D --out W.pnw
    visback explain --weights W.pnw --image I.ppm --out DIR
    visback shift   --weights W.pnw --image I.ppm --out DIR

Every run drops a manifest JSON beside its outputs (subcommand, input paths,
seed, tool version, thread model), so any artifact can be regenerated.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, harness, imageio, network, saliency, scenes, training
from .config import BUILTIN_CONFIGS, ConfigError, NetworkConfig, load_config
from .fileutil import atomic_write_text
from .network import InputRangeError, NonFiniteOutputError, forward
from .saliency import TraceMismatchError
from .tensor import ShapeError, Tensor
from .training import DatasetError, DivergenceError, FrameDataset, TrainConfig
from .weights import WeightFileError, load_weights, save_weights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_DATA_ERRORS = (
    ConfigError,
    WeightFileError,
    imageio.ImageFormatError,
    imageio.MaskFileError,
    DatasetError,
    TraceMismatchError,
    ShapeError,
    InputRangeError,
    OSError,
)
_NUMERIC_ERRORS = (DivergenceError, NonFiniteOutputError, FloatingPointError)


class UsageError(ValueError):
    pass


def _blas_build() -> str:
    """numpy's BLAS as its build records it: name, version (configuration)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')} ({blas.get('openblas configuration', '').strip()})"


def _write_manifest(target: Path, subcommand: str, *, config_path=None, weight_path=None,
                    seed=None, out_dir=None, outputs=()) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_path": str(config_path) if config_path is not None else None,
        "weight_path": str(weight_path) if weight_path is not None else None,
        "seed": seed,
        "output_directory": str(out_dir) if out_dir is not None else None,
        "tool_version": __version__,
        "outputs": [str(o) for o in outputs],
        "chunk_threads": network.CHUNK_THREADS,
        "blas_pinned": network.BLAS_PINNED,
        "blas_core": network.BLAS_CORE,
        "numpy_version": np.__version__,
        "blas_build": _blas_build(),
    }
    atomic_write_text(target, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_network_config(name_or_path: str) -> NetworkConfig:
    """A --config value is either a built-in name or a JSON file path."""
    if name_or_path in BUILTIN_CONFIGS:
        return BUILTIN_CONFIGS[name_or_path]()
    return load_config(name_or_path)


def _read_input_image(path, cfg: NetworkConfig) -> tuple[np.ndarray, Tensor]:
    """Load a PPM frame and convert to the network's YUV tensor, checking dims."""
    rgb = imageio.read_ppm(path)
    if rgb.shape[:2] != (cfg.input_height, cfg.input_width):
        raise ShapeError(
            f"{path}: image is {rgb.shape[1]}x{rgb.shape[0]}, "
            f"network wants {cfg.input_width}x{cfg.input_height}"
        )
    return rgb, Tensor(scenes.rgb_to_yuv(rgb))


def cmd_gen(args) -> int:
    if args.scenes < 0:
        raise UsageError(f"--scenes must be >= 0, got {args.scenes}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    for flag, value in (("--width", args.width), ("--height", args.height)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    if not scenes.has_ground_rows(args.height):
        raise UsageError(f"--height {args.height} leaves no ground rows below the horizon")
    dataset = training.generate_dataset(
        args.scenes, style=args.style, seed=args.seed, width=args.width, height=args.height
    )
    out = Path(args.out)
    dataset.save(out)
    _write_manifest(
        out / "manifest.json", "gen", seed=args.seed, out_dir=out,
        outputs=[training.LABELS_FILE, training.FRAMES_DIR + "/"],
    )
    print(f"wrote {len(dataset)} frames to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {
        "learning_rate": args.lr,
        "batch_size": args.batch_size,
        "epochs": args.epochs,
        "seed": args.seed,
        "augmentation_shift_range": args.shift_range,
    }
    try:
        tc = TrainConfig(**{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    cfg = _load_network_config(args.config)
    dataset = FrameDataset.load(args.data)

    weights, losses = training.train(cfg, tc, dataset)

    out = Path(args.out)
    save_weights(weights, out)
    loss_log = Path(args.loss_log) if args.loss_log else out.with_name(out.name + ".losses.csv")
    atomic_write_text(loss_log, "epoch,loss\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(losses)))
    _write_manifest(
        out.with_name(out.name + ".manifest.json"), "train",
        config_path=args.config, weight_path=out, seed=tc.seed, out_dir=out.parent,
        outputs=[out.name, loss_log.name],
    )
    for i, v in enumerate(losses):
        print(f"epoch {i}: loss {v:.6g}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_explain(args) -> int:
    if not np.isfinite(args.gain):
        raise UsageError(f"--gain must be finite, got {args.gain}")
    weights = load_weights(args.weights)
    cfg = weights.config
    rgb, image = _read_input_image(args.image, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    steering, trace = forward(cfg, weights, image)
    mask, levels = saliency.compute_mask(trace, cfg)

    imageio.write_pgm(out_dir / "mask.pgm", saliency.mask_to_gray(mask))
    imageio.write_mask_dump(out_dir / "mask.msk", mask)

    imageio.write_ppm(out_dir / "overlay.ppm", saliency.overlay(rgb, mask, gain=args.gain))

    outputs = ["mask.pgm", "mask.msk", "overlay.ppm"]
    if args.mask_trace:
        for level, inter in enumerate(levels):
            name = f"mask_level_{level}.pgm"
            level_mask = saliency.VisualizationMask(saliency.normalize_01(inter))
            imageio.write_pgm(out_dir / name, saliency.mask_to_gray(level_mask))
            outputs.append(name)

    _write_manifest(
        out_dir / "manifest.json", "explain",
        weight_path=args.weights, out_dir=out_dir, outputs=outputs,
    )
    print(f"steering {steering.inverse_turning_radius:.6g}")
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise UsageError(f"--range must look like A..B (e.g. -40..40), got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise UsageError(f"--range start {lo} exceeds end {hi}")
    return lo, hi


def cmd_shift(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError(f"--threshold must be in [0, 1], got {args.threshold}")
    if args.dilate is not None and args.dilate < 0:
        raise UsageError(f"--dilate must be >= 0, got {args.dilate}")
    lo, hi = _parse_range(args.range)
    if args.step < 1:
        raise UsageError(f"--step must be >= 1, got {args.step}")
    shifts = list(range(lo, hi + 1, args.step))
    if 0 not in shifts:
        raise UsageError(f"shift range {lo}..{hi} step {args.step} does not sample 0")

    weights = load_weights(args.weights)
    cfg = weights.config
    _, image = _read_input_image(args.image, cfg)
    if max(abs(dx) for dx in shifts) >= cfg.input_width:
        raise UsageError(f"shifts must stay below the image width {cfg.input_width}")

    radius = args.dilate if args.dilate is not None else harness.scaled_dilation_radius(cfg.input_width)

    _, trace = forward(cfg, weights, image)
    mask, _ = saliency.compute_mask(trace, cfg)
    class1 = harness.segment(mask, t=args.threshold, radius=radius)
    result = harness.run_shift_experiment(cfg, weights, image, class1, shifts)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "shifts.csv", harness.result_to_csv(result))
    summary = harness.result_summary(result)
    summary["threshold"] = args.threshold
    summary["dilation_radius"] = radius
    atomic_write_text(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if summary["degenerate_segmentation"]:
        print(f"warning: degenerate segmentation, Class 1 covers {summary['class1_fraction']:.0%} of the frame",
              file=sys.stderr)
    _write_manifest(
        out_dir / "manifest.json", "shift",
        weight_path=args.weights, out_dir=out_dir, outputs=["shifts.csv", "summary.json"],
    )
    for mode in harness.MODES:
        fit = result.fit(mode)
        print(f"{mode}: slope {fit.slope:.6g} r2 {fit.r_squared:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visback",
        description="Steering network, salience masks, and shift experiments on synthetic roads.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="render a labeled synthetic dataset")
    gen.add_argument("--scenes", type=int, required=True, help="number of frames")
    gen.add_argument("--style", default="mixed", choices=("mixed",) + scenes.STYLES)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--width", type=int, default=200)
    gen.add_argument("--height", type=int, default=66)
    gen.add_argument("--out", required=True, help="dataset directory")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train a network on a dataset directory")
    tr.add_argument("--config", default="toy", help="built-in name (toy, default) or JSON path")
    tr.add_argument("--data", required=True, help="dataset directory")
    tr.add_argument("--out", required=True, help="output weight file (.pnw)")
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--batch-size", type=int, default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--shift-range", type=float, default=None, help="augmentation shift range, meters")
    tr.add_argument("--loss-log", default=None, help="loss CSV path (default <out>.losses.csv)")
    tr.set_defaults(func=cmd_train)

    ex = sub.add_parser("explain", help="compute the salience mask and overlay for one frame")
    ex.add_argument("--weights", required=True)
    ex.add_argument("--image", required=True, help="input frame (PPM)")
    ex.add_argument("--out", required=True, help="output directory")
    ex.add_argument("--gain", type=float, default=255.0, help="overlay green gain")
    ex.add_argument("--mask-trace", action="store_true", help="also write per-level masks")
    ex.set_defaults(func=cmd_explain)

    sh = sub.add_parser("shift", help="run the class-shift steering experiment on one frame")
    sh.add_argument("--weights", required=True)
    sh.add_argument("--image", required=True, help="input frame (PPM)")
    sh.add_argument("--threshold", type=float, default=harness.DEFAULT_THRESHOLD)
    sh.add_argument("--dilate", type=int, default=None,
                    help="dilation radius in px (default: 30 scaled by width/200)")
    sh.add_argument("--range", default="-40..40", help="shift range A..B in px")
    sh.add_argument("--step", type=int, default=4)
    sh.add_argument("--out", required=True, help="output directory")
    sh.set_defaults(func=cmd_shift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
