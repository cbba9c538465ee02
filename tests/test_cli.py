"""End-to-end command-line checks: the gen/train/explain/shift chain on a
miniature problem, exit codes for each failure class, and artifact formats."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import visback
from conftest import env_with_src, zero_weights
from visback import imageio
from visback.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from visback.config import LayerSpec, NetworkConfig, conv_layer, fc_layer, save_config
from visback.training import FrameDataset, LABELS_FILE
from visback.weights import WeightSet, load_weights, save_weights

REPO = Path(__file__).resolve().parents[1]


def _tiny_config() -> NetworkConfig:
    return NetworkConfig(
        input_channels=3,
        input_height=12,
        input_width=16,
        layers=(
            LayerSpec(kind="normalization"),
            conv_layer(4, kernel=3, stride=2, in_channels=3),
            fc_layer(1, activation="none"),
        ),
    )


@pytest.fixture(scope="module")
def workbench(tmp_path_factory):
    """One tiny dataset trained once; the chain the CLI exists to provide."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    save_config(_tiny_config(), cfg_path)

    data_dir = root / "data"
    rc = main(["gen", "--scenes", "12", "--seed", "3", "--width", "16",
               "--height", "12", "--out", str(data_dir)])
    assert rc == EXIT_OK

    weights_path = root / "model.pnw"
    rc = main(["train", "--config", str(cfg_path), "--data", str(data_dir),
               "--out", str(weights_path), "--lr", "0.5", "--batch-size", "4",
               "--epochs", "5", "--seed", "1"])
    assert rc == EXIT_OK

    return {
        "root": root,
        "cfg_path": cfg_path,
        "data_dir": data_dir,
        "weights_path": weights_path,
        "frame0": data_dir / "frames" / "000000.ppm",
    }


# ------------------------------------------------------------------- plumbing


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert visback.__version__ in out


def test_console_script_is_installed():
    env = env_with_src()
    proc = subprocess.run([sys.executable, "-m", "visback", "--version"],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        proc = subprocess.run(["visback", "--version"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert visback.__version__ in proc.stdout


def test_run_pipeline_script_smoke(tmp_path):
    """The README's quick-start script runs gen, train, explain and shift end to end."""
    script = REPO / "scripts" / "run_pipeline.py"
    proc = subprocess.run([sys.executable, str(script), "--scenes", "8", "--epochs", "1", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env_with_src(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "explain" / "mask.msk").is_file()
    assert (tmp_path / "shift" / "summary.json").is_file()


@pytest.mark.skipif(importlib.util.find_spec("matplotlib") is not None, reason="matplotlib is installed")
def test_plot_script_without_matplotlib_exits_1(tmp_path):
    """The plot script needs the `plot` extra; without matplotlib it names the
    missing package and exits 1 instead of failing with a traceback."""
    csv_path = tmp_path / "shifts.csv"
    csv_path.write_text("shift_px,steer_class1,steer_class2,steer_all\n0,0.0,0.0,0.0\n")
    script = REPO / "scripts" / "plot_shift_results.py"
    proc = subprocess.run([sys.executable, str(script), str(csv_path)],
                          capture_output=True, text=True, env=env_with_src(), timeout=60)
    assert proc.returncode == 1
    assert "matplotlib is not installed" in proc.stderr
    assert not (tmp_path / "shifts.png").exists()


# ------------------------------------------------------------------------ gen


def test_gen_writes_dataset_and_manifest(workbench):
    data_dir = workbench["data_dir"]
    ds = FrameDataset.load(data_dir)
    assert len(ds) == 12
    assert ds.images_rgb.shape == (12, 12, 16, 3)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "gen"
    assert manifest["seed"] == 3
    assert manifest["tool_version"] == visback.__version__
    assert LABELS_FILE in manifest["outputs"]
    assert type(manifest["chunk_threads"]) is int and manifest["chunk_threads"] >= 1
    assert type(manifest["blas_pinned"]) is bool
    if manifest["blas_pinned"]:  # a pinned OpenBLAS also names its core
        assert type(manifest["blas_core"]) is str and manifest["blas_core"]
    for field in ("numpy_version", "blas_build"):
        assert type(manifest[field]) is str and manifest[field]


def test_gen_is_byte_deterministic(tmp_path):
    args = ["gen", "--scenes", "4", "--seed", "7", "--width", "16", "--height", "12"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / LABELS_FILE).read_bytes() == (b / LABELS_FILE).read_bytes()
    for i in range(4):
        name = f"frames/{i:06d}.ppm"
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_zero_scenes(tmp_path):
    assert main(["gen", "--scenes", "0", "--out", str(tmp_path / "d")]) == EXIT_OK
    assert (tmp_path / "d" / LABELS_FILE).read_text() == "frame,steering\n"


def test_gen_negative_scenes_is_usage_error(tmp_path, capsys):
    assert main(["gen", "--scenes", "-1", "--out", str(tmp_path / "d")]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_gen_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen", "--scenes", "2", "--seed", "-1", "--out", str(out)]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_gen_unknown_style_is_usage_error(tmp_path, capsys):
    rc = main(["gen", "--scenes", "1", "--style", "oilpaint", "--out", str(tmp_path / "d")])
    assert rc == EXIT_USAGE
    capsys.readouterr()



@pytest.mark.parametrize("flag, value", [("--width", "0"), ("--width", "-3"), ("--height", "0"), ("--height", "-2")])
def test_gen_nonpositive_frame_size_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "d"
    assert main(["gen", "--scenes", "2", flag, value, "--out", str(out)]) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_gen_height_without_ground_rows_is_usage_error(tmp_path, capsys):
    out = tmp_path / "d"
    for scenes in ("1", "0"):
        assert main(["gen", "--scenes", scenes, "--height", "1", "--out", str(out)]) == EXIT_USAGE
        assert "--height" in capsys.readouterr().err
        assert not out.exists()
    # the smallest height with a ground row renders
    assert main(["gen", "--scenes", "1", "--width", "1", "--height", "2", "--out", str(out)]) == EXIT_OK
    assert FrameDataset.load(out).images_rgb.shape == (1, 2, 1, 3)


# ---------------------------------------------------------------------- train


def test_train_outputs(workbench):
    weights_path = workbench["weights_path"]
    weights = load_weights(weights_path)
    assert weights.config == _tiny_config()

    losses = (weights_path.parent / (weights_path.name + ".losses.csv")).read_text().splitlines()
    assert losses[0] == "epoch,loss"
    assert len(losses) == 1 + 5
    float(losses[1].split(",")[1])

    manifest = json.loads(
        (weights_path.parent / (weights_path.name + ".manifest.json")).read_text()
    )
    assert manifest["subcommand"] == "train"
    assert manifest["seed"] == 1
    assert weights_path.name in manifest["outputs"]


def test_train_negative_lr_is_usage_error(workbench, capsys):
    rc = main(["train", "--config", str(workbench["cfg_path"]),
               "--data", str(workbench["data_dir"]),
               "--out", str(workbench["root"] / "x.pnw"), "--lr", "-0.1"])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_train_negative_seed_is_usage_error(workbench, tmp_path, capsys):
    out = tmp_path / "x.pnw"
    rc = main(["train", "--config", str(workbench["cfg_path"]),
               "--data", str(workbench["data_dir"]),
               "--out", str(out), "--seed", "-1"])
    assert rc == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_missing_dataset_is_data_error(workbench, tmp_path, capsys):
    rc = main(["train", "--config", str(workbench["cfg_path"]),
               "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "x.pnw")])
    assert rc == EXIT_DATA
    capsys.readouterr()


def test_train_unknown_config_path_is_data_error(workbench, tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "missing.json"),
               "--data", str(workbench["data_dir"]),
               "--out", str(tmp_path / "x.pnw")])
    assert rc == EXIT_DATA
    capsys.readouterr()


def test_train_flags_are_checked_before_any_file_is_read(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "missing.json"),
               "--data", str(tmp_path / "missing"),
               "--out", str(tmp_path / "x.pnw"), "--lr", "-1"])
    assert rc == EXIT_USAGE
    assert "learning_rate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_non_integer_config_field_is_data_error(workbench, tmp_path, capsys):
    cfg = json.loads((workbench["cfg_path"]).read_text())
    cfg["layers"][1]["out_channels"] = 4.5
    cfg_path = tmp_path / "frac.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(cfg_path), "--data", str(workbench["data_dir"]),
               "--out", str(tmp_path / "x.pnw")])
    assert rc == EXIT_DATA
    assert "layer 1 out_channels must be an integer" in capsys.readouterr().err


def test_train_unknown_config_key_is_data_error(workbench, tmp_path, capsys):
    cfg = json.loads((workbench["cfg_path"]).read_text())
    cfg["layers"][1]["activaton"] = "relu"
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "x.pnw"
    rc = main(["train", "--config", str(cfg_path), "--data", str(workbench["data_dir"]), "--out", str(out)])
    assert rc == EXIT_DATA
    assert "layer 1 (conv): unknown key 'activaton'" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_is_numeric_error(workbench, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(workbench["cfg_path"]),
                   "--data", str(workbench["data_dir"]),
                   "--out", str(tmp_path / "x.pnw"),
                   "--lr", "1e9", "--epochs", "50"])
    assert rc == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


# -------------------------------------------------------------------- explain


def _assert_overlay_pixels(out, frame_path, gain):
    """Red and blue are the input frame; green is clip(rint(g + gain * mask))."""
    frame = imageio.read_ppm(frame_path)
    mask = imageio.read_mask_dump(out / "mask.msk").data
    got = imageio.read_ppm(out / "overlay.ppm")
    np.testing.assert_array_equal(got[:, :, [0, 2]], frame[:, :, [0, 2]])
    green = np.clip(np.rint(frame[:, :, 1] + np.float32(gain) * mask), 0, 255)
    np.testing.assert_array_equal(got[:, :, 1], green)
    assert np.any(got[:, :, 1] != frame[:, :, 1])  # the mask is not blank


def test_explain_outputs(workbench, tmp_path, capsys):
    out = tmp_path / "explain"
    rc = main(["explain", "--weights", str(workbench["weights_path"]),
               "--image", str(workbench["frame0"]), "--out", str(out)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "steering" in stdout

    mask_img = imageio.read_pgm(out / "mask.pgm")
    assert mask_img.shape == (12, 16)

    mask = imageio.read_mask_dump(out / "mask.msk")
    assert mask.data.shape == (12, 16)
    assert float(mask.data.min()) >= 0.0 and float(mask.data.max()) <= 1.0

    overlay = imageio.read_ppm(out / "overlay.ppm")
    assert overlay.shape == (12, 16, 3)
    _assert_overlay_pixels(out, workbench["frame0"], 255.0)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "explain"
    assert set(manifest["outputs"]) == {"mask.pgm", "mask.msk", "overlay.ppm"}


def test_explain_overlay_pixels_at_gain_100(workbench, tmp_path, capsys):
    out = tmp_path / "explain"
    rc = main(["explain", "--weights", str(workbench["weights_path"]),
               "--image", str(workbench["frame0"]), "--out", str(out), "--gain", "100"])
    assert rc == EXIT_OK
    capsys.readouterr()
    _assert_overlay_pixels(out, workbench["frame0"], 100.0)


def test_explain_mask_trace_files(workbench, tmp_path):
    out = tmp_path / "explain"
    rc = main(["explain", "--weights", str(workbench["weights_path"]),
               "--image", str(workbench["frame0"]), "--out", str(out), "--mask-trace"])
    assert rc == EXIT_OK
    # one conv layer -> one per-level map
    level0 = imageio.read_pgm(out / "mask_level_0.pgm")
    assert level0.shape == (5, 7)
    assert not (out / "mask_level_1.pgm").exists()


def test_explain_wrong_image_size_is_data_error(workbench, tmp_path, capsys):
    big = tmp_path / "big.ppm"
    imageio.write_ppm(big, np.zeros((20, 30, 3), np.uint8))
    rc = main(["explain", "--weights", str(workbench["weights_path"]),
               "--image", str(big), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    capsys.readouterr()



@pytest.mark.parametrize("gain", ["nan", "inf", "-inf"])
def test_explain_nonfinite_gain_is_usage_error(workbench, tmp_path, capsys, gain):
    out = tmp_path / "ex"
    rc = main(["explain", "--weights", str(workbench["weights_path"]), "--image", str(workbench["frame0"]),
               "--out", str(out), f"--gain={gain}"])
    assert rc == EXIT_USAGE
    assert "--gain" in capsys.readouterr().err
    assert not out.exists()


def test_explain_corrupt_weights_is_data_error(workbench, tmp_path, capsys):
    raw = workbench["weights_path"].read_bytes()
    flipped = bytearray(raw)
    flipped[-5] ^= 0x04  # one bit of the last bias, just before the crc32
    for name, blob in (("magic.pnw", b"XXXX" + raw[4:]), ("flipped.pnw", bytes(flipped))):
        bad = tmp_path / name
        bad.write_bytes(blob)
        rc = main(["explain", "--weights", str(bad),
                   "--image", str(workbench["frame0"]), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA, name
    capsys.readouterr()


def test_explain_missing_image_is_data_error(workbench, tmp_path, capsys):
    rc = main(["explain", "--weights", str(workbench["weights_path"]),
               "--image", str(tmp_path / "none.ppm"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    capsys.readouterr()


# ---------------------------------------------------------------------- shift


def test_shift_outputs(workbench, tmp_path, capsys):
    out = tmp_path / "shift"
    rc = main(["shift", "--weights", str(workbench["weights_path"]),
               "--image", str(workbench["frame0"]), "--out", str(out),
               "--range=-4..4", "--step", "2"])
    assert rc == EXIT_OK
    capsys.readouterr()

    lines = (out / "shifts.csv").read_text().splitlines()
    assert lines[0] == "shift_px,steer_class1,steer_class2,steer_all"
    assert len(lines) == 1 + 5  # -4 -2 0 2 4
    assert [int(l.split(",")[0]) for l in lines[1:]] == [-4, -2, 0, 2, 4]

    summary = json.loads((out / "summary.json").read_text())
    for mode in ("class1", "class2", "all"):
        assert {"slope", "intercept", "r_squared"} <= set(summary["series"][mode])
    assert summary["threshold"] == 0.2
    assert summary["dilation_radius"] == 2  # 30 scaled to width 16
    assert 0.0 <= summary["class1_fraction"] <= 1.0
    assert summary["degenerate_segmentation"] == (summary["class1_fraction"] in (0.0, 1.0))

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "shift"


def test_shift_usage_errors(workbench, tmp_path, capsys):
    base = ["shift", "--weights", str(workbench["weights_path"]),
            "--image", str(workbench["frame0"]), "--out", str(tmp_path / "o")]
    assert main(base + ["--threshold", "1.5"]) == EXIT_USAGE
    assert main(base + ["--range", "1..5"]) == EXIT_USAGE  # misses zero
    assert main(base + ["--range", "oops"]) == EXIT_USAGE
    assert main(base + ["--range", "5..-5"]) == EXIT_USAGE
    assert main(base + ["--step", "0"]) == EXIT_USAGE
    assert main(base + ["--range=-20..20"]) == EXIT_USAGE  # exceeds width 16
    assert main(base + ["--dilate", "-1"]) == EXIT_USAGE
    capsys.readouterr()


def test_shift_width_bound_applies_to_the_sampled_shifts(workbench, tmp_path, capsys):
    """The width bound holds for the shifts the run samples, not the --range
    ends: on the 16-px frame, -5..18 step 5 samples -5 ... 15, all legal."""
    out = tmp_path / "shift"
    rc = main(["shift", "--weights", str(workbench["weights_path"]),
               "--image", str(workbench["frame0"]), "--out", str(out),
               "--range=-5..18", "--step", "5"])
    assert rc == EXIT_OK, capsys.readouterr().err
    lines = (out / "shifts.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines[1:]] == [-5, 0, 5, 10, 15]
    rc = main(["shift", "--weights", str(workbench["weights_path"]),
               "--image", str(workbench["frame0"]), "--out", str(tmp_path / "wide"), "--range=-20..20"])
    assert rc == EXIT_USAGE
    assert "below the image width 16" in capsys.readouterr().err


def test_shift_usage_errors_precede_file_reads(tmp_path, capsys):
    """Flag checks that need no config run before the weights are read."""
    base = ["shift", "--weights", str(tmp_path / "none.pnw"),
            "--image", str(tmp_path / "none.ppm"), "--out", str(tmp_path / "o")]
    for flags in (["--threshold", "2"], ["--dilate", "-1"], ["--range", "oops"],
                  ["--range", "1..5"], ["--step", "0"]):
        assert main(base + flags) == EXIT_USAGE, flags
        assert "No such file" not in capsys.readouterr().err
    # the width check needs the config, so a missing file is reported first
    assert main(base + ["--range=-20..20"]) == EXIT_DATA
    assert main(base) == EXIT_DATA
    capsys.readouterr()


def test_shift_zero_only_range(workbench, tmp_path, capsys):
    out = tmp_path / "z"
    rc = main(["shift", "--weights", str(workbench["weights_path"]),
               "--image", str(workbench["frame0"]), "--out", str(out),
               "--range", "0..0"])
    assert rc == EXIT_OK
    capsys.readouterr()
    lines = (out / "shifts.csv").read_text().splitlines()
    assert len(lines) == 2
    _, c1, c2, al = lines[1].split(",")
    assert c1 == c2 == al  # unshifted frame, identical in every mode


def test_shift_nonfinite_shifted_prediction_is_numeric_error(tmp_path, capsys):
    """Only a shifted frame overflows: the unshifted one (and so the mask) is
    finite, so the failure comes from the shifted rows."""
    cfg = _tiny_config()  # conv 3x3 stride 2 -> 4 x 5 x 7 maps, then the steering unit
    conv_w = np.zeros((4, 3, 3, 3), np.float32)
    conv_w[0, 0] = 1.0  # channel 0 sums normalized Y: -9 on black, +9 on white
    fc_w = np.zeros((4, 5, 7), np.float32)
    fc_w[0, :, 2] = 3.0e38  # reads input columns 4-6, black until white moves in
    weights = WeightSet(config=cfg, arrays={1: (conv_w.reshape(-1), np.zeros(4, np.float32)),
                                            2: (fc_w.reshape(-1), np.zeros(1, np.float32))})
    save_weights(weights, tmp_path / "overflow.pnw")
    frame = np.zeros((12, 16, 3), np.uint8)
    frame[:, 8:] = 255
    imageio.write_ppm(tmp_path / "frame.ppm", frame)
    rc = main(["explain", "--weights", str(tmp_path / "overflow.pnw"),
               "--image", str(tmp_path / "frame.ppm"), "--out", str(tmp_path / "explain")])
    assert rc == EXIT_OK
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["shift", "--weights", str(tmp_path / "overflow.pnw"),
                   "--image", str(tmp_path / "frame.ppm"), "--out", str(tmp_path / "shift"),
                   "--range=-4..4", "--step", "2"])
    assert rc == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "shift" / "summary.json").exists()


@pytest.mark.parametrize("subcommand", [["explain"], ["shift", "--range=-4..4", "--step", "2"]], ids=["explain", "shift"])
def test_conv_overflow_exits_numeric_without_traceback(tmp_path, subcommand):
    """A conv map that overflows ends the run with the documented exit code 4
    and a one-line message naming the layer, not a traceback."""
    cfg = _tiny_config()
    conv_w = np.full(4 * 3 * 3 * 3, 3.0e38, np.float32)  # a white frame's Y sums past float32's max
    weights = WeightSet(config=cfg, arrays={1: (conv_w, np.zeros(4, np.float32)),
                                            2: (np.zeros(4 * 5 * 7, np.float32), np.zeros(1, np.float32))})
    save_weights(weights, tmp_path / "overflow.pnw")
    imageio.write_ppm(tmp_path / "frame.ppm", np.full((12, 16, 3), 255, np.uint8))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-m", "visback", *subcommand,
                           "--weights", str(tmp_path / "overflow.pnw"), "--image", str(tmp_path / "frame.ppm"),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env_with_src(), timeout=120)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "numerical failure: conv layer 1 output is not finite" in proc.stderr


def test_shift_dead_net_warns_of_degenerate_segmentation(workbench, tmp_path, capsys):
    zero = tmp_path / "zero.pnw"
    save_weights(zero_weights(_tiny_config()), zero)
    rc = main(["shift", "--weights", str(zero), "--image", str(workbench["frame0"]),
               "--out", str(tmp_path / "shift"), "--range=-2..2", "--step", "2"])
    assert rc == EXIT_OK
    assert "degenerate segmentation" in capsys.readouterr().err
    summary = json.loads((tmp_path / "shift" / "summary.json").read_text())
    assert summary["class1_fraction"] == 0.0 and summary["degenerate_segmentation"] is True
