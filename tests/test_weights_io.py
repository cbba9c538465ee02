"""Weight container and its binary file format: round trips, corruption
detection, initialization bounds."""

import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt, corruptions, random_conv_config, random_weights, zero_weights
from visback.config import LayerSpec, NetworkConfig, conv_layer, fc_layer, toy_config, validate_config
from visback.weights import (
    WeightChecksumError,
    WeightFileError,
    WeightFileTruncatedError,
    WeightSet,
    init_weights,
    load_weights,
    parameter_shapes,
    save_weights,
)


def test_parameter_shapes_toy():
    cfg = toy_config()
    shapes = parameter_shapes(cfg)
    conv_idx = cfg.conv_indices()
    first = cfg.layers[conv_idx[0]].geometry
    assert shapes[conv_idx[0]] == (first.weight_count(), first.out_channels)
    # every trainable layer present, normalization absent
    assert 0 not in shapes
    assert len(shapes) == sum(1 for l in cfg.layers if l.kind != "normalization")


def test_zero_weights_all_zero():
    ws = zero_weights(toy_config())
    for i in sorted(ws.arrays):
        assert not ws.weight(i).any()
        assert not ws.bias(i).any()


def test_init_weights_deterministic_and_bounded():
    cfg = toy_config()
    a = init_weights(cfg, seed=9)
    b = init_weights(cfg, seed=9)
    c = init_weights(cfg, seed=10)
    some_difference = False
    for i in sorted(a.arrays):
        np.testing.assert_array_equal(a.weight(i), b.weight(i))
        np.testing.assert_array_equal(a.bias(i), b.bias(i))
        some_difference |= bool((a.weight(i) != c.weight(i)).any())
    assert some_difference

    # uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]
    table = validate_config(cfg)
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "conv":
            g = layer.geometry
            fan_in = g.in_channels * g.kernel_h * g.kernel_w
        elif layer.kind == "fully_connected":
            fan_in = math.prod(table[i - 1].output_shape)
        else:
            continue
        bound = 1.0 / np.sqrt(fan_in)
        w = a.weight(i)
        assert np.abs(w).max() <= bound
        # spread should actually use the range, not collapse near zero
        assert np.abs(w).max() > 0.5 * bound


def test_weight_set_validates_lengths():
    cfg = toy_config()
    good = init_weights(cfg, seed=0)
    arrays = dict(good.arrays)
    i = min(arrays)
    w, b = arrays[i]
    arrays[i] = (w[:-1], b)
    with pytest.raises(ValueError):
        WeightSet(config=cfg, arrays=arrays)


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(5):
        cfg = random_conv_config(rng)
        ws = random_weights(cfg, rng)
        path = tmp_path / f"w{trial}.pnw"
        save_weights(ws, path)
        back = load_weights(path)
        assert back.config == cfg
        for i in sorted(ws.arrays):
            np.testing.assert_array_equal(back.weight(i), ws.weight(i))
            np.testing.assert_array_equal(back.bias(i), ws.bias(i))


def test_save_load_round_trip_byte_exact(tmp_path):
    ws = init_weights(toy_config(), seed=4)
    p1, p2 = tmp_path / "a.pnw", tmp_path / "b.pnw"
    save_weights(ws, p1)
    save_weights(load_weights(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_magic_rejected(tmp_path):
    path = tmp_path / "w.pnw"
    save_weights(init_weights(toy_config(), seed=0), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightFileError):
        load_weights(path)


def test_corrupted_checksum_rejected(tmp_path):
    path = tmp_path / "w.pnw"
    save_weights(init_weights(toy_config(), seed=0), path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip a bit inside the trailing CRC
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightChecksumError):
        load_weights(path)


def test_corrupted_payload_rejected(tmp_path):
    path = tmp_path / "w.pnw"
    save_weights(init_weights(toy_config(), seed=0), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x55
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightChecksumError):
        load_weights(path)


def test_truncated_file_rejected_distinctly(tmp_path):
    path = tmp_path / "w.pnw"
    save_weights(init_weights(toy_config(), seed=0), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    with pytest.raises(WeightFileTruncatedError):
        load_weights(path)
    # truncation error is itself a weight-file error, so callers can catch broadly
    assert issubclass(WeightFileTruncatedError, WeightFileError)
    assert issubclass(WeightChecksumError, WeightFileError)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "w.pnw"
    path.write_bytes(b"")
    with pytest.raises(WeightFileError):
        load_weights(path)


def _small_net() -> NetworkConfig:
    return NetworkConfig(3, 8, 8, (
        LayerSpec(kind="normalization"),
        conv_layer(2, kernel=3, stride=2, in_channels=3),
        fc_layer(1, activation="none"),
    ))


def test_invalid_embedded_config_names_the_file(tmp_path):
    # one bit turns the output layer's "units":1 into "units":3: the config
    # still parses but fails validation
    path = tmp_path / "w.pnw"
    save_weights(init_weights(_small_net(), seed=0), path)
    blob = path.read_bytes()
    assert blob.count(b'"units":1') == 1
    path.write_bytes(blob.replace(b'"units":1', b'"units":3'))
    with pytest.raises(WeightFileError, match=r"w\.pnw: embedded config invalid: last layer"):
        load_weights(path)


@pytest.mark.parametrize("record, declared, needed", [("weight", 53, 54), ("bias", 1, 2)])
def test_layer_record_short_of_its_config_names_the_file(tmp_path, record, declared, needed):
    # a self-consistent record with a valid checksum, one float short of what
    # the embedded config needs for layer 1 (2 filters of 3x3x3)
    path = tmp_path / "w.pnw"
    save_weights(init_weights(_small_net(), seed=0), path)
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 4)
    at = 8 + n if record == "weight" else 8 + n + 4 + 4 * 54  # the record's u32 length
    assert struct.unpack_from("<I", blob, at) == (needed,)
    body = blob[:at] + struct.pack("<I", declared) + blob[at + 4 : at + 4 + 4 * declared] + blob[at + 4 + 4 * needed : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(WeightFileError, match=rf"w\.pnw: layer 1 declares {declared} {record}s, its config needs {needed}"):
        load_weights(path)


def test_embedded_config_with_unknown_key_is_rejected(tmp_path):
    # an old file that still declares the output layer's input length, with a
    # correct checksum: the config reader refuses the key it no longer reads
    path = tmp_path / "w.pnw"
    save_weights(init_weights(_small_net(), seed=0), path)
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 4)
    cfg = json.loads(blob[8 : 8 + n])
    cfg["layers"][2]["in_features"] = 2 * 3 * 3
    cfg_bytes = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = blob[:4] + struct.pack("<I", len(cfg_bytes)) + cfg_bytes + blob[8 + n : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(WeightFileError,
                       match=r"w\.pnw: embedded config unreadable: layer 2 \(fully_connected\): unknown key 'in_features'"):
        load_weights(path)


@given(st.data())
@settings(max_examples=300)
def test_weight_reader_rejects_every_cut_and_bit_flip(tmp_path_factory, data):
    # the trailing crc32 catches any single damage the structure checks miss
    path = tmp_path_factory.mktemp("fuzz") / "w.pnw"
    save_weights(init_weights(_small_net(), seed=1), path)
    blob = path.read_bytes()
    path.write_bytes(corrupt(blob, data.draw(corruptions(len(blob)))))
    with pytest.raises(WeightFileError):
        load_weights(path)
