"""Architecture declaration and validation: the shape-table walk, the chain
checks, and the JSON round trip."""

import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import random_conv_config
from visback import config as config_module
from visback.config import (
    ConfigError,
    LayerSpec,
    NetworkConfig,
    canonical_json,
    config_from_dict,
    config_to_dict,
    conv_layer,
    default_config,
    fc_layer,
    load_config,
    save_config,
    toy_config,
    validate_config,
)
from visback.tensor import ShapeError
from visback.weights import init_weights, load_weights, parameter_shapes, save_weights

TOY_WEIGHTS = Path(__file__).resolve().parents[1] / "bench" / "toy_weights.pnw"


def test_default_config_conv_shape_chain():
    """The stride-2 5x5 front and stride-1 3x3 tail on a 66x200 input telescope
    to 31x98 / 14x47 / 5x22 / 3x20 / 1x18."""
    cfg = default_config()
    table = validate_config(cfg)
    conv_rows = [row for row in table if row.kind == "conv"]
    want = [
        (24, 31, 98),
        (36, 14, 47),
        (48, 5, 22),
        (64, 3, 20),
        (64, 1, 18),
    ]
    assert [row.output_shape for row in conv_rows] == want


def test_default_config_fc_chain_and_flatten_length():
    cfg = default_config()
    table = validate_config(cfg)
    fc_rows = [row for row in table if row.kind == "fully_connected"]
    assert [row.output_shape for row in fc_rows] == [(1164,), (100,), (50,), (10,), (1,)]
    # last conv output 64 x 1 x 18 flattens to 1152 entering the 1164-unit layer
    shapes = parameter_shapes(cfg)
    fan_ins = [shapes[row.index][0] // shapes[row.index][1] for row in fc_rows]
    assert fan_ins == [64 * 1 * 18, 1164, 100, 50, 10]


def test_toy_config_is_valid_and_ends_in_one_unit():
    table = validate_config(toy_config())
    assert table[-1].output_shape == (1,)
    assert table[0].kind == "normalization"


def test_validate_rejects_normalization_not_first():
    cfg = NetworkConfig(3, 8, 8, (
        conv_layer(2, kernel=3, stride=1, in_channels=3),
        LayerSpec(kind="normalization"),
        fc_layer(1, activation="none"),
    ))
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_rejects_conv_after_fc():
    cfg = NetworkConfig(3, 8, 8, (
        fc_layer(4),
        conv_layer(2, kernel=3, stride=1, in_channels=3),
        fc_layer(1, activation="none"),
    ))
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_rejects_channel_mismatch():
    cfg = NetworkConfig(3, 8, 8, (
        conv_layer(2, kernel=3, stride=1, in_channels=4),  # chain provides 3
        fc_layer(1, activation="none"),
    ))
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_rejects_kernel_exceeding_input():
    cfg = NetworkConfig(3, 4, 4, (
        conv_layer(2, kernel=5, stride=1, in_channels=3),
        fc_layer(1, activation="none"),
    ))
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_rejects_wrong_output_layer():
    cfg = NetworkConfig(3, 8, 8, (conv_layer(2, kernel=3, stride=1, in_channels=3),))
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg2 = NetworkConfig(3, 8, 8, (fc_layer(4), fc_layer(2, activation="none")))
    with pytest.raises(ConfigError):
        validate_config(cfg2)


def test_layer_spec_field_consistency():
    with pytest.raises(ConfigError):
        LayerSpec(kind="conv")  # geometry required
    with pytest.raises(ConfigError):
        LayerSpec(kind="fully_connected")  # units required
    with pytest.raises(ConfigError):
        LayerSpec(kind="normalization", units=3)
    with pytest.raises(ConfigError):
        LayerSpec(kind="what")
    with pytest.raises(ConfigError):
        LayerSpec(kind="fully_connected", units=2, activation="tanh")


PYTHON_NON_INTEGERS = [
    ("units", lambda: fc_layer(1.0, activation="none")),
    ("units", lambda: LayerSpec(kind="fully_connected", units=2.5)),
    ("units", lambda: LayerSpec(kind="fully_connected", units=True)),
    ("input_channels", lambda: NetworkConfig(3.0, 8, 8, (fc_layer(1, activation="none"),))),
    ("input_height", lambda: NetworkConfig(3, 66.0, 200, toy_config().layers)),
    ("input_width", lambda: NetworkConfig(3, 8, True, (fc_layer(1, activation="none"),))),
]


@pytest.mark.parametrize("field, build", PYTHON_NON_INTEGERS,
                         ids=[f"{field}-{k}" for k, (field, _) in enumerate(PYTHON_NON_INTEGERS)])
def test_layer_sizes_built_in_python_must_be_integers(field, build):
    """A float or bool size would pass the shape walk and only fail in
    ``init_weights`` with a bare TypeError; it is refused at construction,
    naming the field."""
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        build()


def test_conv_geometry_must_be_integers():
    with pytest.raises(ShapeError, match="kernel_h must be an integer"):
        conv_layer(24, kernel=5.0, stride=2, in_channels=3)
    with pytest.raises(ShapeError, match="stride_h must be an integer"):
        conv_layer(24, kernel=5, stride=True, in_channels=3)


def test_numpy_integer_sizes_are_accepted(tmp_path):
    cfg = NetworkConfig(np.int64(3), np.int32(8), np.int64(8), (
        conv_layer(np.int64(2), kernel=np.int64(3), stride=np.int32(1), in_channels=3),
        fc_layer(np.int64(1), activation="none"),
    ))
    assert [row.output_shape for row in validate_config(cfg)] == [(2, 6, 6), (1,)]
    # stored as plain ints, so the config and its weights write as JSON and read back
    path = tmp_path / "w.pnw"
    save_weights(init_weights(cfg, seed=0), path)
    for got in (cfg, config_from_dict(json.loads(canonical_json(cfg))), load_weights(path).config):
        assert got == cfg
        g = got.layers[0].geometry
        sizes = [*got.input_shape, got.layers[1].units] + [getattr(g, f.name) for f in fields(g)]
        assert len(sizes) == 10 and all(type(v) is int for v in sizes)


def test_json_round_trip_preserves_config():
    for factory in (default_config, toy_config):
        cfg = factory()
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_json_round_trip_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfg = random_conv_config(rng)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_canonical_json_is_stable_and_compact():
    a = canonical_json(default_config())
    b = canonical_json(default_config())
    assert a == b
    assert "\n" not in a and ": " not in a
    # round-trips through the generic JSON parser
    assert config_from_dict(json.loads(a)) == default_config()


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "net.json"
    cfg = toy_config()
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_failed_save_config_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "net.json"
    save_config(toy_config(), path)
    old = path.read_bytes()

    def fail(cfg):
        raise RuntimeError("serialization failed")

    monkeypatch.setattr(config_module, "config_to_dict", fail)
    with pytest.raises(RuntimeError, match="serialization failed"):
        save_config(default_config(), path)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]  # no temp file left


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with a byte-order mark
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)


def test_config_from_dict_rejects_malformed():
    with pytest.raises(ConfigError):
        config_from_dict({"layers": [{"kind": "conv"}]})
    with pytest.raises(ConfigError):
        config_from_dict({"input_channels": 3})
    with pytest.raises(ConfigError):
        config_from_dict({"input_channels": 3, "input_height": 4, "input_width": 4,
                          "layers": [{"kind": "mystery"}]})


NON_INTEGER_FIELDS = [
    (("layers", 1, "kernel"), [5.7, 5], "layer 1 kernel"),
    (("layers", 1, "kernel"), [5, 5.0], "layer 1 kernel"),
    (("layers", 2, "stride"), ["2", 2], "layer 2 stride"),
    (("layers", 1, "out_channels"), 12.9, "layer 1 out_channels"),
    (("layers", 2, "in_channels"), True, "layer 2 in_channels"),
    (("layers", 4, "units"), 1.0, "layer 4 units"),
    (("input_height",), True, "input_height"),
    (("input_width",), "200", "input_width"),
    (("input_channels",), 3.0, "input_channels"),
]


@pytest.mark.parametrize("path, value, field", NON_INTEGER_FIELDS,
                         ids=[field.replace(" ", "_") for _, _, field in NON_INTEGER_FIELDS])
def test_config_from_dict_accepts_only_json_integers(path, value, field):
    d = json.loads(canonical_json(toy_config()))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        config_from_dict(d)


# (path to the object, key added, the name the error gives that object)
UNKNOWN_KEYS = [
    ((), "input_depth", "config"),
    (("layers", 0), "scale", r"layer 0 \(normalization\)"),
    (("layers", 1), "activaton", r"layer 1 \(conv\)"),
    (("layers", 4), "dropout", r"layer 4 \(fully_connected\)"),
    (("layers", 4), "in_features", r"layer 4 \(fully_connected\)"),  # removed field
]


@pytest.mark.parametrize("path, key, where", UNKNOWN_KEYS, ids=[key for _, key, _ in UNKNOWN_KEYS])
def test_config_from_dict_rejects_unknown_keys(path, key, where):
    d = json.loads(canonical_json(toy_config()))
    target = d
    for step in path:
        target = target[step]
    # a value the loader would accept for a field of that name: only the key is wrong
    target[key] = 20 * 5 * 22 if key == "in_features" else "relu"
    with pytest.raises(ConfigError, match=f"^{where}: unknown key '{key}'$"):
        config_from_dict(d)


def test_canonical_json_matches_committed_weight_file():
    """The on-disk config form has not drifted from the committed toy weights."""
    blob = TOY_WEIGHTS.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 4)
    assert blob[8 : 8 + n] == canonical_json(toy_config()).encode("utf-8")
