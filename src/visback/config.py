"""Declarative network architecture: layer specs, whole-network configs,
shape validation, and the JSON on-disk form.

A config is an ordered list of layers. The hard-coded normalization layer,
when present, must come first; convolutional layers precede fully connected
ones; the last layer is a single-unit fully connected output (the steering
value). Shape arithmetic is validated end to end before any weights exist.
Every layer size comes from the one ``validate_config`` walk: no layer
declares its input length. The JSON form rejects any key it does not read, so
a misspelled key is an error, not a silently applied default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .fileutil import atomic_write_text
from .tensor import ConvGeometry, as_int

LAYER_KINDS = ("normalization", "conv", "fully_connected")
ACTIVATIONS = ("relu", "none")


class ConfigError(ValueError):
    """Raised when a network config is internally inconsistent."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    geometry: Optional[ConvGeometry] = None  # conv only
    units: Optional[int] = None  # fully_connected only
    activation: str = "none"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.kind == "conv" and self.geometry is None:
            raise ConfigError("conv layer requires a geometry")
        if self.kind == "fully_connected":
            object.__setattr__(self, "units", as_int(self.units, "units", 1, ConfigError))
        if self.kind != "conv" and self.geometry is not None:
            raise ConfigError(f"{self.kind} layer must not carry a geometry")
        if self.kind != "fully_connected" and self.units is not None:
            raise ConfigError(f"{self.kind} layer must not carry units")


def conv_layer(out_channels: int, kernel: int, stride: int, in_channels: int, activation: str = "relu") -> LayerSpec:
    """Square-kernel convenience constructor for a conv LayerSpec."""
    geom = ConvGeometry(
        kernel_h=kernel,
        kernel_w=kernel,
        stride_h=stride,
        stride_w=stride,
        in_channels=in_channels,
        out_channels=out_channels,
    )
    return LayerSpec(kind="conv", geometry=geom, activation=activation)


def fc_layer(units: int, activation: str = "relu") -> LayerSpec:
    return LayerSpec(kind="fully_connected", units=units, activation=activation)


@dataclass(frozen=True)
class NetworkConfig:
    input_channels: int
    input_height: int
    input_width: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        for name in ("input_channels", "input_height", "input_width"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, 1, ConfigError))
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.input_channels, self.input_height, self.input_width)

    def conv_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind == "conv"]


@dataclass(frozen=True)
class LayerShape:
    """One row of the validation shape table."""

    index: int
    kind: str
    output_shape: tuple[int, ...]  # (c, h, w) for spatial layers, (units,) after flattening


def validate_config(cfg: NetworkConfig) -> list[LayerShape]:
    """Walk the layer chain, checking shape consistency; returns per-layer output shapes.

    Raises ConfigError naming the first offending layer.
    """
    if not cfg.layers:
        raise ConfigError("config has no layers")

    table: list[LayerShape] = []
    spatial: Optional[tuple[int, int, int]] = cfg.input_shape  # None once flattened

    for i, layer in enumerate(cfg.layers):
        if layer.kind == "normalization":
            if i != 0:
                raise ConfigError(f"layer {i}: normalization must be the first layer")
            table.append(LayerShape(i, layer.kind, spatial))
        elif layer.kind == "conv":
            if spatial is None:
                raise ConfigError(f"layer {i}: conv layers must precede fully connected layers")
            c, h, w = spatial
            g = layer.geometry
            if g.in_channels != c:
                raise ConfigError(f"layer {i}: expects {g.in_channels} input channels, chain provides {c}")
            if h < g.kernel_h or w < g.kernel_w:
                raise ConfigError(f"layer {i}: kernel {g.kernel_h}x{g.kernel_w} exceeds input {h}x{w}")
            oh, ow = g.output_hw(h, w)
            spatial = (g.out_channels, oh, ow)
            table.append(LayerShape(i, layer.kind, spatial))
        else:  # fully_connected
            spatial = None
            table.append(LayerShape(i, layer.kind, (layer.units,)))

    last = cfg.layers[-1]
    if last.kind != "fully_connected" or last.units != 1:
        raise ConfigError("last layer must be a single-unit fully connected output")
    return table


def default_config() -> NetworkConfig:
    """The full-size steering network: 66x200 YUV input, five conv layers
    (24/36/48/64/64 filters, 5x5 stride-2 then 3x3 stride-1), five FC layers
    tapering 1164 -> 100 -> 50 -> 10 -> 1.
    """
    return NetworkConfig(
        input_channels=3,
        input_height=66,
        input_width=200,
        layers=(
            LayerSpec(kind="normalization"),
            conv_layer(24, kernel=5, stride=2, in_channels=3),
            conv_layer(36, kernel=5, stride=2, in_channels=24),
            conv_layer(48, kernel=5, stride=2, in_channels=36),
            conv_layer(64, kernel=3, stride=1, in_channels=48),
            conv_layer(64, kernel=3, stride=1, in_channels=64),
            fc_layer(1164),
            fc_layer(100),
            fc_layer(50),
            fc_layer(10),
            fc_layer(1, activation="none"),
        ),
    )


def toy_config() -> NetworkConfig:
    """Slimmed config for desk-scale training: same input size and the same
    5x5/stride-2 front as the full network, but only three conv layers and a
    direct linear readout.

    The shallow head is deliberate. With the uniform +-1/sqrt(fan_in)
    initialization each ReLU layer shrinks activation magnitudes by roughly
    sqrt(6), and sqrt(6)^9 is about 3200: in ``default`` at
    ``init_weights(seed=1)``, on 16 frames drawn with ``default_rng(99)``,
    the RMS falls from 0.176 at the normalized input to 5.3e-5 at the output
    layer's input (about 3300x), and the prediction RMS is 2.7e-5. Plain
    fixed-rate SGD cannot recover from that within a desk-scale epoch budget;
    three conv layers keep the features large enough to train while
    preserving the strided-convolution geometry the mask backprojection runs
    on.
    """
    return NetworkConfig(
        input_channels=3,
        input_height=66,
        input_width=200,
        layers=(
            LayerSpec(kind="normalization"),
            conv_layer(12, kernel=5, stride=2, in_channels=3),
            conv_layer(16, kernel=5, stride=2, in_channels=12),
            conv_layer(20, kernel=5, stride=2, in_channels=16),
            fc_layer(1, activation="none"),
        ),
    )


BUILTIN_CONFIGS = {"default": default_config, "toy": toy_config}


# --- JSON form -----------------------------------------------------------

def config_to_dict(cfg: NetworkConfig) -> dict:
    layers = []
    for layer in cfg.layers:
        if layer.kind == "conv":
            g = layer.geometry
            layers.append(
                {
                    "kind": "conv",
                    "in_channels": g.in_channels,
                    "out_channels": g.out_channels,
                    "kernel": [g.kernel_h, g.kernel_w],
                    "stride": [g.stride_h, g.stride_w],
                    "activation": layer.activation,
                }
            )
        elif layer.kind == "fully_connected":
            layers.append({"kind": "fully_connected", "units": layer.units, "activation": layer.activation})
        else:
            layers.append({"kind": "normalization"})
    return {
        "input_channels": cfg.input_channels,
        "input_height": cfg.input_height,
        "input_width": cfg.input_width,
        "layers": layers,
    }


def _reject_unread(rest: dict, where: str) -> None:
    """``rest`` is what is left of a JSON object after every key read was popped."""
    if rest:
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, rest))}")


def config_from_dict(d: dict) -> NetworkConfig:
    """Build a NetworkConfig from its JSON form. Each object is read by popping
    keys off a copy, so any key left over is one no layer kind reads."""
    try:
        d = {**d}
        layers = []
        for i, entry in enumerate(d.pop("layers")):
            entry = {**entry}
            kind = entry.pop("kind")
            if kind == "conv":
                kh, kw = (as_int(v, f"layer {i} kernel", error=ConfigError) for v in entry.pop("kernel"))
                sh, sw = (as_int(v, f"layer {i} stride", error=ConfigError) for v in entry.pop("stride"))
                geom = ConvGeometry(
                    kernel_h=kh,
                    kernel_w=kw,
                    stride_h=sh,
                    stride_w=sw,
                    in_channels=as_int(entry.pop("in_channels"), f"layer {i} in_channels", error=ConfigError),
                    out_channels=as_int(entry.pop("out_channels"), f"layer {i} out_channels", error=ConfigError),
                )
                layers.append(LayerSpec(kind="conv", geometry=geom, activation=entry.pop("activation", "none")))
            elif kind == "fully_connected":
                units = as_int(entry.pop("units"), f"layer {i} units", error=ConfigError)
                layers.append(LayerSpec(kind="fully_connected", units=units, activation=entry.pop("activation", "none")))
            elif kind == "normalization":
                layers.append(LayerSpec(kind="normalization"))
            else:
                raise ConfigError(f"unknown layer kind {kind!r}")
            _reject_unread(entry, f"layer {i} ({kind})")
        cfg = NetworkConfig(
            input_channels=d.pop("input_channels"),
            input_height=d.pop("input_height"),
            input_width=d.pop("input_width"),
            layers=tuple(layers),
        )
        _reject_unread(d, "config")
        return cfg
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc


def canonical_json(cfg: NetworkConfig) -> str:
    """Canonical single-line JSON (sorted keys, no whitespace); the form embedded
    in weight files, so it must be stable."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def load_config(path) -> NetworkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
    return config_from_dict(d)


def save_config(cfg: NetworkConfig, path) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
