"""Per-layer parameter storage and the bit-exact weight file format.

File layout (all integers little-endian):

    magic            4 bytes, b"PNW1"
    config length    u32
    config           UTF-8 canonical JSON of the NetworkConfig
    per trainable layer, in config order:
        u32 weight count, then that many float32 weights
        u32 bias count,   then that many float32 biases
    crc32            u32 over every preceding byte

The normalization layer has no parameters and therefore no record.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .fileutil import atomic_write_bytes
from .config import ConfigError, NetworkConfig, canonical_json, config_from_dict, validate_config

MAGIC = b"PNW1"


class WeightFileError(ValueError):
    """Malformed weight file: bad magic or unsupported version."""


class WeightFileTruncatedError(WeightFileError):
    """Weight file ends before the declared data does."""


class WeightChecksumError(WeightFileError):
    """Weight file checksum does not match its contents."""


def parameter_shapes(cfg: NetworkConfig) -> dict[int, tuple[int, int]]:
    """Expected (weight count, bias count) per trainable layer index. A fully
    connected layer's fan-in is the flattened output of the row before it."""
    table = validate_config(cfg)
    shapes: dict[int, tuple[int, int]] = {}
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "conv":
            shapes[i] = (layer.geometry.weight_count(), layer.geometry.out_channels)
        elif layer.kind == "fully_connected":
            fan_in = math.prod(table[i - 1].output_shape if i else cfg.input_shape)
            shapes[i] = (layer.units * fan_in, layer.units)
    return shapes


@dataclass(frozen=True)
class WeightSet:
    """Flat float32 parameter arrays keyed by layer index, tied to their config."""

    config: NetworkConfig
    arrays: dict[int, tuple[np.ndarray, np.ndarray]]  # index -> (weights, biases)

    def __post_init__(self):
        expected = parameter_shapes(self.config)
        if set(self.arrays) != set(expected):
            raise ConfigError(
                f"weight set covers layers {sorted(self.arrays)}, config has trainable layers {sorted(expected)}"
            )
        frozen: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i, (w, b) in self.arrays.items():
            w = np.ascontiguousarray(w, dtype=np.float32).reshape(-1)
            b = np.ascontiguousarray(b, dtype=np.float32).reshape(-1)
            we, be = expected[i]
            if w.size != we:
                raise ConfigError(f"layer {i}: weight length {w.size} != expected {we}")
            if b.size != be:
                raise ConfigError(f"layer {i}: bias length {b.size} != expected {be}")
            w.flags.writeable = False
            b.flags.writeable = False
            frozen[i] = (w, b)
        object.__setattr__(self, "arrays", frozen)

    def weight(self, index: int) -> np.ndarray:
        return self.arrays[index][0]

    def bias(self, index: int) -> np.ndarray:
        return self.arrays[index][1]


def init_weights(cfg: NetworkConfig, seed: int) -> WeightSet:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(fan_in); biases start at zero."""
    rng = np.random.default_rng(seed)
    arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, (n_w, n_b) in parameter_shapes(cfg).items():
        fan_in = n_w // n_b  # one weight per input per output unit or channel
        w = rng.uniform(-1.0, 1.0, n_w) / np.sqrt(fan_in)
        arrays[i] = (w.astype(np.float32), np.zeros(n_b, np.float32))
    return WeightSet(cfg, arrays)


def save_weights(ws: WeightSet, path) -> None:
    """Serialize to the PNW1 layout; the round trip through load_weights is bit-exact."""
    cfg_bytes = canonical_json(ws.config).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(cfg_bytes)), cfg_bytes]
    for i in sorted(ws.arrays):
        w, b = ws.arrays[i]
        parts.append(struct.pack("<I", w.size))
        parts.append(w.astype("<f4").tobytes())
        parts.append(struct.pack("<I", b.size))
        parts.append(b.astype("<f4").tobytes())
    body = b"".join(parts)
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    atomic_write_bytes(path, blob)


def load_weights(path) -> WeightSet:
    """Read a PNW1 file back into a WeightSet.

    Structural problems are reported before checksum ones, so a cut-off file
    raises WeightFileTruncatedError rather than a misleading checksum failure.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise WeightFileError(f"{path}: not a weight file (bad magic)")
    if len(blob) < len(MAGIC) + 8:
        raise WeightFileTruncatedError(f"{path}: file too short for header and checksum")

    body = blob[:-4]  # everything the trailing crc32 covers
    pos = len(MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(body):
            raise WeightFileTruncatedError(f"{path}: truncated while reading {what}")
        chunk = body[pos : pos + n]
        pos += n
        return chunk

    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    try:
        cfg = config_from_dict(json.loads(take(cfg_len, "config").decode("utf-8")))
    except (UnicodeDecodeError, ValueError) as exc:
        if isinstance(exc, WeightFileError):
            raise
        raise WeightFileError(f"{path}: embedded config unreadable: {exc}") from exc

    try:
        shapes = parameter_shapes(cfg)
    except ConfigError as exc:
        raise WeightFileError(f"{path}: embedded config invalid: {exc}") from exc

    def take_floats(i: int, what: str, expected: int) -> np.ndarray:
        (n,) = struct.unpack("<I", take(4, f"layer {i} {what} length"))
        if n != expected:
            raise WeightFileError(f"{path}: layer {i} declares {n} {what}s, its config needs {expected}")
        return np.frombuffer(take(4 * n, f"layer {i} {what}s"), dtype="<f4").copy()

    arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, (n_w, n_b) in sorted(shapes.items()):
        arrays[i] = (take_floats(i, "weight", n_w), take_floats(i, "bias", n_b))
    if pos != len(body):
        raise WeightFileError(f"{path}: {len(body) - pos} trailing bytes after last layer")

    (crc_stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise WeightChecksumError(f"{path}: checksum mismatch")
    return WeightSet(cfg, arrays)
