"""Shared fixtures and random-instance helpers for the test suite."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from visback import network
from visback.config import LayerSpec, NetworkConfig, conv_layer, fc_layer
from visback.tensor import Tensor
from visback.weights import WeightSet, parameter_shapes

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SRC = Path(__file__).resolve().parents[1] / "src"


def env_with_src() -> dict:
    """The environment with ``src/`` first on PYTHONPATH, so a subprocess finds
    the package in an uninstalled checkout too."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def random_conv_config(rng: np.random.Generator, with_normalization: bool = True,
                       max_conv_layers: int = 3, max_fc_layers: int = 2) -> NetworkConfig:
    """A small random but valid architecture: optional normalization, then a
    conv stack, then an FC taper ending in one unit."""
    c, h, w = 3, int(rng.integers(10, 24)), int(rng.integers(10, 24))
    layers: list[LayerSpec] = []
    if with_normalization:
        layers.append(LayerSpec(kind="normalization"))
    cur_c, cur_h, cur_w = c, h, w
    for _ in range(int(rng.integers(1, max_conv_layers + 1))):
        kernel = int(rng.integers(2, 4))
        if cur_h < kernel or cur_w < kernel:
            break
        stride = int(rng.integers(1, 3))
        out_c = int(rng.integers(2, 6))
        layers.append(conv_layer(out_c, kernel=kernel, stride=stride, in_channels=cur_c))
        cur_h = (cur_h - kernel) // stride + 1
        cur_w = (cur_w - kernel) // stride + 1
        cur_c = out_c
    for _ in range(int(rng.integers(0, max_fc_layers))):
        layers.append(fc_layer(int(rng.integers(2, 9))))
    layers.append(fc_layer(1, activation="none"))
    return NetworkConfig(input_channels=c, input_height=h, input_width=w, layers=tuple(layers))


def random_weights(cfg: NetworkConfig, rng: np.random.Generator, scale: float = 0.5) -> WeightSet:
    arrays = {}
    for i, (wn, bn) in parameter_shapes(cfg).items():
        arrays[i] = (
            rng.uniform(-scale, scale, size=wn).astype(np.float32),
            rng.uniform(-scale, scale, size=bn).astype(np.float32),
        )
    return WeightSet(config=cfg, arrays=arrays)


def zero_weights(cfg: NetworkConfig) -> WeightSet:
    shapes = parameter_shapes(cfg).items()
    return WeightSet(cfg, {i: (np.zeros(w, np.float32), np.zeros(b, np.float32)) for i, (w, b) in shapes})


def random_image(cfg: NetworkConfig, rng: np.random.Generator) -> Tensor:
    data = rng.uniform(0.0, 255.0, size=cfg.input_shape).astype(np.float32)
    return Tensor(data)


def oracle_layers(cfg: NetworkConfig, ws: WeightSet) -> list:
    """Convert a config + weight set into the plain-array layer tuples the
    straight-loop oracle implementations consume."""
    layers = []
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "normalization":
            layers.append(("norm",))
        elif layer.kind == "conv":
            g = layer.geometry
            w4 = ws.weight(i).reshape(g.out_channels, g.in_channels, g.kernel_h, g.kernel_w)
            layers.append(("conv", w4.astype(np.float64), ws.bias(i).astype(np.float64),
                           g.stride_h, g.stride_w, layer.activation))
        else:
            w2 = ws.weight(i).reshape(layer.units, -1)
            layers.append(("fc", w2.astype(np.float64), ws.bias(i).astype(np.float64),
                           layer.activation))
    return layers


@pytest.fixture
def chunk_threads(monkeypatch):
    """A function ``use(k)`` that makes the batched paths run ``k`` chunk
    threads on a fresh pool, whose threads are named ``test-chunk``; the
    pools are shut down at teardown."""
    pools = []

    def use(k):
        pool = ThreadPoolExecutor(max_workers=max(1, k - 1), thread_name_prefix="test-chunk")
        pools.append(pool)
        monkeypatch.setattr(network, "CHUNK_THREADS", k)
        monkeypatch.setattr(network, "_POOL", pool)

    yield use
    for pool in pools:
        pool.shutdown(wait=True)


@pytest.fixture(scope="session")
def trained_model():
    """Train the desk-scale model once per session; shared by the training
    acceptance check, the shift-experiment acceptance check, and the
    mirror-consistency check.

    Returns (cfg, weights, losses, dataset, elapsed_seconds).
    """
    import time

    from visback.config import toy_config
    from visback.training import TrainConfig, generate_dataset, train

    cfg = toy_config()
    dataset = generate_dataset(2000, style="mixed", seed=11)
    tc = TrainConfig(epochs=30, seed=3)
    start = time.perf_counter()
    weights, losses = train(cfg, tc, dataset)
    elapsed = time.perf_counter() - start
    return cfg, weights, losses, dataset, elapsed


def corruptions(size: int):
    """Strategy for one damage to a file of `size` bytes: ("cut", kept length)
    or ("flip", bit index)."""
    return st.one_of(st.tuples(st.just("cut"), st.integers(0, size - 1)),
                     st.tuples(st.just("flip"), st.integers(0, 8 * size - 1)))


def corrupt(blob: bytes, damage) -> bytes:
    kind, k = damage
    if kind == "cut":
        return blob[:k]
    out = bytearray(blob)
    out[k // 8] ^= 1 << (k % 8)
    return bytes(out)
