"""Binary PGM/PPM image files and the raw float mask dump.

Images travel as numpy uint8 arrays: (H, W) grayscale, (H, W, 3) RGB. Writers
emit the canonical binary header ``P5\\n{w} {h}\\n255\\n`` (P6 for color);
readers accept any legal header whitespace and ``#`` comments but insist on
maxval 255 and an exact-length raster.

The mask dump is for lossless round trips of a [0, 1] float mask:

    bytes 0..3   magic b"MSK1"
    bytes 4..7   height, u32 little-endian
    bytes 8..11  width,  u32 little-endian
    then         height*width float32 little-endian, row-major

All writers go through an atomic temp-file-and-rename.
"""

from __future__ import annotations

import struct

import numpy as np

from .fileutil import atomic_write_bytes
from .saliency import VisualizationMask

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")

MASK_MAGIC = b"MSK1"


class ImageFormatError(ValueError):
    """Malformed PGM/PPM file: bad magic, bad header, or wrong raster length."""


class MaskFileError(ValueError):
    """Malformed MSK1 mask dump."""


def _header_token(buf: bytes, pos: int, path, what: str) -> tuple[int, int]:
    """Skip whitespace/comments, parse one decimal header token, return (value, new pos)."""
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and buf[pos] not in (ord("\n"), ord("\r")):
                pos += 1
        else:
            break
    start = pos
    while pos < n and buf[pos] not in _WHITESPACE and buf[pos] != ord("#"):
        pos += 1
    token = buf[start:pos]
    if not token:
        raise ImageFormatError(f"{path}: header ended while expecting {what}")
    try:
        value = int(token.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise ImageFormatError(f"{path}: bad {what} token {token!r}") from None
    return value, pos


def _read_pnm(path, magic: bytes, samples_per_pixel: int) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 2 or buf[:2] != magic:
        raise ImageFormatError(f"{path}: bad magic, expected {magic.decode()}")
    width, pos = _header_token(buf, 2, path, "width")
    height, pos = _header_token(buf, pos, path, "height")
    maxval, pos = _header_token(buf, pos, path, "maxval")
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad image size {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    if pos >= len(buf) or buf[pos] not in _WHITESPACE:
        raise ImageFormatError(f"{path}: missing whitespace before raster data")
    pos += 1  # exactly one whitespace byte separates header and raster
    need = width * height * samples_per_pixel
    raster = buf[pos:]
    if len(raster) < need:
        raise ImageFormatError(f"{path}: raster truncated, need {need} bytes, have {len(raster)}")
    if len(raster) > need:
        raise ImageFormatError(f"{path}: {len(raster) - need} trailing bytes after raster")
    pixel = (samples_per_pixel,) if samples_per_pixel > 1 else ()
    return np.frombuffer(raster, dtype=np.uint8, count=need).reshape((height, width) + pixel).copy()


def _write_pnm(path, arr, magic: bytes, samples_per_pixel: int) -> None:
    arr = np.asarray(arr)
    pixel = (samples_per_pixel,) if samples_per_pixel > 1 else ()
    if arr.ndim != 2 + len(pixel) or arr.shape[2:] != pixel or arr.dtype != np.uint8:
        dims = ", ".join(["H", "W", *map(str, pixel)])
        raise ValueError(f"expected ({dims}) uint8, got {arr.shape} {arr.dtype}")
    header = magic + f"\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + arr.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5) -> (H, W) uint8."""
    return _read_pnm(path, b"P5", 1)


def read_ppm(path) -> np.ndarray:
    """Binary PPM (P6) -> (H, W, 3) uint8."""
    return _read_pnm(path, b"P6", 3)


def write_pgm(path, gray: np.ndarray) -> None:
    """(H, W) uint8 -> binary PGM (P5), maxval 255."""
    _write_pnm(path, gray, b"P5", 1)


def write_ppm(path, rgb: np.ndarray) -> None:
    """(H, W, 3) uint8 -> binary PPM (P6), maxval 255."""
    _write_pnm(path, rgb, b"P6", 3)


def write_mask_dump(path, mask: VisualizationMask) -> None:
    """Lossless MSK1 dump of the float mask."""
    payload = np.ascontiguousarray(mask.data, dtype="<f4").tobytes()
    blob = MASK_MAGIC + struct.pack("<II", mask.height, mask.width) + payload
    atomic_write_bytes(path, blob)


def read_mask_dump(path) -> VisualizationMask:
    """Read an MSK1 dump; the round trip preserves every float bit."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MASK_MAGIC:
        raise MaskFileError(f"{path}: not a mask dump (bad magic)")
    if len(blob) < 12:
        raise MaskFileError(f"{path}: truncated header")
    height, width = struct.unpack("<II", blob[4:12])
    if height < 1 or width < 1:
        raise MaskFileError(f"{path}: bad mask size {height}x{width}")
    need = height * width * 4
    payload = blob[12:]
    if len(payload) != need:
        raise MaskFileError(f"{path}: payload is {len(payload)} bytes, expected {need}")
    data = np.frombuffer(payload, dtype="<f4", count=height * width).reshape(height, width)
    try:
        return VisualizationMask(data)
    except ValueError as exc:
        raise MaskFileError(f"{path}: {exc}") from None
