"""Versioned binary container for named tensors plus JSON metadata.

Layout: 4-byte magic, u32 format version, u64 header length, UTF-8 header
JSON (sorted keys, so identical contents give identical bytes), then the
raw little-endian float64 payloads in header order.

Tensors are float32 in memory and float64 on disk: saving widens them
exactly, so loading and casting back to float32 restores the same bits, and
containers written by float64 builds still load.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"RBQT"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    pass


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]):
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        blob = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_container(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ContainerError(f"{path}: not a tensor container (bad magic)")
    if len(raw) < 16:
        raise ContainerError(f"{path}: truncated container header")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported container version {version}")
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    if 16 + hlen > len(raw):
        raise ContainerError(f"{path}: truncated container header")
    try:
        header = json.loads(raw[16:16 + hlen].decode())
        kind, meta, entries = header["kind"], header["meta"], header["tensors"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ContainerError(f"{path}: malformed container header: {exc}") from None
    payload = raw[16 + hlen:]
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start + 8 * count > len(payload):
            raise ContainerError(
                f"{path}: payload of tensor {entry['name']!r} is truncated")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(shape).copy()
    return kind, meta, arrays
