"""An independent reader/writer of the trace file layout, for corruption tests.

Not a test module (pytest skips it).  It re-implements the byte layout
documented in :mod:`repro.sim.traceio` — prefix, JSON header, one zlib
body — instead of calling into it, so the tests pin the layout itself.

A file decodes to a flat ``parts`` dict: ``magic``, ``version``,
``header`` (the JSON header minus its column table) and, per column,
``<name>_values`` / ``<name>_lengths`` / ``<name>_splits`` arrays.  A
test corrupts a file by editing ``parts``; re-encoding recomputes the
column table from whatever arrays are left, so a dropped or shortened
array reaches the loader exactly as written.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

MAGIC = b"BLTRACE\x00"
PREFIX = struct.Struct("<8sHI")  # magic, format version, header length
COLUMNS = ("busy", "freq", "power", "cpu_power", "wakeups")
PARTS = (("values", "values"), ("lengths", "lengths"), ("splits", "rows"))


def decode_parts(data: bytes) -> dict:
    magic, version, header_len = PREFIX.unpack_from(data)
    start = PREFIX.size + header_len
    header = json.loads(data[PREFIX.size:start])
    body = zlib.decompress(data[start:])
    parts = {"magic": magic, "version": version, "header": header}
    offset = 0
    for name, spec in header.pop("columns").items():
        for part, count_key in PARTS:
            dtype = spec["dtype"] if part == "values" else "<i4"
            arr = np.frombuffer(body, dtype, spec[count_key], offset).copy()
            parts[f"{name}_{part}"] = arr
            offset += arr.nbytes
    assert offset == len(body)
    return parts


def encode_parts(parts: dict) -> bytes:
    columns = {}
    chunks = []
    for name in COLUMNS:
        keys = [f"{name}_{part}" for part, _ in PARTS]
        if not all(k in parts for k in keys):
            continue
        arrays = [parts[k] for k in keys]
        columns[name] = {"dtype": arrays[0].dtype.str}
        for (_, count_key), arr in zip(PARTS, arrays):
            columns[name][count_key] = len(arr)
        chunks += [arrays[0].tobytes()] + [a.astype("<i4").tobytes() for a in arrays[1:]]
    header = json.dumps({**parts["header"], "columns": columns}).encode()
    return (
        PREFIX.pack(parts["magic"], parts["version"], len(header))
        + header
        + zlib.compress(b"".join(chunks), 5)
    )


def rewrite(path, mutate) -> None:
    """Decode the file at ``path``, apply ``mutate(parts)``, write it back."""
    with open(path, "rb") as f:
        parts = decode_parts(f.read())
    mutate(parts)
    with open(path, "wb") as f:
        f.write(encode_parts(parts))
