"""Trace persistence: save simulation traces to disk and reload them.

Traces are the interface between simulation and analysis; persisting
them lets expensive runs be archived, diffed across code versions, and
analyzed offline (all of :mod:`repro.core` works on loaded traces).

There is one on-disk format (version 4), also used verbatim as the
distributed protocol's trace blob.  Every column is run-length encoded:
the fast-forward engine produces long piecewise-constant spans, so the
freq/power/idle columns collapse to (value, run-length) pairs.  A file
is three parts:

1. a fixed prefix — magic bytes, format version, header length
   (``<8sHI``);
2. a small JSON header — core types, enabled flags, ``tick_s``,
   ``n_ticks`` and, per column, its value dtype plus its value, length
   and row counts;
3. one zlib-compressed body holding every column's contiguous
   little-endian ``values`` (in the column's dtype) and int32
   ``lengths``/``row_splits`` arrays, in canonical column order.

A load is one read, one :func:`zlib.decompress` (whose adler32 is the
integrity check) and :func:`numpy.frombuffer` views (run lengths and
row splits are widened to int64), followed by
:meth:`RLETrace.validate`.  Any decode failure raises
``ValueError("corrupt trace file ...")``.  Decoding is bit-exact:
values keep their native dtypes and inflate with :func:`numpy.repeat`.

:func:`load_trace` always returns a dense :class:`Trace`;
:func:`load_trace_lazy` returns a :class:`LazyTrace` proxy that defers
inflation until the first dense array access.  Paths may be ``str`` or
any :class:`os.PathLike`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.platform.coretypes import CoreType
from repro.sim.trace import Trace

#: v2 was a dense ``.npz``, v3 an ``.npz`` of RLE columns; v4 is the
#: single-file layout described above.
RLE_FORMAT_VERSION = 4

_MAGIC = b"BLTRACE\x00"
_PREFIX = struct.Struct("<8sHI")  # magic, format version, header length
#: On-disk dtype of run lengths and row splits (both bounded by
#: ``n_ticks``); widened to int64 on load.
_INDEX = np.dtype("<i4")
#: zlib level: 6 (the default) compresses ~1.7x slower for ~2% less size.
_ZLIB_LEVEL = 5

PathArg = Union[str, "os.PathLike[str]"]

#: The trace columns in canonical (file body) order.
_COLUMNS = ("busy", "freq", "power", "cpu_power", "wakeups")


# ---------------------------------------------------------------------------
# Run-length encoding
# ---------------------------------------------------------------------------


def rle_encode(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode a 1-D array as (run values, run lengths).

    Values keep the input dtype, so decoding reproduces the exact bytes.
    NaNs compare unequal to themselves and therefore land one per run,
    which is wasteful but still bit-exact.
    """
    n = arr.shape[0]
    if n == 0:
        return arr[:0].copy(), np.zeros(0, dtype=np.int64)
    change = np.flatnonzero(arr[1:] != arr[:-1])
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change + 1))
    lengths = np.diff(np.concatenate((starts, np.array([n], dtype=np.int64))))
    return arr[starts].copy(), lengths


def rle_decode(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Inflate (run values, run lengths) back to the dense 1-D array."""
    return np.repeat(values, lengths)


@dataclass
class RLEColumn:
    """One trace column (1-D or row-major 2-D) in run-length form.

    ``values``/``lengths`` concatenate every row's runs; ``row_splits``
    records how many runs each row contributed, so 2-D columns decode
    row by row.
    """

    values: np.ndarray
    lengths: np.ndarray
    row_splits: np.ndarray  # int64, one entry per row

    @classmethod
    def encode(cls, arr: np.ndarray) -> "RLEColumn":
        rows = arr[None, :] if arr.ndim == 1 else arr
        values, lengths, splits = [], [], []
        for row in rows:
            v, l = rle_encode(row)
            values.append(v)
            lengths.append(l)
            splits.append(len(v))
        return cls(
            values=np.concatenate(values) if values else arr[:0].copy(),
            lengths=np.concatenate(lengths) if lengths else np.zeros(0, np.int64),
            row_splits=np.asarray(splits, dtype=np.int64),
        )

    def decode(self) -> np.ndarray:
        """Inflate to the dense (n_rows, n_ticks) array (rows stacked)."""
        rows = []
        start = 0
        for n_runs in self.row_splits:
            stop = start + int(n_runs)
            rows.append(rle_decode(self.values[start:stop], self.lengths[start:stop]))
            start = stop
        return np.stack(rows) if rows else self.values[:0].reshape(0, 0)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.lengths.nbytes + self.row_splits.nbytes


@dataclass
class RLETrace:
    """A complete trace in run-length-encoded columnar form.

    The worker→parent transport unit of the ``"rle"`` trace policy: it
    pickles at run-count size instead of tick-count size, and
    :meth:`to_trace` inflates it back bit-exactly on demand.
    """

    core_types: list[CoreType]
    enabled: list[bool]
    tick_s: float
    n_ticks: int
    columns: dict[str, RLEColumn]

    @classmethod
    def from_trace(cls, trace: Trace) -> "RLETrace":
        return cls(
            core_types=list(trace.core_types),
            enabled=list(trace.enabled),
            tick_s=trace.tick_s,
            n_ticks=len(trace),
            columns={
                "busy": RLEColumn.encode(trace.busy),
                "freq": RLEColumn.encode(np.stack([
                    trace.freq_khz(CoreType.LITTLE),
                    trace.freq_khz(CoreType.BIG),
                ])),
                "power": RLEColumn.encode(trace.power_mw),
                "cpu_power": RLEColumn.encode(np.stack([
                    trace.cpu_power_mw(CoreType.LITTLE),
                    trace.cpu_power_mw(CoreType.BIG),
                ])),
                "wakeups": RLEColumn.encode(trace.wakeups),
            },
        )

    def to_trace(self) -> Trace:
        """Inflate to a dense, finalized :class:`Trace` (bit-exact).

        Every call counts toward ``trace.materializations`` — the lake
        query kernels assert this counter stays flat, proving cross-run
        analytics never pay tick-count memory.
        """
        from repro.obs.metrics import global_metrics

        global_metrics().counter("trace.materializations").inc()
        n = self.n_ticks
        trace = Trace(self.core_types, list(self.enabled), max_ticks=max(1, n))
        if n:
            trace._busy[:, :n] = self.columns["busy"].decode()
            trace._freq[:, :n] = self.columns["freq"].decode()
            trace._power[:n] = self.columns["power"].decode()[0]
            trace._cpu_power[:, :n] = self.columns["cpu_power"].decode()
            trace._wakeups[:n] = self.columns["wakeups"].decode()[0]
        trace._len = n
        trace.finalize()
        return trace

    @property
    def nbytes(self) -> int:
        """Encoded payload size (bytes) — what transport/storage costs."""
        return sum(c.nbytes for c in self.columns.values())

    def validate(self, path: str = "<memory>") -> None:
        """Raise :class:`ValueError` on internally inconsistent runs."""
        expected_rows = {
            "busy": len(self.core_types), "freq": 2, "power": 1,
            "cpu_power": 2, "wakeups": 1,
        }
        for name in _COLUMNS:
            col = self.columns[name]
            if len(col.values) != len(col.lengths) or int(col.row_splits.sum()) != len(col.values):
                raise ValueError(
                    f"corrupt trace file {path}: {name} run values and "
                    f"lengths disagree"
                )
            if len(col.row_splits) != expected_rows[name]:
                expected = (
                    f"the header names {expected_rows[name]} cores"
                    if name == "busy"
                    else f"{expected_rows[name]} were expected"
                )
                raise ValueError(
                    f"corrupt trace file {path}: {name} has "
                    f"{len(col.row_splits)} rows but {expected}"
                )
            if np.any(col.lengths <= 0):
                raise ValueError(
                    f"corrupt trace file {path}: {name} contains "
                    f"non-positive run lengths"
                )
        bad = {}
        for name in _COLUMNS:
            col = self.columns[name]
            start = 0
            for r, n_runs in enumerate(col.row_splits):
                stop = start + int(n_runs)
                ticks = int(col.lengths[start:stop].sum())
                if ticks != self.n_ticks:
                    key = f"{name}[{r}]" if expected_rows[name] > 1 else name
                    bad[key] = ticks
                start = stop
        if bad:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(bad.items()))
            raise ValueError(
                f"corrupt trace file {path}: header records {self.n_ticks} "
                f"ticks but {detail} (tick counts must match across all "
                f"columns)"
            )


class LazyTrace:
    """A :class:`Trace` stand-in that inflates its RLE payload on demand.

    Cheap metadata (core types, length, duration, payload size) is
    served straight from the :class:`RLETrace`; the first access to any
    dense attribute (``busy``, ``power_mw``, ``trimmed`` …) inflates the
    payload once and delegates everything afterwards.  Pickling always
    ships the compact RLE form, never the inflated arrays — that is the
    worker→parent transport trick of the ``"rle"`` trace policy.
    """

    __slots__ = ("_rle", "_dense")

    def __init__(self, rle: RLETrace):
        self._rle = rle
        self._dense: Trace | None = None

    @classmethod
    def from_trace(cls, trace: Trace) -> "LazyTrace":
        return cls(RLETrace.from_trace(trace))

    # -- cheap metadata (no inflation) ---------------------------------

    @property
    def rle(self) -> RLETrace:
        return self._rle

    @property
    def core_types(self) -> list[CoreType]:
        return self._rle.core_types

    @property
    def enabled(self) -> list[bool]:
        return self._rle.enabled

    @property
    def n_cores(self) -> int:
        return len(self._rle.core_types)

    @property
    def tick_s(self) -> float:
        return self._rle.tick_s

    def __len__(self) -> int:
        return self._rle.n_ticks

    @property
    def duration_s(self) -> float:
        return self._rle.n_ticks * self._rle.tick_s

    @property
    def payload_nbytes(self) -> int:
        """Bytes this proxy costs to pickle/store (the RLE payload)."""
        return self._rle.nbytes

    @property
    def inflated(self) -> bool:
        return self._dense is not None

    # -- inflation ------------------------------------------------------

    def materialize(self) -> Trace:
        """Inflate (once) and return the dense trace."""
        if self._dense is None:
            self._dense = self._rle.to_trace()
            from repro.obs.metrics import global_metrics

            global_metrics().counter("trace.rle.inflations").inc()
            global_metrics().counter("trace.rle.inflated_bytes").inc(
                self._dense.nbytes
            )
        return self._dense

    def __getattr__(self, name: str):
        # Only reached for attributes not defined above — i.e. anything
        # needing the dense arrays.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)

    # -- pickling: always the compact form ------------------------------

    def __getstate__(self) -> RLETrace:
        return self._rle

    def __setstate__(self, state: RLETrace) -> None:
        self._rle = state
        self._dense = None


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------


def _as_rle(trace: Union[Trace, LazyTrace, RLETrace]) -> RLETrace:
    if isinstance(trace, LazyTrace):
        return trace.rle
    if isinstance(trace, RLETrace):
        return trace
    return RLETrace.from_trace(trace)


def trace_rle_to_bytes(trace: Union[Trace, LazyTrace, RLETrace]) -> bytes:
    """The file bytes of ``trace`` — also the distributed protocol's blob.

    Accepts a dense :class:`Trace` (encoded here), a :class:`LazyTrace`
    (its payload is written without inflating), or a raw
    :class:`RLETrace`.
    """
    rle = _as_rle(trace)
    if rle.n_ticks > np.iinfo(_INDEX).max:
        raise ValueError(f"{rle.n_ticks} ticks exceed the trace file format")
    columns = {}
    chunks = []
    for name in _COLUMNS:
        col = rle.columns[name]
        values = col.values.astype(col.values.dtype.newbyteorder("<"), copy=False)
        columns[name] = {
            "dtype": values.dtype.str,
            "values": len(values),
            "lengths": len(col.lengths),
            "rows": len(col.row_splits),
        }
        chunks += [
            values.tobytes(),
            col.lengths.astype(_INDEX, copy=False).tobytes(),
            col.row_splits.astype(_INDEX, copy=False).tobytes(),
        ]
    header = json.dumps({
        "core_types": [t.value for t in rle.core_types],
        "enabled": list(rle.enabled),
        "tick_s": rle.tick_s,
        "n_ticks": rle.n_ticks,
        "columns": columns,
    }).encode()
    return b"".join((
        _PREFIX.pack(_MAGIC, RLE_FORMAT_VERSION, len(header)),
        header,
        zlib.compress(b"".join(chunks), _ZLIB_LEVEL),
    ))


def _parse(data: bytes) -> RLETrace:
    """Decode file bytes; raises plain errors that :func:`_decode` labels."""
    magic, version, header_len = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("bad magic bytes (not a trace file)")
    if version != RLE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r}")
    start = _PREFIX.size + header_len
    if len(data) < start:
        raise ValueError(f"header needs {start} bytes, file has {len(data)}")
    header = json.loads(data[_PREFIX.size:start])
    specs = header["columns"]
    missing = [name for name in _COLUMNS if name not in specs]
    if missing:
        raise ValueError(f"missing arrays {', '.join(missing)}")
    body = zlib.decompress(data[start:])
    columns = {}
    offset = 0
    for name in _COLUMNS:
        spec = specs[name]
        dtype = np.dtype(spec["dtype"])
        if dtype.kind not in "biuf":
            raise ValueError(f"{name} has unsupported dtype {dtype}")
        parts = []
        for part_dtype, count in ((dtype, spec["values"]), (_INDEX, spec["lengths"]),
                                  (_INDEX, spec["rows"])):
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"{name} has invalid run count {count!r}")
            parts.append(np.frombuffer(body, part_dtype, count, offset))
            offset += count * part_dtype.itemsize
        values, lengths, row_splits = parts
        columns[name] = RLEColumn(
            values, lengths.astype(np.int64), row_splits.astype(np.int64)
        )
    if offset != len(body):
        raise ValueError(
            f"body holds {len(body)} bytes but the header describes {offset}"
        )
    return RLETrace(
        core_types=[CoreType(v) for v in header["core_types"]],
        enabled=list(header["enabled"]),
        tick_s=float(header["tick_s"]),
        n_ticks=int(header["n_ticks"]),
        columns=columns,
    )


def _decode(data: bytes, path: str) -> RLETrace:
    try:
        rle = _parse(data)
    except KeyError as exc:
        raise ValueError(
            f"corrupt trace file {path}: header has no field {exc}"
        ) from exc
    except (ValueError, TypeError, struct.error, zlib.error) as exc:
        raise ValueError(f"corrupt trace file {path}: {exc}") from exc
    rle.validate(path)
    return rle


def load_trace_rle_bytes(data: bytes) -> LazyTrace:
    """Inverse of :func:`trace_rle_to_bytes`; validates like file loads."""
    return LazyTrace(_decode(data, "<bytes>"))


def save_trace_rle(trace: Union[Trace, LazyTrace, RLETrace], path: PathArg) -> None:
    """Write ``trace`` to ``path`` (see :func:`trace_rle_to_bytes`)."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as f:
        f.write(trace_rle_to_bytes(trace))


#: Dense traces are saved in the same single format.
save_trace = save_trace_rle


def _read(path: PathArg) -> RLETrace:
    path = os.fspath(path)
    with open(path, "rb") as f:
        return _decode(f.read(), path)


def load_trace(path: PathArg) -> Trace:
    """Load a trace file and inflate it to a dense :class:`Trace`.

    Raises :class:`ValueError` on a bad magic or format version, on a
    truncated or bit-flipped body, on a missing column, or when the
    columns disagree on tick count or core count — a damaged or
    hand-edited file fails loudly here instead of producing shifted
    analyses downstream.
    """
    return _read(path).to_trace()


def load_trace_lazy(path: PathArg) -> LazyTrace:
    """Like :func:`load_trace`, but returns an uninflated :class:`LazyTrace`.

    The proxy costs run-count memory until an analysis touches the dense
    arrays — the cache hit-load and lake query fast path.
    """
    return LazyTrace(_read(path))
