"""RLE trace format: property-based round trips, laziness, corruption."""

from __future__ import annotations

import os
import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.study import run_app
from repro.obs.metrics import global_metrics
from repro.platform.coretypes import CoreType
from repro.runner.cache import ResultCache
from repro.runner.spec import RunSpec, execute_spec
from repro.sim.trace import Trace
from repro.sim.traceio import (
    LazyTrace,
    RLE_FORMAT_VERSION,
    RLEColumn,
    RLETrace,
    load_trace,
    load_trace_lazy,
    load_trace_rle_bytes,
    rle_decode,
    rle_encode,
    save_trace_rle,
    trace_rle_to_bytes,
)
from tests.traceformat import PREFIX, decode_parts, encode_parts, rewrite


# -- rle_encode / rle_decode properties --------------------------------------


run_values = st.lists(
    st.sampled_from([0, 1, 2, 250, -7, 21_000]), min_size=1, max_size=8
)
run_lengths = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8)


@st.composite
def piecewise_constant_arrays(draw):
    """Arrays shaped like fast-forward output: a few long constant spans."""
    values = draw(run_values)
    lengths = draw(st.lists(
        st.integers(min_value=1, max_value=200),
        min_size=len(values), max_size=len(values),
    ))
    dtype = draw(st.sampled_from([np.int32, np.int16, np.float32, np.float64]))
    return np.repeat(np.asarray(values, dtype=dtype), lengths)


@settings(max_examples=50, deadline=None)
@given(piecewise_constant_arrays())
def test_roundtrip_piecewise_constant(arr):
    values, lengths = rle_encode(arr)
    out = rle_decode(values, lengths)
    assert out.dtype == arr.dtype
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), max_size=64))
def test_roundtrip_dense_random_ints(xs):
    arr = np.asarray(xs, dtype=np.int32)
    np.testing.assert_array_equal(rle_decode(*rle_encode(arr)), arr)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=True, width=32), max_size=64,
))
def test_roundtrip_float32_bit_exact(xs):
    arr = np.asarray(xs, dtype=np.float32)
    out = rle_decode(*rle_encode(arr))
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, arr)


def test_roundtrip_nan_runs_are_bit_exact():
    # NaN != NaN, so each NaN lands in its own run — wasteful but exact.
    arr = np.array([1.0, np.nan, np.nan, 2.0], dtype=np.float32)
    values, lengths = rle_encode(arr)
    assert len(values) == 4
    out = rle_decode(values, lengths)
    np.testing.assert_array_equal(
        out.view(np.uint32), arr.view(np.uint32)
    )


def test_roundtrip_empty_and_single_tick():
    empty = np.zeros(0, dtype=np.float32)
    values, lengths = rle_encode(empty)
    assert len(values) == 0 and len(lengths) == 0
    assert rle_decode(values, lengths).shape == (0,)

    single = np.array([42], dtype=np.int16)
    values, lengths = rle_encode(single)
    assert list(values) == [42] and list(lengths) == [1]
    np.testing.assert_array_equal(rle_decode(values, lengths), single)


@settings(max_examples=25, deadline=None)
@given(piecewise_constant_arrays())
def test_column_roundtrip_2d(row):
    arr = np.stack([row, row[::-1].copy()])
    decoded = RLEColumn.encode(arr).decode()
    np.testing.assert_array_equal(decoded, arr)


# -- whole-trace round trips on real simulator output ------------------------


@pytest.fixture(scope="module")
def real_trace() -> Trace:
    return run_app("video-player", seed=3, max_seconds=2.0).trace


def assert_traces_equal(a: Trace, b: Trace) -> None:
    assert len(a) == len(b)
    assert a.tick_s == b.tick_s
    assert a.core_types == b.core_types
    np.testing.assert_array_equal(a.busy, b.busy)
    np.testing.assert_array_equal(a.power_mw, b.power_mw)
    np.testing.assert_array_equal(a.wakeups, b.wakeups)
    for ct in (CoreType.LITTLE, CoreType.BIG):
        np.testing.assert_array_equal(a.freq_khz(ct), b.freq_khz(ct))
        np.testing.assert_array_equal(a.cpu_power_mw(ct), b.cpu_power_mw(ct))


def test_rletrace_roundtrip_bit_exact(real_trace):
    rle = RLETrace.from_trace(real_trace)
    assert rle.nbytes < real_trace.nbytes  # it actually compresses
    assert_traces_equal(rle.to_trace(), real_trace)


def test_save_load_rle_file_roundtrip(tmp_path, real_trace):
    # Extensionless on purpose: the file is written exactly where asked.
    path = tmp_path / "trace.rle"
    save_trace_rle(real_trace, path)
    assert path.is_file()
    assert_traces_equal(load_trace(path), real_trace)


def test_load_trace_lazy_defers_inflation(tmp_path, real_trace):
    path = tmp_path / "trace.rle"
    save_trace_rle(real_trace, path)
    lazy = load_trace_lazy(path)
    assert isinstance(lazy, LazyTrace)
    # Metadata comes free, without inflating.
    assert not lazy.inflated
    assert len(lazy) == len(real_trace)
    assert lazy.duration_s == real_trace.duration_s
    assert lazy.payload_nbytes < real_trace.nbytes
    assert not lazy.inflated
    # First dense access inflates, bit-exactly.
    np.testing.assert_array_equal(lazy.busy, real_trace.busy)
    assert lazy.inflated


def test_lazytrace_pickles_as_rle_only(real_trace):
    lazy = LazyTrace.from_trace(real_trace)
    lazy.materialize()  # inflate, then prove pickling drops the dense copy
    payload = pickle.dumps(lazy)
    assert len(payload) < real_trace.nbytes / 2
    restored = pickle.loads(payload)
    assert isinstance(restored, LazyTrace)
    assert not restored.inflated
    assert_traces_equal(restored.materialize(), real_trace)


# -- file bytes == wire bytes, bit-exact for every dtype ----------------------


@st.composite
def rle_traces(draw):
    """Small RLE traces with a drawn dtype and run structure per column."""
    n_ticks = draw(st.integers(min_value=1, max_value=60))
    core_types = [CoreType.LITTLE, CoreType.BIG]

    def column(rows):
        dtype = draw(st.sampled_from([np.float32, np.float64, np.int16, np.int32]))

        def row():
            values = draw(run_values)
            lengths = draw(st.lists(
                st.integers(1, 20), min_size=len(values), max_size=len(values),
            ))
            dense = np.repeat(np.asarray(values, dtype=dtype), lengths)
            return np.resize(dense, n_ticks)

        return RLEColumn.encode(np.stack([row() for _ in range(rows)]))

    return RLETrace(
        core_types=core_types,
        enabled=[True, draw(st.booleans())],
        tick_s=draw(st.sampled_from([0.001, 0.01, 0.02])),
        n_ticks=n_ticks,
        columns={
            "busy": column(2), "freq": column(2), "power": column(1),
            "cpu_power": column(2), "wakeups": column(1),
        },
    )


@settings(max_examples=40, deadline=None)
@given(rle_traces())
def test_file_bytes_equal_wire_bytes_and_roundtrip_bit_exact(
    tmp_path_factory, rle
):
    path = tmp_path_factory.mktemp("wire") / "trace.rle"
    save_trace_rle(rle, path)
    wire = trace_rle_to_bytes(rle)
    assert path.read_bytes() == wire
    for loaded in (load_trace_rle_bytes(wire).rle, load_trace_lazy(path).rle):
        assert loaded.n_ticks == rle.n_ticks
        assert loaded.tick_s == rle.tick_s
        assert loaded.core_types == rle.core_types
        assert loaded.enabled == rle.enabled
        for name, col in rle.columns.items():
            got = loaded.columns[name]
            assert got.values.dtype == col.values.dtype
            assert got.values.tobytes() == col.values.tobytes()
            np.testing.assert_array_equal(got.lengths, col.lengths)
            np.testing.assert_array_equal(got.row_splits, col.row_splits)


# -- corruption: truncated/edited files must fail loudly ---------------------


@pytest.fixture()
def rle_path(tmp_path, real_trace):
    path = tmp_path / "trace.rle"
    save_trace_rle(real_trace, path)
    return path


def test_layout_reference_reencodes_byte_identical(rle_path):
    data = rle_path.read_bytes()
    assert encode_parts(decode_parts(data)) == data


def test_unsupported_version_rejected(rle_path):
    rewrite(rle_path, lambda a: a.update(version=99))
    with pytest.raises(ValueError, match="unsupported trace format version"):
        load_trace(rle_path)


def test_missing_arrays_rejected(rle_path):
    rewrite(rle_path, lambda a: a.pop("power_values"))
    with pytest.raises(ValueError, match="corrupt trace file.*missing arrays"):
        load_trace(rle_path)


def test_truncated_runs_rejected(rle_path):
    def truncate(arrays):
        arrays["power_values"] = arrays["power_values"][:-1]
        arrays["power_lengths"] = arrays["power_lengths"][:-1]
        arrays["power_splits"] = arrays["power_splits"] - 1

    rewrite(rle_path, truncate)
    with pytest.raises(ValueError, match="tick counts must match"):
        load_trace(rle_path)


def test_values_lengths_mismatch_rejected(rle_path):
    rewrite(rle_path, lambda a: a.update(
        busy_lengths=a["busy_lengths"][:-1]
    ))
    with pytest.raises(ValueError, match="values and.*lengths disagree"):
        load_trace(rle_path)


def test_nonpositive_lengths_rejected(rle_path):
    def zero_out(arrays):
        lengths = arrays["wakeups_lengths"]
        lengths[0] = 0
        # keep the total consistent-looking so only the sign check fires
        lengths[-1] += 0

    rewrite(rle_path, zero_out)
    with pytest.raises(ValueError, match="non-positive run lengths"):
        load_trace(rle_path)


def test_wrong_row_count_rejected(rle_path):
    def drop_row(arrays):
        # One merged row: runs still sum up, but the row count is wrong.
        arrays["freq_splits"] = np.array([arrays["freq_splits"].sum()])

    rewrite(rle_path, drop_row)
    with pytest.raises(ValueError, match="rows but"):
        load_trace(rle_path)


def _bad_magic(path):
    data = path.read_bytes()
    path.write_bytes(b"NOTATRCE" + data[8:])


def _truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flipped_body_byte(path):
    data = bytearray(path.read_bytes())
    data[-len(data) // 4] ^= 0x40  # well inside the compressed body
    path.write_bytes(bytes(data))


def _short_body(path):
    # Decompresses cleanly but holds fewer bytes than the header describes.
    data = path.read_bytes()
    _, _, header_len = PREFIX.unpack_from(data)
    start = PREFIX.size + header_len
    body = zlib.decompress(data[start:])
    path.write_bytes(data[:start] + zlib.compress(body[:-8]))


def _unknown_dtype(path):
    rewrite(path, lambda a: a.update(
        power_values=a["power_values"].astype("complex64")
    ))


FILE_CORRUPTIONS = {
    "bad-magic": _bad_magic,
    "truncated-file": _truncated,
    "flipped-body-byte": _flipped_body_byte,
    "short-body": _short_body,
    "unknown-dtype": _unknown_dtype,
}


@pytest.mark.parametrize("corrupt", FILE_CORRUPTIONS.values(), ids=FILE_CORRUPTIONS)
def test_damaged_file_rejected(rle_path, corrupt):
    corrupt(rle_path)
    with pytest.raises(ValueError, match="corrupt trace file"):
        load_trace(rle_path)
    with pytest.raises(ValueError, match="corrupt trace file <bytes>"):
        load_trace_rle_bytes(rle_path.read_bytes())


@pytest.mark.parametrize("policy", ["rle", "full"])
@pytest.mark.parametrize("corrupt", FILE_CORRUPTIONS.values(), ids=FILE_CORRUPTIONS)
def test_damaged_cache_trace_is_evicted_and_counted(tmp_path, corrupt, policy):
    cache = ResultCache(root=str(tmp_path))
    spec = RunSpec("video-player", chip="exynos5422", seed=3, max_seconds=1.0,
                   trace_policy=policy)
    cache.store(spec, execute_spec(spec))
    corrupt_before = global_metrics().counter("cache.corrupt").value
    corrupt(tmp_path / cache.version / spec.key() / ResultCache.RLE_TRACE_FILE)
    assert cache.load(spec) is None
    assert not os.path.isdir(cache.entry_dir(spec))
    assert global_metrics().counter("cache.corrupt").value == corrupt_before + 1


def test_full_policy_cache_hit_is_dense(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    spec = RunSpec("video-player", chip="exynos5422", seed=3, max_seconds=1.0)
    cache.store(spec, execute_spec(spec))
    loaded = cache.load(spec)
    assert type(loaded.trace) is Trace
    assert_traces_equal(loaded.trace, execute_spec(spec).trace)


def test_tick_count_beyond_format_rejected_on_save(real_trace):
    rle = RLETrace.from_trace(real_trace)
    rle.n_ticks = 2**31
    with pytest.raises(ValueError, match="exceed the trace file format"):
        trace_rle_to_bytes(rle)


def test_header_records_version():
    assert RLE_FORMAT_VERSION == 4
