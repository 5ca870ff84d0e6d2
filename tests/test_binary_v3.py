"""The v3 block-indexed format: round-trips, seeking, and error paths.

The hypothesis battery drives traces across block-size boundaries (block
sizes small enough that every trace spans several blocks, plus the exact
boundary cases: trace length a multiple of the block size, one under, one
over) and checks three invariants end to end:

* a v3 file round-trips byte-for-byte equal requests through every reader
  (materialising ``load_trace``, streaming ``iter_trace``), compressed and
  plain;
* seeking to block *n* via the footer index and scanning the suffix yields
  exactly the same requests as skipping ``n`` blocks of a full scan — and
  the entry snapshot at block *n* equals the live set a serial replay has
  at that point;
* truncating the file anywhere raises :class:`TraceFormatError` naming the
  file, never a silent prefix.
"""

import gzip
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from benchmarks.legacy_codec import save_legacy_v2
from repro.workloads import (
    Request,
    Trace,
    TraceFileSource,
    TraceFormatError,
    UniformSizes,
    churn_trace,
    iter_trace,
    load_trace,
    open_trace_writer,
    read_block_index,
    save_trace,
    trace_info,
)
from repro.workloads.binary import MAGIC, encode_varint


def churny_trace(seed, requests, label="v3t"):
    """A seeded well-formed trace with inserts, deletes, and name reuse."""
    rng = random.Random(seed)
    pool = [f"obj-{i}" for i in range(64)] + ["naïve name", "a b", "# x", ""]
    live = set()
    out = []
    for _ in range(requests):
        if live and (rng.random() < 0.45 or len(live) == len(pool)):
            name = rng.choice(sorted(live))
            live.discard(name)
            out.append(Request.delete(name))
        else:
            name = rng.choice([n for n in pool if n not in live])
            live.add(name)
            out.append(Request.insert(name, rng.randint(1, 2**20)))
    return Trace(out, label=label, metadata={"seed": seed})


def assert_same_requests(expected, actual):
    expected = list(expected)
    actual = list(actual)
    assert len(actual) == len(expected)
    for left, right in zip(expected, actual):
        assert (left.op, left.name) == (right.op, right.name)
        if left.is_insert:
            assert left.size == right.size


# ------------------------------------------------------------ hypothesis battery
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 999),
    block_records=st.sampled_from([1, 2, 3, 5, 8]),
    boundary=st.sampled_from([-1, 0, 1]),
    multiple=st.integers(1, 6),
    compress=st.booleans(),
)
def test_v3_round_trip_across_block_boundaries(
    tmp_path_factory, seed, block_records, boundary, multiple, compress
):
    """Round trip with the trace length a multiple of the block size, one
    under, and one over — the off-by-one edges of block flushing."""
    requests = max(0, block_records * multiple + boundary)
    trace = churny_trace(seed, requests)
    path = tmp_path_factory.mktemp("v3rt") / "t.v3"
    save_trace(trace, path, version=3, compress=compress, block_records=block_records)
    assert_same_requests(trace, load_trace(path))
    assert_same_requests(trace, iter_trace(path))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 999),
    block_records=st.sampled_from([2, 3, 7]),
    requests=st.integers(0, 60),
    data=st.data(),
)
def test_v3_seek_to_block_suffix_equals_full_scan(
    tmp_path_factory, seed, block_records, requests, data
):
    """``iter_range(n)`` == skipping the first n blocks of a serial scan,
    and ``entry_snapshot(n)`` == the live set a serial replay has there."""
    trace = churny_trace(seed, requests)
    path = tmp_path_factory.mktemp("v3seek") / "t.v3"
    save_trace(trace, path, version=3, block_records=block_records)
    index = read_block_index(path)
    assert index is not None
    assert index.total_records == len(trace)
    assert sum(block.records for block in index.blocks) == len(trace)

    block = data.draw(st.integers(0, max(0, len(index.blocks) - 1)))
    start = index.blocks[block].start if index.blocks else 0
    assert_same_requests(list(trace)[start:], index.iter_range(block))

    live = {}
    for request in list(trace)[:start]:
        if request.is_insert:
            live[str(request.name)] = request.size
        else:
            live.pop(str(request.name), None)
    snapshot = dict(index.entry_snapshot(block)) if index.blocks else {}
    assert snapshot == live


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 99), compress=st.booleans(), data=st.data())
def test_v3_truncation_detected_at_every_cut(tmp_path_factory, seed, compress, data):
    """Cutting a v3 file anywhere must raise a loud error naming the path."""
    trace = churny_trace(seed, 24)
    path = tmp_path_factory.mktemp("v3cut") / "whole.v3"
    save_trace(trace, path, version=3, compress=compress, block_records=5)
    whole = path.read_bytes()
    cut = data.draw(st.integers(1, len(whole) - 1))
    clipped = path.parent / f"cut-{cut}.v3"
    clipped.write_bytes(whole[:cut])
    with pytest.raises(TraceFormatError, match="cut-"):
        list(iter_trace(clipped))
    with pytest.raises(TraceFormatError):
        load_trace(clipped)


# ----------------------------------------------------------------- fixed cases
def test_v3_empty_trace_round_trips(tmp_path):
    path = tmp_path / "empty.v3"
    save_trace(Trace([], label="empty"), path, version=3)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.label == "empty"
    index = read_block_index(path)
    assert index is not None
    assert len(index) == 0
    assert index.total_records == 0


def test_v3_label_and_metadata_round_trip(tmp_path):
    trace = Trace([Request.insert("x", 3)], label="v3 demo", metadata={"seed": 9})
    path = tmp_path / "meta.v3"
    save_trace(trace, path, version=3, metadata={"extra": True})
    loaded = load_trace(path)
    assert loaded.label == "v3 demo"
    assert loaded.metadata == {"seed": 9, "extra": True}


def test_v3_trace_file_source_is_re_iterable(tmp_path):
    trace = churny_trace(4, 30)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=7)
    source = TraceFileSource(path)
    assert_same_requests(trace, source)
    assert_same_requests(trace, source)


def test_v3_info_reports_blocks_and_seekability(tmp_path):
    trace = churny_trace(5, 23)
    plain = tmp_path / "t.v3"
    save_trace(trace, plain, version=3, block_records=5)
    info = trace_info(plain)
    assert info.version == 3
    assert info.seekable
    assert info.blocks == 5  # ceil(23 / 5)
    assert info.block_records == 5
    assert info.requests == 23

    gz = tmp_path / "t.v3.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    info = trace_info(gz)
    assert info.version == 3
    assert not info.seekable
    assert info.requests == 23

    v2 = tmp_path / "t.v2"
    save_legacy_v2(trace, v2)
    info = trace_info(v2)
    assert not info.seekable
    assert info.blocks == 0


def test_read_block_index_returns_none_for_unseekable_files(tmp_path):
    trace = churny_trace(6, 10)
    v2 = tmp_path / "t.v2"
    save_legacy_v2(trace, v2)
    assert read_block_index(v2) is None

    v1 = tmp_path / "t.v1"
    save_trace(trace, v1, version=1)
    assert read_block_index(v1) is None

    v3 = tmp_path / "t.v3"
    save_trace(trace, v3, version=3)
    gz = tmp_path / "t.v3.gz"
    gz.write_bytes(gzip.compress(v3.read_bytes()))
    assert read_block_index(gz) is None


def test_v3_per_block_compression_stays_seekable(tmp_path):
    """``compress=True`` on v3 compresses each block body, not the container,
    so the footer index still works."""
    trace = churny_trace(7, 40)
    path = tmp_path / "t.v3z"
    save_trace(trace, path, version=3, compress=True, block_records=8)
    index = read_block_index(path)
    assert index is not None
    assert index.compressed
    assert len(index) == 5
    assert_same_requests(trace, index.iter_range(0))


def test_v3_bad_footer_magic_rejected(tmp_path):
    trace = churny_trace(8, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    broken = tmp_path / "badfooter.v3"
    broken.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="footer magic"):
        read_block_index(broken)


def test_v3_trailer_offset_out_of_range_rejected(tmp_path):
    trace = churny_trace(9, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    data = bytearray(path.read_bytes())
    data[-16:-8] = (len(data) + 100).to_bytes(8, "little")
    broken = tmp_path / "badoffset.v3"
    broken.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="past the footer"):
        read_block_index(broken)


def test_v3_footer_count_mismatch_rejected(tmp_path):
    """A footer whose per-block record counts don't sum to the END total."""
    trace = churny_trace(10, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    index = read_block_index(path)
    data = bytearray(path.read_bytes())
    # The END record starts with tag 0x00 then varint(total); bump the total.
    end_offset = int.from_bytes(data[-16:-8], "little")
    assert data[end_offset] == 0x00
    old = encode_varint(index.total_records)
    new = encode_varint(index.total_records + 1)
    assert len(old) == len(new)
    data[end_offset + 1 : end_offset + 1 + len(old)] = new
    broken = tmp_path / "badcount.v3"
    broken.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="sum to"):
        read_block_index(broken)


def test_v3_block_tag_mismatch_rejected(tmp_path):
    """Corrupting the tag byte at a block's indexed offset fails the seek."""
    trace = churny_trace(11, 12)
    path = tmp_path / "t.v3"
    save_trace(trace, path, version=3, block_records=4)
    index = read_block_index(path)
    data = bytearray(path.read_bytes())
    data[index.blocks[1].offset] = 0x7E
    broken = tmp_path / "badtag.v3"
    broken.write_bytes(bytes(data))
    corrupt = read_block_index(broken)
    with pytest.raises(TraceFormatError, match="block tag|block 1"):
        list(corrupt.iter_range(1))


def test_v3_rejects_block_size_below_one(tmp_path):
    with pytest.raises(ValueError, match="block size"):
        save_trace(Trace([]), tmp_path / "x.v3", version=3, block_records=0)


def test_v2z_gzip_container_truncation_detected_at_every_cut(tmp_path):
    """The gzip-container regression: a clipped ``.gz`` trace must raise a
    loud truncation error naming the file, never yield a silent prefix."""
    trace = churny_trace(12, 40)
    plain = tmp_path / "t.v2"
    save_legacy_v2(trace, plain)
    whole = gzip.compress(plain.read_bytes())
    for cut in sorted({1, 10, len(whole) // 3, len(whole) // 2, len(whole) - 1}):
        clipped = tmp_path / f"cut-{cut}.v2.gz"
        clipped.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match=f"cut-{cut}|empty file"):
            list(iter_trace(clipped))
        with pytest.raises(ValueError):
            load_trace(clipped)


# ------------------------------------------------------------- byte identity
def pinned_requests():
    """A seeded churn plus the two rare record kinds: a double insert
    (INSERT_REF) and deletes of names that are not live (DELETE_NEW)."""
    trace = churn_trace(3000, UniformSizes(1, 300), target_live=200, seed=13)
    return list(trace) + [
        Request.insert("dup", 9),
        Request.insert("dup", 11),
        Request.delete("ghost"),
        Request.delete("dup"),
    ]


#: sha256 of ``pinned_requests()`` written with label "pin" and metadata
#: {"seed": 13}, keyed by (compress, block_records, sync every 700 records).
#: Recorded from the writer before v2 support was removed from it; inline
#: and background compression share their pins.
V3_SHA256 = {
    (False, None, False): "45859230a1897f6c6041b92a8f4917c56ba3977ae0e30f35cfde31310d2748d3",
    (False, None, True): "fa76f028de173316514ef6f84919a656239b7b99b7f41b0bfae74ec224fcdb3d",
    (False, 64, False): "e9724017d48f88c76c86eeeabc4bb8e949e5bbaa2e38cb815a8e59a9bde01be8",
    (False, 64, True): "edf430b4750298947de33ed0bff8341b10382dc7aa6d8d83833d096b150361f5",
    (True, None, False): "53ac73b58e50184bac5236ebdd48484349da3f882a47d26b8d02bd5153a0ebef",
    (True, None, True): "8d895869029f011919c421fd004cd4c54cbdac8f78652279b5eaff5c76c2c28d",
    (True, 64, False): "c4c420fd17c516596d184c93587d46cb8153dab0e15771e35dfe15c4589dbcd9",
    (True, 64, True): "9f8b0f5dc6b8fff0b73caf5884ed95e4f091c83b860669fcd9bf059c4ef64dc3",
}


@pytest.mark.parametrize("sync", [False, True])
@pytest.mark.parametrize("block_records", [None, 64])
@pytest.mark.parametrize("compress", [False, True, "background"])
def test_v3_bytes_are_pinned(tmp_path, compress, block_records, sync):
    path = tmp_path / "pinned.v3"
    options = {} if block_records is None else {"block_records": block_records}
    writer = open_trace_writer(
        path, version=3, label="pin", metadata={"seed": 13}, compress=compress, **options
    )
    for index, request in enumerate(pinned_requests()):
        writer.write(request)
        if sync and index % 700 == 699:
            writer.sync()
    writer.close()
    key = (bool(compress), block_records, sync)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V3_SHA256[key]
