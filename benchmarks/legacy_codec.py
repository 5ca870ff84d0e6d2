"""The legacy v0/v2 trace formats: builders and the pre-block-index decoder.

No writer in :mod:`repro.workloads` produces v0 or v2 any more, but every
reader must keep accepting them.  :func:`save_legacy_v0` hand-writes v0
text and :func:`save_legacy_v2` builds v2 files from the v3 encoding, for
the tests and benchmarks that check this.

The decoder is the reader `repro.workloads.binary` shipped before the
codec raw-speed pass (bounded-buffer ``_RecordStream``, per-field method
calls), kept verbatim minus telemetry.  ``bench_trace_io`` decodes the
same v2 file through this module and through the live codec and asserts
the live one is at least 25% faster — a machine-independent throughput
guard, since both sides run on the same interpreter and hardware.

Not a public API; only the benchmarks and the tests import this.
"""

import io
import json
import sys
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator

from repro.workloads import save_trace
from repro.workloads.base import Request
from repro.workloads.binary import encode_varint

MAGIC = b"\x93RPTRACE"
LEGACY_VERSION = 2

_FLAG_ZLIB = 0x01

_TAG_END = 0x00
_TAG_INSERT_NEW = 0x01
_TAG_INSERT_REF = 0x02
_TAG_DELETE_REF = 0x03
_TAG_DELETE_NEW = 0x04

_CHUNK = 64 * 1024


class LegacyFormatError(ValueError):
    """A trace file is malformed: bad magic, truncated, or corrupt."""


class _RecordStream:
    """Bounded-buffer reader over a (possibly zlib-compressed) record body."""

    def __init__(self, handle, compressed, path):
        self._handle = handle
        self._path = path
        self._decompressor = zlib.decompressobj() if compressed else None
        self._buffer = b""
        self._pos = 0
        self._input_done = False

    def _fill(self, need):
        while len(self._buffer) - self._pos < need and not self._input_done:
            chunk = self._handle.read(_CHUNK)
            if not chunk:
                self._input_done = True
                if self._decompressor is not None:
                    try:
                        tail = self._decompressor.flush()
                    except zlib.error as error:
                        raise LegacyFormatError(
                            f"{self._path}: truncated or corrupt zlib record body ({error})"
                        ) from error
                    if not self._decompressor.eof:
                        raise LegacyFormatError(
                            f"{self._path}: truncated zlib record body "
                            "(compressed stream ends mid-block)"
                        )
                    if tail:
                        self._buffer = self._buffer[self._pos:] + tail
                        self._pos = 0
                break
            if self._decompressor is not None:
                try:
                    chunk = self._decompressor.decompress(chunk)
                except zlib.error as error:
                    raise LegacyFormatError(
                        f"{self._path}: corrupt zlib record body ({error})"
                    ) from error
            self._buffer = self._buffer[self._pos:] + chunk
            self._pos = 0

    def at_eof(self):
        self._fill(1)
        if len(self._buffer) - self._pos >= 1:
            return False
        if self._decompressor is not None and self._decompressor.unused_data:
            raise LegacyFormatError(
                f"{self._path}: trailing data after the compressed record body"
            )
        return True

    def read_exact(self, count, what):
        self._fill(count)
        if len(self._buffer) - self._pos < count:
            raise LegacyFormatError(
                f"{self._path}: truncated trace file (unexpected end of data "
                f"while reading {what})"
            )
        start = self._pos
        self._pos += count
        return self._buffer[start:self._pos]

    def read_varint(self, what):
        value = 0
        shift = 0
        while True:
            byte = self.read_exact(1, what)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise LegacyFormatError(
                    f"{self._path}: corrupt varint while reading {what} (over 9 bytes)"
                )


@dataclass
class LegacyHeader:
    version: int
    compressed: bool
    label: str
    metadata: Dict[str, Any] = field(default_factory=dict)


def _read_exact_from(handle, count, what, path):
    data = handle.read(count)
    if len(data) != count:
        raise LegacyFormatError(
            f"{path}: truncated trace file (unexpected end of data while reading {what})"
        )
    return data


def _read_varint_from(handle, what, path):
    value = 0
    shift = 0
    while True:
        byte = _read_exact_from(handle, 1, what, path)[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift > 63:
            raise LegacyFormatError(
                f"{path}: corrupt varint while reading {what} (over 9 bytes)"
            )


def read_legacy_header(handle, path) -> LegacyHeader:
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise LegacyFormatError(f"{path}: bad magic {magic!r}; not a v2 binary trace")
    version = _read_varint_from(handle, "format version", path)
    if version != LEGACY_VERSION:
        raise LegacyFormatError(
            f"{path}: unsupported binary trace version {version}; "
            f"this reader knows v{LEGACY_VERSION}"
        )
    flags = _read_exact_from(handle, 1, "flags", path)[0]
    if flags & ~_FLAG_ZLIB:
        raise LegacyFormatError(f"{path}: unknown flag bits 0x{flags:02x} in v2 header")
    header_length = _read_varint_from(handle, "header length", path)
    header_bytes = _read_exact_from(handle, header_length, "JSON header block", path)
    header = json.loads(header_bytes.decode("utf-8"))
    return LegacyHeader(
        version=version,
        compressed=bool(flags & _FLAG_ZLIB),
        label=str(header.get("label", "")),
        metadata=header.get("meta", {}),
    )


def iter_legacy_records(handle, header: LegacyHeader, path) -> Iterator[Request]:
    stream = _RecordStream(handle, compressed=header.compressed, path=path)
    bound: Dict[int, str] = {}
    free_ids: list = []
    next_id = 0
    previous_name = b""
    count = 0

    def read_name():
        nonlocal previous_name
        prefix_length = stream.read_varint("name prefix length")
        if prefix_length > len(previous_name):
            raise LegacyFormatError(
                f"{path}: record {count}: name prefix length {prefix_length} exceeds "
                f"the previous name's {len(previous_name)} bytes"
            )
        suffix_length = stream.read_varint("name suffix length")
        raw = previous_name[:prefix_length] + stream.read_exact(suffix_length, "name bytes")
        previous_name = raw
        return raw.decode("utf-8")

    def ref_name():
        name_id = stream.read_varint("name id")
        try:
            return bound[name_id]
        except KeyError:
            raise LegacyFormatError(
                f"{path}: record {count}: name id {name_id} references an unbound name "
                "(never inserted, or already deleted)"
            ) from None

    while True:
        if stream.at_eof():
            raise LegacyFormatError(
                f"{path}: truncated trace file (end of data before the END trailer; "
                f"{count} record(s) read)"
            )
        tag = stream.read_exact(1, "record tag")[0]
        if tag == _TAG_END:
            declared = stream.read_varint("END trailer record count")
            if declared != count:
                raise LegacyFormatError(
                    f"{path}: record count mismatch: END trailer declares {declared}, "
                    f"read {count}"
                )
            if not stream.at_eof():
                raise LegacyFormatError(f"{path}: trailing data after the END trailer")
            return
        count += 1
        if tag == _TAG_INSERT_NEW:
            name = read_name()
            if free_ids:
                name_id = free_ids.pop()
            else:
                name_id = next_id
                next_id += 1
            bound[name_id] = name
            yield Request.insert(name, stream.read_varint("insert size"))
        elif tag == _TAG_INSERT_REF:
            name = ref_name()
            yield Request.insert(name, stream.read_varint("insert size"))
        elif tag == _TAG_DELETE_REF:
            name_id = stream.read_varint("name id")
            try:
                name = bound.pop(name_id)
            except KeyError:
                raise LegacyFormatError(
                    f"{path}: record {count}: name id {name_id} references an unbound "
                    "name (never inserted, or already deleted)"
                ) from None
            free_ids.append(name_id)
            yield Request.delete(name)
        elif tag == _TAG_DELETE_NEW:
            yield Request.delete(read_name())
        else:
            raise LegacyFormatError(
                f"{path}: record {count}: unknown record tag 0x{tag:02x}"
            )


def iter_legacy_trace(path) -> Iterator[Request]:
    """Stream a plain (non-gzip) v2 file through the legacy decoder."""
    with open(path, "rb") as handle:
        header = read_legacy_header(handle, path)
        yield from iter_legacy_records(handle, header, path)


def save_legacy_v0(trace, path) -> None:
    """Hand-write ``trace`` to ``path`` in the headerless v0 text format
    (names are written raw, so they must be free of whitespace)."""
    lines = [f"# trace {trace.label}"]
    for request in trace:
        if request.is_insert:
            lines.append(f"I {request.name} {request.size}")
        else:
            lines.append(f"D {request.name}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def save_legacy_v2(trace, path, metadata=None, compress=False) -> None:
    """Write ``trace`` to ``path`` as a v2 file, built from its v3 encoding.

    A v2 body is byte for byte the records of one v3 block with an empty
    snapshot, then the END tag and the varint record count, under one
    whole-body zlib stream when compressed.  The header is v3's, re-headed
    as version 2.  ``metadata`` merges over ``trace.metadata`` as in
    :func:`~repro.workloads.save_trace`.
    """
    save_trace(trace, path, metadata=metadata, version=3, block_records=sys.maxsize)
    with open(path, "rb") as handle:
        data = handle.read()
    reader = io.BytesIO(data)
    reader.seek(len(MAGIC) + 2)  # past v3's one-byte version varint and flags
    header_end = _read_varint_from(reader, "header length", path) + reader.tell()
    reader.seek(header_end)
    records, body = 0, b""
    if reader.read(1):  # the single block; an empty trace has none
        records = _read_varint_from(reader, "block record count", path)
        _read_varint_from(reader, "block entry count", path)  # 0: nothing live yet
        _read_varint_from(reader, "block snapshot length", path)  # 0
        body_length = _read_varint_from(reader, "block body length", path)
        body = _read_exact_from(reader, body_length, "block body", path)
    body += bytes([_TAG_END]) + encode_varint(records)
    if compress:
        body = zlib.compress(body)
    flags = _FLAG_ZLIB if compress else 0
    with open(path, "wb") as handle:
        handle.write(
            MAGIC + bytes([LEGACY_VERSION, flags]) + data[len(MAGIC) + 2 : header_end] + body
        )
