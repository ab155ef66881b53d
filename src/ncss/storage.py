"""Persist encoded digit shards across simulated cloud backends.

Layout (directory backend):

    <root>/cloud_<i>/shard_000.bin   one shard per cloud
    <root>/local/share.bin           locally retained digits
    <root>/manifest.json             everything needed to reconstruct

Shard binary format: 4-byte magic "NCSS", 1-byte version, 1 byte holding
log2(d) for power-of-two bases (0 otherwise), 1-byte k, 8-byte big-endian
digit count, then the payload: log2(d) bits per digit packed big-endian for
power-of-two bases, one byte per digit otherwise (d <= 256).

Segments: store_shards takes the rendered stream as consecutive segments
(codec.segments) and hands each run piece to the packer of its cloud or of
the local share, which packs whole bytes at once and keeps the fewer than
one byte's worth of digits left over for the next piece. Each shard is
finished once the stream is complete (header, payload, CRC, atomic write);
the manifest is written last. fetch_shards checks every shard's CRC and
header and returns the packed payloads; reconstruct checks each digit count
against its runs and that the runs tile the stream, then, one segment at a
time, copies each run piece's bits straight from the packed payload into
the segment's packed bits, reads the elements from those bytes (or unpacks
and parses them where an element is not one or two whole bytes), decodes
them in the field's dtype and expands them into the one output digit array.
Peak memory is the caller's digits (the input of a store, the output of a
recover) plus the packed shards plus one segment.

Integrity is CRC-32C per shard; confidentiality rests on the coding scheme.
Inputs of 16 KiB and more run a head of len % 32 bytes through the
pure-Python slice-by-8 loop, then checksum the 32-byte chunks side by side
(one table lookup per byte position over every chunk) and join the chunk
registers pairwise with zlib's crc32_combine method; shorter inputs run the
slice-by-8 loop alone.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import codec
from .codec import ALPHA_BOUNDED, STRICT, DigitString, GroupingPlan
from .errors import (
    BackendUnavailableError,
    ChecksumMismatchError,
    ConfigError,
    IncompleteDataError,
    MissingShardError,
    PipelineError,
    WriteFailureError,
)
from .gf import FieldSpec, cached_vandermonde
from .planner import DistributionPlan, SecurityProfile

MAGIC = b"NCSS"
FORMAT_VERSION = 1
SHARD_NAME = "shard_000.bin"
LOCAL_NAME = "share.bin"

# ---------------------------------------------------------------------------
# CRC-32C (Castagnoli): slice-by-8 for short inputs and the head, 32-byte
# chunks checksummed side by side for long inputs

_LANES = 1024  # inputs of 16 * _LANES bytes and more take the chunked path
_CHUNK = 32


def _make_crc_tables() -> list[list[int]]:
    poly = 0x82F63B78
    t0 = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (poly if crc & 1 else 0)
        t0.append(crc)
    tables = [t0]
    for _ in range(7):
        prev = tables[-1]
        tables.append([(prev[i] >> 8) ^ t0[prev[i] & 0xFF] for i in range(256)])
    return tables


_CRC_TABLES = _make_crc_tables()
_CRC_T0 = np.array(_CRC_TABLES[0], dtype=np.uint32)
_BITS = np.arange(32, dtype=np.uint32)


def _make_position_tables() -> np.ndarray:
    """Row p maps a byte at position p of a chunk, all else zero, to the
    chunk's register (zero register in): T0 of it, advanced over the
    _CHUNK - 1 - p zero bytes behind it. 32 KB in all."""
    tables = np.empty((_CHUNK, 256), dtype=np.uint32)
    tables[-1] = _CRC_T0
    for p in range(_CHUNK - 2, -1, -1):
        prev = tables[p + 1]
        tables[p] = (prev >> 8) ^ _CRC_T0.take(prev & 0xFF)
    return tables


_POSITION_TABLES = _make_position_tables()


def _apply_gf2(op: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Image of each 32-bit register under a GF(2)-linear map, given as the
    images op[i] of the unit registers 1 << i."""
    bits = ((regs[:, None] >> _BITS) & 1).astype(bool)
    return np.bitwise_xor.reduce(np.where(bits, op, np.uint32(0)), axis=1)


@lru_cache(maxsize=1024)
def _zeros_operator(nbytes: int) -> np.ndarray:
    """The map advancing a CRC register over nbytes zero bytes, built by
    squaring as zlib's crc32_combine does: O(log nbytes) compositions."""
    if nbytes == 1:
        units = np.uint32(1) << _BITS
        op = (units >> 8) ^ _CRC_T0.take(units & 0xFF)
    else:
        half = _zeros_operator(nbytes // 2)
        op = _apply_gf2(half, half)
        if nbytes % 2:
            op = _apply_gf2(_zeros_operator(1), op)
    op.setflags(write=False)
    return op


@lru_cache(maxsize=256)
def _zeros_tables(nbytes: int) -> np.ndarray:
    """_zeros_operator(nbytes) as four 256-entry tables, one per register byte."""
    units = np.arange(256, dtype=np.uint32)[None, :] << (8 * _BITS[:4, None])
    tables = _apply_gf2(_zeros_operator(nbytes), units.reshape(-1)).reshape(4, 256)
    tables.setflags(write=False)
    return tables


def _advance(t: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Registers advanced over the zero bytes whose _zeros_tables t is."""
    return (
        t[0].take(regs & 0xFF) ^ t[1].take((regs >> 8) & 0xFF)
        ^ t[2].take((regs >> 16) & 0xFF) ^ t[3].take(regs >> 24)
    )


def _crc_chunks(data: memoryview, reg: int) -> int:
    """Register after data, whose length is a multiple of _CHUNK: each
    chunk's register from zero is an XOR of one position-table lookup per
    byte, taken for every chunk at once; the chunk registers are joined
    pairwise, and the incoming register is advanced over the whole length."""
    chunks = np.frombuffer(data, dtype=np.uint8).reshape(-1, _CHUNK)
    regs = _POSITION_TABLES[0].take(chunks[:, 0])
    for p in range(1, _CHUNK):
        regs ^= _POSITION_TABLES[p].take(chunks[:, p])
    span = _CHUNK
    while regs.size > 1:
        if regs.size % 2:  # a zero register in front: zeros keep it zero
            regs = np.concatenate([np.zeros(1, dtype=np.uint32), regs])
        regs = _advance(_zeros_tables(span), regs[0::2]) ^ regs[1::2]
        span *= 2
    # over len(data) zero bytes, one power-of-two run per set bit of it
    incoming = np.array([reg], dtype=np.uint32)
    for bit in range(len(data).bit_length()):
        if len(data) >> bit & 1:
            incoming = _advance(_zeros_tables(1 << bit), incoming)
    return int(incoming[0] ^ regs[0])


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C checksum of data; crc is the checksum of preceding bytes, so
    crc32c(b, crc32c(a)) == crc32c(a + b)."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC_TABLES
    crc ^= 0xFFFFFFFF
    view = memoryview(data).cast("B")
    # inputs of 16 * _LANES bytes and more: a head of len % _CHUNK bytes
    # here, then the chunks
    chunked = len(view) >= 16 * _LANES
    head = view[: len(view) % _CHUNK] if chunked else view
    n8 = len(head) // 8
    for i in range(n8):
        chunk = head[8 * i : 8 * i + 8]
        low = int.from_bytes(chunk[:4], "little") ^ crc
        high = int.from_bytes(chunk[4:], "little")
        crc = (
            t7[low & 0xFF]
            ^ t6[(low >> 8) & 0xFF]
            ^ t5[(low >> 16) & 0xFF]
            ^ t4[low >> 24]
            ^ t3[high & 0xFF]
            ^ t2[(high >> 8) & 0xFF]
            ^ t1[(high >> 16) & 0xFF]
            ^ t0[high >> 24]
        )
    for b in head[n8 * 8 :]:
        crc = (crc >> 8) ^ t0[(crc ^ b) & 0xFF]
    if chunked:
        crc = _crc_chunks(view[len(head) :], crc)
    return crc ^ 0xFFFFFFFF


# ---------------------------------------------------------------------------
# shard packing

_HEADER_BYTES = 15


def _header_j(d: int) -> int:
    """The shard header's log2(d) for a power-of-two base d, 0 otherwise."""
    j = d.bit_length() - 1
    return j if 1 << j == d else 0


class _ShardPacker:
    """One shard's bytes, packed as its digits arrive in stream order. Digits
    that do not yet fill a whole byte wait for the next piece; the header,
    whose count is known last, is written by finish()."""

    def __init__(self, d: int, k: int):
        self.d, self.k = d, k
        self.j = _header_j(d)
        if not self.j and d > 256:
            raise ConfigError(
                f"byte-per-digit payloads support d <= 256, got d={d}"
            )
        # the fewest digits that fill whole bytes
        self.whole = 8 // math.gcd(self.j, 8) if self.j else 1
        self.buf = bytearray(_HEADER_BYTES)
        self.count = 0
        self.carry = np.zeros(0, dtype=np.uint8)

    def add(self, digits: np.ndarray) -> None:
        """Append base-d digits in digit_dtype(d), each known to be below d."""
        self.count += digits.size
        if not self.j:
            self.buf += memoryview(np.ascontiguousarray(digits))
            return
        if self.carry.size:
            digits = np.concatenate([self.carry, digits])
        cut = digits.size - digits.size % self.whole
        self.buf += codec.pack_digits(digits[:cut], self.d)
        self.carry = digits[cut:].copy()  # not a view pinning the segment

    def finish(self) -> bytearray:
        if self.carry.size:  # the last byte zero-padded, as pack_digits does
            self.buf += codec.pack_digits(self.carry, self.d)
            self.carry = self.carry[:0]
        self.buf[:_HEADER_BYTES] = (
            MAGIC + bytes([FORMAT_VERSION, self.j, self.k])
            + self.count.to_bytes(8, "big")
        )
        return self.buf


def pack_shard(digits: np.ndarray, d: int, k: int) -> bytes:
    """Serialize a digit payload with the shard header."""
    packer = _ShardPacker(d, k)
    packer.add(codec.as_digits(digits, d))
    return bytes(packer.finish())


def _unpacked(packed, j: int, count: int, start: int = 0) -> np.ndarray:
    """count digits from digit start on of bytes packed as a shard payload
    whose header holds j: log2(d) bits a digit, or a byte a digit for 0."""
    if not j:
        return np.frombuffer(packed, np.uint8, count, start)
    return codec.unpack_digits(packed, 1 << j, count, start)


class Payload:
    """A shard payload: size digits packed as the header's j says (log2(d)
    bits a digit, or a byte a digit for 0). Slicing unpacks only the digits
    asked for, read-only, in the digit dtype of the shard's base."""

    def __init__(self, payload: memoryview, j: int, count: int):
        self.payload, self.j, self.size = payload, j, count

    def __getitem__(self, part: slice) -> np.ndarray:
        start, stop, _ = part.indices(self.size)
        digits = _unpacked(self.payload, self.j, max(0, stop - start), start)
        digits.setflags(write=False)
        return digits


def _parse_shard(raw: bytes) -> tuple[Payload, int, int]:
    """(payload, log2(d) or 0 for byte mode, k) of a shard; the header must be
    whole and the payload as long as its digit count needs."""
    if len(raw) < _HEADER_BYTES or raw[:4] != MAGIC:
        raise PipelineError("not a shard: bad magic or truncated header")
    version, j, k = raw[4], raw[5], raw[6]
    if version != FORMAT_VERSION:
        raise PipelineError(f"unsupported shard format version {version}")
    count = int.from_bytes(raw[7:_HEADER_BYTES], "big")
    payload = memoryview(raw)[_HEADER_BYTES:]
    if len(payload) < -(-count * (j or 8) // 8):
        raise PipelineError("shard payload shorter than its digit count")
    return Payload(payload, j, count), j, k


def unpack_shard(raw: bytes) -> tuple[np.ndarray, int, int]:
    """Parse a shard; returns (digits, d-or-0 for byte mode, k)."""
    payload, j, k = _parse_shard(raw)
    return payload[:], j, k


# ---------------------------------------------------------------------------
# backends


class MemoryRoot:
    """In-memory storage root with per-cloud availability toggles."""

    def __init__(self, clouds: int):
        self.cloud_count = clouds
        self._shards: dict[int, bytes] = {}
        self._local: bytes | None = None
        self._manifest: str | None = None
        self._down: set[int] = set()

    def set_available(self, cloud: int, available: bool) -> None:
        if available:
            self._down.discard(cloud)
        else:
            self._down.add(cloud)

    def _check(self, cloud: int) -> None:
        if not 0 <= cloud < self.cloud_count:
            raise BackendUnavailableError(f"no cloud {cloud} in this root")
        if cloud in self._down:
            raise BackendUnavailableError(f"cloud {cloud} is unreachable")

    def write_shard(self, cloud: int, data: bytes) -> None:
        self._check(cloud)
        self._shards[cloud] = bytes(data)

    def read_shard(self, cloud: int) -> bytes:
        self._check(cloud)
        if cloud not in self._shards:
            raise MissingShardError(f"cloud {cloud} holds no shard")
        return self._shards[cloud]

    def write_local(self, data: bytes) -> None:
        self._local = bytes(data)

    def read_local(self) -> bytes:
        if self._local is None:
            raise MissingShardError("no local share stored")
        return self._local

    def write_manifest(self, text: str) -> None:
        self._manifest = text

    def read_manifest(self) -> str:
        if self._manifest is None:
            raise MissingShardError("no manifest stored")
        return self._manifest

    def snapshot(self) -> tuple:
        return (dict(self._shards), self._local, self._manifest)


class DirectoryRoot:
    """Directory-per-cloud storage root; writes are atomic and durable."""

    def __init__(self, path: str | os.PathLike, clouds: int | None = None):
        self.path = Path(path)
        if clouds is None:
            existing = sorted(self.path.glob("cloud_*"))
            clouds = len(existing)
        self.cloud_count = clouds

    def _cloud_dir(self, cloud: int) -> Path:
        return self.path / f"cloud_{cloud}"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            # the rename itself is durable only once the directory is synced
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise WriteFailureError(f"cannot write {path}: {exc}") from exc

    def write_shard(self, cloud: int, data: bytes) -> None:
        if not 0 <= cloud < self.cloud_count:
            raise BackendUnavailableError(f"no cloud {cloud} in this root")
        self._atomic_write(self._cloud_dir(cloud) / SHARD_NAME, data)

    def read_shard(self, cloud: int) -> bytes:
        path = self._cloud_dir(cloud) / SHARD_NAME
        if not path.exists():
            raise MissingShardError(f"missing shard {path}")
        return path.read_bytes()

    def write_local(self, data: bytes) -> None:
        self._atomic_write(self.path / "local" / LOCAL_NAME, data)

    def read_local(self) -> bytes:
        path = self.path / "local" / LOCAL_NAME
        if not path.exists():
            raise MissingShardError(f"missing local share {path}")
        return path.read_bytes()

    def write_manifest(self, text: str) -> None:
        self._atomic_write(self.path / "manifest.json", text.encode())

    def read_manifest(self) -> str:
        path = self.path / "manifest.json"
        if not path.exists():
            raise MissingShardError(f"missing manifest {path}")
        return path.read_text()


# ---------------------------------------------------------------------------
# manifest


def _count(x) -> bool:
    return type(x) is int and x >= 0


def _real(x) -> bool:
    return type(x) in (int, float)


def _text(x) -> bool:
    return type(x) is str


def _list_of(item):
    return lambda x: type(x) is list and all(map(item, x))


def _run(x) -> bool:
    return type(x) is list and len(x) == 2 and all(map(_count, x))


_HEX = re.compile("[0-9a-f]*")

# every manifest field, in order, with the check its JSON value must pass
_MANIFEST_FIELDS = {
    "format_version": _count,
    "k": _count,
    "reduction_poly": _count,
    "d": _count,
    "mode": _text,
    "width": _count,
    "r": _count,
    "pad_count": _count,
    "original_length": _count,
    "alpha": lambda x: x is None or _real(x),
    "render_lengths": lambda x: x is None or (_text(x) and bool(_HEX.fullmatch(x))),
    "points": _list_of(_count),
    "n": _count,
    "block_count": _count,
    "cloud_runs": _list_of(_list_of(_run)),
    "local_runs": _list_of(_run),
    "caps": _list_of(_count),
    "stored": _list_of(_count),
    "breach": _list_of(_real),
    "pu": _real,
    "checksums": _list_of(_text),
    "local_checksum": _text,
    "shard_name": _text,
    "local_name": _text,
}


def _tuples(value):
    """JSON lists, nested or not, as tuples."""
    if type(value) is not list:
        return value
    if value and type(value[0]) is list:
        return tuple(map(_tuples, value))
    return tuple(value)


@dataclass(frozen=True)
class Manifest:
    """Self-contained description of one stored dataset."""

    format_version: int
    k: int
    reduction_poly: int
    d: int
    mode: str
    width: int
    r: int
    pad_count: int
    original_length: int
    alpha: float | None
    render_lengths: str | None  # hex, one char per element (length - 1); alpha mode
    points: tuple[int, ...]
    n: int
    block_count: int
    cloud_runs: tuple[tuple[tuple[int, int], ...], ...]
    local_runs: tuple[tuple[int, int], ...]
    caps: tuple[int, ...]
    stored: tuple[int, ...]
    breach: tuple[float, ...]
    pu: float
    checksums: tuple[str, ...]  # per cloud, crc32c hex of the packed shard
    local_checksum: str
    shard_name: str = SHARD_NAME
    local_name: str = LOCAL_NAME

    @property
    def p(self) -> int:
        return len(self.cloud_runs)

    def to_json(self) -> str:
        # shallow: json writes the nested tuples as lists, as asdict's deep
        # copy of them would
        fields_ = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(fields_, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """Parse and validate a manifest; any defect raises PipelineError."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PipelineError(f"manifest is not valid JSON: {exc}") from exc
        if type(raw) is not dict:
            raise PipelineError("manifest is not a JSON object")
        raw = {"shard_name": SHARD_NAME, "local_name": LOCAL_NAME, **raw}
        for name, valid in _MANIFEST_FIELDS.items():
            if name not in raw:
                raise PipelineError(f"manifest is missing field {name!r}")
            if not valid(raw[name]):
                raise PipelineError(f"manifest field {name!r} has a bad value")
        if raw["format_version"] != FORMAT_VERSION:
            raise PipelineError(
                f"unsupported manifest format version {raw['format_version']}"
            )
        if len(raw["points"]) != raw["n"]:
            raise PipelineError(
                f"manifest lists {len(raw['points'])} points for n={raw['n']}"
            )
        # distinct nonzero elements of GF(2^k), as build_vandermonde requires
        points = raw["points"]
        if len(set(points)) != len(points) or not all(
            0 < p and p.bit_length() <= raw["k"] for p in points
        ):
            raise PipelineError("manifest points are not distinct nonzero field elements")
        clouds = len(raw["cloud_runs"])
        for name in ("checksums", "caps", "stored", "breach"):
            if len(raw[name]) != clouds:
                raise PipelineError(
                    f"manifest lists {len(raw[name])} {name} for {clouds} clouds"
                )
        if raw["d"] < 2:
            raise PipelineError("manifest digit base is below 2")
        if raw["width"] < 1:
            raise PipelineError("manifest element width is below 1")
        if raw["r"] != raw["block_count"] * raw["n"]:
            raise PipelineError("manifest element count is not block_count * n")
        if raw["r"] * raw["width"] - raw["pad_count"] != raw["original_length"]:
            raise PipelineError("manifest padding does not match the message length")
        return cls(**{name: _tuples(raw[name]) for name in _MANIFEST_FIELDS})

    def grouping_plan(self) -> GroupingPlan:
        return GroupingPlan(
            mode=self.mode,
            d=self.d,
            k=self.k,
            width=self.width,
            r=self.r,
            pad_count=self.pad_count,
            alpha=self.alpha,
        )

    def element_lengths(self) -> np.ndarray:
        """Per-element digit counts of the coded rendering, stream order."""
        count = self.block_count * self.n
        if self.mode == STRICT:
            return codec.fixed_lengths(count, self.width)
        if self.render_lengths is None or len(self.render_lengths) != count:
            raise PipelineError("manifest lacks per-element render lengths")
        # one lowercase hex digit per element: its length - 1
        codes = np.frombuffer(self.render_lengths.encode(), dtype=np.uint8)
        return codes - np.where(codes > ord("9"), ord("a") - 11, ord("0") - 1)


_HEX_CODES = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _encode_lengths(lengths: np.ndarray) -> str:
    """One lowercase hex digit per element: its length - 1."""
    if lengths.size and int(lengths.max()) > 16:
        raise PipelineError("render lengths above 16 digits are not encodable")
    return _HEX_CODES.take(np.asarray(lengths) - 1).tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# store / fetch / reconstruct


# run pieces averaging this many bits and more are copied packed, shorter
# ones through one unpacked bit array. Each copy_bits call has a fixed cost:
# through copies alone, the pieces of 1 to 7 digits of an 8-byte strict
# message made its recover about a fifth slower. Assembling a 2 Mi-digit
# d=2 segment from two owners' alternating pieces takes equally long both
# ways at 2,048 bits a piece
_LONG_PIECE_BITS = 2048


class _RunTable:
    """The runs of every owner (each cloud, then the local share) as one
    table in stream order. The runs must tile [0, total) exactly once, and
    each owner must list its runs in stream order, as make_plan does: an
    owner's digits are then the digits of its runs in stream order, and
    sizes[owner] counts them."""

    def __init__(self, owners, total: int):
        rows = []
        self.sizes = []
        for owner, runs in enumerate(owners):
            offset = last = 0
            for start, stop in runs:
                if not 0 <= start <= stop <= total:
                    raise IncompleteDataError(
                        f"manifest run [{start}, {stop}) is outside the "
                        f"{total}-digit stream"
                    )
                if start < stop:
                    if start < last:
                        raise IncompleteDataError(
                            f"manifest run [{start}, {stop}) is listed after a "
                            "later run of the same shard"
                        )
                    last = stop
                    rows.append((start, stop, owner, offset))
                offset += stop - start
            self.sizes.append(offset)
        rows.sort()
        # sorted, the nonempty runs tile [0, total) iff each one starts where
        # the previous one stopped (a later start is a gap, an earlier one an
        # overlap) and the last one stops at total
        pos = 0
        for start, stop, _, _ in rows + [(total, None, None, None)]:
            if start != pos:
                raise IncompleteDataError(
                    f"manifest runs do not cover the {total}-digit stream exactly once"
                )
            pos = stop
        self.rows = rows
        self.total = total

    def pieces(self, lo: int, hi: int) -> dict[int, list]:
        """owner -> [first, end, parts]: the owner's digits [first, end) lie
        in [lo, hi), in its parts (stream start, stream stop) in order."""
        out: dict[int, list] = {}
        first = bisect_right(self.rows, lo, key=itemgetter(1))
        end = bisect_left(self.rows, hi, key=itemgetter(0))
        for start, stop, owner, offset in self.rows[first:end]:
            if start < lo:
                offset += lo - start
                start = lo
            if stop > hi:
                stop = hi
            entry = out.get(owner)
            if entry is None:
                out[owner] = entry = [offset, offset, []]
            entry[1] += stop - start
            entry[2].append((start, stop))
        return out

    def assemble(self, sources, lo: int, hi: int, bits: int) -> np.ndarray:
        """Digits [lo, hi) of the stream as uint8 bytes packed bits bits a
        digit (the last byte zero-padded), taken from sources[owner], each a
        Payload of that many bits a digit.

        An owner's pieces here that average at least _LONG_PIECE_BITS bits
        take one codec.copy_bits each. Shorter ones, which a local share of
        a digit or so per component makes by the thousand and an 8-byte
        message by the dozen (1 to 7 digits each), would each pay that
        call's fixed cost: their bits are unpacked once, a byte a bit,
        sliced into one bit array for the segment and packed at the end."""
        out = np.zeros(-(-(hi - lo) * bits // 8), dtype=np.uint8)
        spread = None
        for owner, (first, end, parts) in self.pieces(lo, hi).items():
            payload = sources[owner].payload
            if (end - first) * bits >= _LONG_PIECE_BITS * len(parts):
                for start, stop in parts:
                    count = (stop - start) * bits
                    codec.copy_bits(out, (start - lo) * bits, payload, first * bits, count)
                    first += stop - start
                continue
            if spread is None:  # a row of bits per digit
                spread = np.zeros((hi - lo, bits), dtype=np.uint8)
            held = codec.unpack_digits(payload, 2, (end - first) * bits, first * bits)
            held = held.reshape(-1, bits)
            at = 0
            for start, stop in parts:
                spread[start - lo : stop - lo] = held[at : at + stop - start]
                at += stop - start
        if spread is not None:
            out |= np.packbits(spread)
        return out


def store_shards(
    plan: DistributionPlan,
    segments,
    root,
    grouping: GroupingPlan,
    spec: FieldSpec,
    points: tuple[int, ...],
    profile: SecurityProfile,
) -> Manifest:
    """Write one shard per cloud plus the local share; returns the manifest.

    segments yields the rendered digit stream as consecutive arrays, which
    are packed into the shards as they arrive, so no more than one of them
    is held unpacked. Each shard is finished and written once the stream is
    complete; the manifest is persisted last, so a failure leaves no manifest
    behind and the partial dataset reads as absent.
    """
    if root.cloud_count != plan.p:
        raise ConfigError(
            f"root exposes {root.cloud_count} clouds, plan wants {plan.p}"
        )
    table = _RunTable([*plan.cloud_runs, plan.local_runs], plan.total_digits)
    packers = [_ShardPacker(spec.d, spec.k) for _ in table.sizes]
    pos = 0
    for digits in segments:
        lo, pos = pos, pos + digits.size
        if pos > plan.total_digits:
            continue  # a stream too long for the plan, refused below
        for owner, (_, _, parts) in table.pieces(lo, pos).items():
            pieces = [digits[a - lo : b - lo] for a, b in parts]
            packers[owner].add(
                pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            )
    if pos != plan.total_digits:
        raise PipelineError("coded stream does not match the distribution plan")

    payloads = [packer.finish() for packer in packers]
    for i, payload in enumerate(payloads[:-1]):
        root.write_shard(i, payload)
    root.write_local(payloads[-1])

    render_lengths = None
    if grouping.mode == ALPHA_BOUNDED:
        render_lengths = _encode_lengths(plan.render_lengths)
    manifest = Manifest(
        format_version=FORMAT_VERSION,
        k=spec.k,
        reduction_poly=spec.reduction_poly,
        d=spec.d,
        mode=grouping.mode,
        width=grouping.width,
        r=grouping.r,
        pad_count=grouping.pad_count,
        original_length=grouping.message_length,
        alpha=grouping.alpha,
        render_lengths=render_lengths,
        points=tuple(points),
        n=len(points),
        block_count=grouping.r // plan.n,
        cloud_runs=plan.cloud_runs,
        local_runs=plan.local_runs,
        caps=plan.caps,
        stored=plan.stored,
        breach=profile.breach,
        pu=profile.pu,
        checksums=tuple(format(crc32c(p), "08x") for p in payloads[:-1]),
        local_checksum=format(crc32c(payloads[-1]), "08x"),
    )
    root.write_manifest(manifest.to_json())
    return manifest


def fetch_shards(manifest: Manifest, root) -> tuple[list[Payload], Payload]:
    """Every cloud's payload, then the local share's, each read once and
    checked against its checksum and the manifest's header fields; nothing
    is unpacked."""
    header = (_header_j(manifest.d), manifest.k)

    def read(raw: bytes, checksum: str, what: str) -> Payload:
        if format(crc32c(raw), "08x") != checksum:
            raise ChecksumMismatchError(f"{what} failed its checksum")
        payload, j, k = _parse_shard(raw)
        if (j, k) != header:
            raise PipelineError(f"{what} header does not match the manifest")
        return payload

    clouds = [
        read(root.read_shard(i), manifest.checksums[i], f"cloud {i} shard")
        for i in range(manifest.p)
    ]
    return clouds, read(root.read_local(), manifest.local_checksum, "local share")


def _checked_runs(
    manifest: Manifest, clouds: list, local
) -> tuple[_RunTable, np.ndarray, list]:
    """The run table, element lengths and sources (each cloud's Payload,
    then the local share's; a digit array is packed into one) of a manifest
    whose runs tile its stream exactly once and hold exactly
    sources[owner].size digits of each owner (None for a withheld shard).
    A strict stream is r * width digits long: summing its zero-stride
    lengths would walk block_count * n entries, as many as an edited
    manifest claims, before any run is checked."""
    if len(clouds) != manifest.p:
        raise IncompleteDataError(f"{len(clouds)} shards for {manifest.p} clouds")
    j = _header_j(manifest.d)
    sources = [
        s if s is None or isinstance(s, Payload)
        else _parse_shard(pack_shard(s, manifest.d, 0))[0]
        for s in (*clouds, local)
    ]
    if any(s is not None and s.j != j for s in sources):
        raise PipelineError(f"a payload is not packed for base {manifest.d}")
    lengths = manifest.element_lengths()
    if manifest.mode == STRICT:
        total = manifest.r * manifest.width
    else:
        total = int(lengths.sum())
    table = _RunTable([*manifest.cloud_runs, manifest.local_runs], total)
    for i, (need, source) in enumerate(zip(table.sizes, sources)):
        what = f"cloud {i} shard" if i < manifest.p else "local share"
        if source is None:
            if need:
                raise IncompleteDataError(f"{what} is withheld")
        elif source.size < need:
            raise IncompleteDataError(f"{what} is shorter than its runs")
        elif source.size > need:
            raise IncompleteDataError(f"{what} holds digits outside its runs")
    return table, lengths, sources


def assemble_stream(manifest: Manifest, clouds: list, local) -> np.ndarray:
    """The full rendered stream in the digit dtype of the manifest's base,
    taken from each cloud's digits and the local share's (digit arrays or
    Payloads, as fetch_shards returns them); the manifest runs must tile it."""
    table, _, sources = _checked_runs(manifest, clouds, local)
    j = _header_j(manifest.d)
    packed = table.assemble(sources, 0, table.total, j or 8)
    return _unpacked(packed, j, table.total)


def reconstruct(manifest: Manifest, clouds: list, local) -> DigitString:
    """The message of a dataset, given each cloud's digits and the local
    share's (digit arrays or Payloads; None for a withheld shard, which must
    hold no run).

    Every check on the runs and counts comes first. Then each segment of
    whole blocks (codec.segments) is assembled as packed bits, one bit copy
    per run piece straight from the payloads. Where every element renders
    to exactly 8 or 16 bits (strict mode, d = 2^j and k in {8, 16}) those
    bytes are the elements, read as uint8 or big-endian uint16; otherwise
    the digits are unpacked, parsed and range-checked. The elements are
    decoded in the field's dtype (EncodingMatrix.decode_blocks), expanded
    and written into the one output digit array, which is allocated once
    the first segment is decoded.
    """
    table, lengths, sources = _checked_runs(manifest, clouds, local)
    if manifest.r == 0:  # no blocks, or blocks of no elements
        return DigitString(manifest.d, [])
    matrix = cached_vandermonde(manifest.k, manifest.reduction_poly, manifest.points)
    grouping = manifest.grouping_plan()
    n, block_digits = manifest.n, manifest.n * manifest.width
    j = _header_j(manifest.d)
    bits = j or 8
    # every element is one or two whole bytes of the packed stream
    whole = manifest.mode == STRICT and manifest.k in (8, 16)
    whole = whole and j * manifest.width == manifest.k
    out = None
    lo = 0
    for first, part in codec.segments(grouping, n):
        part_lengths = lengths[first * n : first * n + part.r]
        hi = table.total if part is grouping else lo + int(part_lengths.sum())
        packed = table.assemble(sources, lo, hi, bits)
        if whole:
            elements = packed.view(f">u{manifest.k // 8}")
        else:
            stream = _unpacked(packed, j, hi - lo)
            elements = codec.parse_renders(stream, part_lengths, manifest.d)
            if int(elements.max()) >= matrix.field.q:
                raise PipelineError("recovered digits parse outside the field")
        decoded = matrix.decode_blocks(elements.reshape(-1, n))
        digits = codec.ungroup(decoded.reshape(-1), part)
        if part is grouping:  # one segment: its digits are the message
            return digits
        if out is None:
            out = np.empty(grouping.message_length, dtype=codec.digit_dtype(manifest.d))
        out[first * block_digits : first * block_digits + len(digits)] = digits.digits
        lo = hi
    out.setflags(write=False)  # fresh: DigitString need not copy it
    return DigitString(manifest.d, out)
