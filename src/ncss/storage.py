"""Persist encoded digit shards across simulated cloud backends.

Layout (directory backend):

    <root>/cloud_<i>/shard_000.bin   one shard per cloud
    <root>/local/share.bin           locally retained digits
    <root>/manifest.json             everything needed to reconstruct

Shard binary format: 4-byte magic "NCSS", 1-byte version, 1 byte holding
log2(d) for power-of-two bases (0 otherwise), 1-byte k, 8-byte big-endian
digit count, then the payload in codec's packed layout (codec.digit_bits).
Manifest.from_json leaves the field and points to gf (get_field,
check_points), the mode, alpha and strict width to codec, and raises what
they refuse as PipelineError.

Manifest text: Manifest.to_json writes, byte for byte, what
json.dumps(dataclasses.asdict(manifest), indent=1) would, without json's
pure-Python indenting encoder. One %s template holds every field name in
order, and each field's writer fills its value: counts by int.__repr__,
strings by json's C encode_basestring_ascii, other scalars as json writes
them (floats by float.__repr__, NaN and the infinities as the words
NaN, Infinity and -Infinity), int tuples joined a line an item, and every
run list through one %d template of [start, stop] pairs. Manifest.from_json
reads each field with the reader of its kind, which checks its JSON value
and turns its lists into tuples.

Segments: the stream moves between its packed segments (codec.segments)
and the packed shard payloads through _RunTable, every owner's runs in
stream order: store_shards scatters each segment's run pieces into shards
allocated once at their final sizes, and reconstruct assembles each segment
from the payloads fetch_shards has checked. A run piece is one bit copy
(codec.copy_bits), or, where an owner's pieces are short, a slice of one
unpacked bit array for the segment. The shards are written once the stream
is complete, the manifest last.

Integrity is CRC-32C per shard; confidentiality rests on the coding scheme.
Inputs under 1 KiB run a one-table byte loop. Longer ones run a head of
len % 32 bytes through it, then checksum the 32-byte chunks side by side
(one position-table lookup per byte, the incoming register folded into the
first chunk) and join them pairwise by zero-byte tables built by doubling.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter, itemgetter
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
from .gf import FieldSpec, cached_vandermonde, check_points, get_field
from .planner import DistributionPlan, SecurityProfile

MAGIC = b"NCSS"
FORMAT_VERSION = 1
SHARD_NAME = "shard_000.bin"
LOCAL_NAME = "share.bin"

# ---------------------------------------------------------------------------
# CRC-32C (Castagnoli): a one-table byte loop for short inputs and the head,
# 32-byte chunks checksummed side by side and joined pairwise for long inputs

# inputs of 16 * _LANES bytes (1 KiB) and more take the chunk tree: about
# where it overtakes the byte loop
_LANES = 64
_CHUNK = 32


def _make_crc_table() -> list[int]:
    poly = 0x82F63B78
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (poly if crc & 1 else 0)
        table.append(crc)
    return table


_CRC_TABLE = _make_crc_table()
_CRC_T0 = np.array(_CRC_TABLE, dtype=np.uint32)


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


def _advance(t: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Registers advanced over the zero bytes whose _zeros_tables t is."""
    return (
        t[0].take(regs & 0xFF) ^ t[1].take((regs >> 8) & 0xFF)
        ^ t[2].take((regs >> 16) & 0xFF) ^ t[3].take(regs >> 24)
    )


@lru_cache(maxsize=64)
def _zeros_tables(nbytes: int) -> np.ndarray:
    """Four 256-entry tables, one per register byte, whose XOR advances a
    register over nbytes zero bytes, nbytes a power of two: one zero byte
    is a T0 step, 2s zero bytes the s-byte tables applied twice."""
    shifts = np.arange(0, 32, 8, dtype=np.uint32)[:, None]
    units = np.arange(256, dtype=np.uint32) << shifts  # row i: byte i set
    if nbytes == 1:
        tables = (units >> 8) ^ _CRC_T0.take(units & 0xFF)
    else:
        half = _zeros_tables(nbytes // 2)
        tables = _advance(half, _advance(half, units))
    tables.setflags(write=False)
    return tables


def _crc_chunks(data: memoryview, reg: int) -> int:
    """Register after data, whose length is a multiple of _CHUNK: each
    chunk's register from zero is an XOR of one position-table lookup per
    byte, taken for every chunk at once; the incoming register acts as its
    four bytes XORed into the first four data bytes, so it is folded into
    the first chunk's register; the chunk registers are joined pairwise."""
    chunks = np.frombuffer(data, dtype=np.uint8).reshape(-1, _CHUNK)
    regs = _POSITION_TABLES[0].take(chunks[:, 0])
    for p in range(1, _CHUNK):
        regs ^= _POSITION_TABLES[p].take(chunks[:, p])
    for p in range(4):
        regs[0] ^= _POSITION_TABLES[p, (reg >> 8 * p) & 0xFF]
    span = _CHUNK
    while regs.size > 1:
        if regs.size % 2:  # a zero register in front: zeros keep it zero
            regs = np.concatenate([np.zeros(1, dtype=np.uint32), regs])
        regs = _advance(_zeros_tables(span), regs[0::2]) ^ regs[1::2]
        span *= 2
    return int(regs[0])


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C checksum of data; crc is the checksum of preceding bytes, so
    crc32c(b, crc32c(a)) == crc32c(a + b)."""
    t0 = _CRC_TABLE
    crc ^= 0xFFFFFFFF
    view = memoryview(data).cast("B")
    # inputs of 16 * _LANES bytes and more: a head of len % _CHUNK bytes
    # here, then the chunks
    chunked = len(view) >= 16 * _LANES
    head = view[: len(view) % _CHUNK] if chunked else view
    for b in head:
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


def _header(d: int, k: int, count: int) -> bytes:
    return MAGIC + bytes([FORMAT_VERSION, _header_j(d), k]) + count.to_bytes(8, "big")


def pack_shard(digits: np.ndarray, d: int, k: int) -> bytes:
    """Serialize a digit payload with the shard header."""
    digits = codec.as_digits(digits, d)
    return _header(d, k, digits.size) + codec.pack_digits(digits, d)


class Payload:
    """A shard payload: size digits packed as the header's j says (log2(d)
    bits a digit, or a byte a digit, base 256's layout, for 0). A slice of
    step 1 unpacks only its digits, read-only, in the shard's digit dtype."""

    def __init__(self, payload: memoryview, j: int, count: int):
        self.payload, self.j, self.size = payload, j, count

    def __getitem__(self, part: slice) -> np.ndarray:
        if type(part) is not slice:
            raise ConfigError(f"a shard payload takes a slice, not {type(part).__name__}")
        start, stop, step = part.indices(self.size)
        if step != 1:
            raise ConfigError(f"a shard payload slices with step 1, not {step}")
        base = 1 << (self.j or 8)
        digits = codec.unpack_digits(self.payload, base, max(0, stop - start), start)
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
        try:
            return path.read_bytes().decode()  # written as UTF-8
        except UnicodeDecodeError as exc:
            raise PipelineError(f"manifest {path} is not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------------------
# manifest


# Manifest fields are read and written by kind. A reader takes a field's
# JSON value to its Manifest value, JSON lists to tuples, or to _BAD if the
# value has the wrong shape; a writer takes a Manifest value to the text
# json.dumps(indent=1) writes for it as a value of the top-level object.

_BAD = object()
_HEX = re.compile("[0-9a-f]*")


def _counts_ok(xs: list) -> bool:
    """Every item of the list xs is a non-negative int."""
    return {*map(type, xs)} <= {int} and (not xs or min(xs) >= 0)


def _read_count(x):
    return x if type(x) is int and x >= 0 else _BAD


def _read_real(x):
    return x if type(x) is int or type(x) is float else _BAD


def _read_text(x):
    return x if type(x) is str else _BAD


def _read_items(types):
    """The reader of a JSON list whose items' types are all in types."""
    return lambda x: tuple(x) if type(x) is list and {*map(type, x)} <= types else _BAD


def _read_runs(x):
    ok = (
        type(x) is list
        and {*map(type, x)} <= {list}
        and {*map(len, x)} <= {2}
        and _counts_ok([*chain.from_iterable(x)])
    )
    return tuple(map(tuple, x)) if ok else _BAD


def _read_run_lists(x):
    if type(x) is not list:
        return _BAD
    runs = tuple(map(_read_runs, x))
    return _BAD if _BAD in runs else runs


# float.__repr__ of the floats json writes as bare words
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(x) -> str:
    """A JSON scalar as json.dumps writes it."""
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, str):
        return _json_string(x)
    if isinstance(x, int):
        return int.__repr__(x)
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _list(items: list, depth: int) -> str:
    """A JSON list of written items, as indent=1 writes it depth levels in."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _write_items(write):
    """The writer of a tuple whose items write writes."""
    return lambda xs: _list(list(map(write, xs)), 1)


def _runs_text(runs, depth: int) -> str:
    """Runs, a list of [start, stop] pairs depth levels in: one %d template
    for all of them."""
    if not runs:
        return "[]"
    pad, inner = "\n" + " " * (depth + 1), "\n" + " " * (depth + 2)
    pair = "[" + inner + "%d," + inner + "%d" + pad + "]"
    template = "[" + pad + ("," + pad).join([pair] * len(runs)) + "\n" + " " * depth + "]"
    return template % tuple(chain.from_iterable(runs))


_COUNT = (_read_count, int.__repr__)
_TEXT = (_read_text, _json_string)
_COUNTS = (
    lambda x: tuple(x) if type(x) is list and _counts_ok(x) else _BAD,
    _write_items(int.__repr__),
)

# every manifest field, in order, with its reader and writer
_MANIFEST_FIELDS = {
    "format_version": _COUNT,
    "k": _COUNT,
    "reduction_poly": _COUNT,
    "d": _COUNT,
    "mode": _TEXT,
    "width": _COUNT,
    "r": _COUNT,
    "pad_count": _COUNT,
    "original_length": _COUNT,
    "alpha": (lambda x: None if x is None else _read_real(x), _scalar),
    "render_lengths": (
        lambda x: x if x is None or type(x) is str and _HEX.fullmatch(x) else _BAD,
        _scalar,
    ),
    "points": _COUNTS,
    "n": _COUNT,
    "block_count": _COUNT,
    "cloud_runs": (
        _read_run_lists,
        lambda clouds: _list([_runs_text(runs, 2) for runs in clouds], 1),
    ),
    "local_runs": (_read_runs, lambda runs: _runs_text(runs, 1)),
    "caps": _COUNTS,
    "stored": _COUNTS,
    "breach": (_read_items({int, float}), _write_items(_scalar)),
    "pu": (_read_real, _scalar),
    "checksums": (_read_items({str}), _write_items(_json_string)),
    "local_checksum": _TEXT,
    "shard_name": _TEXT,
    "local_name": _TEXT,
}
_field_values = attrgetter(*_MANIFEST_FIELDS)
_MANIFEST_TEXT = "{\n" + ",\n".join(f' "{name}": %s' for name in _MANIFEST_FIELDS) + "\n}"


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
        """The text json.dumps(dataclasses.asdict(self), indent=1) writes,
        byte for byte, written field by field (see the module docstring)."""
        return _MANIFEST_TEXT % tuple([
            write(value)
            for (_, write), value in zip(_MANIFEST_FIELDS.values(), _field_values(self))
        ])

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """Parse and validate a manifest; any defect raises PipelineError."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PipelineError(f"manifest is not valid JSON: {exc}") from exc
        if type(raw) is not dict:
            raise PipelineError("manifest is not a JSON object")
        raw.setdefault("shard_name", SHARD_NAME)
        raw.setdefault("local_name", LOCAL_NAME)
        try:
            values = {name: read(raw[name]) for name, (read, _) in _MANIFEST_FIELDS.items()}
        except KeyError as exc:
            raise PipelineError(f"manifest is missing field {exc.args[0]!r}") from None
        if _BAD in values.values():
            name = next(name for name, value in values.items() if value is _BAD)
            raise PipelineError(f"manifest field {name!r} has a bad value")
        if values["format_version"] != FORMAT_VERSION:
            raise PipelineError(
                f"unsupported manifest format version {values['format_version']}"
            )
        if len(values["points"]) != values["n"]:
            raise PipelineError(
                f"manifest lists {len(values['points'])} points for n={values['n']}"
            )
        clouds = len(values["cloud_runs"])
        for name in ("checksums", "caps", "stored", "breach"):
            if len(values[name]) != clouds:
                raise PipelineError(
                    f"manifest lists {len(values[name])} {name} for {clouds} clouds"
                )
        if values["d"] < 2:
            raise PipelineError("manifest digit base is below 2")
        if values["width"] < 1:
            raise PipelineError("manifest element width is below 1")
        if values["r"] != values["block_count"] * values["n"]:
            raise PipelineError("manifest element count is not block_count * n")
        if values["r"] * values["width"] - values["pad_count"] != values["original_length"]:
            raise PipelineError("manifest padding does not match the message length")
        manifest = cls(**values)
        try:
            check_points(get_field(manifest.k, manifest.reduction_poly), manifest.points)
            manifest.grouping_plan()
            strict = manifest.mode == STRICT
            if strict and manifest.width != codec.strict_width(manifest.k, manifest.d):
                raise ConfigError(f"width {manifest.width} is not the strict width")
        except ConfigError as exc:
            raise PipelineError(f"manifest is inconsistent: {exc}") from exc
        return manifest

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
        Payload of that many bits a digit. An owner's pieces that average at
        least _LONG_PIECE_BITS bits take one codec.copy_bits each; shorter
        ones (a local share's of a digit or so, an 8-byte message's of 1 to
        7) would each pay that call's fixed cost, so their bits are unpacked
        once, a byte a bit, into one bit array for the segment."""
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

    def scatter(self, packed, lo: int, hi: int, bits: int, dsts, at: int) -> None:
        """The inverse of assemble: digits [lo, hi) of the stream, the bytes
        packed bits bits a digit, copied to each owner's digits in
        dsts[owner], a uint8 array whose digit 0 starts at bit at. An
        owner's short pieces are cut from one bit array, joined and packed."""
        spread = None
        for owner, (first, end, parts) in self.pieces(lo, hi).items():
            dst, to = dsts[owner], at + first * bits
            if (end - first) * bits >= _LONG_PIECE_BITS * len(parts):
                for start, stop in parts:
                    count = (stop - start) * bits
                    codec.copy_bits(dst, to, packed, (start - lo) * bits, count)
                    to += count
                continue
            if spread is None:  # a row of bits per digit
                spread = np.unpackbits(np.frombuffer(packed, np.uint8), count=(hi - lo) * bits)
                spread = spread.reshape(-1, bits)
            held = np.concatenate([spread[a - lo : b - lo] for a, b in parts])
            codec.copy_bits(dst, to, np.packbits(held), 0, held.size)


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

    segments yields the coded stream's consecutive segments, each a packed
    DigitString (a digit array is packed once as it arrives), whose run
    pieces are copied from its packed bits into the shards (_RunTable.scatter),
    allocated once at their final sizes. The shards are written once the
    stream is complete and the manifest last, so a failure leaves no
    manifest behind and the partial dataset reads as absent.
    """
    if root.cloud_count != plan.p:
        raise ConfigError(
            f"root exposes {root.cloud_count} clouds, plan wants {plan.p}"
        )
    table = _RunTable([*plan.cloud_runs, plan.local_runs], plan.total_digits)
    bits = codec.digit_bits(spec.d)
    payloads = [bytearray(_HEADER_BYTES + -(-size * bits // 8)) for size in table.sizes]
    for payload, size in zip(payloads, table.sizes):
        payload[:_HEADER_BYTES] = _header(spec.d, spec.k, size)
    dsts = [np.frombuffer(payload, np.uint8) for payload in payloads]
    pos = 0
    for segment in segments:
        if not isinstance(segment, DigitString):  # a digit array
            segment = DigitString(spec.d, segment)
        if segment.d != spec.d:
            raise ConfigError(f"segment base {segment.d} != field spec base {spec.d}")
        lo, pos = pos, pos + len(segment)
        if pos <= plan.total_digits:  # a stream too long for the plan is refused below
            table.scatter(segment._bytes(), lo, pos, bits, dsts, _HEADER_BYTES * 8)
        del segment  # before the next one is coded
    if pos != plan.total_digits:
        raise PipelineError("coded stream does not match the distribution plan")

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
) -> tuple[_RunTable, np.ndarray | None, list]:
    """The run table, element lengths and sources (each cloud's Payload,
    then the local share's; a digit array is packed into one) of a manifest
    whose runs tile its stream exactly once and hold exactly
    sources[owner].size digits of each owner (None for a withheld shard).
    Where codec._packed_elements, the lengths are None and the stream is
    r * width digits: no lengths are built, nor summed over block_count * n
    entries, as many as an edited manifest claims, before any run is checked."""
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
    lengths = None if codec._packed_elements(manifest) else manifest.element_lengths()
    total = manifest.r * manifest.width if lengths is None else int(lengths.sum())
    table = _RunTable([*manifest.cloud_runs, manifest.local_runs], total)
    for i, (need, source) in enumerate(zip(table.sizes, sources)):
        if (0 if source is None else source.size) != need:
            what = f"cloud {i} shard" if i < manifest.p else "local share"
            if source is None:
                raise IncompleteDataError(f"{what} is withheld")
            if source.size < need:
                raise IncompleteDataError(f"{what} is shorter than its runs")
            raise IncompleteDataError(f"{what} holds digits outside its runs")
    return table, lengths, sources


def assemble_stream(manifest: Manifest, clouds: list, local) -> np.ndarray:
    """The full rendered stream in the digit dtype of the manifest's base,
    taken from each cloud's digits and the local share's (digit arrays or
    Payloads, as fetch_shards returns them); the manifest runs must tile it."""
    table, _, sources = _checked_runs(manifest, clouds, local)
    packed = table.assemble(sources, 0, table.total, codec.digit_bits(manifest.d))
    return codec.unpack_digits(packed, manifest.d, table.total)


def reconstruct(manifest: Manifest, clouds: list, local) -> DigitString:
    """The message of a dataset, given each cloud's digits and the local
    share's (digit arrays or Payloads; None for a withheld shard, which must
    hold no run).

    Every check on the runs and counts comes first. A strict element is k
    bits of the packed stream and message (codec._packed_elements): each
    segment of whole blocks (codec.segments) is assembled as packed bits,
    one bit copy per run piece straight from the payloads, unpacked at base
    2^k, decoded in the field's dtype (EncodingMatrix.decode_blocks) and
    packed back at base 2^k at its byte offset in one output, which the
    returned DigitString holds uncopied, pad bits cleared, as a read-only
    view. An alpha-bounded stream (or a hand-built strict one of another
    width) is assembled whole, unpacked, parsed, range-checked, decoded and
    expanded (codec.ungroup).
    """
    table, lengths, sources = _checked_runs(manifest, clouds, local)
    if manifest.r == 0:  # no blocks, or blocks of no elements
        return DigitString(manifest.d, [])
    matrix = cached_vandermonde(manifest.k, manifest.reduction_poly, manifest.points)
    grouping = manifest.grouping_plan()
    n, k, width = manifest.n, manifest.k, manifest.width
    bits = codec.digit_bits(manifest.d)
    if lengths is not None:
        packed = table.assemble(sources, 0, table.total, bits)
        stream = codec.unpack_digits(packed, manifest.d, table.total)
        elements = codec.parse_renders(stream, lengths, manifest.d)
        if int(elements.max()) >= matrix.field.q:
            raise PipelineError("recovered digits parse outside the field")
        decoded = matrix.decode_blocks(elements.reshape(-1, n)).reshape(-1)
        return codec.ungroup(decoded, grouping)
    out = None
    for first, part in codec.segments(grouping, n):
        lo = first * n * width
        # one name, so that each stage's buffer is freed as the next is made
        segment = table.assemble(sources, lo, lo + part.r * width, bits)
        segment = codec.unpack_digits(segment, 1 << k, part.r).reshape(-1, n)
        segment = codec.pack_digits(matrix.decode_blocks(segment).reshape(-1), 1 << k)
        if out is None:  # after the first assembly, whose bit rows may be the largest
            out = np.empty(-(-manifest.r * k // 8), dtype=np.uint8)
        at = first * n * k // 8  # a segment but the last fills whole bytes
        out[at : at + len(segment)] = np.frombuffer(segment, dtype=np.uint8)
    used = grouping.message_length * bits
    out = out[: -(-used // 8)]
    out[-1:] &= 0xFF ^ ((1 << (-used & 7)) - 1)  # the pad bits cleared
    out.setflags(write=False)
    return DigitString._wrap(manifest.d, memoryview(out), grouping.message_length)
