"""Persist encoded digit shards across simulated cloud backends.

Layout (directory backend):

    <root>/cloud_<i>/shard_000.bin   one shard per cloud
    <root>/local/share.bin           locally retained digits
    <root>/manifest.json             everything needed to reconstruct

Shard binary format: 4-byte magic "NCSS", 1-byte version, 1 byte holding
log2(d) for power-of-two bases (0 otherwise), 1-byte k, 8-byte big-endian
digit count, then the payload: log2(d) bits per digit packed big-endian for
power-of-two bases, one byte per digit otherwise (d <= 256).

Integrity is CRC-32C per shard; confidentiality rests on the coding scheme.
Inputs of 16 KiB and more are checksummed in 1024 numpy lanes of equal
length whose registers are joined with zlib's crc32_combine method; shorter
inputs and the tail run the pure-Python slice-by-8 loop.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import codec
from .codec import ALPHA_BOUNDED, STRICT, CodedStream, DigitString, GroupingPlan
from .errors import (
    BackendUnavailableError,
    ChecksumMismatchError,
    ConfigError,
    IncompleteDataError,
    MissingShardError,
    PipelineError,
    WriteFailureError,
)
from .gf import FieldSpec, cached_vandermonde, get_field
from .planner import DistributionPlan, SecurityProfile

MAGIC = b"NCSS"
FORMAT_VERSION = 1
SHARD_NAME = "shard_000.bin"
LOCAL_NAME = "share.bin"

# ---------------------------------------------------------------------------
# CRC-32C (Castagnoli): slice-by-8 for short inputs and tails, numpy lanes
# for long inputs

_LANES = 1024  # lanes stepped together; a power of two, so they join pairwise


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


def _crc_lanes(data: memoryview, reg: int) -> tuple[int, int]:
    """Run the register over the longest prefix of data that splits into
    _LANES lanes of equal length, one byte of every lane per step, then join
    the lane registers pairwise. Returns the register and the prefix length."""
    width = len(data) // _LANES
    lanes = np.frombuffer(data, dtype=np.uint8, count=_LANES * width)
    regs = np.zeros(_LANES, dtype=np.uint32)
    regs[0] = reg
    index = np.empty(_LANES, dtype=np.uint8)
    for column in lanes.reshape(_LANES, width).T:
        np.bitwise_xor(regs, column, out=index, casting="unsafe")  # low byte
        regs >>= 8
        regs ^= _CRC_T0.take(index)
    span = width
    while regs.size > 1:
        t, head = _zeros_tables(span), regs[0::2]
        regs = (
            t[0].take(head & 0xFF) ^ t[1].take((head >> 8) & 0xFF)
            ^ t[2].take((head >> 16) & 0xFF) ^ t[3].take(head >> 24)
            ^ regs[1::2]
        )
        span *= 2
    return int(regs[0]), _LANES * width


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C checksum of data; crc is the checksum of preceding bytes, so
    crc32c(b, crc32c(a)) == crc32c(a + b)."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC_TABLES
    crc ^= 0xFFFFFFFF
    view = memoryview(data)
    if len(view) >= 16 * _LANES:
        crc, done = _crc_lanes(view, crc)
        view = view[done:]
    n8 = len(view) // 8
    for i in range(n8):
        chunk = view[8 * i : 8 * i + 8]
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
    for b in view[n8 * 8 :]:
        crc = (crc >> 8) ^ t0[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


# ---------------------------------------------------------------------------
# shard packing


def pack_shard(digits: np.ndarray, d: int, k: int) -> bytes:
    """Serialize a digit payload with the shard header."""
    j = d.bit_length() - 1
    power_of_two = (1 << j) == d
    if not power_of_two and d > 256:
        raise ConfigError(
            f"byte-per-digit payloads support d <= 256, got d={d}"
        )
    digits = codec.as_digits(digits, d)
    header = (
        MAGIC
        + bytes([FORMAT_VERSION, j if power_of_two else 0, k])
        + int(digits.size).to_bytes(8, "big")
    )
    if power_of_two:
        return header + codec.pack_digits(digits, d)
    return header + digits.tobytes()


def unpack_shard(raw: bytes) -> tuple[np.ndarray, int, int]:
    """Parse a shard; returns (digits, d-or-0 for byte mode, k)."""
    if len(raw) < 15 or raw[:4] != MAGIC:
        raise PipelineError("not a shard: bad magic or truncated header")
    version, j, k = raw[4], raw[5], raw[6]
    if version != FORMAT_VERSION:
        raise PipelineError(f"unsupported shard format version {version}")
    count = int.from_bytes(raw[7:15], "big")
    payload = memoryview(raw)[15:]
    if len(payload) < -(-count * (j or 8) // 8):
        raise PipelineError("shard payload shorter than its digit count")
    if j > 0:
        return codec.unpack_digits(payload, 1 << j, count), j, k
    return np.frombuffer(payload, dtype=np.uint8, count=count), j, k


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


@dataclass(frozen=True)
class Shard:
    """One cloud's digit payload, kept in the dtype it arrives in (the digit
    dtype of its base when read by unpack_shard)."""

    cloud: int
    digits: np.ndarray

    def __post_init__(self) -> None:
        arr = codec.read_only(np.asarray(self.digits), self.digits)
        object.__setattr__(self, "digits", arr)


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
        return json.dumps(asdict(self), indent=1)

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


def _gather(stream: np.ndarray, runs) -> np.ndarray:
    parts = [stream[start:stop] for start, stop in runs] or [stream[:0]]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def store_shards(
    plan: DistributionPlan,
    stream: CodedStream,
    root,
    grouping: GroupingPlan,
    spec: FieldSpec,
    points: tuple[int, ...],
    profile: SecurityProfile,
) -> Manifest:
    """Write one shard per cloud plus the local share; returns the manifest.

    The manifest is persisted last, so a backend failure leaves no manifest
    behind and the partial dataset reads as absent.
    """
    if root.cloud_count != plan.p:
        raise ConfigError(
            f"root exposes {root.cloud_count} clouds, plan wants {plan.p}"
        )
    digits = stream.render_digits
    if digits.size != plan.total_digits:
        raise PipelineError("coded stream does not match the distribution plan")

    payloads = [
        pack_shard(_gather(digits, runs), spec.d, spec.k) for runs in plan.cloud_runs
    ]
    local_payload = pack_shard(_gather(digits, plan.local_runs), spec.d, spec.k)

    for i, payload in enumerate(payloads):
        root.write_shard(i, payload)
    root.write_local(local_payload)

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
        block_count=stream.block_count,
        cloud_runs=plan.cloud_runs,
        local_runs=plan.local_runs,
        caps=plan.caps,
        stored=plan.stored,
        breach=profile.breach,
        pu=profile.pu,
        checksums=tuple(format(crc32c(p), "08x") for p in payloads),
        local_checksum=format(crc32c(local_payload), "08x"),
    )
    root.write_manifest(manifest.to_json())
    return manifest


def fetch_shards(
    manifest: Manifest, root
) -> tuple[list[Shard], np.ndarray]:
    """Retrieve and verify every shard plus the local share."""
    j = manifest.d.bit_length() - 1
    header = (j if 1 << j == manifest.d else 0, manifest.k)

    def read(raw: bytes, checksum: str, what: str) -> np.ndarray:
        if format(crc32c(raw), "08x") != checksum:
            raise ChecksumMismatchError(f"{what} failed its checksum")
        digits, *fields = unpack_shard(raw)
        if tuple(fields) != header:
            raise PipelineError(f"{what} header does not match the manifest")
        digits.setflags(write=False)  # fresh or a view of raw: no copy needed
        return digits

    shards = []
    for i in range(manifest.p):
        digits = read(root.read_shard(i), manifest.checksums[i], f"cloud {i} shard")
        shards.append(Shard(cloud=i, digits=digits))
    local = read(root.read_local(), manifest.local_checksum, "local share")
    return shards, local


def _check_cover(manifest: Manifest, total: int) -> None:
    """The cloud and local runs together must tile [0, total) exactly."""
    runs = [run for cloud in manifest.cloud_runs for run in cloud]
    runs += manifest.local_runs
    for start, stop in runs:
        if not 0 <= start <= stop <= total:
            raise IncompleteDataError(
                f"manifest run [{start}, {stop}) is outside the {total}-digit stream"
            )
    # sorted, the runs tile [0, total) iff each nonempty one starts where the
    # previous one stopped: a later start is a gap, an earlier one an overlap;
    # the closing run at total checks that the last one stops there
    pos = 0
    for start, stop in sorted(runs) + [(total, total + 1)]:
        if start < stop:
            if start != pos:
                raise IncompleteDataError(
                    f"manifest runs do not cover the {total}-digit stream exactly once"
                )
            pos = stop


def assemble_stream(
    manifest: Manifest, shards: list[Shard | None], local: np.ndarray
) -> np.ndarray:
    """Scatter shard and local digits back into the full rendered stream, in
    the digit dtype of the manifest's base; the manifest runs must tile it."""
    total = int(manifest.element_lengths().sum())
    _check_cover(manifest, total)
    buffer = np.empty(total, dtype=codec.digit_dtype(manifest.d))

    def fill(runs, digits, what):
        pos = 0
        for start, stop in runs:
            need = stop - start
            if pos + need > digits.size:
                raise IncompleteDataError(f"{what} is shorter than its runs")
            buffer[start:stop] = digits[pos : pos + need]
            pos += need
        if pos != digits.size:
            raise IncompleteDataError(f"{what} holds digits outside its runs")

    for i, runs in enumerate(manifest.cloud_runs):
        if i >= len(shards) or shards[i] is None:
            if any(stop > start for start, stop in runs):
                raise IncompleteDataError(f"cloud {i} shard is withheld")
            continue
        fill(runs, shards[i].digits, f"cloud {i} shard")
    fill(manifest.local_runs, np.asarray(local), "local share")
    return buffer


def reconstruct(
    manifest: Manifest, shards: list[Shard | None], local: np.ndarray
) -> DigitString:
    """Reassemble the digit stream, decode every block, strip the padding."""
    buffer = assemble_stream(manifest, shards, local)
    if manifest.block_count == 0:
        return DigitString(manifest.d, [])

    elements = codec.parse_renders(buffer, manifest.element_lengths(), manifest.d)
    del buffer  # each stage's input is as large as the message: free it early
    field = get_field(manifest.k, manifest.reduction_poly)
    if elements.size and int(elements.max()) >= field.q:
        raise PipelineError("recovered digits parse outside the field")
    matrix = cached_vandermonde(manifest.k, manifest.reduction_poly, manifest.points)
    decoded = field.mat_vec_batch(
        matrix.inverse(), elements.reshape(manifest.block_count, manifest.n)
    )
    del elements
    return codec.ungroup(decoded.reshape(-1), manifest.grouping_plan())
