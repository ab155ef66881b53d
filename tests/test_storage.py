import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ncss import codec, gf, pipeline, planner, storage
from ncss.codec import ALPHA_BOUNDED, STRICT, DigitString
from ncss.errors import (
    BackendUnavailableError,
    ChecksumMismatchError,
    ConfigError,
    IncompleteDataError,
    MissingShardError,
    PipelineError,
)
from ncss.planner import SecurityProfile

import oracles


def strict_block(elements, k=3, d=2, width=3):
    digits, lengths = codec.render_elements(
        np.asarray(elements), d, STRICT, fixed_width=width
    )
    return codec.CodedStream(
        elements=np.asarray(elements),
        render_digits=digits,
        render_lengths=lengths,
        n=len(elements),
        d=d,
        mode=STRICT,
    )


def table3_setup():
    """Strict k=3 block whose renders are 010, 100, 001 (stream 010100001)."""
    spec = gf.FieldSpec(k=3, d=2)
    block = strict_block([2, 4, 1])
    grouping = codec.GroupingPlan(
        mode=STRICT, d=2, k=3, width=3, r=3, pad_count=0
    )
    profile = SecurityProfile(breach=(0.5, 0.25), pu=1 / 64)
    plan = planner.make_plan(block.render_lengths, 3, 2, profile, caps=(4, 5))
    return spec, block, grouping, profile, plan


def store_table3(root):
    """The table-3 block stored into root: cloud 0 holds 0101, cloud 1 00001."""
    spec, block, grouping, profile, plan = table3_setup()
    return storage.store_shards(
        plan, [block.render_digits], root, grouping, spec, (1, 2, 3), profile
    )


class TestCrc32c:
    def test_check_value(self):
        # standard CRC-32C check string
        assert storage.crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert storage.crc32c(b"") == 0

    def test_differs_from_crc32(self):
        import zlib

        data = b"ncss shard payload"
        assert storage.crc32c(data) != zlib.crc32(data)

    def test_detects_flip(self):
        data = bytearray(b"some shard bytes, long enough to cross chunks...")
        base = storage.crc32c(bytes(data))
        data[17] ^= 0x40
        assert storage.crc32c(bytes(data)) != base


LANES = storage._LANES


class TestCrc32cLanes:
    """Long inputs run in numpy lanes; short ones and tails byte by byte."""

    @pytest.mark.parametrize(
        "size",
        [0, 1, 16 * LANES - 1, 16 * LANES, 16 * LANES + 1,
         17 * LANES - 1, 17 * LANES + 1, 3_000_000],
    )
    def test_matches_bytewise_reference(self, size):
        data = np.random.default_rng(size).bytes(size)
        assert storage.crc32c(data) == oracles.slow_crc32c(data)

    @pytest.mark.parametrize(
        "split", [(16 * LANES - 5, 16 * LANES + 5), (17 * LANES + 3, 9), (7, 20 * LANES)]
    )
    def test_continuation(self, split):
        rng = np.random.default_rng(sum(split))
        a, b = rng.bytes(split[0]), rng.bytes(split[1])
        whole = storage.crc32c(a + b)
        assert storage.crc32c(b, storage.crc32c(a)) == whole
        assert whole == oracles.slow_crc32c(b, oracles.slow_crc32c(a))

    def test_check_value_in_lanes(self):
        # the check string behind a zero prefix long enough for the lanes;
        # the reference itself gives the standard check value
        data = bytes(16 * LANES) + b"123456789"
        assert storage.crc32c(data) == oracles.slow_crc32c(data)
        assert oracles.slow_crc32c(b"123456789") == 0xE3069283


class TestCrc32cChunks:
    """Long inputs: a head of len % 32 bytes byte by byte, then 32-byte
    chunks checksummed side by side and joined pairwise."""

    CHUNK = 32
    BASE = 16 * LANES  # the shortest input that takes the chunked path

    @pytest.mark.parametrize("chunks", [513, 515, 1023, 1025, 3 * 1024 + 1])
    def test_odd_chunk_counts(self, chunks):
        data = np.random.default_rng(chunks).bytes(chunks * self.CHUNK)
        assert storage.crc32c(data) == oracles.slow_crc32c(data)

    @pytest.mark.parametrize("head", [1, 7, 8, 9, 16, 31])
    def test_short_head(self, head):
        data = np.random.default_rng(head).bytes(self.BASE + self.CHUNK + head)
        assert storage.crc32c(data) == oracles.slow_crc32c(data)

    @pytest.mark.parametrize("cut", [5, 17, 31])
    def test_continuation_split_inside_a_chunk(self, cut):
        data = np.random.default_rng(cut).bytes(3 * self.BASE + 3 * self.CHUNK)
        # both parts are long enough to be chunked, and the split falls
        # inside a chunk of the whole input
        split = self.BASE + 4 * self.CHUNK + cut
        a, b = data[:split], data[split:]
        assert storage.crc32c(b, storage.crc32c(a)) == storage.crc32c(data)
        assert storage.crc32c(data) == oracles.slow_crc32c(data)


class TestShardFormat:
    @pytest.mark.parametrize("d", [2, 4, 16, 256])
    def test_roundtrip_power_of_two(self, d):
        rng = np.random.default_rng(d)
        digits = rng.integers(0, d, size=101)
        raw = storage.pack_shard(digits, d, 8)
        back, j, k = storage.unpack_shard(raw)
        assert back.tolist() == digits.tolist()
        assert (1 << j) == d
        assert k == 8

    def test_roundtrip_byte_mode(self):
        digits = np.array([0, 9, 3, 7, 4], dtype=np.int64)
        raw = storage.pack_shard(digits, 10, 4)
        back, j, k = storage.unpack_shard(raw)
        assert j == 0
        assert back.tolist() == digits.tolist()

    def test_header_fields(self):
        raw = storage.pack_shard(np.array([1, 0, 1]), 2, 3)
        assert raw[:4] == b"NCSS"
        assert raw[4] == storage.FORMAT_VERSION
        assert raw[5] == 1  # log2(2)
        assert raw[6] == 3
        assert int.from_bytes(raw[7:15], "big") == 3

    def test_empty_payload(self):
        raw = storage.pack_shard(np.zeros(0, dtype=np.int64), 2, 3)
        back, _, _ = storage.unpack_shard(raw)
        assert back.size == 0

    def test_wide_base_byte_mode_rejected(self):
        with pytest.raises(ConfigError):
            storage.pack_shard(np.array([1]), 300, 16)

    def test_truncated_rejected(self):
        raw = storage.pack_shard(np.array([1, 0, 1, 1, 0, 1, 0, 1, 1]), 2, 3)
        with pytest.raises(PipelineError):
            storage.unpack_shard(raw[:10])
        with pytest.raises(PipelineError):
            storage.unpack_shard(raw[:-2])
        with pytest.raises(PipelineError):
            storage.unpack_shard(b"XXXX" + raw[4:])


class TestNarrowPacking:
    def test_shard_leaves_caller_array_writable(self):
        # a caller's digit arrays go into assemble_stream as they are
        manifest = store_table3(storage.MemoryRoot(2))
        mine = [np.array([0, 1, 0, 1], np.uint8), np.array([0, 0, 0, 0, 1], np.uint8)]
        stream = storage.assemble_stream(manifest, mine, mine[0][:0])
        mine[0][0] = 1
        assert all(a.flags.writeable for a in mine)
        assert stream.tolist() == [0, 1, 0, 1, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize("d", [2, 3, 4, 10, 16, 256])
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 1001])
    def test_pack_matches_oracle(self, d, size):
        digits = np.random.default_rng(d * 7 + size).integers(0, d, size=size)
        raw = storage.pack_shard(digits, d, 8)
        assert raw[15:] == oracles.slow_pack(digits, d)
        back, _, _ = storage.unpack_shard(raw)
        assert back.dtype == np.uint8 and back.tolist() == digits.tolist()

    @pytest.mark.parametrize("d", [8, 512, 65536])
    def test_wide_power_of_two_bases(self, d):
        digits = np.random.default_rng(d).integers(0, d, size=301)
        raw = storage.pack_shard(digits, d, 16)
        assert raw[15:] == oracles.slow_pack(digits, d)
        back, _, _ = storage.unpack_shard(raw)
        assert back.dtype == codec.digit_dtype(d)
        assert back.tolist() == digits.tolist()

    def test_out_of_range_digit_rejected(self):
        with pytest.raises(ConfigError):
            storage.pack_shard(np.array([0, 4]), 4, 8)

    @pytest.mark.parametrize("d", [2, 4, 16, 256])
    @pytest.mark.parametrize("size", [0, 1, 7, 4097])
    def test_byte_layer_matches_oracle(self, d, size):
        data = np.random.default_rng(size).bytes(size)
        digits = pipeline.bytes_to_digits(data, d)
        assert digits.digits.dtype == np.uint8
        assert digits.digits.tolist() == oracles.slow_bytes_to_digits(data, d)
        assert pipeline.digits_to_bytes(digits) == data
        wide = DigitString(d, digits.digits.astype(np.int64))
        assert pipeline.digits_to_bytes(wide) == data

    @pytest.mark.parametrize(
        "cloud_runs,local_runs,ok",
        [
            ((((4, 9),), ((0, 4),)), (), True),  # clouds swapped: still a tiling
            ((((0, 4), (6, 6)), ((4, 9),)), ((9, 9),), True),  # empty runs
            ((((0, 9),), ((2, 7),)), (), False),  # nested overlap
            ((((0, 4),), ((4, 9),)), ((3, 5),), False),  # overlap across clouds
            ((((0, 4),), ((5, 9),)), (), False),  # gap
            ((((0, 4),), ((4, 8),)), (), False),  # tail uncovered
        ],
    )
    def test_runs_must_tile_the_stream(self, cloud_runs, local_runs, ok):
        manifest = store_table3(storage.MemoryRoot(2))
        edited = dataclasses.replace(
            manifest, cloud_runs=cloud_runs, local_runs=local_runs
        )
        digits = table3_setup()[1].render_digits

        def held(runs):
            return np.concatenate([digits[a:b] for a, b in runs] or [digits[:0]])

        shards = [held(runs) for runs in cloud_runs]
        if ok:
            got = storage.assemble_stream(edited, shards, held(local_runs))
            assert got.tolist() == digits.tolist()
        else:
            with pytest.raises(IncompleteDataError, match="exactly once"):
                storage.assemble_stream(edited, shards, held(local_runs))

    def test_shard_header_must_match_manifest(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        raw = storage.pack_shard(np.zeros(4, dtype=np.int64), 4, 3)  # d=4, not 2
        root.write_shard(0, raw)
        edited = dataclasses.replace(
            manifest,
            checksums=(format(storage.crc32c(raw), "08x"),) + manifest.checksums[1:],
        )
        with pytest.raises(PipelineError, match="header"):
            storage.fetch_shards(edited, root)


# every (d, k) whose field holds a base-d digit (each has a strict width);
# each is stored strict and alpha-bounded
RECONSTRUCT_SHAPES = [
    (d, k, mode)
    for d in (2, 4, 16, 256)
    for k in (4, 8, 16)
    if (1 << k) >= d
    for mode in (STRICT, ALPHA_BOUNDED)
]


def _odd_runs(total: int, bits: int, withheld: bool):
    """Runs of two clouds and the local share over a total-digit stream, cut
    at odd and even digit offsets alike: cloud 0 takes runs of more than
    _LONG_PIECE_BITS bits (copied packed), cloud 1 runs of 3 and 5 digits
    and the local share single digits (through one unpacked bit array).
    withheld moves cloud 1's runs to the local share, leaving cloud 1
    empty."""
    runs = ([], [], [])
    pattern = [(0, storage._LONG_PIECE_BITS // bits + 7), (1, 3), (2, 1), (1, 5)]
    pos = 0
    while pos < total:
        for owner, size in pattern:
            stop = min(total, pos + size)
            runs[2 if withheld and owner == 1 else owner].append((pos, stop))
            pos = stop
    return [tuple(r) for r in runs]


class TestReconstructMatrix:
    @pytest.mark.parametrize("withheld", [False, True], ids=["3-owners", "withheld"])
    @pytest.mark.parametrize("d,k,mode", RECONSTRUCT_SHAPES, ids=str)
    def test_odd_runs_round_trip(self, monkeypatch, d, k, mode, withheld):
        """Strict streams span several segments (512 payload bytes each);
        the runs cut digits mid-byte and mid-element."""
        monkeypatch.setattr(codec, "_SEGMENT_BYTES", 512)
        bits = d.bit_length() - 1
        m = 3 * 4096 // bits + 11
        digits = DigitString(d, np.random.default_rng([d, k]).integers(0, d, m))
        root = storage.MemoryRoot(2)
        pipeline.store_digits(
            digits, root, gf.FieldSpec(k=k, d=d), n=3,
            profile=SecurityProfile((0.5, 0.25), 1e-6), mode=mode,
            alpha=2.0 if mode == ALPHA_BOUNDED else None,
        )
        manifest = pipeline.load_manifest(root)
        stream = storage.assemble_stream(manifest, *storage.fetch_shards(manifest, root))
        runs = _odd_runs(stream.size, bits, withheld)
        held = [
            np.concatenate([stream[a:b] for a, b in owner_runs] or [stream[:0]])
            for owner_runs in runs
        ]
        raw = [storage.pack_shard(h, d, k) for h in held]
        edited = dataclasses.replace(
            manifest, cloud_runs=tuple(runs[:2]), local_runs=runs[2],
            checksums=tuple(format(storage.crc32c(r), "08x") for r in raw[:2]),
            local_checksum=format(storage.crc32c(raw[2]), "08x"),
        )
        clouds = [held[0], None if withheld else held[1]]
        assert storage.reconstruct(edited, clouds, held[2]) == digits
        for i in range(2):
            root.write_shard(i, raw[i])
        root.write_local(raw[2])
        assert pipeline.recover(root, edited) == digits

    @pytest.mark.parametrize("d,k,mode", RECONSTRUCT_SHAPES, ids=str)
    def test_empty_message(self, d, k, mode):
        root = storage.MemoryRoot(2)
        pipeline.store_digits(
            DigitString(d, []), root, gf.FieldSpec(k=k, d=d), n=3,
            profile=SecurityProfile((0.5, 0.25), 1e-6), mode=mode,
            alpha=2.0 if mode == ALPHA_BOUNDED else None,
        )
        assert pipeline.recover(root) == DigitString(d, [])


class TestStoreFetch:
    def test_table3_shard_digits(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        shards, local = storage.fetch_shards(manifest, root)
        assert shards[0][:].tolist() == [0, 1, 0, 1]
        assert shards[1][:].tolist() == [0, 0, 0, 0, 1]
        assert local.size == 0

    def test_empty_message(self):
        spec = gf.FieldSpec(k=3, d=2)
        grouping = codec.GroupingPlan(
            mode=STRICT, d=2, k=3, width=3, r=0, pad_count=0
        )
        profile = SecurityProfile(breach=(0.5, 0.5, 0.5), pu=0.5)
        none = np.zeros(0, dtype=np.int64)
        empty = codec.CodedStream(none, none, none, n=1, d=2, mode=STRICT)
        plan = planner.make_plan(empty.render_lengths, 1, 2, profile)
        root = storage.MemoryRoot(3)
        manifest = storage.store_shards(
            plan, [empty.render_digits], root, grouping, spec, (), profile
        )
        shards, local = storage.fetch_shards(manifest, root)
        assert all(s.size == 0 for s in shards)
        recovered = storage.reconstruct(manifest, shards, local)
        assert len(recovered) == 0

    def test_unreachable_backend_blocks_manifest(self):
        root = storage.MemoryRoot(2)
        root.set_available(1, False)
        with pytest.raises(BackendUnavailableError):
            store_table3(root)
        with pytest.raises(MissingShardError):
            root.read_manifest()

    def test_tampered_shard_detected(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        raw = bytearray(root.read_shard(0))
        raw[-1] ^= 0x01
        root.write_shard(0, bytes(raw))
        with pytest.raises(ChecksumMismatchError):
            storage.fetch_shards(manifest, root)

    def test_missing_shard(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        root._shards.pop(1)
        with pytest.raises(MissingShardError):
            storage.fetch_shards(manifest, root)

    def test_withheld_shard_is_incomplete(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        shards, local = storage.fetch_shards(manifest, root)
        with pytest.raises(IncompleteDataError):
            storage.reconstruct(manifest, [shards[0], None], local)
        with pytest.raises(IncompleteDataError, match="2 clouds"):
            storage.reconstruct(manifest, [shards[0]], local)

    def test_fetch_does_not_mutate_backend(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        before = root.snapshot()
        storage.fetch_shards(manifest, root)
        storage.fetch_shards(manifest, root)
        assert root.snapshot() == before

    def test_manifest_json_roundtrip(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        text = root.read_manifest()
        again = storage.Manifest.from_json(text)
        assert again == manifest
        parsed = json.loads(text)
        assert parsed["format_version"] == 1
        assert parsed["points"] == [1, 2, 3]
        assert parsed["breach"] == [0.5, 0.25]

    @pytest.mark.parametrize("case", ["strict", "alpha", "empty"])
    def test_manifest_json_is_the_asdict_text(self, case):
        spec = gf.FieldSpec(k=8, d=2)
        profile = SecurityProfile(breach=(0.5, 0.25), pu=1e-30)
        mode, alpha = (ALPHA_BOUNDED, 5.0) if case == "alpha" else (STRICT, None)
        digits = np.random.default_rng(4).integers(0, 2, 0 if case == "empty" else 200)
        manifest = pipeline.store_digits(
            DigitString(2, digits), storage.MemoryRoot(2), spec, n=4,
            profile=profile, mode=mode, alpha=alpha,
        ).manifest
        assert manifest.to_json() == json.dumps(dataclasses.asdict(manifest), indent=1)

    def test_manifest_coverage_partition(self):
        root = storage.MemoryRoot(2)
        manifest = store_table3(root)
        seen = np.zeros(9, dtype=int)
        for runs in manifest.cloud_runs + (manifest.local_runs,):
            for start, stop in runs:
                seen[start:stop] += 1
        assert seen.tolist() == [1] * 9


class TestDirectoryRoot:
    def test_writes_sync_file_and_directory(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), fsync(fd)))
        root = storage.DirectoryRoot(tmp_path / "sync", clouds=1)
        root.write_shard(0, b"shard")
        root.write_local(b"local")
        root.write_manifest("{}")
        assert len(synced) == 6  # each file, then its directory
        assert root.read_shard(0) == b"shard"


class TestPipelineRoundTrip:
    GRID = [
        (2, 4, STRICT, None, 2, 1),
        (2, 8, STRICT, None, 5, 3),
        (4, 8, STRICT, None, 5, 2),
        (16, 8, STRICT, None, 2, 3),
        (2, 4, ALPHA_BOUNDED, 2.0, 2, 2),
        (2, 8, ALPHA_BOUNDED, 5.0, 5, 1),
        (16, 8, ALPHA_BOUNDED, 2.0, 3, 3),
    ]

    @pytest.mark.parametrize("d,k,mode,alpha,n,p", GRID)
    def test_memory_roundtrip(self, d, k, mode, alpha, n, p):
        spec = gf.FieldSpec(k=k, d=d)
        rng = np.random.default_rng(hash((d, k, mode, n, p)) % 2**31)
        profile = SecurityProfile(
            breach=tuple(rng.uniform(0.1, 0.9, size=p)), pu=1e-3
        )
        for _ in range(5):
            m = int(rng.integers(1, 200))
            digits = DigitString(d, rng.integers(0, d, size=m))
            root = storage.MemoryRoot(p)
            pipeline.store_digits(
                digits, root, spec, n=n, profile=profile, mode=mode, alpha=alpha
            )
            assert pipeline.recover(root) == digits

    def test_directory_roundtrip(self, tmp_path):
        spec = gf.FieldSpec(k=8, d=2)
        rng = np.random.default_rng(0)
        digits = DigitString(2, rng.integers(0, 2, size=777))
        profile = SecurityProfile(breach=(0.5, 0.25), pu=1e-4)
        root = storage.DirectoryRoot(tmp_path / "demo", clouds=2)
        pipeline.store_digits(digits, root, spec, n=4, profile=profile)
        assert (tmp_path / "demo" / "cloud_0" / "shard_000.bin").exists()
        assert (tmp_path / "demo" / "local" / "share.bin").exists()
        assert (tmp_path / "demo" / "manifest.json").exists()
        reopened = storage.DirectoryRoot(tmp_path / "demo")
        assert reopened.cloud_count == 2
        assert pipeline.recover(reopened) == digits

    def test_local_retention_roundtrip(self):
        # tight caps force some digits into the local share
        spec = gf.FieldSpec(k=4, d=2)
        rng = np.random.default_rng(3)
        digits = DigitString(2, rng.integers(0, 2, size=64))
        profile = SecurityProfile(breach=(0.9, 0.9), pu=1e-12)
        root = storage.MemoryRoot(2)
        result = pipeline.store_digits(digits, root, spec, n=4, profile=profile)
        assert result.plan.local_count > 0
        assert pipeline.recover(root) == digits

    def test_empty_message_roundtrip(self):
        spec = gf.FieldSpec(k=8, d=2)
        profile = SecurityProfile(breach=(0.5,), pu=0.5)
        root = storage.MemoryRoot(1)
        pipeline.store_digits(
            DigitString(2, []), root, spec, n=3, profile=profile
        )
        assert pipeline.recover(root) == DigitString(2, [])


class TestRenderLengths:
    def test_hex_field_matches_per_element_format(self):
        rng = np.random.default_rng(11)
        for size in (0, 1, 17, 5000):
            lengths = rng.integers(1, 17, size=size)
            want = "".join(format(int(v) - 1, "x") for v in lengths)
            assert storage._encode_lengths(lengths) == want
        assert storage._encode_lengths(np.arange(1, 17)) == "0123456789abcdef"

    def test_longer_than_sixteen_digits_refused(self):
        with pytest.raises(PipelineError, match="16 digits"):
            storage._encode_lengths(np.array([3, 17, 2]))

    def test_alpha_manifest_lengths_round_trip(self):
        spec = gf.FieldSpec(k=16, d=2)
        digits = DigitString(2, np.random.default_rng(4).integers(0, 2, size=900))
        root = storage.MemoryRoot(2)
        result = pipeline.store_digits(
            digits, root, spec, n=3,
            profile=SecurityProfile(breach=(0.5, 0.25), pu=1e-3),
            mode=ALPHA_BOUNDED, alpha=1.0,
        )
        manifest = pipeline.load_manifest(root)
        assert manifest.element_lengths().tolist() == result.plan.render_lengths.tolist()
        assert pipeline.recover(root) == digits

    def test_strict_lengths_are_a_view(self):
        spec = gf.FieldSpec(k=8, d=2)
        digits = DigitString(2, np.random.default_rng(5).integers(0, 2, size=3001))
        root = storage.MemoryRoot(2)
        result = pipeline.store_digits(
            digits, root, spec, n=5,
            profile=SecurityProfile(breach=(0.5, 0.25), pu=1e-300),
        )
        manifest = pipeline.load_manifest(root)
        lengths = manifest.element_lengths()
        # one width for every element, held once rather than per element
        assert lengths.strides == (0,) and not lengths.flags.writeable
        assert lengths.tolist() == result.plan.render_lengths.tolist()
        assert pipeline.recover(root) == digits


class TestByteLayer:
    def test_roundtrip(self):
        payload = bytes(range(256)) * 3
        for d in (2, 4, 16, 256):
            digits = pipeline.bytes_to_digits(payload, d)
            assert pipeline.digits_to_bytes(digits) == payload

    def test_rejects_awkward_base(self):
        with pytest.raises(ConfigError):
            pipeline.bytes_to_digits(b"xy", 8)
        with pytest.raises(ConfigError):
            pipeline.digits_to_bytes(DigitString(8, [1, 2]))

    def test_file_byte_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        payload = rng.bytes(4096)
        digits = pipeline.bytes_to_digits(payload, 16)
        spec = gf.FieldSpec(k=8, d=16)
        profile = SecurityProfile(breach=(0.5, 0.5), pu=1e-6)
        root = storage.DirectoryRoot(tmp_path / "bytes", clouds=2)
        pipeline.store_digits(digits, root, spec, n=8, profile=profile)
        recovered = pipeline.recover(storage.DirectoryRoot(tmp_path / "bytes"))
        assert pipeline.digits_to_bytes(recovered) == payload


# hand edits of a stored manifest that must be refused on load
MANIFEST_PROBES = [
    ("pad_count", 10**6),
    ("format_version", 99),
    ("points", ["a", "b", "c", "d"]),
    ("width", 0),
    ("block_count", 0),
    ("n", 3),
    ("cloud_runs", None),
    ("cloud_runs", [[[600, 618]], [[18, 512]]]),  # shard sizes kept, run out of range
    ("cloud_runs", [[[0, 18]], [[10, 504]]]),  # shard sizes kept, runs overlap
    ("cloud_runs", [[[0, 10]], [[18, 512]]]),  # runs leave [10, 18) uncovered
    ("cloud_runs", [[[0, 18]], [[100, 512], [18, 100]]]),  # out of stream order
    ("cloud_runs", [[[0, 18]], [[18, 10**30]]]),  # beyond any integer dtype
    ("checksums", ["3c339349"]),  # cloud 0's own checksum, none for cloud 1
    ("breach", [0.5]),  # no breach probability for cloud 1
    ("points", [0, 2, 3, 4]),  # zero is no evaluation point
    ("points", [1, 1, 3, 4]),  # a repeated point: the matrix is singular
    ("points", [300, 2, 3, 4]),  # outside GF(2^8)
    ("d", 0),  # no digit base: 1 << log2(d) would be a negative shift
    ("d", 1),
    # r, original_length and pad_count kept consistent, so the manifest loads
    # and the runs are checked against a 3.2e13-digit stream
    ("block_count", 10**12, {"r": 4 * 10**12, "original_length": 32 * 10**12}),
]
PROBE_IDS = [f"{field}={json.dumps(value)}" for field, value, *_ in MANIFEST_PROBES]
HUGE_BLOCK_COUNT = MANIFEST_PROBES[-1]


class TestManifestValidation:
    @pytest.fixture()
    def edited_root(self, tmp_path, request):
        field, value, *kept = request.param
        root = storage.DirectoryRoot(tmp_path / "probe", clouds=2)
        digits = pipeline.bytes_to_digits(bytes(range(64)), 2)
        profile = SecurityProfile(breach=(0.5, 0.25), pu=1e-6)
        pipeline.store_digits(
            digits, root, gf.FieldSpec(k=8, d=2), n=4, profile=profile
        )
        raw = json.loads(root.read_manifest())
        assert len(raw["points"]) == 4
        raw[field] = value
        raw.update(*kept)
        root.write_manifest(json.dumps(raw))
        return root

    @pytest.mark.parametrize(
        "edited_root", [HUGE_BLOCK_COUNT], indirect=True, ids=["block_count"]
    )
    def test_huge_block_count_is_refused_at_once(self, edited_root):
        # the stream length comes from r * width, not from a sum over
        # block_count * n render lengths
        start = time.perf_counter()
        with pytest.raises(IncompleteDataError, match="do not cover"):
            pipeline.recover(edited_root)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "edited_root", MANIFEST_PROBES, indirect=True, ids=PROBE_IDS
    )
    def test_recover_raises_pipeline_error(self, edited_root):
        with pytest.raises(PipelineError):
            pipeline.recover(edited_root)

    @pytest.mark.parametrize(
        "edited_root", MANIFEST_PROBES, indirect=True, ids=PROBE_IDS
    )
    def test_fetch_exits_3_without_traceback(self, edited_root, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ncss.cli", "fetch",
             "--root", str(edited_root.path), "--out", str(tmp_path / "out.bin")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("pipeline error:")
        assert "manifest" in proc.stderr
