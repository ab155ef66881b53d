"""Segmented store and recover: a message coded a few blocks at a time must
store exactly the bytes of the one-segment store and recover exactly.

codec._SEGMENT_BYTES sets the payload per segment; shrunk to a byte or a
few, every segment is the fewest whole blocks whose digits fill whole bytes,
so cloud and local runs cross many segment boundaries.
"""

import hashlib

import numpy as np
import pytest

from ncss import codec, gf, pipeline, planner, storage
from ncss.codec import ALPHA_BOUNDED, STRICT, DigitString
from ncss.errors import ConfigError, NcssError, PipelineError
from ncss.planner import SecurityProfile

ONE_SEGMENT = 1 << 40

SHAPES = [
    (d, k, mode)
    for d in (2, 3, 4, 10, 16, 256)
    for k in (4, 8, 16)
    for mode in (STRICT, ALPHA_BOUNDED)
]


def _fits(d, k, mode):
    try:
        spec = gf.FieldSpec(k=k, d=d)
        if mode == STRICT:
            codec.strict_width(k, d)
        else:
            codec.make_grouping_plan(1, spec, n=3, mode=mode, alpha=2.0)
    except NcssError:
        return False
    return True


def _store(monkeypatch, segment_bytes, digits, spec, n, mode, caps):
    monkeypatch.setattr(codec, "_SEGMENT_BYTES", segment_bytes)
    root = storage.MemoryRoot(2)
    pipeline.store_digits(
        digits, root, spec, n=n, profile=SecurityProfile((0.5, 0.25), 1e-6),
        mode=mode, alpha=2.0 if mode == ALPHA_BOUNDED else None, caps=caps,
    )
    shards, local, text = root.snapshot()
    digests = [hashlib.sha256(shards[i]).hexdigest() for i in sorted(shards)]
    digests.append(hashlib.sha256(local).hexdigest())
    digests.append(hashlib.sha256(text.encode()).hexdigest())
    return root, digests


@pytest.mark.parametrize(
    "d,k,mode", [s for s in SHAPES if _fits(*s)], ids=lambda v: str(v)
)
def test_segments_store_the_one_segment_bytes(monkeypatch, d, k, mode):
    spec = gf.FieldSpec(k=k, d=d)
    rng = np.random.default_rng([d, k, mode == STRICT])
    n = 3
    # not a whole number of blocks: the last segment carries the padding
    m = 7 * n * 16 + 5
    digits = DigitString(d, rng.integers(0, d, m))
    r = codec.make_grouping_plan(
        m, spec, n=n, mode=mode, alpha=2.0 if mode == ALPHA_BOUNDED else None
    ).r
    # no local digits; a few local digits; a local digit of every element
    # and more, which makes one local run per element
    for caps in (None, (r // 2, r // 3), (0, 1)):
        root, whole = _store(monkeypatch, ONE_SEGMENT, digits, spec, n, mode, caps)
        for segment_bytes in (1, 5):
            root, parts = _store(
                monkeypatch, segment_bytes, digits, spec, n, mode, caps
            )
            assert parts == whole, (caps, segment_bytes)
            assert pipeline.recover(root) == digits
        monkeypatch.setattr(codec, "_SEGMENT_BYTES", ONE_SEGMENT)
        assert pipeline.recover(root) == digits


@pytest.mark.parametrize("segment_bytes", [1, 3, 64, ONE_SEGMENT])
def test_segments_tile_the_message(monkeypatch, segment_bytes):
    monkeypatch.setattr(codec, "_SEGMENT_BYTES", segment_bytes)
    spec = gf.FieldSpec(k=4, d=2)  # 12-digit blocks: two fill whole bytes
    plan = codec.make_grouping_plan(1001, spec, n=3, mode=STRICT)
    parts = list(codec.segments(plan, 3))
    blocks = [first for first, _ in parts] + [plan.r // 3]
    assert blocks[0] == 0
    for (first, part), end in zip(parts, blocks[1:]):
        assert part.r == (end - first) * 3
        if end < blocks[-1]:  # all but the last segment fill whole bytes
            assert part.pad_count == 0 and part.r * part.width % 8 == 0
    assert sum(part.message_length for _, part in parts) == 1001
    assert parts[-1][1].pad_count == plan.pad_count


def test_alpha_message_is_one_segment(monkeypatch):
    monkeypatch.setattr(codec, "_SEGMENT_BYTES", 1)
    spec = gf.FieldSpec(k=8, d=2)
    plan = codec.make_grouping_plan(1001, spec, n=5, mode=ALPHA_BOUNDED, alpha=5.0)
    assert list(codec.segments(plan, 5)) == [(0, plan)]


def test_segmented_store_builds_the_column_table_once(monkeypatch):
    built = []
    real = gf.Field._column_table
    monkeypatch.setattr(
        gf.Field, "_column_table", lambda f, m: built.append(m.shape) or real(f, m)
    )
    monkeypatch.setattr(codec, "_SEGMENT_BYTES", 1)
    gf.cached_vandermonde.cache_clear()
    digits = DigitString(2, np.random.default_rng(9).integers(0, 2, 5000))
    root = storage.MemoryRoot(1)
    pipeline.store_digits(
        digits, root, gf.FieldSpec(k=8, d=2), n=5,
        profile=SecurityProfile((1.0,), 1.0),
    )
    assert built == [(5, 5)]
    assert pipeline.recover(root) == digits


# SHA-256 over the shards, local share and manifest of the k=16 store below
WIDE_K16_STORE = "0cc5409855db29292210d713941844f7e476160eda6151af59b1814cf2bc11f8"


@pytest.mark.parametrize(
    "segment_bytes,count", [(ONE_SEGMENT, 1), (3600, 3), (600, 15), (48, 188)]
)
def test_wide_field_segments_store_pinned_bytes(monkeypatch, segment_bytes, count):
    # 1500 blocks of 6 bytes: 600 blocks a segment take the split tables,
    # 100 the direct products, 8 the broadcast; all store the same bytes
    spec = gf.FieldSpec(k=16, d=2)
    digits = pipeline.bytes_to_digits(np.random.default_rng(16).bytes(9000), 2)
    root, _ = _store(monkeypatch, segment_bytes, digits, spec, 3, STRICT, None)
    plan = codec.make_grouping_plan(len(digits), spec, n=3)
    assert len(list(codec.segments(plan, 3))) == count
    h = hashlib.sha256()
    shards, local, text = root.snapshot()
    for part in [shards[i] for i in sorted(shards)] + [local, text.encode()]:
        h.update(part)
    assert h.hexdigest() == WIDE_K16_STORE
    assert pipeline.recover(root) == digits


@pytest.mark.parametrize("extra", [-1, 1])
def test_stream_longer_or_shorter_than_the_plan_writes_nothing(extra):
    spec = gf.FieldSpec(k=8, d=2)
    grouping = codec.make_grouping_plan(80, spec, n=2, mode=STRICT)
    lengths = codec.fixed_lengths(grouping.r, grouping.width)
    plan = planner.make_plan(lengths, 2, 2, SecurityProfile((0.5,), 1e-3))
    stream = np.zeros(plan.total_digits + extra, dtype=np.uint8)
    root = storage.MemoryRoot(1)
    with pytest.raises(PipelineError, match="does not match"):
        storage.store_shards(
            plan, [stream[:40], stream[40:]], root, grouping, spec, (1, 2),
            SecurityProfile((0.5,), 1e-3),
        )
    assert root.snapshot() == ({}, None, None)


def test_segment_of_another_base_writes_nothing():
    # its packed bits would be copied at the wrong width a digit
    spec = gf.FieldSpec(k=8, d=2)
    grouping = codec.make_grouping_plan(80, spec, n=2, mode=STRICT)
    lengths = codec.fixed_lengths(grouping.r, grouping.width)
    plan = planner.make_plan(lengths, 2, 2, SecurityProfile((0.5,), 1e-3))
    root = storage.MemoryRoot(1)
    with pytest.raises(ConfigError, match="segment base 4"):
        storage.store_shards(
            plan, [DigitString(4, np.zeros(plan.total_digits, np.uint8))], root,
            grouping, spec, (1, 2), SecurityProfile((0.5,), 1e-3),
        )
    assert root.snapshot() == ({}, None, None)
