"""End-to-end flows: width selection, regroup, encode, distribute, recover.

store_digits and recover run over segments of whole blocks, about 256 KiB
of payload each (codec.segments). A strict element is k bits of the packed
message for every strict (k, d) (codec._packed_elements), and the coded
element is k bits of the packed render, so a strict segment stays packed
both ways. A strict store plans from the render lengths alone, all equal
to the width; then each segment is regrouped (the message unpacked at base
2^k), coded in place and packed back at base 2^k, and storage.store_shards
copies its run pieces from those bits into the shards. recover is
reconstruct(manifest, *fetch_shards(manifest, root)), the mirror image:
each segment's run pieces are copied from the checked shard payloads,
unpacked at base 2^k, decoded and packed into one output, which the
recovered message holds uncopied. bytes_to_digits holds the caller's bytes
as the packed digits and digits_to_bytes copies the packed output once, so
a byte-base message (d in {2, 4, 16, 256}) is never held a digit a byte.
Peak memory is the caller's bytes, the packed shards, a recover's packed
output, one segment (its elements in codec.digit_dtype(2^k), a byte each
at k <= 8, the encode's uint64 accumulator and their packed form; no int64
copy) and the matrix's tables, built by linearity (gf.Field._gather_table):
about n^2 q bytes each for encode and decode at k <= 8; above k = 8 only
one column's split table (1 KiB per row of the matrix at k = 16) while a
segment is coded. An alpha-bounded message is one segment, coded before
it is planned: its render lengths follow from the coded values.

The CLI is a thin wrapper over these functions; anything it can do is
reachable through this module with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import codec, planner, storage
from .codec import STRICT, DigitString, GroupingPlan
from .errors import BadAlphaError, ConfigError
from .gf import FieldSpec, cached_vandermonde, check_count, check_points, default_points
from .planner import DistributionPlan, SecurityProfile
from .storage import Manifest


@dataclass(frozen=True)
class StoreResult:
    manifest: Manifest
    plan: DistributionPlan
    grouping: GroupingPlan


def store_digits(
    digits: DigitString,
    root,
    spec: FieldSpec,
    n: int,
    profile: SecurityProfile,
    mode: str = STRICT,
    alpha: float | None = None,
    points: tuple[int, ...] | None = None,
    caps: tuple[int, ...] | None = None,
) -> StoreResult:
    """Encode a digit string and distribute it across the root's clouds."""
    if digits.d != spec.d:
        raise ConfigError(f"digit base {digits.d} != field spec base {spec.d}")
    n = check_count(n, "block size", 1)
    points = check_points(spec.field(), default_points(n) if points is None else points)
    if len(points) != n:
        raise ConfigError(f"{len(points)} points for block size {n}")
    if alpha is not None and not math.isfinite(alpha):  # no JSON for it
        raise BadAlphaError(f"expansion bound must be finite, got {alpha}")
    grouping = codec.make_grouping_plan(
        max(len(digits), 1), spec, n=n, mode=mode, alpha=alpha
    )
    if len(digits) == 0:  # the plan of one digit, without its block
        grouping = replace(grouping, r=0, pad_count=0)
    matrix = cached_vandermonde(spec.k, spec.reduction_poly, points)

    def coded():
        """Each segment of a strict message, coded and packed: element i is
        bits [i k, (i + 1) k) of the message and of its render alike
        (codec._packed_elements), so packing the coded elements at base 2^k
        renders them."""
        span = n * grouping.width
        for first, part in codec.segments(grouping, n):
            start = first * span
            # one name, so that no buffer outlives its stage or its segment
            segment = codec.regroup(digits._slice(start, start + part.message_length), part)
            matrix.encode_blocks(segment.reshape(-1, n))
            segment = codec.pack_digits(segment, 1 << spec.k)
            yield DigitString._wrap(spec.d, segment, part.r * grouping.width)
            del segment

    if grouping.mode == STRICT or not len(digits):  # every length is the width
        segments, lengths = coded(), codec.fixed_lengths(grouping.r, grouping.width)
    else:  # one segment, coded first: its render lengths follow the coded values
        stream = codec.encode_stream(digits, grouping, matrix)
        segments, lengths = [stream.render_digits], stream.render_lengths
    plan = planner.make_plan(lengths, n, spec.d, profile, caps=caps)
    manifest = storage.store_shards(plan, segments, root, grouping, spec, points, profile)
    return StoreResult(manifest=manifest, plan=plan, grouping=grouping)


def load_manifest(root) -> Manifest:
    return Manifest.from_json(root.read_manifest())


def recover(root, manifest: Manifest | None = None) -> DigitString:
    """Fetch every shard plus the local share and rebuild the digit string."""
    if manifest is None:
        manifest = load_manifest(root)
    return storage.reconstruct(manifest, *storage.fetch_shards(manifest, root))


def _byte_base(d: int, what: str) -> int:
    """log2(d), for the bases whose digits fill whole bytes."""
    j = d.bit_length() - 1
    if j < 1 or (1 << j) != d or 8 % j != 0:
        raise ConfigError(f"byte {what} needs d in {{2, 4, 16, 256}}, got d={d}")
    return j


def bytes_to_digits(data: bytes, d: int) -> DigitString:
    """View bytes as base-d digits; d must be 2^j with j dividing 8. The
    bytes are the digits packed: bytes are held as they are, any other
    buffer copied once."""
    j = _byte_base(d, "ingestion")
    return DigitString._from_packed(d, data, len(data) * 8 // j)


def digits_to_bytes(digits: DigitString) -> bytes:
    """Inverse of bytes_to_digits; digit count must fill whole bytes."""
    j = _byte_base(digits.d, "rendering")
    if len(digits) % (8 // j):
        raise ConfigError(
            f"{len(digits)} base-{digits.d} digits do not fill whole bytes"
        )
    return bytes(digits._bytes())  # the same object when it holds bytes
