"""End-to-end flows: width selection, regroup, encode, distribute, recover.

store_digits and recover run over segments of whole blocks of a fixed size,
about 256 KiB of payload each (codec.segments). A strict store plans from
the render lengths alone, all equal to the width, then codes and renders
one segment at a time, and storage.store_shards packs each segment into
the shards as it arrives. recover is reconstruct(manifest,
*fetch_shards(manifest, root)): fetch_shards checks every shard and returns
its packed payload, and reconstruct checks the runs, then, one segment at a
time, gathers the segment's packed bits from the payloads, decodes its
elements in the field's dtype (straight from those bytes when each element
is one or two whole bytes) and expands them into the output digit array,
which is allocated after the first segment. So peak memory is the caller's
input or output digits, plus the packed shards, plus one segment, plus the
cached decode tables of the matrix (n^2 q bytes at k <= 8, none above).
An alpha-bounded message is one segment: its render lengths follow from
the coded values, so it is coded before it is planned.

The CLI is a thin wrapper over these functions; anything it can do is
reachable through this module with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, planner, storage
from .codec import STRICT, DigitString, GroupingPlan
from .errors import ConfigError
from .gf import FieldSpec, cached_vandermonde, default_points
from .planner import DistributionPlan, SecurityProfile
from .storage import Manifest


@dataclass(frozen=True)
class StoreResult:
    manifest: Manifest
    plan: DistributionPlan
    grouping: GroupingPlan


def _empty_grouping(spec: FieldSpec, mode: str, alpha: float | None) -> GroupingPlan:
    if mode == STRICT:
        width = codec.strict_width(spec.k, spec.d)
    else:
        width = codec.min_width_alpha(spec.k, spec.d, alpha)
    return GroupingPlan(
        mode=mode, d=spec.d, k=spec.k, width=width, r=0, pad_count=0, alpha=alpha
    )


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
    if n < 1:
        raise ConfigError(f"block size must be >= 1, got {n}")
    if points is None:
        points = default_points(n)
    if len(points) != n:
        raise ConfigError(f"{len(points)} points for block size {n}")
    if len(digits) == 0:
        grouping = _empty_grouping(spec, mode, alpha)
    else:
        grouping = codec.make_grouping_plan(
            len(digits), spec, n=n, mode=mode, alpha=alpha
        )

    def coded():
        """Each segment of the message, coded."""
        span = n * grouping.width
        for first, part in codec.segments(grouping, n):
            matrix = cached_vandermonde(spec.k, spec.reduction_poly, tuple(points))
            start = first * span
            piece = digits.digits[start : start + part.message_length]
            yield codec.encode_stream(DigitString(spec.d, piece), part, matrix)

    streams = coded()
    if grouping.mode == STRICT:  # every length is the width: plan first
        lengths = codec.fixed_lengths(grouping.r, grouping.width)
    else:  # the lengths follow the coded values: code first, one segment
        streams = list(streams)
        lengths = np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [s.render_lengths for s in streams]
        )
    plan = planner.make_plan(lengths, n, spec.d, profile, caps=caps)
    manifest = storage.store_shards(
        plan, (s.render_digits for s in streams), root, grouping, spec,
        tuple(points), profile,
    )
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
    """View bytes as base-d digits; d must be 2^j with j dividing 8."""
    j = _byte_base(d, "ingestion")
    digits = codec.unpack_digits(data, d, len(data) * 8 // j)
    digits.setflags(write=False)  # fresh: DigitString need not copy it
    return DigitString(d, digits)


def digits_to_bytes(digits: DigitString) -> bytes:
    """Inverse of bytes_to_digits; digit count must fill whole bytes."""
    j = _byte_base(digits.d, "rendering")
    if len(digits) % (8 // j):
        raise ConfigError(
            f"{len(digits)} base-{digits.d} digits do not fill whole bytes"
        )
    return codec.pack_digits(digits.digits, digits.d)
