"""Digit-level plaintext handling: widths, regrouping, stream coding, overflow.

A message is a string of base-d digits. Width selection decides how many
digits form one field element:

* strict mode uses s = k / log2(d), so every encoded element re-renders in
  exactly the digits its plaintext slice occupied (width-preserving);
* alpha-bounded mode allows any width >= log_d(2^k - 1) / alpha and renders
  encoded elements at their minimal digit length, bounding the per-cloud
  expansion by the factor alpha.

encode_stream regroups a message and codes its blocks in place with
gf.EncodingMatrix.encode_blocks; encode_block and decode_block code a single
block with Field.mat_vec_batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadAlphaError,
    BadAssignmentError,
    BadBaseError,
    ConfigError,
    DimensionMismatchError,
    ElementOverflowError,
    EmptyInputError,
    PlanMismatchError,
    StrictUnavailableError,
)
from .gf import EncodingMatrix, FieldSpec

STRICT = "strict"
ALPHA_BOUNDED = "alpha_bounded"


def digit_length(value: int, d: int) -> int:
    """Number of base-d digits in the minimal representation; l(0) = 1."""
    if d < 2:
        raise BadBaseError(f"digit base must be >= 2, got {d}")
    if value < 0:
        raise ConfigError(f"digit length of negative value {value}")
    if value == 0:
        return 1
    n = 0
    while value:
        value //= d
        n += 1
    return n


def digit_lengths(values: np.ndarray, d: int) -> np.ndarray:
    """Vectorized digit_length."""
    if d < 2:
        raise BadBaseError(f"digit base must be >= 2, got {d}")
    values = np.asarray(values, dtype=np.int64)
    out = np.ones(values.shape, dtype=np.int64)
    rest = values // d
    while np.any(rest > 0):
        out += rest > 0
        rest //= d
    return out


def strict_width(k: int, d: int) -> int:
    """Width-preserving element width s = k / log2(d).

    Exists only when d is a power of two and log2(d) divides k; then
    d^s = 2^k exactly and encoded elements never outgrow their slot.
    """
    if d < 2:
        raise BadBaseError(f"digit base must be >= 2, got {d}")
    j = d.bit_length() - 1
    if (1 << j) != d:
        raise StrictUnavailableError(
            f"strict mode needs a power-of-two base, got d={d}"
        )
    if k % j != 0:
        raise StrictUnavailableError(
            f"strict mode needs log2(d)={j} to divide k={k}"
        )
    return k // j


def min_width_alpha(k: int, d: int, alpha: float) -> int:
    """Smallest element width keeping expansion within the factor alpha.

    s_min = ceil(log_d(2^k - 1) / alpha); an element of that many base-d
    digits can expand to at most alpha times its own width when encoded.
    """
    if d < 2:
        raise BadBaseError(f"digit base must be >= 2, got {d}")
    if alpha < 1:
        raise BadAlphaError(f"expansion bound must be >= 1, got {alpha}")
    top = (1 << k) - 1
    s = max(1, math.ceil(math.log(top) / (math.log(d) * alpha)))
    # settle float wobble against the exact integer inequality d^(alpha*s) >= top
    def wide_enough(cand: int) -> bool:
        return alpha * cand >= math.log(top) / math.log(d) - 1e-12
    while s > 1 and wide_enough(s - 1):
        s -= 1
    while not wide_enough(s):
        s += 1
    return s


def digit_dtype(d: int) -> np.dtype:
    """The smallest unsigned dtype holding d - 1 (int64 above 65536): the
    dtype every digit array of base d is kept in."""
    if d <= 1 << 8:
        return np.dtype(np.uint8)
    if d <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def as_digits(values, d: int) -> np.ndarray:
    """values as a one-dimensional array of base-d digits in digit_dtype(d).

    Raises ConfigError for non-integer values or a digit outside [0, d);
    the range is checked before narrowing, so nothing wraps.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ConfigError("digits must be one-dimensional")
    if arr.size == 0:  # an empty list arrives as float64
        return np.zeros(0, dtype=digit_dtype(d))
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigError(f"digits must be integers, got dtype {arr.dtype}")
    if (arr.dtype.kind == "i" and int(arr.min()) < 0) or int(arr.max()) >= d:
        raise ConfigError(f"digits out of range for base {d}")
    return arr.astype(digit_dtype(d), copy=False)


def read_only(arr: np.ndarray, source) -> np.ndarray:
    """arr marked read-only. If arr still shares memory with source, the
    caller's own writable array, it is copied first so the caller may go on
    writing to it; a producer handing over a fresh array marks it read-only
    beforehand to skip the copy."""
    if (
        arr.flags.writeable
        and isinstance(source, np.ndarray)
        and np.may_share_memory(arr, source)
    ):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(eq=False, frozen=True)
class DigitString:
    """An ordered sequence of base-d digits; the plaintext/recovered currency.

    digits is read-only and kept in digit_dtype(d) (uint8 for d <= 256).
    """

    d: int
    digits: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise BadBaseError(f"digit base must be >= 2, got {self.d}")
        arr = read_only(as_digits(self.digits, self.d), self.digits)
        object.__setattr__(self, "digits", arr)

    def __len__(self) -> int:
        return int(self.digits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitString):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.digits, other.digits)

    def __repr__(self) -> str:
        head = ",".join(str(x) for x in self.digits[:16])
        tail = ",..." if len(self) > 16 else ""
        return f"DigitString(d={self.d}, [{head}{tail}], len={len(self)})"


@dataclass(frozen=True)
class GroupingPlan:
    """How a digit string folds into field elements.

    Uniform width per element; r is a multiple of the block size n so the
    final block is zero-padded, with pad_count recording the appended digits.
    """

    mode: str
    d: int
    k: int
    width: int
    r: int
    pad_count: int
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in (STRICT, ALPHA_BOUNDED):
            raise ConfigError(f"unknown grouping mode {self.mode!r}")
        if self.mode == ALPHA_BOUNDED and self.alpha is None:
            raise ConfigError("alpha-bounded plan needs an alpha")
        if self.mode == STRICT and self.alpha is not None:
            raise ConfigError("strict plan does not take an alpha")

    @property
    def widths(self) -> np.ndarray:
        return np.full(self.r, self.width, dtype=np.int64)

    @property
    def message_length(self) -> int:
        return self.r * self.width - self.pad_count


def make_grouping_plan(
    m: int,
    spec: FieldSpec,
    n: int,
    mode: str = STRICT,
    alpha: float | None = None,
    width: int | None = None,
) -> GroupingPlan:
    """Build the grouping plan for an m-digit message encoded in blocks of n.

    The element count r is rounded up to a whole number of blocks; the
    shortfall is zero-padding (recorded as pad_count, stripped on decode).
    """
    if m < 1:
        raise EmptyInputError("message must contain at least one digit")
    if n < 1:
        raise ConfigError(f"block size must be >= 1, got {n}")
    if n > spec.q - 1:
        raise ConfigError(
            f"block size {n} exceeds the {spec.q - 1} distinct nonzero "
            f"points of GF(2^{spec.k})"
        )
    if mode == STRICT:
        if alpha is not None:
            raise ConfigError("strict mode does not take an alpha")
        w = strict_width(spec.k, spec.d)
        if width is not None and width != w:
            raise ConfigError(f"strict width for k={spec.k}, d={spec.d} is {w}")
    elif mode == ALPHA_BOUNDED:
        if alpha is None:
            raise BadAlphaError("alpha-bounded mode needs an alpha >= 1")
        s_min = min_width_alpha(spec.k, spec.d, alpha)
        w = width if width is not None else s_min
        if w < s_min:
            raise BadAlphaError(
                f"width {w} violates the alpha={alpha} bound (minimum {s_min})"
            )
        if spec.d**w > spec.q:
            raise ElementOverflowError(
                f"width-{w} base-{spec.d} slices do not fit in GF(2^{spec.k}); "
                f"raise alpha or choose a smaller width"
            )
    else:
        raise ConfigError(f"unknown grouping mode {mode!r}")

    r_raw = -(-m // w)
    r = -(-r_raw // n) * n
    return GroupingPlan(
        mode=mode, d=spec.d, k=spec.k, width=w, r=r,
        pad_count=r * w - m, alpha=alpha,
    )


def regroup(b: DigitString, plan: GroupingPlan) -> np.ndarray:
    """Fold digits into field elements, big-endian within each width slice."""
    if len(b) == 0:
        raise EmptyInputError("cannot regroup an empty digit string")
    if b.d != plan.d:
        raise PlanMismatchError(f"digit base {b.d} != plan base {plan.d}")
    if plan.message_length != len(b):
        raise PlanMismatchError(
            f"plan covers {plan.message_length} digits, message has {len(b)}"
        )
    digits = b.digits
    if plan.pad_count:
        digits = np.concatenate([digits, np.zeros(plan.pad_count, digits.dtype)])
    elements = fold_digits(digits.reshape(plan.r, plan.width), plan.d)
    if elements.size and int(elements.max()) >= (1 << plan.k):
        raise ElementOverflowError(
            f"a width-{plan.width} group exceeds GF(2^{plan.k}); "
            "the plan is misconfigured"
        )
    return elements


def ungroup(elements: np.ndarray, plan: GroupingPlan) -> DigitString:
    """Inverse of regroup: expand elements (integers of any dtype, which is
    kept) to digits and strip the padding."""
    elements = np.asarray(elements)
    if elements.shape != (plan.r,):
        raise PlanMismatchError(
            f"plan describes {plan.r} elements, got {elements.shape}"
        )
    if elements.size and int(elements.max()) >= plan.d**plan.width:
        raise PlanMismatchError(
            f"element exceeds width-{plan.width} base-{plan.d} capacity"
        )
    digits = expand_digits(
        elements, plan.d, plan.width, digit_dtype(plan.d)
    ).reshape(-1)
    if plan.pad_count:
        digits = digits[: -plan.pad_count]
    digits.setflags(write=False)  # fresh: DigitString need not copy it
    return DigitString(plan.d, digits)


def fold_digits(groups: np.ndarray, d: int, dtype=np.int64) -> np.ndarray:
    """Big-endian value of each row of base-d digits (each below d), in dtype.

    Base 2 packs eight digits a byte first. dtype must hold every row's value.
    """
    groups = np.asarray(groups)
    rows, width = groups.shape
    if d == 2 and width % 8 == 0:
        groups = np.packbits(groups.reshape(-1)).reshape(rows, width // 8)
        d, width = 256, width // 8
    if width == 1:
        return groups[:, 0].astype(dtype, copy=False)
    out = np.zeros(rows, dtype=dtype)
    for column in groups.T:
        out *= d
        out += column
    return out


def expand_digits(values: np.ndarray, d: int, width: int, dtype=np.int64) -> np.ndarray:
    """Big-endian fixed-width digit expansion; shape (len(values), width).

    Values are taken modulo d**width and the digits returned in dtype. Where
    the values are one or two big-endian bytes, base 2 unpacks them and base
    256 takes them as they are; other power-of-two bases shift and mask in
    place; others divide digit by digit.
    """
    values = np.asarray(values).reshape(-1)
    if values.dtype.kind not in "iu":
        values = values.astype(np.int64)
    octet_width = {2: 8, 256: 1}.get(d, 0)
    if octet_width and width in (octet_width, 2 * octet_width):
        octets = values.astype(f">u{width // octet_width}").view(np.uint8)
        digits = np.unpackbits(octets) if d == 2 else octets
        return digits.reshape(-1, width).astype(dtype, copy=False)
    out = np.empty((values.size, width), dtype=dtype)
    if d > 0 and d & (d - 1) == 0:
        j = d.bit_length() - 1
        values = values.astype(np.int64, copy=False)
        # a shift of 63 already leaves only the sign, as floor division would
        shifts = np.minimum(j * np.arange(width - 1, -1, -1, dtype=np.int64), 63)
        np.right_shift(values.reshape(-1, 1), shifts, out=out, casting="unsafe")
        np.bitwise_and(out, d - 1, out=out)
        return out
    rest = values.astype(np.int64)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = rest % d
        rest //= d
    return out


def pack_digits(digits: np.ndarray, d: int) -> bytes:
    """Power-of-two-base digits as log2(d) bits each, big-endian, with the
    last byte zero-padded: the byte layout of data and of shard payloads.
    At d = 256 the digits are the bytes."""
    j = d.bit_length() - 1
    if j == 8:
        return np.asarray(digits).astype(np.uint8, copy=False).tobytes()
    if j > 1:
        digits = expand_digits(digits, 2, j, np.uint8)
    return np.packbits(digits).tobytes()


def unpack_digits(payload: bytes, d: int, count: int, start: int = 0) -> np.ndarray:
    """Inverse of pack_digits: count digits from digit start on, in
    digit_dtype(d), as a fresh array; only the bytes holding them are read.
    payload must hold at least (start + count) * log2(d) bits."""
    j = d.bit_length() - 1
    if j == 8:
        return np.frombuffer(payload, np.uint8, count, start).copy()
    first, skip = divmod(start * j, 8)
    nbits = skip + count * j
    octets = np.frombuffer(payload, np.uint8, count=-(-nbits // 8), offset=first)
    bits = np.unpackbits(octets, count=nbits)[skip:]
    return fold_digits(bits.reshape(count, j), 2, digit_dtype(d))


def copy_bits(dst: np.ndarray, at: int, src, start: int, count: int) -> None:
    """Copy count bits of the bytes src, from bit start on, into the uint8
    array dst from bit at on; bits are numbered big-endian within each byte,
    as pack_digits lays digits out, and every other bit of dst is kept.

    The source bytes are shifted by the difference of the two offsets
    within a byte, each OR-ed with its neighbour's bits, and dst's bits
    around both ends are then restored.
    """
    if count <= 0:
        return
    raw = np.frombuffer(src, np.uint8, ((start & 7) + count + 7) >> 3, start >> 3)
    out = dst[at >> 3 : (at + count + 7) >> 3]
    head, tail = int(out[0]), int(out[-1])
    shift = (start & 7) - (at & 7)
    if shift > 0:  # out[i] takes the low bits of raw[i] and the high of raw[i + 1]
        np.left_shift(raw[: out.size], shift, out=out)
        out[: raw.size - 1] |= raw[1:] >> (8 - shift)
    elif shift < 0:  # out[i] takes the high bits of raw[i] and the low of raw[i - 1]
        np.right_shift(raw, -shift, out=out[: raw.size])
        out[raw.size :] = 0
        out[1:] |= raw[: out.size - 1] << (8 + shift)
    else:
        out[:] = raw
    before = (0xFF00 >> (at & 7)) & 0xFF  # dst bits ahead of the copy
    out[0] = head & before | int(out[0]) & ~before
    after = (1 << (-(at + count) & 7)) - 1  # dst bits behind it
    out[-1] = tail & after | int(out[-1]) & ~after


_SEGMENT_BYTES = 256 << 10  # payload per segment of the store and recover loops


def segments(plan: GroupingPlan, n: int):
    """Split a message into segments of whole blocks, coded one at a time so
    that no stage holds more than one segment.

    Yields (first block, plan of the segment's blocks and digits), the
    message's own plan when one segment holds it all. A strict segment holds
    about _SEGMENT_BYTES of payload, rounded to whole blocks whose digits
    fill whole bytes, so every segment but the last packs to whole bytes;
    only the last one carries padding. An alpha-bounded message is one
    segment, since its render lengths, which the distribution plan needs
    first, follow from the coded values.
    """
    blocks = plan.r // n
    block_digits = n * plan.width
    step = max(1, blocks)
    if plan.mode == STRICT:
        bits = block_digits * max(1, (plan.d - 1).bit_length())
        whole = 8 // math.gcd(block_digits, 8)
        step = max(1, _SEGMENT_BYTES * 8 // bits // whole) * whole
    if 0 < blocks <= step:
        yield 0, plan
        return
    for first in range(0, blocks, step):
        end = min(first + step, blocks)
        digits = min(end * block_digits, plan.message_length) - first * block_digits
        r = (end - first) * n
        yield first, replace(plan, r=r, pad_count=r * plan.width - digits)


@dataclass(eq=False, frozen=True)
class CodedStream:
    """A whole coded message: its field elements and their base-d rendering.

    elements holds block_count * n values in stream order. Strict mode
    renders fixed-width (leading zeros kept) so the rendering occupies
    exactly the plaintext footprint; alpha-bounded mode renders each element
    at its minimal length. render_lengths[i] digits of render_digits belong
    to element i, concatenated in order.
    """

    elements: np.ndarray
    render_digits: np.ndarray
    render_lengths: np.ndarray
    n: int
    d: int
    mode: str

    def __post_init__(self) -> None:
        for name in ("elements", "render_lengths"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        digits = read_only(as_digits(self.render_digits, self.d), self.render_digits)
        object.__setattr__(self, "render_digits", digits)

    @property
    def block_count(self) -> int:
        return self.elements.size // self.n

    @property
    def total_digits(self) -> int:
        return int(self.render_digits.size)


def fixed_lengths(count: int, width: int) -> np.ndarray:
    """count render lengths, each the width: one read-only int64 seen count
    times through a zero stride (np.broadcast_to does the same at 4x the
    call cost, which small recovers feel)."""
    lengths = np.ndarray((count,), np.int64, np.array(width, np.int64), strides=(0,))
    lengths.setflags(write=False)
    return lengths


def _right_aligned(lengths: np.ndarray, width: int) -> np.ndarray:
    """Mask of the last lengths[i] of width digit slots in each row i."""
    return np.arange(width) >= (width - lengths)[:, None]


def render_elements(
    elements: np.ndarray, d: int, mode: str, fixed_width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Digit rendering of encoded elements: (concatenated digits in
    digit_dtype(d), lengths)."""
    elements = np.asarray(elements, dtype=np.int64)
    if mode == STRICT:
        if fixed_width is None:
            raise ConfigError("strict rendering needs the fixed width")
        digits = expand_digits(elements, d, fixed_width, digit_dtype(d)).reshape(-1)
        return digits, fixed_lengths(elements.size, fixed_width)
    lengths = digit_lengths(elements, d)
    wmax = int(lengths.max()) if lengths.size else 1
    table = expand_digits(elements, d, wmax, digit_dtype(d))
    return table[_right_aligned(lengths, wmax)], lengths


def parse_renders(
    digits: np.ndarray, lengths: np.ndarray, d: int
) -> np.ndarray:
    """Inverse of render_elements: recombine digit runs into element values."""
    digits = np.asarray(digits)
    lengths = np.asarray(lengths, dtype=np.int64)
    if int(lengths.sum()) != digits.size:
        raise PlanMismatchError("render lengths do not cover the digit run")
    if lengths.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.all(lengths == lengths[0]):  # fixed width: strict mode
        return fold_digits(digits.reshape(lengths.size, -1), d)
    keep = _right_aligned(lengths, int(lengths.max()))
    table = np.zeros(keep.shape, dtype=digits.dtype)
    table[keep] = digits
    return fold_digits(table, d)


def _coded(elements: np.ndarray, n: int, plan: GroupingPlan) -> CodedStream:
    digits, lengths = render_elements(
        elements, plan.d, plan.mode, fixed_width=plan.width
    )
    digits.setflags(write=False)  # fresh: CodedStream need not copy it
    return CodedStream(
        elements=elements, render_digits=digits, render_lengths=lengths,
        n=n, d=plan.d, mode=plan.mode,
    )


def _one_block(a: EncodingMatrix, block: np.ndarray, what: str) -> np.ndarray:
    """block as a one-row batch for a, checked to hold n elements."""
    v = np.asarray(block, dtype=np.int64)
    if v.shape != (a.n,):
        raise DimensionMismatchError(
            f"{what} of {v.shape} does not fit an n={a.n} matrix"
        )
    return v[None]


def encode_block(
    a: EncodingMatrix, b_prime: np.ndarray, plan: GroupingPlan
) -> CodedStream:
    """Encode one block: c = A b', rendered in base d per the plan's mode."""
    v = _one_block(a, b_prime, "block")
    return _coded(a.field.mat_vec_batch(a.rows, v)[0], a.n, plan)


def decode_block(a: EncodingMatrix, c: np.ndarray) -> np.ndarray:
    """Decode one block: b' = A^{-1} c."""
    v = _one_block(a, c, "coded block")
    return a.field.mat_vec_batch(a.inverse(), v)[0]


def encode_stream(
    b: DigitString, plan: GroupingPlan, a: EncodingMatrix
) -> CodedStream:
    """Regroup a whole message, encode its blocks in place, render it once."""
    elements = regroup(b, plan)
    if plan.r % a.n != 0:
        raise PlanMismatchError(
            f"plan element count {plan.r} is not a multiple of n={a.n}"
        )
    a.encode_blocks(elements.reshape(-1, a.n))
    return _coded(elements, a.n, plan)


@dataclass(frozen=True)
class OverflowReport:
    """Outcome of overflow classification for one coded block."""

    strict: bool
    tested_alpha: float
    alpha_bound_satisfied: bool
    per_cloud_ratios: tuple[float, ...]


def classify_overflow(
    plain_widths: np.ndarray,
    block: CodedStream,
    assignment: list[list[int]],
    alpha: float,
) -> OverflowReport:
    """Classify a one-block coded stream against the two non-overflow criteria.

    Strict: every element's minimal digit length fits its plaintext width.
    Alpha-bounded, per cloud: the summed minimal lengths of its elements
    stay within alpha times the cloud's plaintext digit budget, where the
    reference width is the mean plain width of the elements it holds.
    """
    widths = np.asarray(plain_widths, dtype=np.int64)
    if widths.shape != (block.n,):
        raise BadAssignmentError(
            f"need one plain width per element, got {widths.shape} for n={block.n}"
        )
    seen = sorted(i for cloud in assignment for i in cloud)
    if seen != list(range(block.n)):
        raise BadAssignmentError(
            "assignment must partition the block's element indices"
        )
    lengths = digit_lengths(block.elements, block.d)
    strict_ok = bool(np.all(lengths <= widths))
    ratios = []
    bound_ok = True
    for cloud in assignment:
        if not cloud:
            ratios.append(0.0)
            continue
        idx = np.asarray(cloud, dtype=np.int64)
        total = int(lengths[idx].sum())
        ref = float(widths[idx].mean())
        budget = len(cloud) * ref
        ratios.append(total / budget)
        if total > alpha * budget:
            bound_ok = False
    return OverflowReport(
        strict=strict_ok,
        tested_alpha=float(alpha),
        alpha_bound_satisfied=bound_ok,
        per_cloud_ratios=tuple(ratios),
    )
