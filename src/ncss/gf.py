"""GF(2^k) arithmetic and the Vandermonde linear algebra used for encoding.

Field elements are plain integers in [0, 2^k - 1]; bit i is the coefficient
of x^i in the polynomial basis. Scalar and elementwise multiplication go
through log/antilog tables built once per (k, polynomial) pair; for k <= 8
the field also keeps its full q x q product table (64 KiB at k=8).

Field.mat_vec_batch is the general matrix product: a broadcast log/antilog
product for a short batch, per-column table gathers for a long one.
EncodingMatrix.encode_blocks codes a message's blocks in place: for k <= 8
one gather from the matrix's column table (Field._column_table) and one XOR
per block, for k > 8 one mat_vec_batch call. EncodingMatrix.decode_blocks
runs the same per-column gathers (Field._gather_xor) for k <= 8 over tables
of the inverse that it builds once, in the field's dtype; for k > 8 it too
makes one mat_vec_batch call.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicatePointError,
    SingularMatrixError,
    TooManyPointsError,
    ZeroInverseError,
    ZeroPointError,
)

# Conventional irreducible polynomials (bit i = coefficient of x^i, bit k set).
DEFAULT_POLYS = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    8: 0b1_0001_1011,  # x^8 + x^4 + x^3 + x + 1
    16: 0x1100B,       # x^16 + x^12 + x^3 + x + 1
}

MIN_K = 2
MAX_K = 16


def _poly_mod(a: int, b: int) -> int:
    """Remainder of carryless polynomial division over GF(2)."""
    bb = b.bit_length()
    while a.bit_length() >= bb:
        a ^= b << (a.bit_length() - bb)
    return a


def is_irreducible(poly: int, k: int) -> bool:
    """Exhaustive divisor check: no factor of degree 1..k//2."""
    if poly.bit_length() != k + 1:
        return False
    for deg in range(1, k // 2 + 1):
        for low in range(1 << deg):
            if _poly_mod(poly, (1 << deg) | low) == 0:
                return False
    return True


def find_irreducible(k: int) -> int:
    """Smallest irreducible polynomial of degree k (for k without a default)."""
    for low in range(1 << k):
        cand = (1 << k) | low
        if is_irreducible(cand, k):
            return cand
    raise ConfigError(f"no irreducible polynomial of degree {k}")  # unreachable


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class OpCounter:
    """Mutable tally of scalar field multiplications, for work accounting.

    Attach to a Field via `field.counter = OpCounter()`; leave None (the
    default) to keep field operations pure. Not thread-safe: count only
    sequential runs.
    """

    def __init__(self) -> None:
        self.muls = 0

    def reset(self) -> None:
        self.muls = 0


# batches up to this size take one broadcast product, faster than tables
_BROADCAST_BATCH = 8

# split-table indices for k > 8: the low byte t and the high part t << 8
_LOW_BYTES = np.arange(256, dtype=np.int64)
_HIGH_BYTES = _LOW_BYTES << 8


class Field:
    """Arithmetic over GF(2^k) via precomputed exp/log tables.

    The exp table is laid out twice over so that exp[log a + log b] needs
    no modular reduction. Tables are built from a verified generator of the
    multiplicative group, so any irreducible polynomial works (x itself is
    not always a generator, e.g. for 0x11B at k=8). For k <= 8 the full
    product table (uint8, q x q) is built as well.
    """

    def __init__(self, k: int, poly: int | None = None):
        if not MIN_K <= k <= MAX_K:
            raise ConfigError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
        if poly is None:
            poly = DEFAULT_POLYS.get(k)
            if poly is None:
                raise ConfigError(
                    f"no default polynomial for k={k}; pass one explicitly "
                    f"(find_irreducible({k}) suggests one)"
                )
        if poly.bit_length() != k + 1:
            raise ConfigError(
                f"polynomial {poly:#x} does not have degree {k}"
            )
        if not is_irreducible(poly, k):
            raise ConfigError(f"polynomial {poly:#x} is reducible over GF(2)")

        self.k = k
        self.q = 1 << k
        self.poly = poly
        self.counter: OpCounter | None = None
        # the narrowest dtype holding every element
        self.dtype = np.dtype(np.uint8 if k <= 8 else np.uint16)
        self._build_tables()

    # -- construction -------------------------------------------------

    def _mul_slow(self, a: int, b: int) -> int:
        """Shift-and-reduce product; used only to bootstrap the tables."""
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.k:
                a ^= self.poly
        return r

    def _pow_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        n = self.q - 1
        checks = [n // p for p in _prime_factors(n)]
        for g in range(2, self.q):
            if all(self._pow_slow(g, c) != 1 for c in checks):
                return g
        raise ConfigError("no generator found; polynomial is not irreducible")

    def _build_tables(self) -> None:
        n = self.q - 1
        g = self._find_generator()
        exp = np.zeros(2 * n, dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self._mul_slow(x, g)
        exp[n:] = exp[:n]
        exp.setflags(write=False)
        log.setflags(write=False)
        self.generator = g
        self._exp = exp
        self._log = log
        self._product = None
        if self.k <= 8:
            a = np.arange(self.q, dtype=np.int64)
            product = self._products(a[:, None], a[None, :]).astype(np.uint8)
            product.setflags(write=False)
            self._product = product

    # -- scalar operations ---------------------------------------------

    def check(self, x: int) -> int:
        """Validate that x is a field element."""
        if not 0 <= x < self.q:
            raise ConfigError(f"{x} is not an element of GF(2^{self.k})")
        return x

    def add(self, x: int, y: int) -> int:
        """Field addition: bitwise XOR (characteristic 2, self-inverse)."""
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self.counter is not None:
            self.counter.muls += 1
        return int(self._exp[self._log[x] + self._log[y]])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverseError("zero has no multiplicative inverse")
        return int(self._exp[self.q - 1 - self._log[x]])

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            return 1 if e == 0 else 0
        return int(self._exp[(int(self._log[x]) * e) % (self.q - 1)])

    # -- vectorized operations ------------------------------------------

    @staticmethod
    def _operand(x) -> np.ndarray:
        """x as int64. Raises ConfigError for a non-integer dtype, which the
        cast would truncate; an empty list arrives as float64 and passes."""
        arr = np.asarray(x)
        if arr.dtype.kind not in "iu" and arr.size:
            raise ConfigError(f"field operands must be integers, got dtype {arr.dtype}")
        return arr.astype(np.int64, copy=False)

    def _in_field(self, *arrays: np.ndarray) -> None:
        """Raise ConfigError unless every entry of every integer array is in
        [0, q): their OR has no bit at or above k (a negative entry sets them
        all), one reduction per array."""
        for arr in arrays:
            if int(np.bitwise_or.reduce(arr, axis=None)) >> self.k:
                raise ConfigError(f"operand entries outside GF(2^{self.k})")

    def _products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable int64 arrays, not counted."""
        out = self._exp[self._log[a] + self._log[b]]
        zero = (a == 0) | (b == 0)
        if zero.any():
            out = np.where(zero, 0, out)
        return out

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable integer arrays, counted."""
        a, b = self._operand(a), self._operand(b)
        self._in_field(a, b)
        if self.counter is not None:
            self.counter.muls += int(np.broadcast(a, b).size)
        return self._products(a, b)

    def _column_table(self, m: np.ndarray) -> np.ndarray:
        """Column table of m for k <= 8, not counted: row j*q + t holds the
        products m[:, j] * t as bytes, zero-padded to a multiple of 8 and
        viewed as uint64. XORing the rows j*q + v[j] over every column j
        gives the product m . v in the first m.shape[0] bytes."""
        rows, cols = m.shape
        table = np.zeros((cols, self.q, -(-rows // 8) * 8), dtype=np.uint8)
        table[:, :, :rows] = self._product[m.T].transpose(0, 2, 1)
        return table.reshape(cols * self.q, -1).view(np.uint64)

    def mat_vec_batch(self, m: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """out[b, i] = XOR_j m[i,j] * vs[b,j]: m times every row of vs. One
        vector v is the batch v[None]; a product a @ b is
        mat_vec_batch(a, b.T).T.

        A batch of at most _BROADCAST_BATCH rows takes one broadcast product.
        Otherwise column j's products m[:, j] * t, for every value t, form a
        (t, row) table (_gather_table) gathered at vs[:, j] and XORed into
        the accumulator (_gather_xor): k <= 8 slices the product table; k > 8
        builds split tables for the low byte and the high part of t (two
        gathers), unless the batch is shorter than those (256 + 2^(k-8)
        rows): then the column's products are computed directly.
        """
        m, vs = self._operand(m), self._operand(vs)
        if m.ndim != 2 or vs.ndim != 2 or m.shape[1] != vs.shape[1]:
            raise DimensionMismatchError(
                f"cannot multiply {m.shape} matrix by batch of shape {vs.shape}"
            )
        self._in_field(m, vs)
        (rows, cols), batch = m.shape, vs.shape[0]
        if self.counter is not None:
            self.counter.muls += rows * cols * batch
        if batch <= _BROADCAST_BATCH:
            return np.bitwise_xor.reduce(self._products(m, vs[:, None, :]), axis=2)
        columns = np.ascontiguousarray(vs.T)
        if self._product is None and batch < _LOW_BYTES.size + (self.q >> 8):
            acc = np.zeros((batch, rows), dtype=self.dtype)
            for a, v in zip(m.T, columns):
                acc ^= self._products(v[:, None], a[None, :]).astype(self.dtype)
        else:
            acc = self._gather_xor(map(self._gather_table, m.T), columns, rows)
        return acc.astype(np.int64)

    def _gather_table(self, a: np.ndarray) -> np.ndarray:
        """The products of column a (int64, entries in the field) by every
        value, not counted, as a C-contiguous (value, row) table in the
        field's dtype: row t holds a * t for k <= 8. For k > 8, row t < 256
        holds a * t and row 256 + h holds a * (h << 8), so a * v is row
        v & 0xFF XOR row 256 + (v >> 8)."""
        if self._product is not None:
            return self._product[:, a]
        values = np.concatenate([_LOW_BYTES, _HIGH_BYTES[: self.q >> 8]])
        return self._products(values[:, None], a[None, :]).astype(self.dtype)

    def _gather_xor(self, tables, columns: np.ndarray, rows: int) -> np.ndarray:
        """out[b] = XOR over j of tables[j] gathered at columns[j, b]: the
        product of the matrix whose columns' _gather_tables these are with
        every vector b, whose entry j is columns[j, b] (entries in the field;
        each column contiguous). Returns (batch, rows) in the field's dtype."""
        acc = np.zeros((columns.shape[1], rows), dtype=self.dtype)
        for table, v in zip(tables, columns):
            if self._product is not None:
                acc ^= table.take(v, axis=0)
            else:
                acc ^= table[:256].take(v & 0xFF, axis=0)
                acc ^= table[256:].take(v >> 8, axis=0)
        return acc

    # The benchmark's tracer lists these two names (perfbench/tracer.py); no
    # library code calls them. Drop them once that list does (ROADMAP item 8).
    def mat_vec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """m . v for one vector v: mat_vec_batch(m, v[None])[0]."""
        return self.mat_vec_batch(m, self._operand(v)[None])[0]

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product a @ b: mat_vec_batch(a, b.T).T."""
        return self.mat_vec_batch(a, self._operand(b).T).T

    def mat_invert(self, m: np.ndarray) -> np.ndarray:
        """Invert a square matrix by Gaussian elimination with pivot search.
        Its products are not counted: a matrix is inverted once and cached."""
        m = self._operand(m)
        n = m.shape[0]
        if m.shape != (n, n):
            raise DimensionMismatchError(f"matrix of shape {m.shape} is not square")
        self._in_field(m)
        aug = np.concatenate([m.copy(), np.eye(n, dtype=np.int64)], axis=1)
        for col in range(n):
            pivots = np.nonzero(aug[col:, col])[0]
            if pivots.size == 0:
                raise SingularMatrixError(f"no pivot in column {col}")
            p = col + int(pivots[0])
            if p != col:
                aug[[col, p]] = aug[[p, col]]
            aug[col] = self._products(aug[col], self.inv(int(aug[col, col])))
            rows = np.nonzero(aug[:, col])[0]
            rows = rows[rows != col]
            if rows.size:
                aug[rows] ^= self._products(aug[rows, col][:, None], aug[col][None, :])
        return aug[:, n:]

    def __repr__(self) -> str:
        return f"Field(k={self.k}, poly={self.poly:#x})"


@lru_cache(maxsize=None)
def get_field(k: int, poly: int | None = None) -> Field:
    """Shared Field instance per (k, polynomial); tables are built once."""
    return Field(k, poly)


@dataclass(frozen=True)
class FieldSpec:
    """Field parameters joined with the digit base of the plaintext.

    s is the width-preserving element width k/log2(d) in base-d digits,
    or None when no such width exists (d not a power of two dividing into k).
    The field must be able to represent every digit: 2^k >= d.
    """

    k: int
    d: int
    reduction_poly: int = 0  # 0 selects the default for k
    s: int | None = dc_field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ConfigError(f"digit base must be >= 2, got {self.d}")
        poly = self.reduction_poly or DEFAULT_POLYS.get(self.k, 0)
        get_field(self.k, poly or None)  # validates k and the polynomial
        object.__setattr__(self, "reduction_poly", poly)
        if (1 << self.k) < self.d:
            raise ConfigError(
                f"field size 2^{self.k} cannot represent base-{self.d} digits"
            )
        j = self.d.bit_length() - 1
        if (1 << j) == self.d and self.k % j == 0:
            object.__setattr__(self, "s", self.k // j)

    @property
    def q(self) -> int:
        return 1 << self.k

    def field(self) -> Field:
        return get_field(self.k, self.reduction_poly)


class EncodingMatrix:
    """Square Vandermonde matrix over GF(2^k): entry (i, j) = points[j]^i.

    Points are pairwise distinct and nonzero, so the matrix is invertible.
    Instances are immutable; the inverse and, for k <= 8, the column and
    decode tables are computed lazily and cached.
    """

    def __init__(self, field: Field, points: tuple[int, ...], rows: np.ndarray):
        self.field = field
        self.points = points
        self.n = len(points)
        rows = np.asarray(rows, dtype=np.int64)
        rows.setflags(write=False)
        self.rows = rows
        self._inverse: np.ndarray | None = None
        self._columns: np.ndarray | None = None
        self._decode: np.ndarray | None = None

    def inverse(self) -> np.ndarray:
        if self._inverse is None:
            inv = self.field.mat_invert(self.rows)
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    def encode_blocks(self, blocks: np.ndarray) -> None:
        """Code each row of blocks (C-contiguous int64 of shape (count, n),
        entries in the field) in place: row i becomes A . row i, and
        count * n^2 products are counted. k > 8 makes one mat_vec_batch call.
        k <= 8 codes block by block from the column table, built once per
        matrix: acceptance criterion 9 asserts that n=100 encodes no slower
        than n=10, which holds for per-block dispatch and not for the batch
        kernel (n multiplications per element make large n the slower)."""
        field, n = self.field, self.n
        if field._product is None:
            blocks[:] = field.mat_vec_batch(self.rows, blocks)
            return
        if self._columns is None:
            self._columns = field._column_table(self.rows)
        table = self._columns
        blocks += np.arange(n) * field.q  # column j's rows start at j * q
        # block i's coded bytes go to the front of its own 8n bytes, which
        # take() has already read
        coded = blocks.view(np.uint64)[:, : table.shape[1]]
        for i, rows in enumerate(blocks):
            np.bitwise_xor.reduce(table.take(rows, axis=0), axis=0, out=coded[i])
        blocks[:] = blocks.view(np.uint8)[:, :n]
        if field.counter is not None:
            field.counter.muls += blocks.size * n

    def decode_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """A^-1 times each row of blocks (integers of shape (count, n),
        entries in the field), in the field's dtype; count * n^2 products
        are counted. For k <= 8 the _gather_tables of A^-1's columns are
        built on the first call and kept: n^2 q bytes, as the column table.
        k > 8 makes one mat_vec_batch call: kept tables would take
        2 n^2 (256 + 2^(k-8)) bytes, a gigabyte at k=16 and n=1000."""
        field = self.field
        if field._product is None:
            return field.mat_vec_batch(self.inverse(), blocks).astype(field.dtype)
        if self._decode is None:
            tables = np.stack([field._gather_table(a) for a in self.inverse().T])
            tables.setflags(write=False)
            self._decode = tables
        columns = np.ascontiguousarray(blocks.T, dtype=field.dtype)
        if field.counter is not None:
            field.counter.muls += blocks.size * self.n
        return field._gather_xor(self._decode, columns, self.n)

    def __repr__(self) -> str:
        return f"EncodingMatrix(n={self.n}, k={self.field.k}, points={self.points})"


def default_points(n: int) -> tuple[int, ...]:
    """Evaluation points 1..n; the conventional choice."""
    return tuple(range(1, n + 1))


def build_vandermonde(spec: FieldSpec | Field, points) -> EncodingMatrix:
    """Construct the encoding matrix from distinct nonzero evaluation points."""
    field = spec.field() if isinstance(spec, FieldSpec) else spec
    points = tuple(int(p) for p in points)
    n = len(points)
    if n > field.q - 1:
        raise TooManyPointsError(
            f"{n} points requested but GF(2^{field.k}) has only {field.q - 1} "
            "distinct nonzero elements"
        )
    if any(p == 0 for p in points):
        raise ZeroPointError("evaluation points must be nonzero")
    for p in points:
        field.check(p)
    if len(set(points)) != n:
        raise DuplicatePointError(f"evaluation points contain duplicates: {points}")
    pts = np.asarray(points, dtype=np.int64)
    rows = np.empty((n, n), dtype=np.int64)
    rows[0] = 1
    for i in range(1, n):
        rows[i] = field._products(rows[i - 1], pts)  # points checked above
    return EncodingMatrix(field, points, rows)


@lru_cache(maxsize=512)
def cached_vandermonde(k: int, poly: int, points: tuple[int, ...]) -> EncodingMatrix:
    """Memoized matrix construction for repeated store/recover cycles."""
    return build_vandermonde(get_field(k, poly), points)

