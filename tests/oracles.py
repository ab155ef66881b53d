"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (shift-and-reduce products, exhaustive
searches, full enumerations) and shares no code with src/ncss.
"""

import itertools
import math


def slow_mul(a: int, b: int, poly: int, k: int) -> int:
    """Carryless product reduced mod poly, one shift at a time."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= poly
    return r


def mul_table(poly: int, k: int) -> list[list[int]]:
    """Full q x q multiplication table via slow_mul."""
    q = 1 << k
    return [[slow_mul(a, b, poly, k) for b in range(q)] for a in range(q)]


def inv_by_search(a: int, poly: int, k: int) -> int:
    """Multiplicative inverse found by scanning all nonzero elements."""
    if a == 0:
        raise ZeroDivisionError
    for b in range(1, 1 << k):
        if slow_mul(a, b, poly, k) == 1:
            return b
    raise AssertionError(f"{a} has no inverse; {poly:#x} not irreducible?")


def slow_pow(a: int, e: int, poly: int, k: int) -> int:
    r = 1
    for _ in range(e):
        r = slow_mul(r, a, poly, k)
    return r


def slow_mat_vec(m, v, poly, k):
    out = []
    for row in m:
        acc = 0
        for mij, vj in zip(row, v):
            acc ^= slow_mul(mij, vj, poly, k)
        out.append(acc)
    return out


def digit_len(value: int, d: int) -> int:
    """Minimal base-d digit count, with zero occupying one digit."""
    if value == 0:
        return 1
    n = 0
    while value:
        value //= d
        n += 1
    return n


def to_digits(value: int, d: int, width: int) -> list[int]:
    """Big-endian base-d digits, zero-padded on the left to width."""
    out = []
    for _ in range(width):
        out.append(value % d)
        value //= d
    return out[::-1]


def from_digits(digits, d: int) -> int:
    v = 0
    for dig in digits:
        v = v * d + dig
    return v


def all_vectors(q: int, n: int):
    """Every vector in F_q^n as tuples."""
    return itertools.product(range(q), repeat=n)


def min_alpha_width(k: int, d: int, alpha: float) -> int:
    """Smallest s with s >= log_d(2^k - 1) / alpha, by scanning upward."""
    target = math.log(2**k - 1) / math.log(d)
    s = 1
    while s * alpha < target - 1e-12:
        s += 1
    return s


def _crc32c_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
        table.append(crc)
    return table


CRC32C_TABLE = _crc32c_table()


def slow_crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (reflected Castagnoli), one byte at a time."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ CRC32C_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF
