"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (shift-and-reduce products, exhaustive
searches, full enumerations) and shares no code with src/ncss.
"""

import itertools
import math

import numpy as np


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


def slow_bytes_to_digits(data: bytes, d: int) -> list[int]:
    """Each byte as 8 / log2(d) big-endian base-d digits, one byte at a time."""
    per = 8 // (d.bit_length() - 1)
    out = []
    for byte in data:
        out.extend(to_digits(byte, d, per))
    return out


def slow_pack(digits, d: int) -> bytes:
    """Shard payload: log2(d) big-endian bits per digit for power-of-two d,
    zero-padded to whole bytes; one byte per digit otherwise."""
    j = d.bit_length() - 1
    if 1 << j != d:
        return bytes(int(x) for x in digits)
    bits = []
    for x in digits:
        bits.extend(to_digits(int(x), 2, j))
    bits.extend([0] * (-len(bits) % 8))
    return bytes(from_digits(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _runs(owners, who):
    """Maximal half-open runs of the positions owners marks as who."""
    runs = []
    for pos, owner in enumerate(owners):
        if owner != who:
            continue
        if runs and runs[-1][1] == pos:
            runs[-1][1] = pos + 1
        else:
            runs.append([pos, pos + 1])
    return tuple(tuple(run) for run in runs)


def plan_runs(lengths, caps):
    """Cloud and local runs of a distribution plan, digit by digit.

    Local digits: in rounds, one more leading digit of each component that
    has one left, visiting components from the stream tail, until the
    caps absorb the rest. Cloud counts: greedy in descending-cap order.
    The non-local digits go, in stream order, to cloud 0, then cloud 1, ...
    """
    total = sum(lengths)
    need = max(0, total - sum(caps))
    prefix = [0] * len(lengths)
    while need:
        for e in reversed(range(len(lengths))):
            if need and prefix[e] < lengths[e]:
                prefix[e] += 1
                need -= 1
    owners = []
    for size, kept in zip(lengths, prefix):
        owners.extend(["local"] * kept + [None] * (size - kept))
    remaining = total - sum(prefix)
    counts = [0] * len(caps)
    for i in sorted(range(len(caps)), key=lambda i: (-caps[i], i)):
        counts[i] = min(caps[i], remaining)
        remaining -= counts[i]
    free = (pos for pos, owner in enumerate(owners) if owner is None)
    for cloud, count in enumerate(counts):
        for _ in range(count):
            owners[next(free)] = cloud
    return tuple(_runs(owners, c) for c in range(len(caps))), _runs(owners, "local")


def slow_guess(scenario, trials: int, seed: int = 0) -> float:
    """simulate_guess one trial at a time: the same chunked draw of the
    unseen digits, the candidate stream parsed element by element (a digit
    group at or above q is a miss), every block decoded on its own with
    slow_mat_vec and compared with the decoded truth, which is the
    scenario's own stream parsed the same way."""
    field, n, d = scenario.matrix.field, scenario.matrix.n, scenario.d
    poly, k, q = field.poly, field.k, 1 << field.k
    inv = scenario.matrix.inverse().tolist()
    lengths = scenario.render_lengths.tolist()

    def parse(stream):
        values, pos = [], 0
        for size in lengths:
            values.append(from_digits(stream[pos : pos + size], d))
            pos += size
        return values

    elements = parse(scenario.stream.tolist())
    truth = [
        slow_mat_vec(inv, elements[i : i + n], poly, k)
        for i in range(0, len(elements), n)
    ]
    unknown = scenario.unknown_positions.tolist()
    if not unknown:
        return 1.0
    rng = np.random.default_rng(seed)
    chunk = max(1, min(1 << 15, trials))
    successes = 0
    for start in range(0, trials, chunk):
        draw = rng.integers(0, d, size=(min(chunk, trials - start), len(unknown)))
        for guess in draw.tolist():
            stream = scenario.stream.tolist()
            for pos, digit in zip(unknown, guess):
                stream[pos] = digit
            values = parse(stream)
            if max(values) >= q:
                continue
            successes += all(
                slow_mat_vec(inv, values[i : i + n], poly, k) == want
                for i, want in zip(range(0, len(values), n), truth)
            )
    return successes / trials
