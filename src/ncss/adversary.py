"""Empirical and exact validation of the scheme's secrecy claims.

simulate_guess plays the eavesdropper who breached some clouds: every trial
draws the unseen digits uniformly and succeeds if the stream with those
digits in place decodes to the true plaintext. It scores that without a
parse or a decode, as digit equality. A^-1 is a bijection on F_q^n (the
manifest refuses zero, repeated or out-of-field points), so a candidate
block decodes to the true plaintext iff each of its elements is the true
one. A render of fixed length is the one base-d render of its value, so an
element is the true one iff its digits are. And a guessed digit group that
reaches q names no element; it differs from the true group, so it is a miss
automatically. A trial therefore succeeds iff every guessed digit equals
the true digit at its position, and the rate estimates d^-u for any
matrix: it tests no property of the code. Which blocks or plaintext symbols
a partial view pins down is what the exact audit below decides. Each chunk
of the draw (2^15 trials, the values of Generator.integers(0, d); see
_draws) is compared column by column with the true digits, keeping only the
rows still alive, so a seed returns the same float bit for bit.

entropy_audit decides exactly whether what an adversary observes (whole
coded components, or individual digits of fixed-width renders) carries any
information about the secret coordinates of a uniform plaintext:
H(S|E) = H(S). Evidence that is GF(2)-linear in the n*k plaintext bits is
audited by rank, with no plaintext enumerated. Multiplying by A[i, j] is
linear on bits, so each coded component is k bit rows, and at a
power-of-two base d = 2^a a digit is a of its component's bits. The
secret is the unit rows of its coordinates. Every fibre of a linear map is
a coset of its kernel, so every evidence group holds equally many
plaintexts and admits each of its secrets equally often: H(S|E) in bits is
exactly rank([E; S]) - rank(E), found by XOR-basis elimination over rows
held as Python ints (Cai & Yeung's wiretap bound for linear codes).
rank_audit is this path alone, without the enumeration bound.

Digits in any other base (d=3, d=10) are not linear, and entropy_audit
enumerates them: every plaintext of F_q^n on a grid of shape (q,)*n, the
renders of each component taken from the XOR of n tables of q products
A[i, j]*v broadcast along their axes. Observed digits number the evidence
groups by np.unique; joint (evidence, secret) keys are counted by one
np.unique, whose sort leaves each evidence group one run, and perfect
secrecy is decided by integer counting, no floats.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codec
from .codec import CodedStream, digit_length, expand_digits
from .errors import (
    BadBaseError,
    ConfigError,
    EnumerationTooLargeError,
    TooManyUnknownsError,
)
from . import storage
from .gf import EncodingMatrix, cached_vandermonde, check_count
from .planner import DistributionPlan

MAX_UNKNOWN_DIGITS = 40
# the largest digit base a store produces: strict mode needs log2(d) to
# divide k <= 16, alpha mode d^w <= 2^k
MAX_BASE = 1 << 16
MAX_ENUMERATION = 1 << 20
ALL_CLOUDS = "all"


# ---------------------------------------------------------------------------
# guess simulation


@dataclass(frozen=True)
class AttackScenario:
    """What one eavesdropper knows about a stored stream.

    The adversary holds the matrix and the manifest structure; observed
    stream positions carry known digits, the rest must be guessed. The
    stream is also the truth a guess is scored against. breach is carried
    for reporting only - the guessing game is played conditioned on the
    breach having succeeded.
    """

    matrix: EncodingMatrix
    d: int
    render_lengths: np.ndarray  # per element, stream order
    stream: np.ndarray  # full digit rendering, in codec.digit_dtype(d)
    unknown_positions: np.ndarray  # strictly increasing positions to guess
    breach: float | None = None

    def __post_init__(self) -> None:
        d = self.d
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
            raise ConfigError(f"digit base must be an integer, got {d!r}")
        if d < 2:
            raise BadBaseError(f"digit base must be >= 2, got {d}")
        if d > MAX_BASE:
            raise ConfigError(f"digit base must be <= {MAX_BASE}, got {d}")
        object.__setattr__(self, "d", int(d))
        lengths = np.asarray(self.render_lengths, dtype=np.int64)
        lengths.setflags(write=False)
        object.__setattr__(self, "render_lengths", lengths)
        # the digits stay in their base's narrow dtype, in which the guess
        # compares them with its draws
        stream = np.asarray(self.stream)
        if stream.dtype.kind not in "iu":  # whole floats cast as they always did
            stream = stream.astype(np.int64)
        stream = codec.as_digits(stream, d)
        object.__setattr__(self, "stream", codec.read_only(stream, self.stream))
        if self.stream.size != int(lengths.sum()):
            raise ConfigError("stream does not match its render lengths")
        # the draw assigns its columns to the positions in this order
        pos = np.asarray(self.unknown_positions)
        if pos.size == 0:  # an empty list arrives as float64
            pos = pos.astype(np.int64)
        if pos.dtype.kind not in "iu" or pos.ndim != 1 or pos.size and (
            pos[0] < 0 or pos[-1] >= self.stream.size or np.any(pos[1:] <= pos[:-1])
        ):
            raise ConfigError(
                "unknown_positions must be strictly increasing integer positions "
                f"in [0, {self.stream.size})"
            )
        pos = pos.astype(np.int64)
        pos.setflags(write=False)
        object.__setattr__(self, "unknown_positions", pos)

    @property
    def total_digits(self) -> int:
        return int(self.stream.size)

    @property
    def unknown_count(self) -> int:
        return int(self.unknown_positions.size)

    @property
    def observed_count(self) -> int:
        return self.total_digits - self.unknown_count


def _cloud_index(target, p: int) -> int | None:
    """None for every cloud (ALL_CLOUDS), else the index of one of p clouds."""
    if target == ALL_CLOUDS:
        return None
    is_int = isinstance(target, (int, np.integer)) and not isinstance(target, bool)
    if is_int and 0 <= target < p:
        return int(target)
    raise ConfigError(
        f"target must be {ALL_CLOUDS!r} or a cloud in [0, {p}), got {target!r}"
    )


def _hidden(total: int, cloud_runs, cloud: int | None) -> np.ndarray:
    """Stream positions outside the runs of one cloud (None: of every
    cloud): the gaps between the runs, sorted by start."""
    runs = sorted(
        (int(start), int(stop))
        for group in (cloud_runs if cloud is None else [cloud_runs[cloud]])
        for start, stop in group
    )
    gaps = []
    pos = 0
    for start, stop in runs:
        if start > pos:
            gaps.append(np.arange(pos, start, dtype=np.int64))
        pos = max(pos, stop)
    gaps.append(np.arange(pos, total, dtype=np.int64))
    return np.concatenate(gaps)


def scenario_from_plan(
    stream: CodedStream,
    plan: DistributionPlan,
    matrix: EncodingMatrix,
    target: int | str,
    breach: float | None = None,
) -> AttackScenario:
    """Scenario for an eavesdropper holding one cloud, or every cloud ("all")."""
    cloud = _cloud_index(target, len(plan.cloud_runs))
    return AttackScenario(
        matrix=matrix,
        d=plan.d,
        render_lengths=plan.render_lengths,
        stream=stream.render_digits,
        unknown_positions=_hidden(plan.total_digits, plan.cloud_runs, cloud),
        breach=breach,
    )


def scenario_from_storage(manifest, root, target: int | str) -> AttackScenario:
    """Owner-side audit scenario rebuilt from a stored dataset.

    Requires full access (all shards plus the local share) to know the
    ground truth; the adversary's view is then restricted to the target
    cloud, or to every cloud for the worst case ("all").
    """
    cloud = _cloud_index(target, manifest.p)
    stream = storage.assemble_stream(manifest, *storage.fetch_shards(manifest, root))
    stream.setflags(write=False)  # handed to the scenario without a copy
    matrix = cached_vandermonde(manifest.k, manifest.reduction_poly, manifest.points)
    return AttackScenario(
        matrix=matrix,
        d=manifest.d,
        render_lengths=manifest.element_lengths(),
        stream=stream,
        unknown_positions=_hidden(stream.size, manifest.cloud_runs, cloud),
        breach=None if cloud is None else manifest.breach[cloud],
    )


# 256 x an audit's 2^20 trials: about 14 s at 10 unknown bits on 2 vCPUs
MAX_TRIALS = 1 << 28
DRAW_PIECE = 1 << 14  # 32-bit halves turned into digits at a time


def _draws(rng, d: int, trials: int, chunk_size: int, u: int):
    """Each chunk's guesses, (chunk, u) digits: exactly what
    rng.integers(0, d, size=(chunk, u)) returns, chunk after chunk, for
    chunks of chunk_size trials and a last one of the rest.

    At d = 2^j Generator.integers never rejects (d is at most MAX_BASE, and
    this holds up to 2^32): each digit is the top j bits of the next 32-bit
    half of a raw PCG64 word, low half first, and an unused high half
    carries to the next chunk. Those digits are drawn here in pieces of
    DRAW_PIECE halves into one buffer in the digit dtype, reused by every
    chunk. Any other base draws by Generator.integers (int64)."""
    if not _is_power_of_two(d):
        for first in range(0, trials, chunk_size):
            yield rng.integers(0, d, size=(min(chunk_size, trials - first), u))
        return
    shift = 33 - d.bit_length()  # 32 - j
    buf = np.empty(chunk_size * u, dtype=codec.digit_dtype(d))
    spare = None  # the digit of a high half the last chunk left unused
    for first in range(0, trials, chunk_size):
        need = min(chunk_size, trials - first) * u
        pos = 0
        if spare is not None:
            buf[0], pos, spare = spare, 1, None
        while pos < need:
            piece = min(DRAW_PIECE, need - pos)
            raw = rng.bit_generator.random_raw((piece + 1) // 2)
            # each word as two little-endian halves: the low one first
            halves = raw.astype("<u8", copy=False).view("<u4")
            if halves.size > piece:  # only a chunk's last piece can be odd
                spare = halves[piece] >> shift
            np.right_shift(
                halves[:piece], shift, out=buf[pos : pos + piece], casting="unsafe"
            )
            pos += piece
        yield buf[:need].reshape(-1, u)


def simulate_guess(
    scenario: AttackScenario, trials: int, seed: int = 0
) -> float:
    """Fraction of uniform guesses that decode to the true plaintext.

    Deterministic for a fixed seed. The breach factor is not simulated;
    multiply by scenario.breach for the end-to-end guess probability.
    More than MAX_TRIALS trials are refused before any draw.
    """
    trials = check_count(trials, "trials", 1, MAX_TRIALS)
    seed = check_count(seed, "seed", 0)
    u = scenario.unknown_count
    if u > MAX_UNKNOWN_DIGITS:
        raise TooManyUnknownsError(
            f"{u} unknown digits exceed the {MAX_UNKNOWN_DIGITS}-digit bound"
        )
    if u == 0:
        return 1.0
    # a trial decodes to the plaintext iff every guessed digit is the true
    # one (see the module docstring): each column keeps the rows still alive
    truth = scenario.stream[scenario.unknown_positions]
    rng = np.random.default_rng(seed)
    successes = 0
    for guesses in _draws(rng, scenario.d, trials, min(1 << 15, trials), u):
        for j in range(u):
            guesses = guesses.take(np.flatnonzero(guesses[:, j] == truth[j]), axis=0)
            if not guesses.shape[0]:
                break
        successes += guesses.shape[0]
    return successes / trials


# ---------------------------------------------------------------------------
# exact secrecy audit


@dataclass(frozen=True)
class DigitSelection:
    """Digit-level view: fixed-width renders with some positions withheld.

    withheld lists (component, digit index) pairs the adversary never sees;
    every other digit of every component is observed. Width defaults to the
    smallest that fits any field element, so no length information leaks.
    """

    d: int
    withheld: tuple[tuple[int, int], ...]
    width: int | None = None

    def resolved_width(self, q: int) -> int:
        return self.width if self.width is not None else digit_length(q - 1, self.d)


@dataclass(frozen=True)
class EntropyReport:
    """Exact secrecy accounting for uniform plaintext.

    perfect is decided exactly, by GF(2) ranks or integer counts. Entropies
    are reported in bits (floats) and, when every conditional distribution
    is uniform over a power-of-q support, exactly in base-q symbols as
    Fractions.
    """

    k: int
    n: int
    w: int
    t: int
    selection_id: str
    h_s_bits: float
    h_s_given_e_bits: float
    h_s_symbols: Fraction | None
    h_s_given_e_symbols: Fraction | None
    perfect: bool


def _audit_inputs(n: int, w, t, selection, secret):
    """Validated audit arguments: (secret coordinates, DigitSelection or
    None, observed components, selection id)."""
    for name, value in (("w", w), ("t", t)):
        if value is not None and value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    if secret is None:
        if w is None:
            raise ConfigError("need w or an explicit secret coordinate set")
        secret = tuple(range(w))
    secret = tuple(int(i) for i in secret)
    if any(not 0 <= i < n for i in secret) or len(set(secret)) != len(secret):
        raise ConfigError(f"secret coordinates invalid for n={n}: {secret}")
    if isinstance(selection, DigitSelection):
        sel_id = "digits:" + ",".join(f"{c}.{i}" for c, i in selection.withheld)
        return secret, selection, (), sel_id
    if selection is None:
        if t is None:
            raise ConfigError("need t or an explicit selection")
        selection = tuple(range(t))
    observed = tuple(int(i) for i in selection)
    if any(not 0 <= i < n for i in observed):
        raise ConfigError(f"component selection invalid for n={n}")
    return secret, None, observed, "components:" + ",".join(map(str, observed))


def _withheld_cells(sel: DigitSelection, k: int, n: int) -> tuple[int, set[int]]:
    """The render width of a digit selection and its withheld cells, each
    numbered component * width + digit index."""
    width = sel.resolved_width(1 << k)
    if sel.d**width < 1 << k:
        raise ConfigError(f"width {width} cannot render every element of GF(2^{k})")
    if any(not (0 <= comp < n and 0 <= pos < width) for comp, pos in sel.withheld):
        raise ConfigError(f"withheld digit outside the {n} components of {width} digits")
    return width, {comp * width + pos for comp, pos in sel.withheld}


def _is_power_of_two(d: int) -> bool:
    return d >= 2 and d & (d - 1) == 0


def _report(k, n, secret, t, sel_id, h_se_bits, h_se_sym, perfect) -> EntropyReport:
    """The report of an audit; the secret of uniform plaintext holds k bits
    per coordinate."""
    w = len(secret)
    return EntropyReport(
        k=k, n=n, w=w, t=t, selection_id=sel_id,
        h_s_bits=float(k * w), h_s_given_e_bits=h_se_bits,
        h_s_symbols=Fraction(w), h_s_given_e_symbols=h_se_sym, perfect=perfect,
    )


def _bit_rows(matrix: EncodingMatrix) -> list[int]:
    """The code over GF(2): row i*k + r is bit r of coded component i as a
    function of the n*k plaintext bits, bit j*k + s of the row standing for
    bit s of coordinate j. Multiplying by A[i, j] is GF(2)-linear, so that
    bit of the row is bit r of A[i, j] * 2^s."""
    field = matrix.field
    k, n = field.k, matrix.n
    bits = np.arange(k)
    # products[i, j, s] = A[i, j] * 2^s
    products = field._products(matrix.rows[:, :, None], 1 << bits)
    rows = []
    for comp in products:
        # table[r, j, s]: bit r of A[i, j] * 2^s
        table = (comp >> bits[:, None, None]) & 1
        packed = np.packbits(
            table.reshape(k, n * k).astype(np.uint8), axis=1, bitorder="little"
        )
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return rows


def _rank_gain(basis: dict[int, int], rows) -> int:
    """How many of rows are independent of basis and of each other: each
    row is XOR-reduced by the basis row of its leading bit, and joins basis
    under the leading bit it is left with, if any."""
    gain = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                gain += 1
                break
            row ^= pivot
    return gain


def _rank_report(matrix, secret, sel, observed, sel_id) -> EntropyReport:
    """The audit of linear evidence, by GF(2) rank: H(S|E) in bits is
    rank([E; S]) - rank(E)."""
    k, n = matrix.field.k, matrix.n
    if sel is None:
        seen = [i * k + r for i in observed for r in range(k)]
    else:
        width, hidden = _withheld_cells(sel, k, n)
        # bit r of a component is in digit width - 1 - r // a of its render
        # at d = 2^a; the digits' bits at or above k are always zero
        a = int(sel.d).bit_length() - 1
        seen = [
            i * k + r for i in range(n) for r in range(k)
            if i * width + width - 1 - r // a not in hidden
        ]
    rows = _bit_rows(matrix)
    basis: dict[int, int] = {}
    _rank_gain(basis, (rows[x] for x in seen))
    gain = _rank_gain(basis, (1 << (j * k + s) for j in secret for s in range(k)))
    return _report(
        k, n, secret, len(observed), sel_id, float(gain),
        Fraction(gain // k) if gain % k == 0 else None, gain == k * len(secret),
    )


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(-(p * np.log2(p)).sum())


def _grid_key(parts: np.ndarray, k: int) -> np.ndarray:
    """Keys of every plaintext in F_q^n on a grid of shape (q,)*n: digit p
    (k bits, first most significant) is the XOR over j of parts[p, j, b_j]."""
    m, n, _ = parts.shape
    shifts = k * np.arange(m - 1, -1, -1, dtype=np.int64)
    tables = np.bitwise_or.reduce(parts << shifts[:, None, None], axis=0)
    tables = tables.astype(np.min_scalar_type((1 << (k * m)) - 1))
    key = tables[0]
    for j in range(1, n):
        key = key[..., None] ^ tables[j]
    return key


def _enumerated_report(matrix, secret, sel, sel_id) -> EntropyReport:
    """The audit of digit evidence by enumeration: every plaintext of
    F_q^n, grouped by its observed digits, and counted."""
    field = matrix.field
    k, q, n = field.k, field.q, matrix.n
    width, hidden = _withheld_cells(sel, k, n)
    w = len(secret)
    total, q_w, shift = q**n, q**w, k * w
    values = np.arange(q, dtype=np.int64)
    # products[i, j, v] = A[i, j] * v: every product the enumeration needs
    products = field.mul_arr(matrix.rows[:, :, None], values)
    renders = np.empty((total, n * width), dtype=np.uint8)
    for comp in range(n):
        c = _grid_key(products[comp : comp + 1], k).reshape(-1)
        renders[:, comp * width : (comp + 1) * width] = expand_digits(
            c, sel.d, width, np.uint8
        )
    seen = np.delete(renders, sorted(hidden), axis=1)
    if seen.shape[1] == 0:
        ev_ids = np.zeros(total, dtype=np.int64)
    else:
        packed = np.ascontiguousarray(seen).view(np.dtype((np.void, seen.shape[1])))
        _, ev_ids = np.unique(packed.reshape(-1), return_inverse=True)
    # joint key: the evidence group, then the secret coordinates in base q
    sec_key = _grid_key(np.eye(n, dtype=np.int64)[list(secret), :, None] * values, k)
    joint = (ev_ids.reshape(sec_key.shape) << shift) | sec_key
    ev_count = np.bincount(ev_ids.reshape(-1))
    # joint keys sort by evidence, then secret: each evidence group is a run
    jkeys, jcounts = np.unique(joint.reshape(-1), return_counts=True)
    support = np.bincount(jkeys >> shift)
    starts = np.cumsum(support) - support
    uniform = bool(np.array_equal(
        np.minimum.reduceat(jcounts, starts), np.maximum.reduceat(jcounts, starts)
    ))
    h_se_bits = max(0.0, _entropy_bits(jcounts, total) - _entropy_bits(ev_count, total))
    # log_q of every support size (at most q^w), -1 where it is not a power
    log_q = np.full(q_w + 1, -1, dtype=np.int64)
    log_q[q ** np.arange(w + 1)] = np.arange(w + 1)
    js = log_q[support]
    exact = uniform and bool(np.all(js >= 0))
    return _report(
        k, n, secret, 0, sel_id, h_se_bits,
        Fraction(int(ev_count @ js), total) if exact else None,
        uniform and bool(np.all(support == q_w)),
    )


def entropy_audit(
    matrix: EncodingMatrix,
    w: int | None = None,
    t: int | None = None,
    selection=None,
    secret: tuple[int, ...] | None = None,
) -> EntropyReport:
    """Exact H(S) and H(S|E) for uniform plaintext in F_q^n, q^n at most
    MAX_ENUMERATION.

    S is the plaintext restricted to the secret coordinates (the first w by
    default). The evidence E is either t whole coded components (selection
    as component indices, default the first t), or a DigitSelection naming
    withheld digit positions of fixed-width renders. Evidence linear over
    GF(2) (components, digits at a power-of-two base) is audited by rank,
    any other by enumerating F_q^n.
    """
    q, n = matrix.field.q, matrix.n
    if q**n > MAX_ENUMERATION:
        raise EnumerationTooLargeError(
            f"q^n = {q}^{n} exceeds the enumeration bound {MAX_ENUMERATION}"
        )
    secret, sel, observed, sel_id = _audit_inputs(n, w, t, selection, secret)
    if sel is not None:
        if sel.d > 256:
            raise ConfigError("digit-level audit supports d <= 256")
        if not _is_power_of_two(sel.d):
            return _enumerated_report(matrix, secret, sel, sel_id)
    return _rank_report(matrix, secret, sel, observed, sel_id)


def rank_audit(
    matrix: EncodingMatrix,
    w: int | None = None,
    t: int | None = None,
    selection=None,
    secret: tuple[int, ...] | None = None,
) -> EntropyReport:
    """entropy_audit's report for evidence linear over GF(2), at any q^n.

    Takes the same arguments; a DigitSelection must have a power-of-two
    base, since digits in any other base are not linear in the plaintext
    bits.
    """
    secret, sel, observed, sel_id = _audit_inputs(matrix.n, w, t, selection, secret)
    if sel is not None and not _is_power_of_two(sel.d):
        raise ConfigError(f"rank audit needs a power-of-two digit base, got d={sel.d}")
    return _rank_report(matrix, secret, sel, observed, sel_id)


AUDIT_COLUMNS = ["k", "n", "w", "t", "selection", "h_s", "h_s_given_e", "perfect"]


def audit_csv(reports: list[EntropyReport]) -> str:
    """One CSV row per report; entropies in base-q symbols."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(AUDIT_COLUMNS)
    for r in reports:
        h_s = float(r.h_s_symbols) if r.h_s_symbols is not None else r.h_s_bits / r.k
        h_se = (
            float(r.h_s_given_e_symbols)
            if r.h_s_given_e_symbols is not None
            else r.h_s_given_e_bits / r.k
        )
        writer.writerow([r.k, r.n, r.w, r.t, r.selection_id, h_s, h_se, r.perfect])
    return buf.getvalue()
