"""Empirical and exact validation of the scheme's secrecy claims.

simulate_guess plays the eavesdropper who breached some clouds: every trial
draws the unseen digits uniformly, reassembles a candidate codeword stream,
decodes it, and scores a success only if the decoded plaintext matches.
Only the blocks holding an unseen digit (the touched blocks) are decoded to
their plaintext truth; with no unseen digit every guess succeeds and
nothing is decoded. A static plan, built once, lists per touched block each
element holding unseen digits: its known part, the guess column and place
value of each unseen digit, and whether its largest reachable value reaches
q (only then can a guess name a digit group no element renders to, a miss).
Each candidate column is one multiply-add per unseen digit, decoded through
Field.mat_vec_batch. A block with u_b unseen digits has d^u_b candidates;
when they number at most one chunk's trials, min(trials, 2^15), each is
decoded once, up front, into a table of hits, and a trial looks up its key
sum(guess[columns[i]] * d^i). Larger blocks decode trial by trial. Blocks
run in stream order, each only for the trials every earlier block left
alive: success is the AND over blocks, the same function of a trial's
digits on both paths, so the draw (int64, 2^15 trials a chunk) fixes the
count and a seed returns the same float bit for bit. Where every touched
block takes the table, the multiplications a field's OpCounter counts do
not depend on the seed.

entropy_audit enumerates every plaintext vector in F_q^n, groups them by
what an adversary observes (whole components, or individual digits of
fixed-width renders), and decides exactly - by integer counting, no floats -
whether the observations carry zero information about the secret
coordinates: H(S|E) = H(S).

The enumeration is a grid of shape (q,)*n, one axis per plaintext
coordinate. A key packing codeword components and secret coordinates in base
q is the XOR of n tables of q keys, built from the q*n^2 products A[i, j]*v
and broadcast along their axes. Evidence keys are counted by bincount (key
order numbers the groups as np.unique would), joint (evidence, secret) keys
by one np.unique, whose sort leaves each evidence group one run.
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
    ConfigError,
    EnumerationTooLargeError,
    TooManyUnknownsError,
)
from .gf import EncodingMatrix
from .planner import DistributionPlan

MAX_UNKNOWN_DIGITS = 40
MAX_ENUMERATION = 1 << 20
ALL_CLOUDS = "all"


# ---------------------------------------------------------------------------
# guess simulation


@dataclass(frozen=True)
class AttackScenario:
    """What one eavesdropper knows about a stored stream.

    The adversary holds the matrix and the manifest structure; observed
    stream positions carry known digits, the rest must be guessed. breach
    is carried for reporting only - the guessing game is played conditioned
    on the breach having succeeded.
    """

    matrix: EncodingMatrix
    d: int
    true_elements: np.ndarray  # (blocks, n)
    render_lengths: np.ndarray  # per element, stream order
    stream: np.ndarray  # full digit rendering
    unknown_positions: np.ndarray  # sorted stream positions to guess
    breach: float | None = None

    def __post_init__(self) -> None:
        for name in ("true_elements", "render_lengths", "stream", "unknown_positions"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.stream.size != int(self.render_lengths.sum()):
            raise ConfigError("stream does not match its render lengths")

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
    """Stream positions outside the runs of one cloud (None: of every cloud)."""
    known = np.zeros(total, dtype=bool)
    for runs in cloud_runs if cloud is None else [cloud_runs[cloud]]:
        for start, stop in runs:
            known[start:stop] = True
    return np.flatnonzero(~known)


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
        true_elements=stream.elements.reshape(-1, matrix.n),
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
    from . import storage
    from .gf import cached_vandermonde

    cloud = _cloud_index(target, manifest.p)
    stream = storage.assemble_stream(manifest, *storage.fetch_shards(manifest, root))
    lengths = manifest.element_lengths()
    elements = codec.parse_renders(stream, lengths, manifest.d)
    matrix = cached_vandermonde(manifest.k, manifest.reduction_poly, manifest.points)
    return AttackScenario(
        matrix=matrix,
        d=manifest.d,
        true_elements=elements.reshape(manifest.block_count, manifest.n),
        render_lengths=lengths,
        stream=stream,
        unknown_positions=_hidden(stream.size, manifest.cloud_runs, cloud),
        breach=None if cloud is None else manifest.breach[cloud],
    )


def _guess_plan(scenario: AttackScenario) -> list[tuple[int, list]]:
    """Per touched block, in stream order: (block, slots). A slot is
    (component, known part, [(guess column, place value)], can_overflow);
    can_overflow holds where the element's largest reachable value,
    known + (d-1) * sum(place), reaches q."""
    n, d, q = scenario.matrix.n, scenario.d, scenario.matrix.field.q
    bounds = np.concatenate([[0], np.cumsum(scenario.render_lengths)])
    unknown = scenario.unknown_positions
    elem_of = np.searchsorted(bounds, unknown, side="right") - 1
    plan: list[tuple[int, list]] = []
    for e in np.unique(elem_of).tolist():
        start, stop = int(bounds[e]), int(bounds[e + 1])
        cols = np.flatnonzero(elem_of == e).tolist()
        digits = scenario.stream[start:stop].tolist()
        places = [d ** (stop - 1 - int(unknown[j])) for j in cols]
        for j in cols:
            digits[int(unknown[j]) - start] = 0
        known = 0
        for digit in digits:
            known = known * d + digit
        reach = known + (d - 1) * sum(places)
        slot = (e % n, known, list(zip(cols, places)), reach >= q)
        if plan and plan[-1][0] == e // n:
            plan[-1][1].append(slot)
        else:
            plan.append((e // n, [slot]))
    return plan


def _block_hits(field, inv, elements, truth, slots, guesses) -> np.ndarray:
    """Whether each row of guesses (digits by guess column) decodes one
    block to its plaintext truth. Each candidate column is one multiply-add
    per unseen digit on the block's true elements, a can_overflow group
    reaching q is a miss, and one Field.mat_vec_batch decodes them all."""
    n = elements.size
    # one row per component, so each column of the batch is contiguous
    cols = np.empty((n, guesses.shape[0]), dtype=np.int64)
    cols[:] = elements[:, None]
    ok = None
    for slot, known, terms, can_overflow in slots:
        value = cols[slot]
        (j, place), *rest = terms
        np.multiply(guesses[:, j], place, out=value)
        for j, place in rest:
            value += guesses[:, j] * place
        if known:
            value += known
        if can_overflow:
            # a digit group no field element renders to is a wrong guess
            bad = value >= field.q
            value[bad] = 0
            ok = ~bad if ok is None else ok & ~bad
    decoded = field.mat_vec_batch(inv, cols.T)
    hit = decoded[:, 0] == truth[0]
    for i in range(1, n):
        hit &= decoded[:, i] == truth[i]
    if ok is not None:
        hit &= ok
    return hit


def _checked_count(value, name: str, low: int) -> int:
    """value as an int of at least low; a bool or a non-integer is refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)


def simulate_guess(
    scenario: AttackScenario, trials: int, seed: int = 0
) -> float:
    """Fraction of uniform guesses that decode to the true plaintext.

    Deterministic for a fixed seed. The breach factor is not simulated;
    multiply by scenario.breach for the end-to-end guess probability.
    """
    trials = _checked_count(trials, "trials", 1)
    seed = _checked_count(seed, "seed", 0)
    u = scenario.unknown_count
    if u > MAX_UNKNOWN_DIGITS:
        raise TooManyUnknownsError(
            f"{u} unknown digits exceed the {MAX_UNKNOWN_DIGITS}-digit bound"
        )
    if u == 0:
        return 1.0
    field = scenario.matrix.field
    inv = scenario.matrix.inverse()
    d = scenario.d
    touched = _guess_plan(scenario)
    # the plaintext truth of the touched blocks only
    truths = field.mat_vec_batch(
        inv, scenario.true_elements[[blk for blk, _ in touched]]
    )

    chunk_size = min(1 << 15, trials)
    # per touched block, in stream order: (elements, truth, slots, columns,
    # powers, table). A block of at most chunk_size digit patterns decodes
    # each pattern once into table; a trial then looks up its pattern's
    # key, sum(guess[columns[i]] * d^i). Other blocks decode trial by trial.
    steps = []
    for (blk, slots), truth in zip(touched, truths):
        elements = scenario.true_elements[blk]
        columns = sorted({j for *_, terms, _ in slots for j, _ in terms})
        powers = d ** np.arange(len(columns), dtype=np.int64)
        table = None
        if d ** len(columns) <= chunk_size:
            local = {j: i for i, j in enumerate(columns)}
            table = _block_hits(
                field, inv, elements, truth,
                [(c, known, [(local[j], place) for j, place in terms], over)
                 for c, known, terms, over in slots],
                np.arange(d ** len(columns))[:, None] // powers % d,
            )
        # sorted unknown positions give each block one run of columns
        if columns[-1] - columns[0] == len(columns) - 1:
            columns = slice(columns[0], columns[-1] + 1)
        steps.append((elements, truth, slots, columns, powers, table))

    rng = np.random.default_rng(seed)
    successes = 0
    left = trials
    while left > 0:
        chunk = min(chunk_size, left)
        guesses = rng.integers(0, d, size=(chunk, u))
        # success is the AND over blocks: each block after the first sees
        # only the trials every earlier block left alive
        for elements, truth, slots, columns, powers, table in steps:
            if table is None:
                hit = _block_hits(field, inv, elements, truth, slots, guesses)
            else:
                hit = table[guesses[:, columns] @ powers]
            guesses = guesses.take(np.flatnonzero(hit), axis=0)
            if not guesses.shape[0]:
                break
        successes += guesses.shape[0]
        left -= chunk
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
    """Exact secrecy accounting from a full enumeration.

    perfect is decided by integer count identities. Entropies are reported
    in bits (floats) and, when every conditional distribution is uniform
    over a power-of-q support, exactly in base-q symbols as Fractions.
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


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / total
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


def entropy_audit(
    matrix: EncodingMatrix,
    w: int | None = None,
    t: int | None = None,
    selection=None,
    secret: tuple[int, ...] | None = None,
) -> EntropyReport:
    """Exact H(S) and H(S|E) over all plaintexts in F_q^n.

    S is the plaintext restricted to the secret coordinates (the first w by
    default). The evidence E is either t whole coded components (selection
    as component indices, default the first t), or a DigitSelection naming
    withheld digit positions of fixed-width renders.
    """
    field = matrix.field
    q, n = field.q, matrix.n
    if q**n > MAX_ENUMERATION:
        raise EnumerationTooLargeError(
            f"q^n = {q}^{n} exceeds the enumeration bound {MAX_ENUMERATION}"
        )
    for name, value in (("w", w), ("t", t)):
        if value is not None and value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    if secret is None:
        if w is None:
            raise ConfigError("need w or an explicit secret coordinate set")
        secret = tuple(range(w))
    secret = tuple(int(i) for i in secret)
    w = len(secret)
    if any(not 0 <= i < n for i in secret) or len(set(secret)) != w:
        raise ConfigError(f"secret coordinates invalid for n={n}: {secret}")

    if isinstance(selection, DigitSelection):
        sel = selection
        observed_components: tuple[int, ...] = ()
        t_eff = 0
        sel_id = "digits:" + ",".join(f"{c}.{i}" for c, i in sel.withheld)
    else:
        if selection is None:
            if t is None:
                raise ConfigError("need t or an explicit selection")
            selection = tuple(range(t))
        observed_components = tuple(int(i) for i in selection)
        if any(not 0 <= i < n for i in observed_components):
            raise ConfigError(f"component selection invalid for n={n}")
        t_eff = len(observed_components)
        sel = None
        sel_id = "components:" + ",".join(str(i) for i in observed_components)

    k, total, q_w, shift = field.k, q**n, q**w, field.k * w
    values = np.arange(q, dtype=np.int64)
    # products[i, j, v] = A[i, j] * v: every product the enumeration needs
    products = field._mul_arr(matrix.rows[:, :, None], values)
    # secret key: the secret coordinates packed in base q
    secret_parts = np.eye(n, dtype=np.int64)[list(secret), :, None] * values
    sec_key = _grid_key(secret_parts, k)

    # evidence: group plaintexts by what the adversary sees
    if sel is None:
        # a repeated component adds no evidence and leaves the key order alone
        observed = list(dict.fromkeys(observed_components))
        joint = _grid_key(np.concatenate([products[observed], secret_parts]), k)
    else:
        if sel.d > 256:
            raise ConfigError("digit-level audit supports d <= 256")
        width = sel.resolved_width(q)
        if sel.d**width < q:
            raise ConfigError(
                f"width {width} cannot render every element of GF(2^{k})"
            )
        renders = np.empty((total, n * width), dtype=np.uint8)
        for comp in range(n):
            c = _grid_key(products[comp : comp + 1], k).reshape(-1)
            renders[:, comp * width : (comp + 1) * width] = expand_digits(
                c, sel.d, width, np.uint8
            )
        hidden = [comp * width + pos for comp, pos in sel.withheld]
        if any(not 0 <= h < n * width for h in hidden):
            raise ConfigError("withheld digit position out of range")
        observed = np.delete(renders, hidden, axis=1)
        if observed.shape[1] == 0:
            ev_ids = np.zeros(total, dtype=np.int64)
        else:
            packed = np.ascontiguousarray(observed).view(
                np.dtype((np.void, observed.shape[1]))
            )
            _, ev_ids = np.unique(packed.reshape(-1), return_inverse=True)
        joint = (ev_ids.reshape(sec_key.shape) << shift) | sec_key

    # evidence keys are below q^t (components) or group ids (digits)
    ev_count = np.bincount((joint >> shift).reshape(-1).astype(np.intp))
    seen = ev_count > 0
    # joint keys sort by evidence, then secret: each evidence group is a run
    jkeys, jcounts = np.unique(joint.reshape(-1), return_counts=True)
    j_ev = (jkeys >> shift).astype(np.intp)
    support = np.bincount(j_ev, minlength=seen.size)[seen]
    ev_count = ev_count[seen]
    starts = np.cumsum(support) - support
    uniform = bool(np.array_equal(
        np.minimum.reduceat(jcounts, starts), np.maximum.reduceat(jcounts, starts)
    ))
    perfect = uniform and bool(np.all(support == q_w))

    m_counts = np.bincount(sec_key.reshape(-1), minlength=q_w)
    h_s_bits = _entropy_bits(m_counts, total)
    h_joint = _entropy_bits(jcounts, total)
    h_e = _entropy_bits(ev_count, total)
    h_se_bits = max(0.0, h_joint - h_e)

    # log_q of every support size (at most q^w), -1 where it is not a power
    log_q = np.full(q_w + 1, -1, dtype=np.int64)
    log_q[q ** np.arange(w + 1)] = np.arange(w + 1)
    j, js = int(log_q[np.count_nonzero(m_counts)]), log_q[support]
    h_s_sym = Fraction(j) if j >= 0 and np.all(m_counts == m_counts[0]) else None
    exact = uniform and bool(np.all(js >= 0))
    h_se_sym = Fraction(int(ev_count @ js), total) if exact else None

    return EntropyReport(
        k=field.k,
        n=n,
        w=w,
        t=t_eff,
        selection_id=sel_id,
        h_s_bits=h_s_bits,
        h_s_given_e_bits=h_se_bits,
        h_s_symbols=h_s_sym,
        h_s_given_e_symbols=h_se_sym,
        perfect=perfect,
    )


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
