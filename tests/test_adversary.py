import dataclasses
import functools
import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ncss import adversary, codec, gf, pipeline, planner, storage
from ncss.adversary import AttackScenario, DigitSelection, EntropyReport
from ncss.codec import ALPHA_BOUNDED, STRICT
from ncss.errors import (
    ConfigError,
    EnumerationTooLargeError,
    TooManyUnknownsError,
)

import oracles


def make_scenario(k, d, n, seed, unknown, mode=STRICT, alpha=None):
    """Single-block scenario with `unknown` hidden digit positions."""
    spec = gf.FieldSpec(k=k, d=d)
    rng = np.random.default_rng(seed)
    width = (
        codec.strict_width(k, d)
        if mode == STRICT
        else codec.min_width_alpha(k, d, alpha)
    )
    plan = codec.GroupingPlan(
        mode=mode, d=d, k=k, width=width, r=n, pad_count=0, alpha=alpha
    )
    a = gf.build_vandermonde(spec, gf.default_points(n))
    b = rng.integers(0, d, size=n * width)
    block = codec.encode_block(a, codec.regroup(codec.DigitString(d, b), plan), plan)
    total = block.total_digits
    positions = rng.choice(total, size=unknown, replace=False)
    return AttackScenario(
        matrix=a,
        d=d,
        render_lengths=block.render_lengths,
        stream=block.render_digits,
        unknown_positions=np.sort(positions),
    )


def stream_scenario(k, d, n, blocks, seed, positions):
    """Strict multi-block scenario hiding the given stream positions."""
    spec = gf.FieldSpec(k=k, d=d)
    width = codec.strict_width(k, d)
    plan = codec.GroupingPlan(
        mode=STRICT, d=d, k=k, width=width, r=n * blocks, pad_count=0
    )
    a = gf.build_vandermonde(spec, gf.default_points(n))
    b = np.random.default_rng(seed).integers(0, d, size=n * blocks * width)
    stream = codec.encode_stream(codec.DigitString(d, b), plan, a)
    return AttackScenario(
        matrix=a,
        d=d,
        render_lengths=stream.render_lengths,
        stream=stream.render_digits,
        unknown_positions=np.array(positions),
    )


def stored_scenario(mode, alpha):
    """Cloud 0's view of an 8-byte message stored the way the audit
    benchmark stores one: k=8, d=2, n=4, one cloud breached surely, pu =
    2^-10, so the local share keeps 10 digits."""
    root = storage.MemoryRoot(1)
    pipeline.store_digits(
        pipeline.bytes_to_digits(b"ncss:8B!", 2), root, gf.FieldSpec(k=8, d=2),
        n=4, profile=planner.SecurityProfile(breach=(1.0,), pu=2.0**-10),
        mode=mode, alpha=alpha,
    )
    return adversary.scenario_from_storage(pipeline.load_manifest(root), root, 0)


GUESS_SCENARIOS = {
    "audit-strict": lambda: stored_scenario(STRICT, None),
    "audit-alpha5": lambda: stored_scenario(ALPHA_BOUNDED, 5.0),
    # base-3 renders of GF(8) reach 8 in two digits: guesses can overflow
    "d3-overflow": lambda: make_scenario(
        k=3, d=3, n=6, seed=8, unknown=4, mode=ALPHA_BOUNDED, alpha=2
    ),
    "k16-d16": lambda: make_scenario(k=16, d=16, n=5, seed=3, unknown=3),
    # two hidden digits in each of three blocks
    "three-blocks": lambda: stream_scenario(
        k=4, d=2, n=3, blocks=3, seed=5, positions=[1, 6, 13, 14, 30, 35]
    ),
}


@functools.lru_cache(maxsize=None)
def oracle_codewords(k, poly, points):
    """Every (plaintext, codeword) pair of the Vandermonde code, naively."""
    n = len(points)
    rows = [
        [oracles.slow_pow(p, i, poly, k) for p in points] for i in range(n)
    ]
    return tuple(
        (b, tuple(oracles.slow_mat_vec(rows, b, poly, k)))
        for b in itertools.product(range(1 << k), repeat=n)
    )


def digit_view(d, width, withheld):
    """What an adversary sees of a codeword rendered at a fixed width:
    every base-d digit except the withheld (component, digit) pairs."""

    @functools.lru_cache(maxsize=None)
    def view(c):
        return tuple(
            dig
            for comp, value in enumerate(c)
            for pos, dig in enumerate(oracles.to_digits(value, d, width))
            if (comp, pos) not in withheld
        )

    return view


def oracle_entropies(k, poly, points, secret, view):
    """Dict-counting H(S) and H(S|E) over the full enumeration.

    view maps a codeword to what the adversary sees. Returns both entropies in bits, both in base-q symbols (None unless
    every distribution of S is uniform over a power-of-q support), and
    whether every evidence group leaves all q^w secrets equally likely.
    """
    q = 1 << k
    joint, ev, marg = Counter(), Counter(), Counter()
    for b, c in oracle_codewords(k, poly, points):
        e = view(c)
        s = tuple(b[i] for i in secret)
        joint[(e, s)] += 1
        ev[e] += 1
        marg[s] += 1
    total = q ** len(points)

    def h(counter):
        return -sum(
            (cnt / total) * math.log2(cnt / total) for cnt in counter.values()
        )

    def log_q(size):
        j = 0
        while q**j < size:
            j += 1
        return j if q**j == size else None

    groups = {}
    for (e, _), cnt in joint.items():
        groups.setdefault(e, []).append(cnt)
    h_s_sym = log_q(len(marg)) if len(set(marg.values())) == 1 else None
    h_se_sym = Fraction(0)
    for e, cnts in groups.items():
        j = log_q(len(cnts))
        if j is None or len(set(cnts)) > 1:
            h_se_sym = None
            break
        h_se_sym += Fraction(ev[e], total) * j
    perfect = all(
        len(cnts) == q ** len(secret) and len(set(cnts)) == 1
        for cnts in groups.values()
    )
    return h(marg), h(joint) - h(ev), h_s_sym, h_se_sym, perfect


class TestSimulateGuess:
    def test_no_unknowns_is_certainty(self):
        sc = make_scenario(k=3, d=2, n=3, seed=1, unknown=0)
        assert adversary.simulate_guess(sc, trials=10) == 1.0

    def test_matches_uniform_guessing_rate(self):
        sc = make_scenario(k=3, d=2, n=3, seed=2, unknown=5)
        trials = 200_000
        got = adversary.simulate_guess(sc, trials=trials, seed=7)
        p = 2.0**-5
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(got - p) <= 3 * sigma

    def test_alpha_mode_rate(self):
        sc = make_scenario(k=4, d=2, n=4, seed=3, unknown=4, mode=ALPHA_BOUNDED, alpha=2)
        trials = 120_000
        got = adversary.simulate_guess(sc, trials=trials, seed=9)
        p = 2.0**-4
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(got - p) <= 3 * sigma

    def test_seed_determinism(self):
        sc = make_scenario(k=3, d=2, n=3, seed=4, unknown=6)
        a = adversary.simulate_guess(sc, trials=5000, seed=42)
        b = adversary.simulate_guess(sc, trials=5000, seed=42)
        assert a == b
        c = adversary.simulate_guess(sc, trials=5000, seed=43)
        assert a != c or a == c  # different seed may legitimately coincide

    def test_non_power_of_two_base_counts_invalid_guesses_as_misses(self):
        # base-3 renders of GF(8) elements reach two digits, so a guess can
        # name a digit group no field element renders to; those are misses
        sc = make_scenario(k=3, d=3, n=6, seed=8, unknown=4,
                           mode=ALPHA_BOUNDED, alpha=2)
        trials = 120_000
        got = adversary.simulate_guess(sc, trials=trials, seed=2)
        p = 3.0**-4
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(got - p) <= 3 * sigma

    def test_too_many_unknowns(self):
        sc = make_scenario(k=8, d=2, n=8, seed=5, unknown=41)
        with pytest.raises(TooManyUnknownsError):
            adversary.simulate_guess(sc, trials=10)

    def test_bad_trials(self):
        sc = make_scenario(k=3, d=2, n=3, seed=6, unknown=2)
        with pytest.raises(ConfigError):
            adversary.simulate_guess(sc, trials=0)

    def test_negative_seed(self):
        sc = make_scenario(k=3, d=2, n=3, seed=6, unknown=2)
        with pytest.raises(ConfigError, match="seed"):
            adversary.simulate_guess(sc, trials=10, seed=-1)

    @pytest.mark.parametrize("trials,seed", [
        (2.5, 0), ("10", 0), (True, 0), (None, 0),
        (10, 1.5), (10, "3"), (10, True), (10, None),
    ])
    def test_trials_and_seed_must_be_integers(self, trials, seed):
        sc = make_scenario(k=3, d=2, n=3, seed=6, unknown=2)
        with pytest.raises(ConfigError, match="must be an integer"):
            adversary.simulate_guess(sc, trials=trials, seed=seed)

    def test_numpy_integers_are_integers(self):
        sc = make_scenario(k=3, d=2, n=3, seed=6, unknown=2)
        got = adversary.simulate_guess(sc, trials=np.int64(500), seed=np.uint32(3))
        assert got == adversary.simulate_guess(sc, trials=500, seed=3)
        assert type(got) is float


class TestGuessBitIdentity:
    """simulate_guess is pinned to the floats of its per-element form: the
    same chunked draw and decode give the same count of successes."""

    # (scenario, trials, seed, successes), counted by the per-element form
    PINNED = [
        ("audit-strict", 1 << 20, 1, 1045),
        ("audit-alpha5", 1 << 20, 2, 1018),
        ("audit-strict", 1, 125, 1),
        ("d3-overflow", 70001, 5, 834),
        ("d3-overflow", 1, 5, 0),
        ("d3-overflow", 1, 24, 1),
        ("k16-d16", 70001, 6, 12),
        ("k16-d16", 1, 6, 0),
        ("three-blocks", 70001, 7, 1093),
        ("three-blocks", 1, 1, 1),
    ]

    @pytest.mark.parametrize("name,trials,seed,successes", PINNED)
    def test_pinned_success_counts(self, name, trials, seed, successes):
        sc = GUESS_SCENARIOS[name]()
        assert adversary.simulate_guess(sc, trials, seed) == successes / trials

    def test_audit_shapes_hide_ten_digits(self):
        for name in ("audit-strict", "audit-alpha5"):
            assert GUESS_SCENARIOS[name]().unknown_count == 10

    def test_overflow_case_can_overflow(self):
        sc = GUESS_SCENARIOS["d3-overflow"]()
        slots = [slot for _, block in adversary._guess_plan(sc) for slot in block]
        assert any(can_overflow for *_, can_overflow in slots)

    def test_three_blocks_touched(self):
        plan = adversary._guess_plan(GUESS_SCENARIOS["three-blocks"]())
        assert [blk for blk, _ in plan] == [0, 1, 2]

    @pytest.mark.parametrize("name", sorted(GUESS_SCENARIOS))
    @pytest.mark.parametrize("trials", [1, 7, 3000])
    def test_matches_trial_by_trial_oracle(self, name, trials):
        sc = GUESS_SCENARIOS[name]()
        for seed in (0, 11):
            assert adversary.simulate_guess(sc, trials, seed) == oracles.slow_guess(
                sc, trials, seed
            )

    def test_matches_oracle_across_a_chunk_boundary(self):
        sc = GUESS_SCENARIOS["d3-overflow"]()
        trials = (1 << 15) + 5000
        got = adversary.simulate_guess(sc, trials, 4)
        assert got == oracles.slow_guess(sc, trials, 4)


def edge_scenario(hidden):
    """Two k=8, d=2, n=2 blocks of 16 digits: `hidden` unseen digits at the
    head of block 0, one in block 1."""
    return stream_scenario(
        k=8, d=2, n=2, blocks=2, seed=3, positions=[*range(hidden), 20]
    )


def spy_block_hits(monkeypatch):
    """The shape of the guesses every _block_hits call is given: a table
    build passes its d^u_b patterns over the block's u_b columns."""
    shapes = []
    real = adversary._block_hits

    def spy(*args):
        shapes.append(args[-1].shape)
        return real(*args)

    monkeypatch.setattr(adversary, "_block_hits", spy)
    return shapes


class TestGuessMemo:
    """A block of at most min(trials, 2^15) digit patterns decodes each
    pattern once; its trials look their pattern up. Blocks with more
    patterns decode trial by trial. Both give the oracle's count."""

    # 2, 3 and 1 unseen digits in blocks 0, 1 and 2 (4, 8 and 2 patterns)
    MIXED = dict(k=4, d=2, n=3, blocks=3, seed=5, positions=[2, 7, 13, 14, 20, 30])
    PATTERNS = {0: (4, 2), 1: (8, 3), 2: (2, 1)}

    @pytest.mark.parametrize("trials,tabled", [
        (1, []), (3, [2]), (4, [0, 2]), (7, [0, 2]), (8, [0, 1, 2]),
        (3000, [0, 1, 2]),
    ])
    def test_mixed_selection_matches_oracle(self, monkeypatch, trials, tabled):
        sc = stream_scenario(**self.MIXED)
        shapes = spy_block_hits(monkeypatch)
        for seed in (0, 11):
            shapes.clear()
            assert adversary.simulate_guess(sc, trials, seed) == oracles.slow_guess(
                sc, trials, seed
            )
            tables = [shape for shape in shapes if shape[1] < sc.unknown_count]
            assert tables == [self.PATTERNS[blk] for blk in tabled]

    def test_unsorted_positions_refused(self):
        # the draw assigns its columns to the positions in increasing order
        with pytest.raises(ConfigError, match="strictly increasing"):
            stream_scenario(**{**self.MIXED, "positions": [30, 2, 14, 7, 13, 20]})

    @pytest.mark.parametrize("trials", [7, 3000])
    def test_overflow_onto_a_zero_element_is_a_miss(self, trials):
        # base-3 pairs render GF(8); "22" reads 8, which the candidate
        # column stores as 0, the true element: only the overflow mask
        # keeps that guess a miss
        a = gf.build_vandermonde(gf.FieldSpec(k=3, d=3), gf.default_points(3))
        sc = AttackScenario(
            matrix=a, d=3, render_lengths=[2, 2, 2], stream=np.zeros(6),
            unknown_positions=[0, 1],
        )
        for seed in (0, 11):
            got = adversary.simulate_guess(sc, trials, seed)
            assert got == oracles.slow_guess(sc, trials, seed)
        assert abs(adversary.simulate_guess(sc, 90_000, 1) - 1 / 9) < 0.01

    @pytest.mark.parametrize("hidden,tabled", [(15, True), (16, False)])
    def test_pattern_count_at_the_chunk_size(self, monkeypatch, hidden, tabled):
        # 2^15 patterns fill one chunk and take the table; 2^16 do not
        sc = edge_scenario(hidden)
        trials = (1 << 16) + 3
        shapes = spy_block_hits(monkeypatch)
        got = adversary.simulate_guess(sc, trials, 3)
        assert got == oracles.slow_guess(sc, trials, 3)
        assert got > 0
        assert ((1 << hidden, hidden) in shapes) == tabled
        assert (2, 1) in shapes  # the one-digit block always takes the table

    @pytest.mark.parametrize("name,patterns", [
        ("audit-strict", 16 + 64), ("audit-alpha5", 4 + 16 + 16),
    ])
    def test_traced_muls_do_not_depend_on_the_seed(self, name, patterns):
        sc = GUESS_SCENARIOS[name]()
        field, n = sc.matrix.field, sc.matrix.n
        sc.matrix.inverse()  # cached on the matrix: its products count once
        counts = []
        field.counter = gf.OpCounter()
        try:
            for seed in (1, 2):
                field.counter.reset()
                adversary.simulate_guess(sc, 1 << 20, seed)
                counts.append(field.counter.muls)
        finally:
            field.counter = None
        # the decoded truth of each touched block, then its patterns once
        ends = np.cumsum(sc.render_lengths)
        elements = np.searchsorted(ends, sc.unknown_positions, side="right")
        touched = np.unique(elements // n).size
        assert counts == [n * n * (touched + patterns)] * 2


class TestGuessDecodesTouchedBlocks:
    """simulate_guess decodes the truth of the blocks holding an unseen digit
    only, and nothing at all when no digit is unseen."""

    # 40 blocks of 12 digits; three unseen digits, all in block 17
    MANY = dict(k=4, d=2, n=3, blocks=40, seed=6, positions=[205, 209, 214])

    @staticmethod
    def spy_rows(monkeypatch):
        """The batch size of every Field.mat_vec_batch call."""
        rows = []
        real = gf.Field.mat_vec_batch

        def spy(field, m, vs):
            rows.append(len(vs))
            return real(field, m, vs)

        monkeypatch.setattr(gf.Field, "mat_vec_batch", spy)
        return rows

    def test_only_the_touched_block_is_decoded(self, monkeypatch):
        sc = stream_scenario(**self.MANY)
        want = oracles.slow_guess(sc, 300, 4)
        rows = self.spy_rows(monkeypatch)
        assert adversary.simulate_guess(sc, 300, 4) == want
        # the truth of block 17, then its 2^3 digit patterns
        assert rows == [1, 8]

    def test_nothing_is_decoded_without_unseen_digits(self, monkeypatch):
        sc = stream_scenario(**{**self.MANY, "positions": []})
        rows = self.spy_rows(monkeypatch)
        assert adversary.simulate_guess(sc, 10, 0) == 1.0
        assert rows == []


class SpyRng:
    """A Generator that records which of its draws simulate_guess uses."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.calls = []

    def integers(self, low, high, size):
        self.calls.append(("integers", high, size))
        return self.rng.integers(low, high, size=size)

    @property
    def bit_generator(self):
        self.calls.append(("random_raw",))
        return self.rng.bit_generator


def spy_generators(monkeypatch):
    """Every SpyRng np.random.default_rng makes while patched."""
    spies = []

    def spy_rng(seed):
        spies.append(SpyRng(seed))
        return spies[-1]

    monkeypatch.setattr(np.random, "default_rng", spy_rng)
    return spies


class TestGuessDraw:
    """At d = 2^j the guesses come from the bit generator's raw words and
    equal Generator.integers(0, d) value for value; other bases draw by
    Generator.integers."""

    @pytest.mark.parametrize("d", [2, 4, 16, 256, 65536, 1 << 20, 1 << 32])
    @pytest.mark.parametrize("u", [1, 3, 4, 10])
    def test_matches_generator_integers(self, d, u):
        chunk = 1 << 15
        trials = chunk + 2 * 51 + 1  # the last chunk holds an odd count
        for seed in (0, 9):
            want = np.random.default_rng(seed)
            drawn = 0
            for guesses in adversary._draws(
                np.random.default_rng(seed), d, trials, chunk, u
            ):
                assert guesses.dtype == codec.digit_dtype(d)
                rows = min(chunk, trials - drawn)
                assert np.array_equal(guesses, want.integers(0, d, size=(rows, u)))
                drawn += rows
            assert drawn == trials

    @pytest.mark.parametrize("d", [2, 16, 256])
    def test_odd_chunks_in_a_row(self, d):
        # 7 trials of 3 digits leave a high half over after every other chunk
        want = np.random.default_rng(4)
        rows = []
        for guesses in adversary._draws(np.random.default_rng(4), d, 7 * 5 + 2, 7, 3):
            rows.append(guesses.shape[0])
            assert np.array_equal(guesses, want.integers(0, d, size=(rows[-1], 3)))
        assert rows == [7] * 5 + [2]

    @pytest.mark.parametrize("d,scenario", [
        (3, GUESS_SCENARIOS["d3-overflow"]),
        (10, lambda: make_scenario(
            k=4, d=10, n=3, seed=2, unknown=3, mode=ALPHA_BOUNDED, alpha=2
        )),
    ])
    def test_other_bases_call_generator_integers(self, monkeypatch, d, scenario):
        sc = scenario()
        assert sc.d == d
        trials = (1 << 15) + 7
        want = oracles.slow_guess(sc, 3000, 5)
        spies = spy_generators(monkeypatch)
        assert adversary.simulate_guess(sc, 3000, 5) == want
        adversary.simulate_guess(sc, trials, 5)
        u = sc.unknown_count
        assert [spy.calls for spy in spies] == [
            [("integers", d, (3000, u))],
            [("integers", d, (1 << 15, u)), ("integers", d, (7, u))],
        ]

    def test_power_of_two_base_reads_raw_words(self, monkeypatch):
        sc = GUESS_SCENARIOS["k16-d16"]()
        spies = spy_generators(monkeypatch)
        adversary.simulate_guess(sc, 3000, 6)
        (spy,) = spies
        assert spy.calls and set(spy.calls) == {("random_raw",)}


class TestScenarioFromPlan:
    def _stored(self, caps):
        spec = gf.FieldSpec(k=3, d=2)
        plan_g = codec.make_grouping_plan(9, spec, n=3)
        a = gf.build_vandermonde(spec, (1, 2, 3))
        b = codec.DigitString(2, [0, 0, 1, 0, 1, 1, 1, 0, 1])
        stream = codec.encode_stream(b, plan_g, a)
        profile = planner.SecurityProfile(breach=(0.5, 0.25), pu=1 / 64)
        plan = planner.make_plan(stream.render_lengths, 3, 2, profile, caps=caps)
        return stream, plan, a, profile

    def test_single_cloud_view(self):
        stream, plan, a, profile = self._stored(caps=(4, 5))
        sc = adversary.scenario_from_plan(stream, plan, a, target=0, breach=0.5)
        assert sc.total_digits == 9
        assert sc.observed_count == 4
        assert sc.unknown_count == 5
        assert sc.breach == 0.5

    def test_all_clouds_view(self):
        stream, plan, a, _ = self._stored(caps=(4, 4))  # one digit stays local
        sc = adversary.scenario_from_plan(stream, plan, a, target=adversary.ALL_CLOUDS)
        assert sc.observed_count == 8
        assert sc.unknown_count == 1

    @pytest.mark.parametrize("target", [2, 7, -1, "1", "x", 1.0, True, None])
    def test_target_outside_the_clouds(self, target):
        stream, plan, a, _ = self._stored(caps=(4, 5))
        with pytest.raises(ConfigError, match="target"):
            adversary.scenario_from_plan(stream, plan, a, target=target)

    def test_storage_target_outside_the_clouds(self):
        root = storage.MemoryRoot(2)
        pipeline.store_digits(
            pipeline.bytes_to_digits(b"ncss", 2), root, gf.FieldSpec(k=8, d=2),
            n=4, profile=planner.SecurityProfile(breach=(0.5, 0.25), pu=2.0**-10),
        )
        manifest = pipeline.load_manifest(root)
        assert adversary.scenario_from_storage(manifest, root, 1).breach == 0.25
        assert adversary.scenario_from_storage(manifest, root, "all").breach is None
        for target in (2, -1, "0"):
            with pytest.raises(ConfigError, match="target"):
                adversary.scenario_from_storage(manifest, root, target)

    def test_storage_scenario_spans_segments(self):
        # 300 KiB strict: the store runs over more than one 256 KiB segment
        spec = gf.FieldSpec(k=8, d=2)
        digits = pipeline.bytes_to_digits(
            np.random.default_rng(12).bytes(300 << 10), 2
        )
        profile = planner.SecurityProfile(breach=(0.5, 0.25), pu=1e-6)
        root = storage.MemoryRoot(2)
        pipeline.store_digits(digits, root, spec, n=5, profile=profile)
        manifest = pipeline.load_manifest(root)
        grouping = codec.make_grouping_plan(len(digits), spec, n=5, mode=STRICT)
        assert len(list(codec.segments(grouping, 5))) > 1
        a = gf.cached_vandermonde(spec.k, spec.reduction_poly, gf.default_points(5))
        stream = codec.encode_stream(digits, grouping, a)
        plan = planner.make_plan(stream.render_lengths, 5, 2, profile)
        for target in (0, 1, adversary.ALL_CLOUDS):
            got = adversary.scenario_from_storage(manifest, root, target)
            want = adversary.scenario_from_plan(stream, plan, a, target)
            for name in ("stream", "render_lengths", "unknown_positions"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (
                    target, name,
                )

    @pytest.mark.parametrize("d", [2, 16, 256])
    def test_stream_keeps_the_digit_dtype(self, d):
        root = storage.MemoryRoot(2)
        pipeline.store_digits(
            pipeline.bytes_to_digits(bytes(range(40)), d), root,
            gf.FieldSpec(k=8, d=d), n=4,
            profile=planner.SecurityProfile(breach=(0.5, 0.25), pu=2.0**-10),
        )
        sc = adversary.scenario_from_storage(pipeline.load_manifest(root), root, 0)
        assert sc.stream.dtype == codec.digit_dtype(d) == np.uint8
        assert not sc.stream.flags.writeable

    def test_stream_does_not_alias_the_callers_array(self):
        stream, plan, a, _ = self._stored(caps=(4, 5))
        digits = np.array(stream.render_digits, dtype=np.uint8)
        sc = AttackScenario(
            matrix=a, d=2, render_lengths=plan.render_lengths, stream=digits,
            unknown_positions=[0],
        )
        digits[:] = 1 - digits
        assert sc.stream.dtype == np.uint8
        assert np.array_equal(sc.stream, 1 - digits)

    def test_stream_digit_outside_the_base_rejected(self):
        stream, plan, a, _ = self._stored(caps=(4, 5))
        with pytest.raises(ConfigError, match="out of range"):
            AttackScenario(
                matrix=a, d=2, render_lengths=plan.render_lengths,
                stream=np.full(stream.total_digits, 2), unknown_positions=[0],
            )

    @pytest.mark.parametrize("positions", [
        [1, 1], [-1], [64], [5, 3], [0, 63, 64], [[1, 2]],
    ])
    def test_bad_unknown_positions_refused(self, positions):
        # the 8-byte audit store renders 64 digits; [1, 1] would add two
        # guessed digits into one place, [-1] would score a digit from the
        # end, [64] would index past the stream
        sc = GUESS_SCENARIOS["audit-strict"]()
        assert sc.total_digits == 64
        with pytest.raises(ConfigError, match="strictly increasing"):
            dataclasses.replace(sc, unknown_positions=positions)

    def test_hidden_positions_are_the_gaps_between_runs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            total = int(rng.integers(0, 60))
            cloud_runs = []
            for _ in range(int(rng.integers(1, 4))):
                runs = []
                for _ in range(int(rng.integers(0, 4))):
                    start = int(rng.integers(0, total + 1))
                    runs.append((start, int(rng.integers(start, total + 1))))
                cloud_runs.append(runs)
            for cloud in (None, *range(len(cloud_runs))):
                hidden = np.ones(total, dtype=bool)
                for runs in cloud_runs if cloud is None else [cloud_runs[cloud]]:
                    for start, stop in runs:
                        hidden[start:stop] = False
                got = adversary._hidden(total, cloud_runs, cloud)
                assert got.dtype == np.int64
                assert got.tolist() == np.flatnonzero(hidden).tolist()

    def test_guess_rate_end_to_end(self):
        stream, plan, a, _ = self._stored(caps=(4, 5))
        sc = adversary.scenario_from_plan(stream, plan, a, target=0)
        trials = 120_000
        got = adversary.simulate_guess(sc, trials=trials, seed=3)
        p = 2.0**-5
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(got - p) <= 3 * sigma


class TestEntropyAudit:
    def test_perfect_example(self):
        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        report = adversary.entropy_audit(a, w=1, t=2)
        assert report.perfect is True
        assert report.h_s_symbols == Fraction(1)
        assert report.h_s_given_e_symbols == Fraction(1)
        assert report.h_s_bits == pytest.approx(2.0)
        assert report.h_s_given_e_bits == pytest.approx(2.0)

    def test_full_codeword_reveals_everything(self):
        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        report = adversary.entropy_audit(a, w=1, t=3)
        assert report.perfect is False
        assert report.h_s_given_e_symbols == Fraction(0)
        assert report.h_s_given_e_bits == pytest.approx(0.0)

    def test_excess_equation_leaks_one_symbol(self):
        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        report = adversary.entropy_audit(a, w=2, t=2)
        assert report.perfect is False
        assert report.h_s_symbols == Fraction(2)
        assert report.h_s_given_e_symbols == Fraction(1)

    def test_no_observation_is_trivially_perfect(self):
        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        report = adversary.entropy_audit(a, w=2, t=0)
        assert report.perfect is True

    @staticmethod
    def assert_matches_oracle(report, oracle):
        h_s, h_se, h_s_sym, h_se_sym, perfect = oracle
        assert report.h_s_bits == pytest.approx(h_s, abs=1e-9)
        assert report.h_s_given_e_bits == pytest.approx(h_se, abs=1e-9)
        assert report.h_s_symbols == h_s_sym
        assert report.h_s_given_e_symbols == h_se_sym
        assert report.perfect is perfect

    def test_matches_dict_counting_oracle(self):
        codes = [(2, (2, 3, 1))] + [
            (k, gf.default_points(n)) for k in (2, 3) for n in range(1, min(5, 1 << k))
        ]
        for k, points in codes:
            f = gf.get_field(k)
            n = len(points)
            a = gf.build_vandermonde(f, points)
            for w in range(1, n + 1):
                for t in range(0, n + 1):
                    self.assert_matches_oracle(
                        adversary.entropy_audit(a, w=w, t=t),
                        oracle_entropies(
                            k, f.poly, points, tuple(range(w)), lambda c: c[:t]
                        ),
                    )

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_digit_selections_match_oracle(self, k):
        f = gf.get_field(k)
        for n in range(1, min(5, f.q)):
            points = gf.default_points(n)
            a = gf.build_vandermonde(f, points)
            for d in (2, 3):
                width = oracles.digit_len(f.q - 1, d)
                for withheld in itertools.product(range(n), range(width)):
                    sel = DigitSelection(d=d, withheld=(withheld,))
                    view = digit_view(d, width, {withheld})
                    for w in range(1, n + 1):
                        self.assert_matches_oracle(
                            adversary.entropy_audit(a, w=w, selection=sel),
                            oracle_entropies(k, f.poly, points, tuple(range(w)), view),
                        )

    @pytest.mark.parametrize("t,h_se_bits,h_se_symbols,perfect", [
        (3, 8.0, Fraction(2), True),
        (4, 4.0, Fraction(1), False),
    ])
    def test_k4_n5_reports_pinned(self, t, h_se_bits, h_se_symbols, perfect):
        # the reports of the earlier row-by-row enumeration, field for field
        a = gf.build_vandermonde(gf.FieldSpec(k=4, d=2), gf.default_points(5))
        assert adversary.entropy_audit(a, w=2, t=t) == EntropyReport(
            k=4, n=5, w=2, t=t,
            selection_id="components:" + ",".join(str(i) for i in range(t)),
            h_s_bits=8.0, h_s_given_e_bits=h_se_bits,
            h_s_symbols=Fraction(2), h_s_given_e_symbols=h_se_symbols,
            perfect=perfect,
        )

    def test_achievability_small_grid(self):
        for k in (2, 3):
            f = gf.get_field(k)
            for n in range(2, 4):
                a = gf.build_vandermonde(f, gf.default_points(n))
                for w in range(1, n + 1):
                    for t in range(0, n - w + 1):
                        for start in range(0, n - t + 1):
                            sel = tuple(range(start, start + t))
                            report = adversary.entropy_audit(a, w=w, selection=sel)
                            assert report.perfect, (k, n, w, sel)

    def test_converse_small_grid(self):
        for k in (2, 3):
            f = gf.get_field(k)
            for n in range(2, 4):
                a = gf.build_vandermonde(f, gf.default_points(n))
                for w in range(1, n + 1):
                    for t in range(n - w + 1, n + 1):
                        report = adversary.entropy_audit(a, w=w, t=t)
                        assert not report.perfect, (k, n, w, t)
                        assert report.h_s_given_e_bits < report.h_s_bits - 1e-9

    def test_noncontiguous_selection_supported(self):
        a = gf.build_vandermonde(gf.get_field(3), (1, 2, 3, 4))
        report = adversary.entropy_audit(a, w=1, selection=(1, 3))
        assert report.t == 2
        assert report.selection_id == "components:1,3"

    def test_enumeration_bound(self):
        a = gf.build_vandermonde(gf.get_field(16), (1, 2))
        with pytest.raises(EnumerationTooLargeError):
            adversary.entropy_audit(a, w=1, t=1)

    def test_parameter_validation(self):
        a = gf.build_vandermonde(gf.get_field(2), (1, 2))
        with pytest.raises(ConfigError):
            adversary.entropy_audit(a)  # neither w nor secret
        with pytest.raises(ConfigError):
            adversary.entropy_audit(a, w=1)  # neither t nor selection
        with pytest.raises(ConfigError):
            adversary.entropy_audit(a, w=1, selection=(5,))

    @pytest.mark.parametrize("w,t", [(1, -1), (-1, 1), (-1, 0), (0, -2)])
    def test_negative_w_or_t_rejected(self, w, t):
        # range(-1) is empty: unchecked, these read as w=0 or t=0 and
        # report perfect secrecy
        a = gf.build_vandermonde(gf.get_field(2), (1, 2))
        with pytest.raises(ConfigError, match="must be >= 0"):
            adversary.entropy_audit(a, w=w, t=t)


class TestDigitLevelAudit:
    def test_field_alphabet_single_digit_rule_is_perfect(self):
        # d = 2^k: one digit per component, withholding it hides the component
        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        sel = DigitSelection(d=4, withheld=((0, 0),), width=1)
        report = adversary.entropy_audit(a, w=1, selection=sel)
        assert report.perfect is True

    def test_subfield_digits_leak_up_to_budget(self):
        # d < 2^k: one withheld digit cannot hide a whole component; the
        # residual uncertainty is capped by the withheld digit count
        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        sel = DigitSelection(d=2, withheld=((0, 0), (1, 0)))
        report = adversary.entropy_audit(a, w=2, selection=sel)
        assert report.perfect is False
        assert report.h_s_given_e_bits <= 2 * math.log2(2) + 1e-9
        assert report.h_s_given_e_bits < report.h_s_bits

    def test_hiding_every_digit_of_a_component_hides_the_component(self):
        a = gf.build_vandermonde(gf.get_field(2), (1, 2))
        whole = DigitSelection(d=2, withheld=((0, 0), (0, 1)))
        report = adversary.entropy_audit(a, secret=(0,), selection=whole)
        assert report.perfect is True

    def test_misallocated_local_digits_flagged(self):
        # spending both local digits on component 0 leaves components 1 and 2
        # fully exposed: two full equations against a two-component secret
        # crosses the t <= n - w threshold and the audit reports the leak,
        # while the one-digit-per-component rule keeps only component 2 fully
        # exposed and stays within it
        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        rule_full_components = adversary.entropy_audit(a, w=2, selection=(2,))
        assert rule_full_components.perfect is True
        mis_full_components = adversary.entropy_audit(a, w=2, selection=(1, 2))
        assert mis_full_components.perfect is False
        assert (
            mis_full_components.h_s_given_e_symbols
            < mis_full_components.h_s_symbols
        )
        # at the digit level both selections leak down to the withheld-digit
        # budget; the joint secret is not perfectly hidden either way
        rule = DigitSelection(d=2, withheld=((0, 0), (1, 0)))
        misallocated = DigitSelection(d=2, withheld=((0, 0), (0, 1)))
        for sel in (rule, misallocated):
            report = adversary.entropy_audit(a, w=2, selection=sel)
            assert report.perfect is False
            assert report.h_s_given_e_bits <= 2 + 1e-9

    def test_full_support_without_uniformity_is_not_perfect(self):
        # decimal renders are not linear over GF(2): every evidence group
        # still admits all q secrets, but not equally often
        f = gf.get_field(4)
        withheld = ((0, 1), (1, 1))
        a = gf.build_vandermonde(f, (1, 2))
        report = adversary.entropy_audit(
            a, secret=(0,), selection=DigitSelection(d=10, withheld=withheld)
        )
        assert report.perfect is False
        assert report.h_s_given_e_symbols is None
        TestEntropyAudit.assert_matches_oracle(
            report,
            oracle_entropies(4, f.poly, (1, 2), (0,), digit_view(10, 2, set(withheld))),
        )

    def test_narrow_width_rejected(self):
        a = gf.build_vandermonde(gf.get_field(3), (1, 2, 3))
        with pytest.raises(ConfigError):
            adversary.entropy_audit(
                a, w=1, selection=DigitSelection(d=2, withheld=(), width=2)
            )


def selections(k, n, d, most):
    """Every DigitSelection at base d withholding 1 to most digits."""
    width = oracles.digit_len((1 << k) - 1, d)
    cells = list(itertools.product(range(n), range(width)))
    for size in range(1, most + 1):
        for withheld in itertools.combinations(cells, size):
            yield DigitSelection(d=d, withheld=withheld), digit_view(d, width, set(withheld))


class TestRankAudit:
    """rank_audit against the dict-counting oracle, and entropy_audit's
    rank path against rank_audit, field for field."""

    CODES = [(2, (2, 3, 1))] + [
        (k, gf.default_points(n)) for k in (2, 3) for n in range(1, min(5, 1 << k))
    ]

    @staticmethod
    def check(a, points, view, **kw):
        f = a.field
        secret = kw.get("secret") or tuple(range(kw["w"]))
        report = adversary.rank_audit(a, **kw)
        TestEntropyAudit.assert_matches_oracle(
            report, oracle_entropies(f.k, f.poly, points, secret, view)
        )
        assert adversary.entropy_audit(a, **kw) == report

    def test_component_grid_matches_oracle(self):
        for k, points in self.CODES:
            a = gf.build_vandermonde(gf.get_field(k), points)
            n = len(points)
            for w in range(0, n + 1):
                for t in range(0, n + 1):
                    self.check(a, points, lambda c: c[:t], w=w, t=t)

    @pytest.mark.parametrize("selection", [(1, 1), (2, 0), (0, 2, 0), (3,)])
    def test_repeated_and_noncontiguous_components(self, selection):
        points = gf.default_points(4)
        a = gf.build_vandermonde(gf.get_field(3), points)
        for w in range(0, 5):
            self.check(
                a, points, lambda c: tuple(c[i] for i in selection),
                w=w, selection=selection,
            )
        assert adversary.rank_audit(a, w=1, selection=selection).t == len(selection)

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_digit_selections_match_oracle(self, d):
        for k, n in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            points = gf.default_points(n)
            a = gf.build_vandermonde(gf.get_field(k), points)
            for sel, view in selections(k, n, d, 2):
                for w in range(0, n + 1):
                    self.check(a, points, view, w=w, selection=sel)

    def test_secret_coordinates_out_of_order(self):
        points = gf.default_points(3)
        a = gf.build_vandermonde(gf.get_field(3), points)
        for sel, view in selections(3, 3, 2, 1):
            self.check(a, points, view, secret=(2, 0), selection=sel)

    @pytest.mark.parametrize("d", [3, 10])
    def test_base_not_a_power_of_two_refused(self, d):
        a = gf.build_vandermonde(gf.get_field(2), (1, 2))
        with pytest.raises(ConfigError, match="power-of-two"):
            adversary.rank_audit(a, w=1, selection=DigitSelection(d=d, withheld=()))

    def test_same_validation_as_entropy_audit(self):
        a = gf.build_vandermonde(gf.get_field(3), (1, 2, 3))
        for kw in (
            {}, {"w": 1}, {"w": -1, "t": 1}, {"w": 1, "selection": (5,)},
            {"secret": (0, 0), "t": 1},
            {"w": 1, "selection": DigitSelection(d=2, withheld=(), width=2)},
            {"w": 1, "selection": DigitSelection(d=2, withheld=((3, 0),))},
        ):
            with pytest.raises(ConfigError):
                adversary.rank_audit(a, **kw)

    @pytest.mark.parametrize("d", [2, 3])
    def test_withheld_digit_outside_its_component_refused(self, d):
        # width 3 at k=3, d=2 and 2 at d=3; each cell's flat number
        # component * width + index lies inside the render, so only the
        # pair itself shows that it names no digit
        a = gf.build_vandermonde(gf.get_field(3), (1, 2, 3))
        width = DigitSelection(d=d, withheld=()).resolved_width(8)
        for cell in ((0, width), (1, -width), (-1, width + 1)):
            sel = DigitSelection(d=d, withheld=(cell,))
            with pytest.raises(ConfigError, match="outside the 3 components"):
                adversary.entropy_audit(a, w=2, selection=sel)
            if d == 2:
                with pytest.raises(ConfigError, match="outside the 3 components"):
                    adversary.rank_audit(a, w=2, selection=sel)

    def test_benchmark_shape_builds_no_grid(self, monkeypatch):
        # the audit benchmark's k=4, n=5 calls: linear evidence never
        # enumerates F_q^n
        calls = []
        grid_key = adversary._grid_key
        monkeypatch.setattr(
            adversary, "_grid_key", lambda *a: calls.append(1) or grid_key(*a)
        )
        a = gf.build_vandermonde(gf.FieldSpec(k=4, d=2), gf.default_points(5))
        for t in (3, 4):
            adversary.entropy_audit(a, w=2, t=t)
        adversary.entropy_audit(
            a, w=2, selection=DigitSelection(d=4, withheld=((0, 0), (1, 1)))
        )
        assert calls == []
        # decimal digits are not linear: they still enumerate
        small = gf.build_vandermonde(gf.get_field(4), (1, 2))
        adversary.entropy_audit(
            small, w=1, selection=DigitSelection(d=10, withheld=((0, 1),))
        )
        assert calls

    def test_k8_n51_threshold(self):
        a = gf.build_vandermonde(gf.FieldSpec(k=8, d=2), gf.default_points(51))
        start = time.perf_counter()
        below = adversary.rank_audit(a, w=1, t=50)
        at = adversary.rank_audit(a, w=1, t=51)
        assert time.perf_counter() - start < 1.0
        assert below.perfect and below.h_s_given_e_symbols == Fraction(1)
        assert not at.perfect and at.h_s_given_e_bits == 0.0
        with pytest.raises(EnumerationTooLargeError):
            adversary.entropy_audit(a, w=1, t=50)

    def test_k8_digits_at_the_bound(self):
        # n - w whole components plus every digit but one of the rest: at
        # d=16 one withheld digit of a secret-sized gap leaves 4 bits
        a = gf.build_vandermonde(gf.FieldSpec(k=8, d=16), gf.default_points(51))
        withheld = ((50, 0),)
        report = adversary.rank_audit(
            a, w=1, selection=DigitSelection(d=16, withheld=withheld)
        )
        assert report.h_s_given_e_bits == 4.0
        assert report.h_s_given_e_symbols is None
        assert not report.perfect


class TestAuditCsv:
    def test_rows_parse(self):
        import csv as csv_mod
        import io

        a = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
        reports = [
            adversary.entropy_audit(a, w=1, t=2),
            adversary.entropy_audit(a, w=2, t=2),
        ]
        text = adversary.audit_csv(reports)
        rows = list(csv_mod.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["perfect"] == "True"
        assert float(rows[0]["h_s"]) == 1.0
        assert rows[1]["perfect"] == "False"
