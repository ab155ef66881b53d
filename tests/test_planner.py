import numpy as np
import pytest

from ncss import codec, gf, planner
from ncss.codec import ALPHA_BOUNDED, STRICT
from ncss.errors import BadCountError, ConfigError, TooManySecretDigitsError

import oracles


def block_from_elements(elements, d=2, mode=STRICT, width=3):
    digits, lengths = codec.render_elements(
        np.asarray(elements), d, mode, fixed_width=width
    )
    return codec.CodedStream(
        elements=np.asarray(elements),
        render_digits=digits,
        render_lengths=lengths,
        n=len(elements),
        d=d,
        mode=mode,
    )


def plan_stream(stream, profile, caps=None):
    """make_plan of a whole coded stream, from its render lengths."""
    return planner.make_plan(
        stream.render_lengths, stream.n, stream.d, profile, caps=caps
    )


# the worked storage example: strict k=3 block rendering as 010, 100, 001
TABLE3_BLOCK = block_from_elements([2, 4, 1])
TABLE3_PROFILE = planner.SecurityProfile(breach=(0.5, 0.25), pu=1 / 64)


class TestSecurityProfile:
    def test_validation(self):
        with pytest.raises(ConfigError):
            planner.SecurityProfile(breach=(), pu=0.5)
        with pytest.raises(ConfigError):
            planner.SecurityProfile(breach=(0.0,), pu=0.5)
        with pytest.raises(ConfigError):
            planner.SecurityProfile(breach=(1.5,), pu=0.5)
        with pytest.raises(ConfigError):
            planner.SecurityProfile(breach=(0.5,), pu=0.0)

    def test_p(self):
        assert TABLE3_PROFILE.p == 2


class TestGuessProbability:
    def test_worked_example(self):
        assert planner.guess_probability(9, 4, 2, 0.5) == pytest.approx(1 / 64)

    def test_everything_stored(self):
        assert planner.guess_probability(9, 9, 2, 0.25) == 0.25

    def test_nothing_stored(self):
        assert planner.guess_probability(9, 0, 2, 0.5) == pytest.approx(0.5 * 2**-9)

    def test_bad_count(self):
        with pytest.raises(BadCountError):
            planner.guess_probability(9, 10, 2, 0.5)
        with pytest.raises(BadCountError):
            planner.guess_probability(9, -1, 2, 0.5)

    def test_huge_stream_underflows_to_zero(self):
        assert planner.guess_probability(10**7, 10, 2, 0.5) == 0.0


class TestPerCloudCaps:
    def test_worked_example(self):
        caps = planner.per_cloud_caps(9, 2, TABLE3_PROFILE)
        assert caps == (4, 5)

    def test_pu_one_means_no_restriction(self):
        profile = planner.SecurityProfile(breach=(0.5, 0.9, 1.0), pu=1.0)
        assert planner.per_cloud_caps(9, 2, profile) == (9, 9, 9)

    def test_derived_example(self):
        profile = planner.SecurityProfile(breach=(0.75,), pu=1 / 64)
        assert planner.per_cloud_caps(9, 2, profile) == (3,)

    def test_caps_are_maximal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = int(rng.integers(0, 60))
            d = int(rng.choice([2, 3, 16]))
            breach = float(rng.uniform(0.01, 1.0))
            pu = float(rng.uniform(1e-9, 1.0))
            profile = planner.SecurityProfile(breach=(breach,), pu=pu)
            (cap,) = planner.per_cloud_caps(t, d, profile)
            assert planner.guess_probability(t, cap, d, breach) <= pu or cap == 0
            if cap < t:
                assert planner.guess_probability(t, cap + 1, d, breach) > pu

    def test_monotone_in_breach_and_pu(self):
        base = planner.per_cloud_caps(
            30, 2, planner.SecurityProfile(breach=(0.5,), pu=1e-3)
        )
        worse = planner.per_cloud_caps(
            30, 2, planner.SecurityProfile(breach=(0.9,), pu=1e-3)
        )
        stricter = planner.per_cloud_caps(
            30, 2, planner.SecurityProfile(breach=(0.5,), pu=1e-6)
        )
        assert worse[0] <= base[0]
        assert stricter[0] <= base[0]

    def test_zero_total(self):
        assert planner.per_cloud_caps(0, 2, TABLE3_PROFILE) == (0, 0)


class TestMakePlan:
    def test_table3_layout(self):
        plan = plan_stream(TABLE3_BLOCK, TABLE3_PROFILE, caps=(4, 5))
        assert plan.total_digits == 9
        assert plan.stored == (4, 5)
        assert plan.local_count == 0
        # cloud 1 takes stream digits 0-3, cloud 2 takes digits 4-8
        assert plan.cloud_runs == (((0, 4),), ((4, 9),))
        # cloud 1 holds render 010 and the first digit of 100; cloud 2 the
        # rest of 100 and 001
        digits = TABLE3_BLOCK.render_digits
        held = [
            [digits[a:b].tolist() for a, b in runs] for runs in plan.cloud_runs
        ]
        assert held == [[[0, 1, 0, 1]], [[0, 0, 0, 0, 1]]]

    def test_zero_caps_everything_local(self):
        plan = plan_stream(TABLE3_BLOCK, TABLE3_PROFILE, caps=(0, 0))
        assert plan.stored == (0, 0)
        assert plan.local_count == 9
        assert plan.local_runs == ((0, 9),)

    def test_overflow_one_digit_local(self):
        block = block_from_elements([2, 4, 1, 3], width=3)  # 12 digits
        profile = planner.SecurityProfile(breach=(0.5, 0.5), pu=1.0)
        plan = plan_stream(block, profile, caps=(4, 5))
        assert plan.total_digits == 12
        assert sum(plan.stored) == 9
        assert plan.local_count == 3
        # one digit per component from the tail first: leading digits of
        # the last three components
        assert plan.local_runs == ((3, 4), (6, 7), (9, 10))
        # renders 010 100 001 011: the local digits lead 100, 001 and 011
        assert [block.render_digits[a:b].tolist() for a, b in plan.local_runs] == [
            [1], [0], [0]
        ]

    def test_ten_digit_stream_one_local(self):
        # renders 101, 11, 111, 11: ten digits against caps totalling nine
        block = block_from_elements([5, 3, 7, 3], d=2, mode=ALPHA_BOUNDED, width=None)
        assert block.total_digits == 10
        profile = planner.SecurityProfile(breach=(0.5, 0.5), pu=1.0)
        plan = plan_stream(block, profile, caps=(4, 5))
        assert sum(plan.stored) == 9
        assert plan.local_count == 1

    def test_descending_cap_greedy_counts(self):
        # 9 digits, caps (2, 9): the roomier cloud absorbs everything
        profile = planner.SecurityProfile(breach=(0.5, 0.5), pu=1.0)
        plan = plan_stream(TABLE3_BLOCK, profile, caps=(2, 9))
        assert plan.stored == (0, 9)

    def test_conservation_and_guess_bound(self):
        rng = np.random.default_rng(9)
        spec = gf.FieldSpec(k=4, d=2)
        a = gf.build_vandermonde(spec, gf.default_points(4))
        for _ in range(100):
            m = int(rng.integers(1, 80))
            mode = ALPHA_BOUNDED if rng.random() < 0.5 else STRICT
            alpha = 3.0 if mode == ALPHA_BOUNDED else None
            plan_g = codec.make_grouping_plan(m, spec, n=4, mode=mode, alpha=alpha)
            b = codec.DigitString(2, rng.integers(0, 2, size=m))
            stream = codec.encode_stream(b, plan_g, a)
            p = int(rng.integers(1, 4))
            profile = planner.SecurityProfile(
                breach=tuple(rng.uniform(0.05, 1.0, size=p)),
                pu=float(rng.uniform(1e-6, 1.0)),
            )
            plan = plan_stream(stream, profile)
            assert sum(plan.stored) + plan.local_count == plan.total_digits
            for i in range(p):
                assert plan.stored[i] <= plan.caps[i]
                assert plan.guess_prob[i] <= profile.pu
                assert plan.guess_prob[i] == planner.guess_probability(
                    plan.total_digits, plan.stored[i], 2, profile.breach[i]
                )

    def test_coverage_is_exact_partition(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            rng.integers(1, 5, size=6)  # plain widths, unused; keeps the draws
            digits, lengths = codec.render_elements(
                rng.integers(0, 8, size=6), 2, ALPHA_BOUNDED
            )
            block = codec.CodedStream(
                elements=rng.integers(0, 8, size=6),
                render_digits=digits,
                render_lengths=lengths,
                n=6,
                d=2,
                mode=ALPHA_BOUNDED,
            )
            total = block.total_digits
            caps = tuple(int(c) for c in rng.integers(0, 6, size=3))
            profile = planner.SecurityProfile(breach=(0.5, 0.5, 0.5), pu=1.0)
            plan = plan_stream(block, profile, caps=caps)
            seen = np.zeros(total, dtype=int)
            for runs in plan.cloud_runs + (plan.local_runs,):
                for start, stop in runs:
                    seen[start:stop] += 1
            assert np.all(seen == 1), (trial, caps)

    def test_empty_message(self):
        none = np.zeros(0, dtype=np.int64)
        empty = codec.CodedStream(none, none, none, n=3, d=2, mode=STRICT)
        plan = plan_stream(empty, TABLE3_PROFILE)
        assert plan.total_digits == 0
        assert plan.stored == (0, 0)
        assert plan.local_count == 0


class TestPlanRunsOracle:
    def test_matches_digit_by_digit_reference(self):
        """Random render lengths and caps, every plan keeping digits locally."""
        rng = np.random.default_rng(21)
        profile = planner.SecurityProfile(breach=(0.5, 0.5, 0.5), pu=1.0)
        for trial in range(300):
            count = int(rng.integers(1, 40))
            lengths = rng.integers(1, 17, size=count)
            total = int(lengths.sum())
            caps = tuple(int(c) for c in rng.integers(0, total // 2 + 1, size=3))
            if sum(caps) >= total:
                caps = (caps[0], caps[1], max(0, total - 1 - caps[0] - caps[1]))
            stream = codec.CodedStream(
                elements=np.zeros(count, dtype=np.int64),
                render_digits=np.zeros(total, dtype=np.int64),
                render_lengths=lengths, n=count, d=2, mode=ALPHA_BOUNDED,
            )
            plan = plan_stream(stream, profile, caps=caps)
            cloud, local = oracles.plan_runs(lengths.tolist(), caps)
            assert plan.local_count > 0
            assert (plan.cloud_runs, plan.local_runs) == (cloud, local), (trial, caps)

    @staticmethod
    def check(lengths, profile, caps=None):
        """make_plan of lengths against the reference, caps from
        per_cloud_caps when None; returns the plan."""
        plan = planner.make_plan(lengths, 4, 2, profile, caps=caps)
        if caps is None:
            caps = planner.per_cloud_caps(int(np.sum(lengths)), 2, profile)
        cloud, local = oracles.plan_runs(np.asarray(lengths).tolist(), caps)
        assert (plan.cloud_runs, plan.local_runs) == (cloud, local), (lengths, caps)
        return plan

    @staticmethod
    def profile(rng, p, unseen):
        """p clouds whose breach and pu leave about unseen digits unstored."""
        breach = tuple(float(b) for b in rng.uniform(0.05, 1.0, size=p))
        return planner.SecurityProfile(breach=breach, pu=2.0 ** -min(unseen, 990))

    @pytest.mark.parametrize("width", [1, 3, 8, 16])
    def test_strict_zero_stride_lengths(self, width):
        """codec.fixed_lengths, one int64 seen count times, as a strict
        store plans; caps from per_cloud_caps, local shares from none to
        several rounds."""
        rng = np.random.default_rng(width)
        for _ in range(60):
            count = int(rng.integers(1, 30))
            p = int(rng.integers(1, 5))
            unseen = int(rng.integers(0, 3 * count * width))
            self.check(codec.fixed_lengths(count, width), self.profile(rng, p, unseen))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_caps_from_the_profile(self, p):
        rng = np.random.default_rng(40 + p)
        for _ in range(80):
            lengths = rng.integers(1, 17, size=int(rng.integers(1, 30)))
            unseen = int(rng.integers(0, 2 * int(lengths.sum())))
            self.check(lengths, self.profile(rng, p, unseen))

    def test_several_rounds(self):
        """Local need of at least the element count: whole rounds of one
        digit per component, elements emptied on the way, then a partial
        round from the tail."""
        profile = planner.SecurityProfile(breach=(0.5, 0.5), pu=1.0)
        rng = np.random.default_rng(22)
        for _ in range(200):
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 20)))
            total = int(lengths.sum())
            need = int(rng.integers(lengths.size, total + 1))
            split = int(rng.integers(0, total - need + 1))
            plan = self.check(lengths, profile, caps=(split, total - need - split))
            assert plan.local_count == need

    def test_empty_stream(self):
        profile = planner.SecurityProfile(breach=(0.5, 0.25, 1.0), pu=1e-6)
        empty = np.zeros(0, dtype=np.int64)
        for caps in (None, (0, 0, 0), (3, 0, 1)):
            plan = self.check(empty, profile, caps=caps)
            assert plan.cloud_runs == ((), (), ()) and plan.local_runs == ()


class TestPerfectSecrecySplit:
    def test_single_digit_components(self):
        # d = 2^k: every component renders as one digit
        block = block_from_elements([3, 0, 2, 1], d=8, width=1)
        local, cloud = planner.perfect_secrecy_split(block, w=1)
        assert local == [(0, 0, 0)]
        assert cloud == [(0, 1, 0, 1), (0, 2, 0, 1), (0, 3, 0, 1)]

    def test_w_equals_n_single_digit(self):
        block = block_from_elements([3, 0, 2, 1], d=8, width=1)
        local, cloud = planner.perfect_secrecy_split(block, w=4)
        assert len(local) == 4
        assert cloud == []

    def test_alpha_mode_first_digits(self):
        block = block_from_elements([5, 3, 1], d=2, mode=ALPHA_BOUNDED, width=None)
        local, cloud = planner.perfect_secrecy_split(block, w=2)
        assert local == [(0, 0, 0), (0, 1, 0)]
        # component renders are 101, 11, 1: remaining digits go to the cloud
        assert cloud == [(0, 0, 1, 3), (0, 1, 1, 2), (0, 2, 0, 1)]

    def test_too_many_secret_digits(self):
        block = block_from_elements([1, 2], width=3)
        with pytest.raises(TooManySecretDigitsError):
            planner.perfect_secrecy_split(block, w=3)

    def test_never_two_local_digits_same_component(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            block = block_from_elements(
                rng.integers(0, 8, size=n), d=2, mode=ALPHA_BOUNDED, width=None
            )
            w = int(rng.integers(0, n + 1))
            local, _ = planner.perfect_secrecy_split(block, w=w)
            components = [(b, e) for b, e, _ in local]
            assert len(components) == len(set(components)) == w

    def test_cloud_share_size(self):
        # cloud share totals sum(l_d(c_j)) - w per block
        block = block_from_elements([5, 3, 1], d=2, mode=ALPHA_BOUNDED, width=None)
        total = block.total_digits
        for w in range(4):
            _, cloud = planner.perfect_secrecy_split(block, w=w)
            stored = sum(d1 - d0 for _, _, d0, d1 in cloud)
            assert stored == total - w

    def test_mode_mismatch(self):
        block = block_from_elements([1, 2], width=3)
        with pytest.raises(ConfigError):
            planner.perfect_secrecy_split(block, w=1, mode=ALPHA_BOUNDED)
