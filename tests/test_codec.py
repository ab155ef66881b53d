import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncss import codec, gf
from ncss.codec import ALPHA_BOUNDED, STRICT
from ncss.errors import (
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

import oracles

TABLE3_BITS = [0, 0, 1, 0, 1, 1, 1, 0, 1]


def spec32():
    return gf.FieldSpec(k=3, d=2)


class TestDigitLength:
    def test_binary_five(self):
        assert codec.digit_length(5, 2) == 3

    def test_zero_is_one_digit(self):
        assert codec.digit_length(0, 2) == 1

    def test_decimal(self):
        assert codec.digit_length(999, 10) == 3

    def test_bad_base(self):
        with pytest.raises(BadBaseError):
            codec.digit_length(5, 1)

    @given(st.integers(0, 10**6), st.integers(2, 64))
    def test_matches_oracle(self, value, d):
        assert codec.digit_length(value, d) == oracles.digit_len(value, d)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 1 << 16, size=500)
        for d in (2, 3, 10, 16):
            got = codec.digit_lengths(vals, d)
            assert [codec.digit_length(int(v), d) for v in vals] == got.tolist()


class TestWidthSelection:
    def test_strict_examples(self):
        assert codec.strict_width(3, 2) == 3
        assert codec.strict_width(8, 2) == 8

    def test_strict_unavailable_divisibility(self):
        with pytest.raises(StrictUnavailableError):
            codec.strict_width(4, 8)  # log2(8) = 3 does not divide 4

    def test_strict_unavailable_base(self):
        with pytest.raises(StrictUnavailableError):
            codec.strict_width(4, 10)

    def test_strict_width_is_exact_power(self):
        for k, d in [(2, 2), (4, 4), (8, 2), (8, 16), (16, 4), (16, 16)]:
            s = codec.strict_width(k, d)
            assert d**s == 2**k

    def test_alpha_examples(self):
        assert codec.min_width_alpha(3, 2, 3) == 1
        assert codec.min_width_alpha(3, 2, 1) == 3  # coincides with strict
        assert codec.min_width_alpha(8, 2, 1) == 8  # ceil(log2 255)

    def test_alpha_below_one(self):
        with pytest.raises(BadAlphaError):
            codec.min_width_alpha(3, 2, 0.5)

    def test_alpha_nan_refused(self):
        with pytest.raises(BadAlphaError):
            codec.min_width_alpha(8, 2, float("nan"))

    def test_alpha_inf_is_one_digit(self):
        assert codec.min_width_alpha(8, 2, float("inf")) == 1

    def test_alpha_matches_oracle_grid(self):
        for k in range(2, 17):
            for d in (2, 3, 4, 5, 16):
                for alpha in (1, 1.5, 2, 3, 5, 8):
                    got = codec.min_width_alpha(k, d, alpha)
                    assert got == oracles.min_alpha_width(k, d, alpha), (k, d, alpha)


class TestGroupingPlan:
    def test_table3_plan(self):
        plan = codec.make_grouping_plan(9, spec32(), n=3)
        assert (plan.width, plan.r, plan.pad_count) == (3, 3, 0)
        assert plan.widths.tolist() == [3, 3, 3]

    def test_padding_to_whole_blocks(self):
        plan = codec.make_grouping_plan(10, spec32(), n=3)
        # 10 digits -> 4 elements raw -> padded to 6 (two blocks of 3)
        assert (plan.r, plan.pad_count) == (6, 8)
        assert plan.message_length == 10

    def test_alpha_plan_default_width(self):
        plan = codec.make_grouping_plan(
            100, gf.FieldSpec(k=8, d=2), n=4, mode=ALPHA_BOUNDED, alpha=5
        )
        assert plan.width == codec.min_width_alpha(8, 2, 5)

    def test_alpha_width_below_minimum_rejected(self):
        with pytest.raises(BadAlphaError):
            codec.make_grouping_plan(
                100, gf.FieldSpec(k=8, d=2), n=4,
                mode=ALPHA_BOUNDED, alpha=2, width=3,
            )

    def test_alpha_width_overflowing_field_rejected(self):
        # base-3 pairs reach 8 which GF(2^3) cannot hold
        with pytest.raises(ElementOverflowError):
            codec.make_grouping_plan(
                10, gf.FieldSpec(k=3, d=3), n=2, mode=ALPHA_BOUNDED, alpha=1
            )

    def test_empty_message_rejected(self):
        with pytest.raises(EmptyInputError):
            codec.make_grouping_plan(0, spec32(), n=3)


class TestRegroup:
    def test_table3_regroup(self):
        plan = codec.make_grouping_plan(9, spec32(), n=3)
        b = codec.DigitString(2, TABLE3_BITS)
        assert codec.regroup(b, plan).tolist() == [1, 3, 5]

    def test_tail_padding(self):
        plan = codec.make_grouping_plan(7, spec32(), n=3)
        b = codec.DigitString(2, [1, 1, 1, 1, 1, 1, 1])
        assert plan.pad_count == 2
        assert codec.regroup(b, plan).tolist() == [7, 7, 4]

    @pytest.mark.parametrize("k,d", [(3, 2), (4, 4), (8, 2), (8, 16), (16, 2), (16, 256)])
    def test_strict_elements_in_the_digit_dtype_of_the_field(self, k, d):
        """A strict element is k bits of the packed message, held in
        digit_dtype(2^k): a byte at k <= 8, two above."""
        digits = np.random.default_rng(k * d).integers(0, d, size=300)
        plan = codec.make_grouping_plan(300, gf.FieldSpec(k=k, d=d), n=3)
        elements = codec.regroup(codec.DigitString(d, digits), plan)
        assert elements.dtype == codec.digit_dtype(1 << k)
        assert elements.dtype == (np.uint8 if k <= 8 else np.uint16)
        assert codec.ungroup(elements, plan) == codec.DigitString(d, digits)

    def test_empty_rejected(self):
        plan = codec.make_grouping_plan(9, spec32(), n=3)
        with pytest.raises(EmptyInputError):
            codec.regroup(codec.DigitString(2, []), plan)

    def test_length_mismatch(self):
        plan = codec.make_grouping_plan(9, spec32(), n=3)
        with pytest.raises(PlanMismatchError):
            codec.regroup(codec.DigitString(2, [1, 0, 1]), plan)

    def test_overflow_on_misconfigured_plan(self):
        bad = codec.GroupingPlan(
            mode=ALPHA_BOUNDED, d=3, k=3, width=2, r=2, pad_count=0, alpha=2.0
        )
        b = codec.DigitString(3, [2, 2, 0, 1])
        with pytest.raises(ElementOverflowError):
            codec.regroup(b, bad)


class TestUngroup:
    def test_table3_reversed(self):
        plan = codec.make_grouping_plan(9, spec32(), n=3)
        got = codec.ungroup(np.array([1, 3, 5]), plan)
        assert got == codec.DigitString(2, TABLE3_BITS)

    def test_zero_element(self):
        plan = codec.make_grouping_plan(3, spec32(), n=1)
        assert codec.ungroup(np.array([0]), plan).digits.tolist() == [0, 0, 0]

    def test_wrong_element_count(self):
        plan = codec.make_grouping_plan(9, spec32(), n=3)
        with pytest.raises(PlanMismatchError):
            codec.ungroup(np.array([1, 3]), plan)

    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.tuples(
                st.just(d), st.lists(st.integers(0, d - 1), min_size=1, max_size=60)
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, d_digits):
        d, digits = d_digits
        k = {2: 4, 3: 4, 4: 4}[d]
        spec = gf.FieldSpec(k=k, d=d)
        plan = codec.make_grouping_plan(
            len(digits), spec, n=3, mode=ALPHA_BOUNDED, alpha=4
        )
        b = codec.DigitString(d, digits)
        assert codec.ungroup(codec.regroup(b, plan), plan) == b


class TestExpandDigits:
    @pytest.mark.parametrize("d", [2, 3, 4, 10, 16, 256])
    @pytest.mark.parametrize("width", [1, 8, 16])
    def test_matches_oracle(self, d, width):
        """Shift-and-mask (power-of-two d) and division give the same digits."""
        rng = np.random.default_rng(d * 100 + width)
        values = rng.integers(0, min(d**width, 1 << 62), size=200)
        values[:2] = [0, min(d**width, 1 << 62) - 1]
        got = codec.expand_digits(values, d, width)
        assert got.dtype == np.int64 and got.shape == (200, width)
        assert got.tolist() == [oracles.to_digits(int(v), d, width) for v in values]

    def test_wide_power_of_two_keeps_low_digits(self):
        """Digits above bit 63 are zero, as repeated division gives."""
        got = codec.expand_digits(np.array([(1 << 62) + 5]), 2, 70)
        assert got[0].tolist() == oracles.to_digits((1 << 62) + 5, 2, 70)


class TestCopyBits:
    @given(
        start=st.integers(0, 63),
        at=st.integers(0, 63),
        count=st.integers(0, 300),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_unpackbits_oracle(self, start, at, count, data):
        """The copied bits land at their offset; every other bit of dst,
        the partial bytes at both ends included, is kept."""
        src_bytes = (start + count + 7) // 8
        src = data.draw(st.binary(min_size=src_bytes, max_size=src_bytes + 2))
        dst_bytes = (at + count + 7) // 8 + data.draw(st.integers(0, 2))
        dst = np.frombuffer(
            data.draw(st.binary(min_size=dst_bytes, max_size=dst_bytes)), np.uint8
        ).copy()
        want = np.unpackbits(dst)
        want[at : at + count] = np.unpackbits(np.frombuffer(src, np.uint8))[
            start : start + count
        ]
        codec.copy_bits(dst, at, src, start, count)
        assert np.unpackbits(dst).tolist() == want.tolist()


PACKED_BASES = st.one_of(
    st.integers(2, 256), st.sampled_from([1 << j for j in range(9, 17)])
)


class TestPackedLayout:
    @given(
        PACKED_BASES.flatmap(
            lambda d: st.tuples(st.just(d), st.lists(st.integers(0, d - 1), max_size=40))
        ),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_slow_pack(self, d_digits, data):
        """Every base a shard can hold packs as the oracle does, log2(d)
        bits a digit for a power of two and a byte a digit otherwise, and
        any run of digits unpacks from the packed bytes."""
        d, digits = d_digits
        x = np.array(digits, dtype=codec.digit_dtype(d))
        start = data.draw(st.integers(0, x.size))
        count = data.draw(st.integers(0, x.size - start))
        packed = codec.pack_digits(x, d)
        assert packed == oracles.slow_pack(digits, d)
        back = codec.unpack_digits(packed, d, count, start)
        assert back.dtype == codec.digit_dtype(d)
        assert back.tolist() == digits[start : start + count]

    @given(st.integers(257, 1 << 20).filter(lambda d: d & (d - 1)))
    @settings(max_examples=50, deadline=None)
    def test_wide_base_refused(self, d):
        with pytest.raises(ConfigError):
            codec.digit_bits(d)
        with pytest.raises(ConfigError):
            codec.pack_digits(np.zeros(1, np.int64), d)
        with pytest.raises(ConfigError):
            codec.unpack_digits(b"\0\0\0", d, 1)

    def test_digit_bits(self):
        assert [codec.digit_bits(d) for d in (2, 4, 10, 255, 256, 512, 1 << 16)] == [
            1, 2, 8, 8, 8, 9, 16
        ]
        for d in (0, 1, 1 << 17):
            with pytest.raises(ConfigError):
                codec.digit_bits(d)


class TestNarrowDigits:
    @pytest.mark.parametrize(
        "d,dtype",
        [(2, np.uint8), (10, np.uint8), (256, np.uint8), (257, np.uint16),
         (65536, np.uint16), (65537, np.int64)],
    )
    def test_digit_dtype(self, d, dtype):
        b = codec.DigitString(d, np.array([0, d - 1]))
        assert b.digits.dtype == dtype and b.digits.tolist() == [0, d - 1]
        assert codec.DigitString(d, []).digits.dtype == dtype

    def test_non_integer_rejected(self):
        for bad in ([0.5, 1.9], ["0", "1"], [True, False], [0, 2**70]):
            with pytest.raises(ConfigError):
                codec.DigitString(2, bad)

    def test_range_checked_before_narrowing(self):
        with pytest.raises(ConfigError):
            codec.DigitString(256, [300])
        with pytest.raises(ConfigError):
            codec.DigitString(256, np.array([-1]))
        with pytest.raises(ConfigError):
            codec.DigitString(2, np.array([2], dtype=np.uint8))

    def test_caller_array_stays_writable(self):
        """An input already in the digit dtype is copied, not frozen in place."""
        mine = np.array([0, 1, 1, 0], dtype=np.uint8)
        b = codec.DigitString(2, mine)
        coded = codec.CodedStream(
            elements=[0, 1], render_digits=mine, render_lengths=[2, 2],
            n=2, d=2, mode=STRICT,
        )
        mine[0] = 1
        assert mine.flags.writeable
        assert b.digits.tolist() == coded.render_digits.tolist() == [0, 1, 1, 0]
        assert not b.digits.flags.writeable
        assert not coded.render_digits.flags.writeable

    def test_read_only_input_shared(self):
        frozen = np.array([1, 0, 1], dtype=np.uint8)
        frozen.setflags(write=False)
        assert codec.DigitString(2, frozen).digits is frozen

    def test_byte_base_unpack_is_a_fresh_copy(self):
        """At d = 256 the bytes are the digits, copied out of the caller's
        buffer, and pack_digits gives them back."""
        data = bytearray(b"\x00\x07\xff\x80")
        digits = codec.unpack_digits(data, 256, 3, 1)
        data[1] = 9
        assert digits.dtype == np.uint8 and digits.tolist() == [7, 255, 128]
        assert codec.pack_digits(digits, 256) == b"\x07\xff\x80"

    @pytest.mark.parametrize("d,width", [(16, 4), (4, 5), (2, 300), (8, 3)])
    def test_expand_narrow_values(self, d, width):
        """uint8 values expand right, shifts past their width included."""
        values = np.array([0, 1, 0x5A, 0xAB, 0xFF], dtype=np.uint8)
        got = codec.expand_digits(values, d, width, np.uint8)
        assert got.dtype == np.uint8
        assert got.tolist() == [oracles.to_digits(int(v), d, width) for v in values]

    @pytest.mark.parametrize("d,k", [(16, 16), (2, 16), (3, 16), (256, 16)])
    def test_alpha_render_parse_roundtrip(self, d, k):
        """Renders as long as 16 base-2 digits fold in int64, not in uint8."""
        rng = np.random.default_rng(d + k)
        values = rng.integers(0, 1 << k, size=500)
        values[:3] = [0, 1, (1 << k) - 1]
        digits, lengths = codec.render_elements(values, d, ALPHA_BOUNDED)
        assert digits.dtype == codec.digit_dtype(d)
        assert lengths.tolist() == [oracles.digit_len(int(v), d) for v in values]
        want = [
            x for v in values
            for x in oracles.to_digits(int(v), d, oracles.digit_len(int(v), d))
        ]
        assert digits.tolist() == want
        assert codec.parse_renders(digits, lengths, d).tolist() == values.tolist()

    @pytest.mark.parametrize(
        "d,width",
        [(2, 8), (2, 16), (2, 3), (4, 4), (16, 4), (10, 2), (256, 2), (65536, 1)],
    )
    def test_strict_render_parse_roundtrip(self, d, width):
        rng = np.random.default_rng(d * width)
        values = rng.integers(0, d**width, size=300)
        digits, lengths = codec.render_elements(values, d, STRICT, fixed_width=width)
        assert digits.dtype == codec.digit_dtype(d)
        want = [x for v in values for x in oracles.to_digits(int(v), d, width)]
        assert digits.tolist() == want
        parsed = codec.parse_renders(digits, lengths, d)
        assert parsed.dtype == np.int64 and parsed.tolist() == values.tolist()

    def test_strict_lengths_are_a_read_only_zero_stride_view(self):
        """A strict stream's lengths cost one int64, not one per element."""
        values = np.arange(1 << 12) % 256
        _, lengths = codec.render_elements(values, 2, STRICT, fixed_width=8)
        assert lengths.dtype == np.int64 and lengths.shape == (values.size,)
        assert lengths.strides == (0,) and not lengths.flags.writeable
        assert lengths.tolist() == [8] * values.size
        plan = codec.GroupingPlan(mode=STRICT, d=2, k=8, width=8, r=16, pad_count=0)
        a = gf.build_vandermonde(gf.FieldSpec(k=8, d=2), gf.default_points(4))
        stream = codec.encode_stream(codec.DigitString(2, np.ones(128, int)), plan, a)
        assert stream.render_lengths.strides == (0,)


class TestBlockCoding:
    def test_encode_example(self):
        spec = spec32()
        plan = codec.make_grouping_plan(9, spec, n=3)
        a = gf.build_vandermonde(spec, (1, 2, 3))
        block = codec.encode_block(a, np.array([1, 3, 5]), plan)
        assert block.elements.tolist() == [7, 3, 1]
        renders = [block.render_digits[a : a + 3].tolist() for a in (0, 3, 6)]
        assert renders == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
        assert block.total_digits == 9

    def test_encode_zero_vector(self):
        spec = spec32()
        plan = codec.make_grouping_plan(9, spec, n=3)
        a = gf.build_vandermonde(spec, (1, 2, 3))
        block = codec.encode_block(a, np.zeros(3, dtype=np.int64), plan)
        assert block.elements.tolist() == [0, 0, 0]

    def test_encode_single_nonzero_extracts_column(self):
        spec = spec32()
        plan = codec.make_grouping_plan(9, spec, n=3)
        a = gf.build_vandermonde(spec, (1, 2, 3))
        f = spec.field()
        for j in range(3):
            for v in range(1, 8):
                b = np.zeros(3, dtype=np.int64)
                b[j] = v
                block = codec.encode_block(a, b, plan)
                want = [f.mul(int(a.rows[i, j]), v) for i in range(3)]
                assert block.elements.tolist() == want

    def test_encode_dimension_mismatch(self):
        spec = spec32()
        plan = codec.make_grouping_plan(9, spec, n=3)
        a = gf.build_vandermonde(spec, (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            codec.encode_block(a, np.array([1, 2]), plan)

    def test_decode_example(self):
        spec = spec32()
        a = gf.build_vandermonde(spec, (1, 2, 3))
        assert codec.decode_block(a, np.array([7, 3, 1])).tolist() == [1, 3, 5]

    def test_decode_zero(self):
        spec = spec32()
        a = gf.build_vandermonde(spec, (1, 2, 3))
        assert codec.decode_block(a, np.zeros(3, dtype=np.int64)).tolist() == [0, 0, 0]

    def test_decode_identity_matrix(self):
        f = gf.get_field(3)
        eye = gf.EncodingMatrix(f, (1,), np.array([[1]]))
        assert codec.decode_block(eye, np.array([5])).tolist() == [5]

    def test_alpha_render_minimal(self):
        spec = gf.FieldSpec(k=3, d=2)
        plan = codec.make_grouping_plan(9, spec, n=3, mode=ALPHA_BOUNDED, alpha=3)
        a = gf.build_vandermonde(spec, (1, 2, 3))
        block = codec.encode_block(a, np.array([1, 0, 1]), plan)
        lengths = codec.digit_lengths(block.elements, 2)
        assert block.render_lengths.tolist() == lengths.tolist()

    def test_render_parse_roundtrip(self):
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 256, size=200)
        digits, lengths = codec.render_elements(vals, 2, ALPHA_BOUNDED)
        assert codec.parse_renders(digits, lengths, 2).tolist() == vals.tolist()
        digits, lengths = codec.render_elements(vals, 2, STRICT, fixed_width=8)
        assert codec.parse_renders(digits, lengths, 2).tolist() == vals.tolist()


def _column_table_spy(monkeypatch):
    """Record the n of every column table built during the test."""
    built = []
    real = gf.Field._column_table

    def spy(self, m):
        built.append(m.shape[1])
        return real(self, m)

    monkeypatch.setattr(gf.Field, "_column_table", spy)
    return built


class TestColumnTableEncode:
    """encode_stream against a one-row-batch encode and the shift-and-reduce
    oracle: every k <= 8 stream takes the column table, however short, and
    k > 8 takes one mat_vec_batch call over all its blocks."""

    CASES = [
        (k, n, blocks)
        for k in (2, 3, 4, 8)
        for n in (1, 7, 8, 9, 51)
        if n < 1 << k
        for blocks in (1, (1 << k) - 1, 1 << k)
    ]

    @staticmethod
    def encode(spec, n, blocks, mode=STRICT, alpha=None, seed=0):
        rng = np.random.default_rng(seed)
        width = (
            codec.strict_width(spec.k, spec.d) if mode == STRICT
            else codec.min_width_alpha(spec.k, spec.d, alpha)
        )
        m = blocks * n * width - int(rng.integers(0, width))  # pads the last block
        plan = codec.make_grouping_plan(m, spec, n=n, mode=mode, alpha=alpha)
        b = codec.DigitString(spec.d, rng.integers(0, spec.d, size=m))
        a = gf.build_vandermonde(spec, gf.default_points(n))
        counter = gf.OpCounter()
        a.field.counter = counter
        try:
            stream = codec.encode_stream(b, plan, a)
        finally:
            a.field.counter = None
        plain = codec.regroup(b, plan).reshape(-1, n)
        assert plain.shape[0] == blocks
        return a, plan, plain, stream, counter.muls

    def check(self, a, plan, plain, stream, muls):
        f = a.field
        want = np.array([f.mat_vec_batch(a.rows, v[None])[0] for v in plain])
        assert stream.elements.reshape(plain.shape).tolist() == want.tolist()
        rng = np.random.default_rng(len(plain))
        sample = {0, len(plain) - 1, *rng.integers(0, len(plain), 6).tolist()}
        for i in sorted(sample):
            got = oracles.slow_mat_vec(a.rows.tolist(), plain[i].tolist(), f.poly, f.k)
            assert got == want[i].tolist()
        digits, lengths = codec.render_elements(
            want.reshape(-1), plan.d, plan.mode, fixed_width=plan.width
        )
        assert stream.render_digits.tolist() == digits.tolist()
        assert stream.render_lengths.tolist() == lengths.tolist()
        assert muls == len(plain) * a.n * a.n

    @pytest.mark.parametrize("k,n,blocks", CASES)
    def test_matches_row_by_row(self, k, n, blocks, monkeypatch):
        built = _column_table_spy(monkeypatch)
        spec = gf.FieldSpec(k=k, d=2)
        self.check(*self.encode(spec, n, blocks, seed=k * 1000 + n * 10 + blocks))
        assert built == [n]

    @pytest.mark.parametrize("blocks", [2, 255, 300])
    def test_alpha_mode(self, blocks, monkeypatch):
        built = _column_table_spy(monkeypatch)
        spec = gf.FieldSpec(k=8, d=3)
        self.check(*self.encode(spec, 5, blocks, ALPHA_BOUNDED, 2.0, seed=blocks))
        assert built == [5]

    def test_zero_blocks_and_full_range(self, monkeypatch):
        # every element value, zeros included, in every column position
        built = _column_table_spy(monkeypatch)
        spec = gf.FieldSpec(k=8, d=256)
        n = 3
        values = np.arange(256 * n, dtype=np.int64) % 256
        values[: n * 8] = 0  # a few all-zero blocks
        plan = codec.make_grouping_plan(values.size, spec, n=n)
        a = gf.build_vandermonde(spec, gf.default_points(n))
        stream = codec.encode_stream(codec.DigitString(256, values), plan, a)
        want = np.array(
            [a.field.mat_vec_batch(a.rows, v[None])[0] for v in values.reshape(-1, n)]
        )
        assert stream.elements.reshape(-1, n).tolist() == want.tolist()
        assert built == [n]

    def test_wide_field_codes_one_batch(self, monkeypatch):
        built = _column_table_spy(monkeypatch)
        batches = []
        real = gf.Field.mat_vec_batch
        monkeypatch.setattr(
            gf.Field, "mat_vec_batch",
            lambda f, m, vs, **kw: batches.append(len(vs)) or real(f, m, vs, **kw),
        )
        spec = gf.FieldSpec(k=16, d=16)
        self.check(*self.encode(spec, 3, 40, seed=16))
        # k > 8 has no product table to slice, however long the stream
        spec = gf.FieldSpec(k=9, d=2, reduction_poly=gf.find_irreducible(9))
        self.check(*self.encode(spec, 3, spec.q, seed=9))
        assert built == []
        # one call per stream; the rest are check()'s one-row batches
        assert [b for b in batches if b > 1] == [40, 512]

    def test_column_table_rows(self):
        f = gf.get_field(4)
        a = gf.build_vandermonde(f, gf.default_points(9))
        table = f._column_table(a.rows)
        assert table.dtype == np.uint64 and table.shape == (9 * 16, 2)
        octets = table.view(np.uint8)
        for j in range(9):
            for t in range(16):
                row = octets[j * 16 + t]
                assert row[:9].tolist() == [f.mul(int(x), t) for x in a.rows[:, j]]
                assert not row[9:].any()


class TestStreamRoundTrip:
    GRID = [
        (2, 2, STRICT, None),
        (2, 4, STRICT, None),
        (2, 8, STRICT, None),
        (4, 4, STRICT, None),
        (2, 3, ALPHA_BOUNDED, 2),
        (2, 8, ALPHA_BOUNDED, 5),
        (4, 8, ALPHA_BOUNDED, 2),
        (16, 8, ALPHA_BOUNDED, 3),
    ]

    @pytest.mark.parametrize("d,k,mode,alpha", GRID)
    def test_roundtrip(self, d, k, mode, alpha):
        spec = gf.FieldSpec(k=k, d=d)
        rng = np.random.default_rng(hash((d, k, mode)) % 2**31)
        for n in (1, 3, 5):
            if n > spec.q - 1:
                continue
            m = int(rng.integers(1, 8 * n * 4))
            plan = codec.make_grouping_plan(m, spec, n=n, mode=mode, alpha=alpha)
            b = codec.DigitString(d, rng.integers(0, d, size=m))
            a = gf.build_vandermonde(spec, gf.default_points(n))
            stream = codec.encode_stream(b, plan, a)
            coded = stream.elements.reshape(-1, n)
            decoded = a.field.mat_vec_batch(a.inverse(), coded)
            assert codec.ungroup(decoded.reshape(-1), plan) == b


class TestClassifyOverflow:
    def _block(self, elements, d, mode=ALPHA_BOUNDED, width=None):
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

    def test_case1_strict_yes(self):
        block = self._block([1, 1, 1], d=2)
        report = codec.classify_overflow(
            np.ones(3, dtype=np.int64), block, [[0, 2], [1]], alpha=3
        )
        assert report.strict is True
        assert report.alpha_bound_satisfied is True

    def test_case2_bounded_only(self):
        # coded values 2, 3, 5 render as 10, 11, 101
        block = self._block([2, 3, 5], d=2)
        report = codec.classify_overflow(
            np.ones(3, dtype=np.int64), block, [[0, 2], [1]], alpha=3
        )
        assert report.strict is False
        assert report.alpha_bound_satisfied is True
        assert report.per_cloud_ratios == (2.5, 2.0)

    def test_all_zero_is_strict(self):
        block = self._block([0, 0, 0], d=2)
        report = codec.classify_overflow(
            np.ones(3, dtype=np.int64), block, [[0, 1, 2]], alpha=1
        )
        assert report.strict is True

    def test_bad_assignment(self):
        block = self._block([1, 2, 3], d=2)
        with pytest.raises(BadAssignmentError):
            codec.classify_overflow(
                np.ones(3, dtype=np.int64), block, [[0, 1]], alpha=2
            )
        with pytest.raises(BadAssignmentError):
            codec.classify_overflow(
                np.ones(3, dtype=np.int64), block, [[0, 1], [1, 2]], alpha=2
            )

    def test_strict_implies_alpha_bounded(self):
        rng = np.random.default_rng(3)
        spec = gf.FieldSpec(k=4, d=2)
        plan = codec.make_grouping_plan(16, spec, n=4)
        a = gf.build_vandermonde(spec, gf.default_points(4))
        for _ in range(50):
            b = rng.integers(0, 16, size=4)
            block = codec.encode_block(a, b, plan)
            assignment = [[0, 3], [1], [2]]
            for alpha in (1.0, 1.5, 2.0, 10.0):
                report = codec.classify_overflow(
                    np.full(4, plan.width), block, assignment, alpha
                )
                if report.strict:
                    assert report.alpha_bound_satisfied


class TestWidthTheorems:
    """Width selection rules hold for every vector they admit."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_strict_never_expands_exhaustive(self, k):
        spec = gf.FieldSpec(k=k, d=2)
        s = codec.strict_width(k, 2)
        for n in (1, 2, 3):
            plan = codec.make_grouping_plan(n * s, spec, n=n)
            a = gf.build_vandermonde(spec, gf.default_points(n))
            for b in oracles.all_vectors(spec.q, n):
                block = codec.encode_block(a, np.array(b), plan)
                lengths = codec.digit_lengths(block.elements, 2)
                assert int(lengths.max()) <= s
                assert block.total_digits == n * s

    @pytest.mark.parametrize("k", [8, 16])
    def test_strict_never_expands_randomized(self, k):
        spec = gf.FieldSpec(k=k, d=2)
        s = codec.strict_width(k, 2)
        n = 6
        plan = codec.make_grouping_plan(n * s, spec, n=n)
        a = gf.build_vandermonde(spec, gf.default_points(n))
        rng = np.random.default_rng(k)
        vecs = rng.integers(0, spec.q, size=(10_000, n))
        coded = spec.field().mat_vec_batch(a.rows, vecs)
        assert int(codec.digit_lengths(coded, 2).max()) <= s

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_alpha_bound_exhaustive(self, k, alpha):
        spec = gf.FieldSpec(k=k, d=2)
        n = 3
        width = codec.min_width_alpha(k, 2, alpha)
        plan = codec.GroupingPlan(
            mode=ALPHA_BOUNDED, d=2, k=k, width=width, r=n,
            pad_count=0, alpha=float(alpha),
        )
        a = gf.build_vandermonde(spec, gf.default_points(n))
        assignments = [[[0], [1], [2]], [[0, 1], [2]], [[0, 1, 2]], [[0, 2], [1]]]
        for b in oracles.all_vectors(2**width, n):
            block = codec.encode_block(a, np.array(b), plan)
            for assignment in assignments:
                report = codec.classify_overflow(
                    np.full(n, width), block, assignment, alpha
                )
                assert report.alpha_bound_satisfied, (b, assignment)

    @pytest.mark.parametrize("k,alpha", [(8, 2), (8, 5), (16, 5)])
    def test_alpha_bound_randomized(self, k, alpha):
        spec = gf.FieldSpec(k=k, d=2)
        n = 5
        width = codec.min_width_alpha(k, 2, alpha)
        plan = codec.GroupingPlan(
            mode=ALPHA_BOUNDED, d=2, k=k, width=width, r=n,
            pad_count=0, alpha=float(alpha),
        )
        a = gf.build_vandermonde(spec, gf.default_points(n))
        rng = np.random.default_rng(k * 7 + alpha)
        widths = np.full(n, width)
        for _ in range(400):
            b = rng.integers(0, 2**width, size=n)
            block = codec.encode_block(a, b, plan)
            sizes = rng.multinomial(n, [1 / 3] * 3)
            idx = rng.permutation(n)
            assignment, at = [], 0
            for size in sizes:
                assignment.append(idx[at : at + size].tolist())
                at += size
            report = codec.classify_overflow(widths, block, assignment, alpha)
            assert report.alpha_bound_satisfied
