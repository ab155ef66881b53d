import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ncss import codec, gf
from ncss.errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicatePointError,
    SingularMatrixError,
    StrictUnavailableError,
    TooManyPointsError,
    ZeroInverseError,
    ZeroPointError,
)

import oracles


@pytest.fixture(scope="module")
def gf8():
    return gf.get_field(3)


@pytest.fixture(scope="module")
def gf8_table():
    return oracles.mul_table(0b1011, 3)


class TestScalarOps:
    def test_add_is_xor(self, gf8):
        assert gf8.add(3, 5) == 6

    def test_add_self_inverse(self, gf8):
        for x in range(8):
            assert gf8.add(x, x) == 0

    def test_add_identity_gf256(self):
        f = gf.get_field(8)
        assert f.add(0x53, 0x00) == 0x53

    def test_mul_examples(self, gf8, gf8_table):
        assert gf8_table[3][5] == 4
        assert gf8.mul(3, 5) == 4
        assert gf8_table[2][3] == 6
        assert gf8.mul(2, 3) == 6

    def test_mul_identity(self, gf8):
        for y in range(8):
            assert gf8.mul(1, y) == y

    def test_inv_example(self, gf8):
        assert oracles.inv_by_search(3, 0b1011, 3) == 6
        assert gf8.inv(3) == 6

    def test_inv_one(self, gf8):
        assert gf8.inv(1) == 1

    def test_inv_zero_raises(self, gf8):
        with pytest.raises(ZeroInverseError):
            gf8.inv(0)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_mul_matches_table_oracle_all_pairs(self, k):
        f = gf.get_field(k)
        q = 1 << k
        table = oracles.mul_table(f.poly, k)
        a = np.repeat(np.arange(q), q)
        b = np.tile(np.arange(q), q)
        got = f.mul_arr(a, b)
        want = np.array(table, dtype=np.int64).reshape(-1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_field_axioms_exhaustive(self, k):
        f = gf.get_field(k)
        q = f.q
        elems = range(q)
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        for a in range(1, q):
            inverses = [b for b in range(1, q) if f.mul(a, b) == 1]
            assert inverses == [f.inv(a)]

    def test_pow_matches_repeated_mul(self, gf8):
        for x in range(8):
            for e in range(10):
                assert gf8.pow(x, e) == oracles.slow_pow(x, e, 0b1011, 3)


class TestFieldConstruction:
    def test_default_polys_are_irreducible(self):
        for k, poly in gf.DEFAULT_POLYS.items():
            assert gf.is_irreducible(poly, k)

    def test_reducible_poly_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        with pytest.raises(ConfigError):
            gf.Field(4, 0b10101)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ConfigError):
            gf.Field(4, 0b1011)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            gf.Field(1)
        with pytest.raises(ConfigError):
            gf.Field(17)

    def test_no_default_needs_explicit_poly(self):
        with pytest.raises(ConfigError):
            gf.Field(5)
        f = gf.Field(5, gf.find_irreducible(5))
        assert f.mul(1, 7) == 7

    def test_user_poly_accepted(self):
        # x^8 + x^6 + x^5 + x^4 + 1 is another irreducible of degree 8
        f = gf.Field(8, 0b101110001)
        assert f.mul(f.inv(0xAB), 0xAB) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_generator_is_the_smallest_element_of_full_order(self, k):
        """Every irreducible polynomial of degree k: the generator's powers
        first return to 1 after q - 1 steps, and no smaller element's do."""
        q = 1 << k

        def order(g, poly):
            x, steps = g, 1
            while x != 1:
                x, steps = oracles.slow_mul(x, g, poly, k), steps + 1
            return steps

        for poly in range(q, 2 * q):
            if gf.is_irreducible(poly, k):
                g = gf.Field(k, poly).generator
                assert order(g, poly) == q - 1
                assert all(order(h, poly) < q - 1 for h in range(2, g))


class TestGetField:
    @pytest.mark.parametrize("k", sorted(gf.DEFAULT_POLYS))
    def test_default_polynomial_is_one_field(self, k):
        """None and the default polynomial name the same instance, so a
        counter attached to one sees the work done through the other."""
        f = gf.get_field(k)
        assert gf.get_field(k, gf.DEFAULT_POLYS[k]) is f
        assert gf.FieldSpec(k=k, d=2).field() is f
        f.counter = gf.OpCounter()
        try:
            gf.get_field(k, gf.DEFAULT_POLYS[k]).mul(2, 3)
            assert f.counter.muls == 1
        finally:
            f.counter = None

    def test_other_polynomials_keep_the_last_eight(self):
        polys = [p for p in range(1 << 8, 1 << 9) if gf.is_irreducible(p, 8)]
        polys.remove(gf.DEFAULT_POLYS[8])
        default = gf.get_field(8)
        first = [gf.get_field(8, p) for p in polys[:8]]
        assert all(gf.get_field(8, p) is f for p, f in zip(polys[:8], first))
        for p in polys[8:]:
            gf.get_field(8, p)
        assert all(gf.get_field(8, p) is not f for p, f in zip(polys[:8], first))
        assert gf.get_field(8) is default

    def test_bad_fields_are_rejected_through_either_cache(self):
        for k, poly in [(5, None), (17, None), (4, 0b10101), (8, 0)]:
            with pytest.raises(ConfigError):
                gf.get_field(k, poly)


class TestGatherTable:
    """_gather_table builds every product table by linearity: the k rows
    a * 2^b as products, every other row as an XOR of two earlier ones."""

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_every_column_value_matches_the_oracle(self, k):
        f = gf.get_field(k)
        table = f._gather_table(np.arange(f.q))
        assert table.shape == (f.q, f.q) and table.dtype == f.dtype
        assert table.flags.c_contiguous
        # table[t, a] = a * t
        assert table.T.tolist() == oracles.mul_table(f.poly, k)

    @pytest.mark.parametrize("k", [9, 12, 16])
    def test_both_halves_of_the_split_table_match_mul(self, k):
        f = field_for(k)
        a = np.concatenate([[0, 1, f.q - 1], np.random.default_rng(k).integers(0, f.q, 6)])
        table = f._gather_table(a)
        assert table.shape == (256 + (f.q >> 8), a.size) and table.dtype == f.dtype
        for t in range(256):
            assert table[t].tolist() == [f.mul(int(x), t) for x in a]
        for h in range(f.q >> 8):
            assert table[256 + h].tolist() == [f.mul(int(x), h << 8) for x in a]

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_columns_stacked_build_their_tables_stacked(self, k):
        f = gf.get_field(k)
        m = np.random.default_rng(k).integers(0, f.q, size=(5, 7))
        table = f._gather_table(m)
        assert table.flags.c_contiguous
        assert np.array_equal(table, np.stack([f._gather_table(c) for c in m]))


class TestFieldSpec:
    def test_strict_width_derived(self):
        for k, d, s in [(3, 2, 3), (8, 2, 8), (8, 4, 4), (16, 16, 4)]:
            spec = gf.FieldSpec(k=k, d=d)
            assert codec.strict_width(spec.k, spec.d) == s

    def test_strict_width_absent(self):
        for k, d in [(4, 8), (3, 5)]:  # 3 does not divide 4; 5 not a power of two
            spec = gf.FieldSpec(k=k, d=d)
            with pytest.raises(StrictUnavailableError):
                codec.strict_width(spec.k, spec.d)

    def test_field_must_cover_digit_base(self):
        with pytest.raises(ConfigError):
            gf.FieldSpec(k=2, d=5)
        gf.FieldSpec(k=2, d=4)  # 2^k == d is allowed

    def test_bad_base(self):
        with pytest.raises(ConfigError):
            gf.FieldSpec(k=3, d=1)


class TestVandermonde:
    def test_example_3x3(self, gf8):
        a = gf.build_vandermonde(gf8, (1, 2, 3))
        # squares from the table oracle: 2^2 = 4, 3^2 = 5
        assert oracles.slow_pow(2, 2, 0b1011, 3) == 4
        assert oracles.slow_pow(3, 2, 0b1011, 3) == 5
        assert a.rows.tolist() == [[1, 1, 1], [1, 2, 3], [1, 4, 5]]

    def test_single_point(self, gf8):
        a = gf.build_vandermonde(gf8, (1,))
        assert a.rows.tolist() == [[1]]

    def test_duplicate_point(self, gf8):
        with pytest.raises(DuplicatePointError):
            gf.build_vandermonde(gf8, (2, 2))

    def test_zero_point(self, gf8):
        with pytest.raises(ZeroPointError):
            gf.build_vandermonde(gf8, (0, 1))

    def test_no_points(self, gf8):
        with pytest.raises(ConfigError):
            gf.build_vandermonde(gf8, ())

    def test_too_many_points(self, gf8):
        with pytest.raises(TooManyPointsError):
            gf.build_vandermonde(gf8, tuple(range(1, 9)))

    def test_accepts_spec(self):
        spec = gf.FieldSpec(k=3, d=2)
        a = gf.build_vandermonde(spec, (1, 2, 3))
        assert a.field.k == 3

    def test_first_row_all_ones(self):
        f = gf.get_field(8)
        a = gf.build_vandermonde(f, gf.default_points(20))
        assert np.all(a.rows[0] == 1)


class TestCheckPoints:
    def test_returns_int_tuple(self, gf8):
        assert gf.check_points(gf8, np.array([3, 1, 7])) == (3, 1, 7)
        assert gf.check_points(gf8, []) == ()  # build_vandermonde wants one

    @pytest.mark.parametrize(
        "points,error",
        [
            ((1, 2, 1), DuplicatePointError),
            ((0, 1), ZeroPointError),
            ((1, 8), ConfigError),  # outside GF(2^3)
            (tuple(range(1, 9)), TooManyPointsError),
        ],
    )
    def test_refused(self, gf8, points, error):
        with pytest.raises(error):
            gf.check_points(gf8, points)
        with pytest.raises(error):
            gf.build_vandermonde(gf8, points)


def one(f, m, v):
    """m . v for a single vector v, as the one-row batch v[None]."""
    return f.mat_vec_batch(m, np.asarray(v)[None])[0]


class TestMatVec:
    def test_example(self, gf8, gf8_table):
        a = gf.build_vandermonde(gf8, (1, 2, 3))
        want = oracles.slow_mat_vec(a.rows.tolist(), [1, 3, 5], 0b1011, 3)
        assert want == [7, 3, 1]
        assert one(a.field, a.rows, [1, 3, 5]).tolist() == [7, 3, 1]

    def test_identity_matrix(self, gf8):
        eye = np.eye(3, dtype=np.int64)
        every = np.array(list(itertools.product(range(8), repeat=3)))
        assert gf8.mat_vec_batch(eye, every).tolist() == every.tolist()
        for v in every[:: 37]:
            assert one(gf8, eye, v).tolist() == v.tolist()

    def test_zero_vector(self, gf8):
        a = gf.build_vandermonde(gf8, (1, 2, 3))
        assert one(a.field, a.rows, [0, 0, 0]).tolist() == [0, 0, 0]

    def test_dimension_mismatch(self, gf8):
        a = gf.build_vandermonde(gf8, (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            one(a.field, a.rows, [1, 2])
        with pytest.raises(DimensionMismatchError):
            a.field.mat_vec_batch(a.rows, np.array([1, 2, 3]))  # not a batch

    def test_batch_matches_single(self, gf8):
        # a batch of 50 takes the table kernel, a batch of one the broadcast
        a = gf.build_vandermonde(gf8, (1, 2, 3))
        rng = np.random.default_rng(7)
        vs = rng.integers(0, 8, size=(50, 3))
        batch = gf8.mat_vec_batch(a.rows, vs)
        for i in range(50):
            assert batch[i].tolist() == one(a.field, a.rows, vs[i]).tolist()

    def test_negative_operand_rejected(self):
        # -1 used to wrap to the last log-table entry and return [255, 26]
        with pytest.raises(ConfigError):
            one(gf.get_field(8), [[1, 2], [3, 4]], [-1, 0])

    @pytest.mark.parametrize("k,bad", [(3, 8), (3, -1), (8, 256), (8, 300), (8, -1), (16, 1 << 16)])
    def test_operand_outside_field_rejected(self, k, bad):
        f = gf.get_field(k)
        m, v = np.ones((2, 2), dtype=np.int64), np.ones(2, dtype=np.int64)
        m_bad, v_bad = m.copy(), v.copy()
        m_bad[1, 0], v_bad[1] = bad, bad
        for args in ((m_bad, v), (m, v_bad)):
            with pytest.raises(ConfigError):
                one(f, *args)
            with pytest.raises(ConfigError):
                f.mul_arr(*args)
        with pytest.raises(ConfigError):
            f.mul_arr(np.array(bad), np.array(1))
        with pytest.raises(ConfigError):
            f.mat_invert(m_bad)

    def test_edges_of_field_accepted(self, gf8, gf8_table):
        m = np.array([[0, 7], [7, 1]])
        assert one(gf8, m, [7, 0]).tolist() == [0, gf8_table[7][7]]
        assert gf8.mul_arr([0, 7], [7, 7]).tolist() == [0, gf8_table[7][7]]
        assert gf8.mul_arr([], []).tolist() == []
        narrow = np.array([7, 0], dtype=np.uint8)
        assert one(gf8, m.astype(np.uint16), narrow).tolist() == [0, gf8_table[7][7]]

    @pytest.mark.parametrize("bad", [[1.7, 0.2], np.array([2.9, 1.0], dtype=np.float32),
                                     [True, False], [1 + 0j, 2 + 0j], ["1", "2"]])
    def test_non_integer_operand_rejected(self, gf8, bad):
        # a float cast to int64 used to truncate: m . [1.7, 0.2] gave [1]
        m, v = np.eye(2, dtype=np.int64), np.array([1, 2])
        calls = [
            lambda: gf8.mul_arr(bad, v),
            lambda: gf8.mul_arr(v, bad),
            lambda: gf8.mat_vec_batch(m, np.array([bad])),
            lambda: gf8.mat_vec_batch(np.array([bad, bad]), v[None, :]),
            lambda: gf8.mat_vec_batch(m, np.array([bad] * 9)),
            lambda: gf8.mat_vec_batch(np.array([bad, bad]), np.ones((9, 2), np.int64)),
            lambda: gf8.mat_invert(np.array([bad, bad])),
        ]
        for call in calls:
            with pytest.raises(ConfigError):
                call()


def field_for(k):
    return gf.get_field(k, None if k in gf.DEFAULT_POLYS else gf.find_irreducible(k))


KERNEL_KS = [2, 3, 4, 8, 9, 12, 16]


class TestBatchKernel:
    """mat_vec_batch takes a broadcast product for short batches and tables
    for longer ones; every path must agree with the oracle."""

    @pytest.mark.parametrize("k", KERNEL_KS)
    @pytest.mark.parametrize(
        "rows,cols,batch",
        [(5, 5, 40), (5, 5, 600), (3, 6, 25), (6, 3, 25), (4, 4, 1), (4, 4, 0)],
    )
    def test_matches_row_by_row(self, k, rows, cols, batch):
        f = field_for(k)
        rng = np.random.default_rng(100 * k + 10 * rows + cols + batch)
        m = rng.integers(0, f.q, size=(rows, cols))
        vs = rng.integers(0, f.q, size=(batch, cols))
        m[rng.random(m.shape) < 0.25] = 0
        vs[rng.random(vs.shape) < 0.25] = 0
        out = f.mat_vec_batch(m, vs)
        assert out.shape == (batch, rows) and out.dtype == np.int64
        for b in range(batch):
            assert out[b].tolist() == oracles.slow_mat_vec(
                m.tolist(), vs[b].tolist(), f.poly, k
            )

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_broadcast_cutoff(self, k):
        """Batches of 1 and 8 take the broadcast product, 9 the tables."""
        f = field_for(k)
        rng = np.random.default_rng(k)
        m = rng.integers(0, f.q, size=(7, 5))
        m[0, 0] = 0
        for batch in (1, gf._BROADCAST_BATCH, gf._BROADCAST_BATCH + 1):
            vs = rng.integers(0, f.q, size=(batch, 5))
            vs[0, 1] = 0
            out = f.mat_vec_batch(m, vs)
            assert out.dtype == np.int64
            assert out.tolist() == [
                oracles.slow_mat_vec(m.tolist(), v, f.poly, k) for v in vs.tolist()
            ]

    @pytest.mark.parametrize("k", [9, 12, 16])
    def test_split_table_cutoff(self, k):
        """Batches either side of the split-table row count agree with
        one-row batches."""
        f = field_for(k)
        rng = np.random.default_rng(k)
        m = rng.integers(0, f.q, size=(2, 3))
        for batch in (256 + (f.q >> 8) - 1, 256 + (f.q >> 8)):
            vs = rng.integers(0, f.q, size=(batch, 3))
            expected = [one(f, m, v).tolist() for v in vs]
            assert f.mat_vec_batch(m, vs).tolist() == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_product_table_exhaustive(self, k):
        """A q x 1 matrix times a q x 1 batch is the whole product table."""
        f = field_for(k)
        every = np.arange(f.q)[:, None]
        table = f.mat_vec_batch(every, every)  # table[b, a] = a * b
        assert table.tolist() == [[f.mul(a, b) for a in range(f.q)] for b in range(f.q)]

    @pytest.mark.parametrize("k", KERNEL_KS)
    def test_counts_rows_cols_batch(self, k):
        f = field_for(k)
        rng = np.random.default_rng(k)
        f.counter = gf.OpCounter()
        try:
            f.mat_vec_batch(rng.integers(0, f.q, (3, 7)), rng.integers(0, f.q, (11, 7)))
            assert f.counter.muls == 3 * 7 * 11
            f.counter.reset()
            f.mat_vec_batch(rng.integers(0, f.q, (3, 7)), rng.integers(0, f.q, (5, 7)))
            assert f.counter.muls == 3 * 7 * 5
        finally:
            f.counter = None

    def test_mat_mul_matches_columns(self):
        """mat_vec_batch(a, b.T).T is a @ b; Field.mat_mul and Field.mat_vec,
        kept for the benchmark's tracer, restate it."""
        f = gf.get_field(8)
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 256, (4, 6)), rng.integers(0, 256, (6, 5))
        prod = f.mat_vec_batch(a, b.T).T
        assert f.mat_mul(a, b).tolist() == prod.tolist()
        for j in range(5):
            expected = oracles.slow_mat_vec(a.tolist(), b[:, j].tolist(), f.poly, 8)
            assert prod[:, j].tolist() == expected
            assert f.mat_vec(a, b[:, j]).tolist() == expected

    @pytest.mark.parametrize("k", [8, 16])
    def test_one_dimensional_matrix_rejected(self, k):
        f = gf.get_field(k)
        with pytest.raises(DimensionMismatchError):
            f.mat_vec_batch(np.array([1, 2]), np.ones((3, 2), dtype=np.int64))
        with pytest.raises(DimensionMismatchError):
            f.mat_vec_batch(np.array([1, 2]), np.ones((9, 2), dtype=np.int64))

    @pytest.mark.parametrize("bad", [256, 300, -1])
    def test_operand_outside_field_rejected(self, bad):
        f = gf.get_field(8)
        for batch in (3, 9):
            m, vs = np.ones((2, 2), dtype=np.int64), np.ones((batch, 2), dtype=np.int64)
            m_bad, vs_bad = m.copy(), vs.copy()
            m_bad[1, 0], vs_bad[2, 1] = bad, bad
            for args in ((m_bad, vs), (m, vs_bad)):
                with pytest.raises(ConfigError):
                    f.mat_vec_batch(*args)

    def test_operand_outside_wide_field_rejected(self):
        f = gf.get_field(16)
        for batch in (1, 9):
            with pytest.raises(ConfigError):
                f.mat_vec_batch(
                    np.ones((2, 2), dtype=np.int64), np.full((batch, 2), 1 << 16)
                )


class TestMatInvert:
    def test_2x2_cofactor_example(self):
        f = gf.get_field(2)
        a = gf.build_vandermonde(f, (1, 2))
        assert a.rows.tolist() == [[1, 1], [1, 2]]
        # det = 1*2 ^ 1*1 = 3, inv(3) = 2; cofactor inverse = [[3, 2], [2, 2]]
        assert oracles.inv_by_search(3, 0b111, 2) == 2
        assert a.inverse().tolist() == [[3, 2], [2, 2]]

    def test_identity(self, gf8):
        eye = np.eye(4, dtype=np.int64)
        assert gf8.mat_invert(eye).tolist() == eye.tolist()

    def test_singular_raises(self, gf8):
        with pytest.raises(SingularMatrixError):
            gf8.mat_invert(np.array([[1, 1], [1, 1]]))

    def test_product_is_identity(self):
        f = gf.get_field(8)
        a = gf.build_vandermonde(f, (5, 17, 201, 44))
        prod = f.mat_vec_batch(a.rows, a.inverse().T).T
        assert prod.tolist() == np.eye(4, dtype=np.int64).tolist()

    @pytest.mark.parametrize("k", [2, 3])
    def test_roundtrip_exhaustive_small_fields(self, k):
        """Decode after encode is the identity for every constructible matrix."""
        f = gf.get_field(k)
        q = f.q
        for n in range(1, 4):
            vecs = np.array(list(oracles.all_vectors(q, n)), dtype=np.int64)
            for points in itertools.permutations(range(1, q), n):
                a = gf.build_vandermonde(f, points)
                coded = f.mat_vec_batch(a.rows, vecs)
                back = f.mat_vec_batch(a.inverse(), coded)
                assert np.array_equal(back, vecs)

    @pytest.mark.parametrize("k,n", [(8, 12), (16, 9)])
    def test_roundtrip_randomized_large_fields(self, k, n):
        f = gf.get_field(k)
        rng = np.random.default_rng(k * 1000 + n)
        points = gf.default_points(n)
        a = gf.build_vandermonde(f, points)
        vecs = rng.integers(0, f.q, size=(10_000, n))
        back = f.mat_vec_batch(a.inverse(), f.mat_vec_batch(a.rows, vecs))
        assert np.array_equal(back, vecs)


class TestDecodeBlocks:
    @pytest.mark.parametrize(
        "k,n,batch", [(4, 5, 300), (8, 12, 700), (8, 3, 2), (12, 4, 50), (16, 9, 600)]
    )
    def test_matches_the_inverse_product(self, k, n, batch):
        """The cached tables of A^-1 give A^-1 . v in the field's dtype, and
        count n^2 products a block; decoding the encoded blocks gives them
        back."""
        f = field_for(k)
        a = gf.build_vandermonde(f, gf.default_points(n))
        vs = np.random.default_rng(k * n).integers(0, f.q, size=(batch, n))
        f.counter = gf.OpCounter()
        try:
            out = a.decode_blocks(vs.astype(f.dtype))
            assert f.counter.muls == batch * n * n
        finally:
            f.counter = None
        assert out.dtype == f.dtype and out.shape == (batch, n)
        inverse = a.inverse().tolist()
        for v, got in zip(vs[:20], out):
            assert got.tolist() == oracles.slow_mat_vec(inverse, v.tolist(), f.poly, k)
        coded = vs.copy()
        a.encode_blocks(coded)
        assert a.decode_blocks(coded).tolist() == vs.tolist()

    def test_tables_are_built_on_first_decode_and_kept(self):
        a = gf.build_vandermonde(gf.get_field(8), gf.default_points(6))
        a.inverse()
        assert a._decode is None  # inverting alone builds no decode table
        a.decode_blocks(np.zeros((1, 6), np.uint8))
        tables = a._decode
        assert tables.shape == (6, 256, 6) and not tables.flags.writeable
        a.decode_blocks(np.ones((3, 6), np.uint8))
        assert a._decode is tables

    def test_k_above_8_keeps_no_tables(self):
        """At k=16 the tables of A^-1 would take 2 n^2 512 bytes: the decode
        builds them a column at a time and keeps none."""
        a = gf.build_vandermonde(field_for(16), gf.default_points(6))
        for batch in (1, 100, 600):
            a.decode_blocks(np.ones((batch, 6), np.uint16))
        assert a._decode is None


@functools.lru_cache(maxsize=None)
def encode_case(k, n, count=None):
    """count blocks (by default 2 if n > 100, else 20) of n elements of
    GF(2^k), the first all q - 1 (at k=8, n=255 it gathers the column
    table's last row, 254 * 256 + 255), and their products by the
    Vandermonde matrix of points 1..n, from the oracle."""
    f = field_for(k)
    a = gf.build_vandermonde(f, gf.default_points(n))
    count = count or (2 if n > 100 else 20)
    vs = np.random.default_rng(k * 1000 + n).integers(0, f.q, size=(count, n))
    vs[0] = f.q - 1
    rows = a.rows.tolist()
    return a, vs, [oracles.slow_mat_vec(rows, v, f.poly, k) for v in vs.tolist()]


ENCODE_CASES = [
    (k, n, dtype)
    for k, n in [(2, 1), (2, 3), (4, 1), (4, 15), (8, 1), (8, 12), (8, 255), (16, 9)]
    for dtype in (np.uint8, np.uint16, np.int64)
    if np.iinfo(dtype).max >= (1 << k) - 1  # the dtype holds the elements
]


# isqrt(n) divides the perfect squares, not 5, 17, 51 or 100
LANE_CASES = [4, 5, 16, 17, 51, 64, 100]


def gathered_bytes(n):
    """Bytes of one block's gathered rows in the k <= 8 encode: ceil(n/g) g
    rows, g = isqrt(n), of ceil(n/8) 8-byte words."""
    g = math.isqrt(n)
    return -(-n // g) * g * -(-n // 8) * 8


def window_blocks(n):
    """Blocks a k <= 8 encode window holds at n, for a long call."""
    return max(1, gf._GATHER_BYTES // gathered_bytes(n))


@functools.lru_cache(maxsize=None)
def lane_case(n):
    """2 * window_blocks(n) + 3 random blocks of GF(2^8): two full gather
    windows and a partial third; and their products by the Vandermonde
    matrix of points 1..n, from the oracle."""
    f = gf.get_field(8)
    a = gf.build_vandermonde(f, gf.default_points(n))
    count = 2 * window_blocks(n) + 3
    vs = np.random.default_rng(n).integers(0, f.q, size=(count, n))
    rows = a.rows.tolist()
    return a, vs, [oracles.slow_mat_vec(rows, v, f.poly, 8) for v in vs.tolist()]


class TestEncodeBlocks:
    @pytest.mark.parametrize("k,n,dtype", ENCODE_CASES)
    def test_codes_in_place_as_the_oracle(self, k, n, dtype):
        """Every integer dtype holding the elements is coded in place, kept,
        to the oracle's product, and count * n^2 products are counted."""
        a, vs, expected = encode_case(k, n)
        blocks = vs.astype(dtype)
        a.field.counter = gf.OpCounter()
        try:
            assert a.encode_blocks(blocks) is None
            assert a.field.counter.muls == len(vs) * n * n
        finally:
            a.field.counter = None
        assert blocks.dtype == dtype and blocks.tolist() == expected

    @pytest.mark.parametrize("n", LANE_CASES)
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_lanes_fold_across_gather_windows(self, n, dtype):
        """Each block's gathered rows are XORed in isqrt(n) lanes side by
        side, folded once a gather window: whether or not isqrt(n) divides n,
        over three windows of which the last is partial, every block is the
        oracle's product, the dtype is kept and count * n^2 products are
        counted."""
        a, vs, expected = lane_case(n)
        blocks = vs.astype(dtype)
        a.field.counter = gf.OpCounter()
        try:
            a.encode_blocks(blocks)
            assert a.field.counter.muls == len(vs) * n * n
        finally:
            a.field.counter = None
        assert blocks.dtype == dtype and blocks.tolist() == expected
        empty = np.empty((0, n), dtype)
        a.encode_blocks(empty)
        assert empty.shape == (0, n)

    @pytest.mark.parametrize("n", [1, 5, 51, 255])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("per", [1, 2, 3])
    def test_windows_of_one_two_and_three_blocks(self, monkeypatch, n, dtype, per):
        """With the window shrunk to hold 1, 2 and 3 blocks, seven blocks
        span windows that end on and off a block count, and every block is
        still the oracle's product."""
        a, vs, expected = encode_case(8, n, count=7)
        size = gathered_bytes(n)
        monkeypatch.setattr(gf, "_GATHER_BYTES", per * size + size - 1)
        assert window_blocks(n) == per
        blocks = vs.astype(dtype)
        a.encode_blocks(blocks)
        assert blocks.dtype == dtype and blocks.tolist() == expected

    def test_buffers_are_sized_to_a_small_call(self):
        """A 2-block call allocates 2-block buffers, not a window's: its
        tracemalloc peak, after the column table is built, is a few KiB."""
        a = gf.build_vandermonde(gf.get_field(8), gf.default_points(4))
        blocks = np.arange(8, dtype=np.uint8).reshape(2, 4)
        a.encode_blocks(blocks.copy())  # builds the column table
        tracemalloc.start()
        try:
            a.encode_blocks(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, peak

    def test_column_table_and_offsets_built_once(self):
        a, vs, _ = encode_case(8, 255)
        a.encode_blocks(vs.astype(np.uint8))
        offsets, columns = a._offsets, a._columns
        assert offsets.tolist() == [256 * j for j in range(255)]
        assert columns.shape == (255 * 256, 32)
        a.encode_blocks(vs.astype(np.uint8))
        assert a._offsets is offsets and a._columns is columns


class TestOpCounter:
    def test_counts_matrix_work(self, gf8):
        a = gf.build_vandermonde(gf8, (1, 2, 3))
        gf8.counter = gf.OpCounter()
        try:
            one(a.field, a.rows, [1, 3, 5])
            assert gf8.counter.muls == 9
            gf8.counter.reset()
            a.inverse()  # inverted once and cached: not counted
            gf.build_vandermonde(gf8, (1, 2, 3))
            assert gf8.counter.muls == 0
        finally:
            gf8.counter = None
