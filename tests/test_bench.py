import csv
import io

import numpy as np
import pytest

from ncss import bench, codec
from ncss.codec import ALPHA_BOUNDED, STRICT
from ncss.errors import ConfigError


class TestBenchMul:
    def test_rows_and_csv(self):
        results = bench.bench_mul([2, 3], mul_count=1_000_000, reps=5, seed=1)
        assert len(results) == 2
        assert all(r.median_ms > 0 for r in results)
        assert all(r.reps == 5 for r in results)
        rows = list(csv.DictReader(io.StringIO(bench.bench_csv(results))))
        assert rows[0]["scenario"] == "mul"
        assert int(rows[0]["mul_count"]) == 1_000_000

    def test_below_floor_rejected(self):
        with pytest.raises(ConfigError):
            bench.bench_mul([8], mul_count=999_999)

    def test_too_few_reps_rejected(self):
        with pytest.raises(ConfigError):
            bench.bench_mul([8], mul_count=1_000_000, reps=4)

    def test_operand_stream_deterministic(self):
        a1, b1 = bench.mul_operands(8, 1000, seed=5)
        a2, b2 = bench.mul_operands(8, 1000, seed=5)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        a3, _ = bench.mul_operands(8, 1000, seed=6)
        assert not np.array_equal(a1, a3)


class TestBenchPipeline:
    def test_strict_point(self):
        results = bench.bench_pipeline(
            file_bytes=4096, n_list=[4], k_list=[8], mode=STRICT, p=2
        )
        (r,) = results
        assert r.scenario == "pipeline"
        assert r.payload_bytes == 4096
        # 4096 bytes -> 32768 bits, width 8 -> 4096 elements -> 1024 blocks
        assert r.mul_count == 1024 * 16
        assert r.mul_count == bench.encode_mul_count(32768, 8, 2, 4, 8)

    # k=8 streams take the column-table encode, k=16 ones one mat_vec_batch;
    # at d=2, n=4 each block holds 4 elements of k digits
    @pytest.mark.parametrize("file_bytes,k", [(1020, 8), (1100, 8), (1024, 16)])
    def test_mul_count_on_both_encode_paths(self, file_bytes, k):
        (r,) = bench.bench_pipeline(
            file_bytes=file_bytes, n_list=[4], k_list=[k], mode=STRICT, p=2
        )
        assert r.mul_count == bench.encode_mul_count(file_bytes * 8, k, 2, 4, k)
        assert r.mul_count == -(-file_bytes * 8 // (4 * k)) * 16

    def test_alpha_point(self):
        results = bench.bench_pipeline(
            file_bytes=2048, n_list=[4], k_list=[8],
            mode=ALPHA_BOUNDED, alpha=5.0, p=2,
        )
        (r,) = results
        width = codec.min_width_alpha(8, 2, 5.0)
        assert r.mul_count == bench.encode_mul_count(2048 * 8, 8, 2, 4, width)

    def test_oversized_n_rejected(self):
        with pytest.raises(ConfigError):
            bench.bench_pipeline(file_bytes=64, n_list=[16], k_list=[4])

    @pytest.mark.parametrize("file_bytes", [0, -1])
    def test_non_positive_bytes_rejected(self, monkeypatch, file_bytes):
        """A payload of no bytes is refused before any store is timed."""
        monkeypatch.setattr(bench, "_timed", None)  # a call would fail untyped
        with pytest.raises(ConfigError, match="file_bytes must be >= 1"):
            bench.bench_pipeline(file_bytes=file_bytes, n_list=[4], k_list=[8])

    def test_csv_parses(self):
        results = bench.bench_pipeline(
            file_bytes=1024, n_list=[2, 4], k_list=[4, 8], mode=STRICT, p=1
        )
        rows = list(csv.DictReader(io.StringIO(bench.bench_csv(results))))
        assert len(rows) == 4
        assert {row["mode"] for row in rows} == {"strict"}
        assert all(float(row["median_ms"]) > 0 for row in rows)
