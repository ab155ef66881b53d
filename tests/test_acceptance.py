"""Acceptance suite: one test per criterion, one PASS line printed by each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import io
import itertools
import math
import time

import numpy as np
import pytest

from ncss import adversary, bench, codec, gf, optimizer, pipeline, planner, storage
from ncss.adversary import AttackScenario
from ncss.codec import ALPHA_BOUNDED, STRICT, DigitString
from ncss.errors import InfeasibleError
from ncss.optimizer import CostProblem
from ncss.planner import SecurityProfile


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def all_partitions(items: list[int]):
    """Every way to split items into nonempty unlabeled groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def test_criterion_1_worked_pipeline_numbers():
    start = time.perf_counter()
    spec = gf.FieldSpec(k=3, d=2)
    grouping = codec.make_grouping_plan(9, spec, n=3, mode=STRICT)
    assert grouping.width == 3
    b = DigitString(2, [0, 0, 1, 0, 1, 1, 1, 0, 1])
    assert codec.regroup(b, grouping).tolist() == [1, 3, 5]
    profile = SecurityProfile(breach=(0.5, 0.25), pu=1 / 64)
    caps = planner.per_cloud_caps(9, 2, profile)
    assert caps == (4, 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"regroup -> (1,3,5), caps -> (4,5); {elapsed*1e3:.0f} ms")


def test_criterion_2_round_trip_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    breach_pool = (0.5, 0.25, 0.75)
    modes = [(STRICT, None), (ALPHA_BOUNDED, 2.0), (ALPHA_BOUNDED, 5.0)]
    count = 0
    for d in (2, 4, 16):
        for k in (4, 8, 16):
            spec = gf.FieldSpec(k=k, d=d)
            for mode, alpha in modes:
                for n in (2, 10, 100):
                    if n > spec.q - 1:
                        continue
                    width = (
                        codec.strict_width(k, d)
                        if mode == STRICT
                        else codec.min_width_alpha(k, d, alpha)
                    )
                    for p in (1, 2, 3):
                        profile = SecurityProfile(
                            breach=breach_pool[:p], pu=1e-3
                        )
                        for _ in range(100):
                            m = int(rng.integers(1, 2 * n * width + 1))
                            digits = DigitString(d, rng.integers(0, d, size=m))
                            root = storage.MemoryRoot(p)
                            pipeline.store_digits(
                                digits, root, spec, n=n, profile=profile,
                                mode=mode, alpha=alpha,
                            )
                            assert pipeline.recover(root) == digits
                            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"{count} store/fetch/reconstruct round trips bit-exact; {elapsed:.1f} s")


def test_criterion_3_width_rule_suite():
    violations = 0
    checked = 0
    # exhaustive: k <= 3, every plaintext vector, n <= 3
    for k in (2, 3):
        spec = gf.FieldSpec(k=k, d=2)
        s = codec.strict_width(k, 2)
        for n in (1, 2, 3):
            matrix = gf.build_vandermonde(spec, gf.default_points(n))
            strict_plan = codec.GroupingPlan(
                mode=STRICT, d=2, k=k, width=s, r=n, pad_count=0
            )
            partitions = list(all_partitions(list(range(n))))
            for vec in itertools.product(range(spec.q), repeat=n):
                block = codec.encode_block(matrix, np.array(vec), strict_plan)
                if int(codec.digit_lengths(block.elements, 2).max()) > s:
                    violations += 1
                checked += 1
            for alpha in (1, 2, 3):
                width = codec.min_width_alpha(k, 2, alpha)
                plan = codec.GroupingPlan(
                    mode=ALPHA_BOUNDED, d=2, k=k, width=width, r=n,
                    pad_count=0, alpha=float(alpha),
                )
                for vec in itertools.product(range(2**width), repeat=n):
                    block = codec.encode_block(matrix, np.array(vec), plan)
                    for assignment in partitions:
                        report = codec.classify_overflow(
                            np.full(n, width), block, assignment, alpha
                        )
                        if not report.alpha_bound_satisfied:
                            violations += 1
                        checked += 1
    # randomized: k in {8, 16}, 10^4 samples each
    rng = np.random.default_rng(3)
    for k in (8, 16):
        spec = gf.FieldSpec(k=k, d=2)
        s = codec.strict_width(k, 2)
        n = 5
        matrix = gf.build_vandermonde(spec, gf.default_points(n))
        vecs = rng.integers(0, spec.q, size=(10_000, n))
        coded = spec.field().mat_vec_batch(matrix.rows, vecs)
        violations += int((codec.digit_lengths(coded, 2) > s).any())
        checked += 10_000
        for alpha in (2, 5):
            width = codec.min_width_alpha(k, 2, alpha)
            plan = codec.GroupingPlan(
                mode=ALPHA_BOUNDED, d=2, k=k, width=width, r=n,
                pad_count=0, alpha=float(alpha),
            )
            widths = np.full(n, width)
            for _ in range(10_000):
                vec = rng.integers(0, 2**width, size=n)
                block = codec.encode_block(matrix, vec, plan)
                cut = int(rng.integers(1, n))
                assignment = [list(range(cut)), list(range(cut, n))]
                report = codec.classify_overflow(widths, block, assignment, alpha)
                if not report.alpha_bound_satisfied:
                    violations += 1
                checked += 1
    assert violations == 0
    _report(3, f"{checked} width-rule checks, zero violations")


def _sigma_scenario(k: int, d: int, n: int, unknown: int, seed: int) -> AttackScenario:
    spec = gf.FieldSpec(k=k, d=d)
    rng = np.random.default_rng(seed)
    width = codec.strict_width(k, d)
    plan = codec.GroupingPlan(mode=STRICT, d=d, k=k, width=width, r=n, pad_count=0)
    matrix = gf.build_vandermonde(spec, gf.default_points(n))
    b = rng.integers(0, d, size=n * width)
    block = codec.encode_block(
        matrix, codec.regroup(DigitString(d, b), plan), plan
    )
    positions = np.sort(rng.choice(block.total_digits, size=unknown, replace=False))
    return AttackScenario(
        matrix=matrix,
        d=d,
        render_lengths=block.render_lengths,
        stream=block.render_digits,
        unknown_positions=positions,
    )


def test_criterion_4_guess_simulation_matches_formula():
    start = time.perf_counter()
    trials = 1_000_000
    for d, k, n in ((2, 8, 4), (16, 16, 5)):
        for unknown in range(1, 21):
            scenario = _sigma_scenario(k, d, n, unknown, seed=unknown * 7 + d)
            got = adversary.simulate_guess(scenario, trials=trials, seed=unknown)
            p = float(d) ** -unknown
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(got - p) <= 3 * sigma, (d, unknown, got, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"40 scenarios x 1e6 trials within 3 sigma; {elapsed:.1f} s")


def test_criterion_5_perfect_secrecy_grid():
    start = time.perf_counter()
    perfect_points = 0
    converse_points = 0
    for k in (2, 3):
        field = gf.get_field(k)
        for n in range(1, min(5, field.q)):
            matrix = gf.build_vandermonde(field, gf.default_points(n))
            for w in range(1, n + 1):
                for t in range(0, n + 1):
                    report = adversary.entropy_audit(matrix, w=w, t=t)
                    assert report.h_s_symbols == w
                    if t <= n - w:
                        assert report.perfect, (k, n, w, t)
                        assert report.h_s_given_e_symbols == w
                        perfect_points += 1
                    else:
                        assert not report.perfect, (k, n, w, t)
                        assert report.h_s_given_e_symbols < w
                        converse_points += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        5,
        f"H(S|E)=H(S) exactly at {perfect_points} grid points, strict "
        f"inequality at {converse_points}; {elapsed:.1f} s",
    )


def test_criterion_6_optimizer_oracle_equivalence():
    base = CostProblem(m=1024, d=2, k=8, p=3, breach=0.5, pu=1e-6)
    fast = optimizer.solve_cost(base)
    slow = optimizer.brute_force_cost(base)
    assert (fast.n_star, fast.l_star, fast.f_star) == (2, 1, 96.0)
    assert (slow.n_star, slow.l_star, slow.f_star) == (2, 1, 96.0)

    rng = np.random.default_rng(60)
    agreed = 0
    infeasible = 0
    while agreed < 50:
        problem = CostProblem(
            m=int(rng.integers(100, 10**6)),
            d=int(rng.choice([2, 4])),
            k=int(rng.choice([4, 8])),
            p=int(rng.integers(1, 6)),
            breach=float(rng.uniform(0.05, 0.95)),
            pu=float(10.0 ** rng.uniform(-12, -2)),
        )
        try:
            fast = optimizer.solve_cost(problem)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                optimizer.brute_force_cost(problem)
            infeasible += 1
            continue
        slow = optimizer.brute_force_cost(problem)
        assert (fast.n_star, fast.l_star, fast.f_star) == (
            slow.n_star,
            slow.l_star,
            slow.f_star,
        ), problem
        agreed += 1
    _report(
        6,
        f"scan == enumeration on 50 random problems (+{infeasible} infeasible "
        "agreed) and the m=1024 instance -> (2, 1, 96)",
    )


def test_criterion_7_figure_shape_properties():
    # (a) matrix size is a nondecreasing step function of message length
    sweep_ms = [2**e for e in range(7, 23)]
    last = 0
    for m in sweep_ms:
        sol = optimizer.solve_cost(
            CostProblem(m=m, d=2, k=8, p=3, breach=0.5, pu=1e-3)
        )
        assert sol.n_star >= last
        last = sol.n_star
    # same sweep at the tighter budget, over its feasible points
    last = 0
    feasible_points = 0
    for m in sweep_ms:
        try:
            sol = optimizer.solve_cost(
                CostProblem(m=m, d=2, k=8, p=3, breach=0.5, pu=1e-6)
            )
        except InfeasibleError:
            continue
        assert sol.n_star >= last
        last = sol.n_star
        feasible_points += 1
    assert feasible_points >= len(sweep_ms) - 1

    # (b) once l* = 1, cost no longer depends on the budget
    for m in (2**20, 2**22):
        solutions = [
            optimizer.solve_cost(
                CostProblem(m=m, d=2, k=8, p=3, breach=0.5, pu=pu)
            )
            for pu in (1e-3, 1e-6, 1e-9)
        ]
        assert all(s.l_star == 1 for s in solutions)
        assert len({s.f_star for s in solutions}) == 1
        assert len({s.n_star for s in solutions}) == 1

    # (c) larger fields prefer equal-or-smaller matrices at large m
    for m in (10**6, 2**21, 2**22):
        n8 = optimizer.solve_cost(
            CostProblem(m=m, d=2, k=8, p=3, breach=0.5, pu=1e-6)
        ).n_star
        n16 = optimizer.solve_cost(
            CostProblem(m=m, d=2, k=16, p=3, breach=0.5, pu=1e-6)
        ).n_star
        assert n16 <= n8
    _report(7, "n*(m) step curve, budget-independent large-m cost, k=16 <= k=8")


def test_criterion_8_nonconvexity_diagnostic():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        problem = CostProblem(
            m=int(rng.integers(1, 10**7)),
            d=int(rng.choice([2, 4, 16])),
            k=int(rng.choice([4, 8, 16])),
            p=int(rng.integers(1, 6)),
            breach=float(rng.uniform(0.05, 1.0)),
            pu=float(10.0 ** rng.uniform(-9, 0)),
        )
        n = int(rng.integers(2, problem.n_max + 1))
        l = int(rng.integers(1, n + 1))
        lam_plus, lam_minus = optimizer.hessian_spectrum(n, l, problem)
        want = -(problem.curvature_b**2) / float(n) ** 4
        assert lam_minus < 0 < lam_plus
        got = lam_plus * lam_minus
        assert abs(got - want) <= 1e-9 * abs(want)
    _report(8, "eigenvalue product = -b^2 n^-4 (rel err <= 1e-9), lambda- < 0, 1000 samples")


def test_criterion_9_benchmarks():
    two_mb = 2 * 1024 * 1024
    strict_rows = bench.bench_pipeline(
        file_bytes=two_mb, n_list=[10, 100], k_list=[8],
        mode=STRICT, p=2, reps=5, seed=9,
    )
    alpha_rows = bench.bench_pipeline(
        file_bytes=two_mb, n_list=[100], k_list=[8],
        mode=ALPHA_BOUNDED, alpha=5.0, p=2, reps=5, seed=9,
    )
    by_n = {r.n: r for r in strict_rows}
    (alpha_row,) = alpha_rows

    # expansion work dominates: alpha-bounded never beats strict at equal (n, k)
    assert alpha_row.median_ms >= by_n[100].median_ms
    # more, smaller encode operations cost more wall time
    assert by_n[100].median_ms <= by_n[10].median_ms

    # logical work accounting is exact: blocks * n^2 multiplications
    digit_count = two_mb * 8
    for row in strict_rows:
        assert row.mul_count == bench.encode_mul_count(digit_count, 8, 2, row.n, 8)
    width = codec.min_width_alpha(8, 2, 5.0)
    assert alpha_row.mul_count == bench.encode_mul_count(
        digit_count, 8, 2, 100, width
    )

    mul_rows = bench.bench_mul([8, 16], mul_count=10_000_000, reps=5, seed=9)
    text = bench.bench_csv(strict_rows + alpha_rows + mul_rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 5
    assert all(float(row["median_ms"]) > 0 for row in parsed)

    ratio = alpha_row.median_ms / by_n[100].median_ms
    _report(
        9,
        f"alpha/strict time ratio {ratio:.1f} >= 1, strict t(n=100) <= t(n=10), "
        "mul counts exact, CSV parses",
    )
