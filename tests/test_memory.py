"""Memory guards: a strict store plus recover stays within a fixed number of
bytes of Python-heap allocation per payload byte, and the exact secrecy audit
within a fixed number per enumerated plaintext.

tracemalloc sees numpy's array buffers, so its peak is a deterministic stand-in
for the peak resident size of the data path: one int64 copy of a d=2 digit
stream alone costs 64 bytes per payload byte.
"""

import tracemalloc

import numpy as np
import pytest

from ncss import adversary, gf, pipeline, storage
from ncss.codec import DigitString
from ncss.planner import SecurityProfile

BYTES_PER_BYTE = 64


def test_strict_d2_round_trip_peak():
    payload = np.random.default_rng(3).bytes(1 << 20)
    spec = gf.FieldSpec(k=8, d=2)
    profile = SecurityProfile(breach=(0.5, 0.25, 0.1), pu=1e-6)
    root = storage.MemoryRoot(3)
    pipeline.store_digits(  # fill the field, matrix and inverse caches first
        pipeline.bytes_to_digits(payload[:64], 2), storage.MemoryRoot(3),
        spec, n=100, profile=profile,
    )
    tracemalloc.start()
    try:
        digits = pipeline.bytes_to_digits(payload, 2)
        pipeline.store_digits(digits, root, spec, n=100, profile=profile)
        del digits
        back = pipeline.digits_to_bytes(pipeline.recover(root))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == payload
    assert peak <= BYTES_PER_BYTE * len(payload), f"{peak / len(payload):.1f} B/B"


# growth of the store and the recover peaks from 1 MiB to 8 MiB of payload,
# per added payload byte: the packed shards take about 1 and the recovered
# message, packed, 1 more as its bytes are copied out; one segment's working
# set does not grow
GROWTH_PER_BYTE = 10


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_store_and_recover_peaks_grow_by_the_data_alone():
    spec = gf.FieldSpec(k=8, d=2)
    profile = SecurityProfile(breach=(0.5, 0.25, 0.1), pu=1e-6)
    rng = np.random.default_rng(8)
    peaks = {}
    for size in (1 << 20, 8 << 20):
        digits = pipeline.bytes_to_digits(rng.bytes(size), 2)
        root = storage.MemoryRoot(3)
        store = _peak(lambda: pipeline.store_digits(
            digits, root, spec, n=100, profile=profile
        ))
        back = []
        recover = _peak(lambda: back.append(pipeline.recover(root)))
        assert back[0] == digits
        peaks[size] = store, recover
        del digits, root, back
    added = (8 << 20) - (1 << 20)
    for name, small, large in zip(("store", "recover"), *peaks.values()):
        growth = (large - small) / added
        assert growth <= GROWTH_PER_BYTE, f"{name}: {growth:.1f} B/B"


# the byte path, bytes to digits to shards and back to bytes, keeps a d=2
# message packed throughout, at every strict k: the growth is the packed
# shards and the recovered bytes, about 1 B each, never the 8 B of a digit
# per bit
BYTE_PATH_GROWTH_PER_BYTE = 3


@pytest.mark.parametrize("k,n", [(4, 15), (8, 100)])
def test_byte_path_peaks_grow_by_the_packed_data_alone(k, n):
    spec = gf.FieldSpec(k=k, d=2)
    profile = SecurityProfile(breach=(0.5, 0.25, 0.1), pu=1e-6)
    rng = np.random.default_rng(9)
    peaks = {}
    for size in (1 << 20, 8 << 20):
        payload = rng.bytes(size)
        root = storage.MemoryRoot(3)
        store = _peak(lambda: pipeline.store_digits(
            pipeline.bytes_to_digits(payload, 2), root, spec, n=n, profile=profile
        ))
        back = []
        recover = _peak(lambda: back.append(
            pipeline.digits_to_bytes(pipeline.recover(root))
        ))
        assert back[0] == payload
        peaks[size] = store, recover
        del payload, root, back
    added = (8 << 20) - (1 << 20)
    for name, small, large in zip(("store", "recover"), *peaks.values()):
        growth = (large - small) / added
        assert growth <= BYTE_PATH_GROWTH_PER_BYTE, f"{name}: {growth:.1f} B/B"


# the working set of a 2 MiB strict d=2 store, its peak less the shards the
# root keeps: the shard payloads being filled (2 MiB) and one segment of
# 256 KiB of payload, its elements a byte each at k <= 8, coded into a
# uint64 accumulator (about a byte an element) and packed back at base 2^k;
# 3.01 MiB at both k=8 and k=4. Coded as int64 elements (8 B a k-bit
# element), the working set was 4.01 MiB at k=8 and 8.01 MiB at k=4; with a
# render of a digit a byte beside them, 8.26 and 14.0 MiB
STORE_WORKING_BYTES = {(8, 100): 7 << 19, (4, 15): 7 << 19}  # 3.5 MiB


@pytest.mark.parametrize("k,n", sorted(STORE_WORKING_BYTES))
def test_store_working_set_above_the_shards(k, n):
    spec = gf.FieldSpec(k=k, d=2)
    profile = SecurityProfile(breach=(0.5, 0.25, 0.1), pu=1e-6)
    payload = np.random.default_rng(11).bytes(2 << 20)
    pipeline.store_digits(  # fill the field, matrix and table caches first
        pipeline.bytes_to_digits(payload[:64], 2), storage.MemoryRoot(3),
        spec, n=n, profile=profile,
    )
    digits = pipeline.bytes_to_digits(payload, 2)
    root = storage.MemoryRoot(3)
    peak = _peak(lambda: pipeline.store_digits(digits, root, spec, n=n, profile=profile))
    shards, local, _ = root.snapshot()
    working = peak - sum(map(len, shards.values())) - len(local)
    assert pipeline.digits_to_bytes(pipeline.recover(root)) == payload
    bound = STORE_WORKING_BYTES[k, n]
    assert working <= bound, f"{working / 2**20:.2f} MiB > {bound / 2**20:.1f} MiB"


# a recover from a directory reads the packed shards (1 B per payload byte)
# and fills one packed output (1 B), which the recovered message holds as it
# is; digits_to_bytes copies it once the shards are released, so the output
# is never held twice beside the shards
DIRECTORY_RECOVER_GROWTH_PER_BYTE = 2.2


def test_directory_recover_to_bytes_holds_the_output_once(tmp_path):
    spec = gf.FieldSpec(k=8, d=2)
    profile = SecurityProfile(breach=(0.5, 0.25, 0.1), pu=1e-6)
    rng = np.random.default_rng(10)
    peaks = []
    for size in (1 << 20, 8 << 20):
        payload = rng.bytes(size)
        path = tmp_path / str(size)
        pipeline.store_digits(
            pipeline.bytes_to_digits(payload, 2), storage.DirectoryRoot(path, 3),
            spec, n=100, profile=profile,
        )
        back = []
        peaks.append(_peak(lambda: back.append(
            pipeline.digits_to_bytes(pipeline.recover(storage.DirectoryRoot(path)))
        )))
        assert back[0] == payload
        del payload, back
    growth = (peaks[1] - peaks[0]) / ((8 << 20) - (1 << 20))
    assert growth <= DIRECTORY_RECOVER_GROWTH_PER_BYTE, f"{growth:.2f} B/B"


# a k=16 recover holds one column's split product table of the inverse at
# a time (512 x n uint16), never all n of them, which would take
# 2 n^2 (256 + 256) bytes: 41 MB at n = 200
K16_RECOVER_BYTES = 8 << 20


@pytest.mark.parametrize("blocks", [1, 700], ids=["one-block", "two-segments"])
def test_k16_large_n_recover_peak(blocks):
    n = 200
    gf.cached_vandermonde.cache_clear()  # so no earlier case's matrix is reused
    rng = np.random.default_rng(blocks)
    digits = DigitString(256, rng.integers(0, 256, 2 * n * blocks))
    root = storage.MemoryRoot(2)
    pipeline.store_digits(
        digits, root, gf.FieldSpec(k=16, d=256), n=n,
        profile=SecurityProfile(breach=(0.5, 0.25), pu=1e-6),
    )
    back = []
    peak = _peak(lambda: back.append(pipeline.recover(root)))
    assert back[0] == digits
    assert peak <= K16_RECOVER_BYTES, f"{peak / 1e6:.1f} MB"


# the field and matrix caches keep a fixed number of entries: 8 fields of
# other than the default polynomials (1.57 MB each at k=16: 12.6 MB) and
# 8 matrices (at k=8 and n=16 about 130 KB of tables each)
CACHE_BYTES = 24 << 20


def test_round_trips_of_many_fields_and_points_keep_the_caches_bounded():
    """600 k=8 round trips over all 30 polynomials of degree 8 with distinct
    points, and 12 at k=16 with distinct polynomials: every manifest names
    a new matrix, and caches that kept them all would hold about 90 MB."""
    rng = np.random.default_rng(8)
    polys8 = [p for p in range(1 << 8, 1 << 9) if gf.is_irreducible(p, 8)]
    polys16 = [p for p in range((1 << 16) + 1, (1 << 16) + 304) if gf.is_irreducible(p, 16)]
    cases = [(8, polys8[i // 20], 2, 16) for i in range(600)] + [(16, p, 256, 4) for p in polys16]
    profile = SecurityProfile(breach=(0.5, 0.25), pu=1e-6)

    def round_trips():
        for k, poly, d, n in cases:
            points = tuple(int(p) for p in rng.choice(np.arange(1, 256), n, replace=False))
            digits = pipeline.bytes_to_digits(rng.bytes(32), d)
            root = storage.MemoryRoot(2)
            pipeline.store_digits(
                digits, root, gf.FieldSpec(k=k, d=d, reduction_poly=poly),
                n=n, profile=profile, points=points,
            )
            assert pipeline.recover(root) == digits

    assert (len(polys8), len(polys16)) == (30, 12)
    peak = _peak(round_trips)
    assert peak <= CACHE_BYTES, f"{peak / 1e6:.1f} MB"


BYTES_PER_PLAINTEXT = 96


def test_entropy_audit_peak():
    """The exact audit's tracemalloc peak per enumerated plaintext of F_q^n."""
    a = gf.build_vandermonde(gf.FieldSpec(k=4, d=2), gf.default_points(5))
    tracemalloc.start()
    try:
        report = adversary.entropy_audit(a, w=2, t=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    plaintexts = a.field.q**a.n
    assert report.h_s_given_e_symbols == 1
    assert peak <= BYTES_PER_PLAINTEXT * plaintexts, f"{peak / plaintexts:.1f} B/plaintext"


@pytest.fixture(scope="module")
def stored_mib():
    """A 1 MiB strict d=2 store at n=100 over three clouds, and its manifest."""
    root = storage.MemoryRoot(3)
    pipeline.store_digits(
        pipeline.bytes_to_digits(np.random.default_rng(5).bytes(1 << 20), 2),
        root, gf.FieldSpec(k=8, d=2), n=100,
        profile=SecurityProfile(breach=(0.5, 0.25, 0.1), pu=1e-6),
    )
    return root, pipeline.load_manifest(root)


# the attack scenario of a stored d=2 dataset holds the assembled stream
# (8 B per payload byte) and the mask of hidden positions (8); a parse of
# the whole stream into int64 elements would add 8 more, and more again
# for its working copies
SCENARIO_BYTES_PER_BYTE = 20


def test_storage_scenario_peak(stored_mib):
    root, manifest = stored_mib
    adversary.scenario_from_storage(manifest, root, 0)  # fill the caches first
    for target in (2, adversary.ALL_CLOUDS):
        peak = _peak(lambda: adversary.scenario_from_storage(manifest, root, target))
        per_byte = peak / (1 << 20)
        assert per_byte <= SCENARIO_BYTES_PER_BYTE, f"{target}: {per_byte:.1f} B/B"


# locating the unseen digits allocates nothing per stream digit: _hidden
# takes the gaps between the target's runs; and the guess holds one chunk
# of draws (2^15 trials of u narrow digits) and the rows still alive, nothing
# per candidate element or decoded block
PLAN_BYTES = 64 << 10
GUESS_BYTES = 4 << 20


def test_guess_peak(stored_mib):
    root, manifest = stored_mib
    scenario = adversary.scenario_from_storage(manifest, root, 2)
    assert scenario.unknown_count == 17
    adversary.simulate_guess(scenario, 10, 3)  # import what it imports first
    total, runs = scenario.total_digits, manifest.cloud_runs
    hidden = _peak(lambda: adversary._hidden(total, runs, 2))
    guessed = _peak(lambda: adversary.simulate_guess(scenario, (1 << 16) + 3, 3))
    assert hidden <= PLAN_BYTES, f"_hidden: {hidden} B"
    assert guessed <= GUESS_BYTES, f"simulate_guess: {guessed} B"
