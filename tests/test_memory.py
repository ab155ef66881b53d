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
# per added payload byte: the recovered d=2 digit array alone takes 8, the
# packed shards about 1; one segment's working set does not grow
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
