"""Byte layout of stored datasets, pinned by SHA-256.

Every shard, the local share and the manifest text of a few small fixed
inputs must keep these digests: any change to how digits are grouped,
encoded, rendered, planned, packed or described shows up here.
"""

import hashlib

import pytest

from ncss import gf, pipeline, storage
from ncss.codec import ALPHA_BOUNDED, STRICT
from ncss.planner import SecurityProfile


def message(size):
    return bytes((37 * i + 11) % 256 for i in range(size))


CASES = {
    # pu tight enough that 34 of the 160 digits stay local
    "strict-d2-local": dict(
        size=16, d=2, k=8, n=5, mode=STRICT, alpha=None,
        breach=(0.5, 0.25, 0.1), pu=1e-36,
    ),
    # ten digits stay local
    "alpha5-d2": dict(
        size=16, d=2, k=8, n=4, mode=ALPHA_BOUNDED, alpha=5.0,
        breach=(0.5, 0.25), pu=1e-42,
    ),
    "strict-d16-k16": dict(
        size=40, d=16, k=16, n=3, mode=STRICT, alpha=None,
        breach=(0.5, 0.25), pu=1e-12,
    ),
    "empty": dict(
        size=0, d=2, k=8, n=4, mode=STRICT, alpha=None,
        breach=(0.5, 0.25), pu=1e-6,
    ),
    # the benchmark's audit shape: 10 digits stay local, one or two per
    # element, so both owners hold runs of 1 to 7 digits
    "audit-strict-8B": dict(
        size=8, d=2, k=8, n=4, mode=STRICT, alpha=None,
        breach=(1.0,), pu=2.0**-10,
    ),
    "audit-alpha5-8B": dict(
        size=8, d=2, k=8, n=4, mode=ALPHA_BOUNDED, alpha=5.0,
        breach=(1.0,), pu=2.0**-10,
    ),
    # 275 blocks: a stream longer than q = 256, each column's table rows
    # gathered many times over
    "strict-d2-275-blocks": dict(
        size=1100, d=2, k=8, n=4, mode=STRICT, alpha=None,
        breach=(0.5, 0.25), pu=1e-300,
    ),
    # k=16 blocks of 10 elements: 100 blocks take the direct products of
    # mat_vec_batch, 600 the split tables (at least 256 + 256 blocks)
    "strict-d256-k16-100-blocks": dict(
        size=2000, d=256, k=16, n=10, mode=STRICT, alpha=None,
        breach=(0.5, 0.25), pu=1e-12,
    ),
    "strict-d256-k16-600-blocks": dict(
        size=12000, d=256, k=16, n=10, mode=STRICT, alpha=None,
        breach=(0.5, 0.25), pu=1e-12,
    ),
    # two segments (34,952 blocks of 15 four-bit elements, then 5,048);
    # 996 single-digit local runs in the tail of the second
    "strict-d2-k4-two-segments-local": dict(
        size=300000, d=2, k=4, n=15, mode=STRICT, alpha=None,
        breach=(0.5,), pu=1e-300,
    ),
    # two-bit digits: 36 of the 96 digits stay local, one or two of each
    # element, so runs of 1 to 3 digits start and stop inside bytes
    "strict-d4-k8-mid-byte": dict(
        size=24, d=4, k=8, n=3, mode=STRICT, alpha=None,
        breach=(0.5, 0.25), pu=1e-40,
    ),
}

DIGESTS = {
    "strict-d2-k4-two-segments-local": {
        "cloud_0": "aa1d1992113166d5db70471411a0b7ea13eb69ccab6b62e3a7d235e292067151",
        "local": "b80ce514dad43c1061beb3b5e309167b05d3281fe9ddeb8e43e54167a2d2c66f",
        "manifest": "af77a0ccfd448a12b108a9928b7bf1c81832739f69928ee154a957e9a53e35b7",
    },
    "strict-d4-k8-mid-byte": {
        "cloud_0": "8c1ea5595172e13ae932038382d7a3b57e2b5ef69a1cca44e167efdcf99021e8",
        "cloud_1": "a4f2f939b766f43307466c20538b0a690002d8737dcecb8b53de26b7c46bcb90",
        "local": "636c469bacd672c77005f89799650db6e9e705f3f2e35773affed4587ef59a47",
        "manifest": "8709231ca7572b0156e84547850941da5568503181abf6e89d0b8fe80414a102",
    },
    "audit-strict-8B": {
        "cloud_0": "43f4ba16082fd31c998c5c4e650666d1600017640788ba5a3e3dd7b4d3124285",
        "local": "456db6ab9246a8f8571ac7d79dae81882e08df3399dbb30fbe108ec50d814fb4",
        "manifest": "16e8da213905ad769ac97d22f02f14b3aae242825d50b1fbb72722ca4dc2abc0",
    },
    "audit-alpha5-8B": {
        "cloud_0": "7ede5a352eeb4bd65fcf44e0222aa04baa2c00eb75ad96061f32f12c35086cc7",
        "local": "86f3e07d5fa55f4b58d53d7ea6b0909370b79d9889b849a558a393dbb6647c68",
        "manifest": "f520bd2d5c343817e24fa49753774e03e7864d6504294b5fb1ccb3cb9efaf152",
    },
    "strict-d2-local": {
        "cloud_0": "c3313f80e292ffbb320009b0f4031055d23729a2638613c1c910ac2fd489c5b7",
        "cloud_1": "31e7d067107bdb2817768bafeffd6e2362fb8f258bf4e4b29597967979fe8f14",
        "cloud_2": "072b5df16457bc3754e4ea9f944e7b0d1d11c7695a0b2d489abad1c3e622cf47",
        "local": "008375940b432fecca93ca35b88ed77be568af42d0123e1953df4b3f3d65d8da",
        "manifest": "8436bed20f70fc737de9090c6f12e9d4643c3e79cb60f1de24a8bfb4807d784c",
    },
    "alpha5-d2": {
        "cloud_0": "0036219f2271eef48333d6b4d11d703428e216e665a65646778f48d692244afc",
        "cloud_1": "24c1711ec4c43c1dd4f6c531f905e5589888d280e18542e5f2a68b5fb77ab068",
        "local": "18e957b329aef428859939e72cf2db7e887e98749452c53eb62ddfad8b02fcee",
        "manifest": "8347c88ee5edd376bced855cc38a81860fc15fe43e1a1a60f355be1fec057c43",
    },
    "strict-d16-k16": {
        "cloud_0": "1ae03007610c3a47b6539e8556db31573e79945a93c19c2c57864f4fbb8605ce",
        "cloud_1": "e9da93395ce90db1f90d1152ef59b456530fdeb960e95a54089e3d2653ad663d",
        "local": "095ffde8b663e842f7dbf9310934b2cc1ced9cc8185f08ec85101a48f897dd1f",
        "manifest": "9064add8f98b20d1671d3ded080ace6d4e3b8265afba5d35ee9b454dec1ece4e",
    },
    "empty": {
        "cloud_0": "2fae360b4d953484a729069ded9ac8c0d292334a750f7648a455c104a680db93",
        "cloud_1": "2fae360b4d953484a729069ded9ac8c0d292334a750f7648a455c104a680db93",
        "local": "2fae360b4d953484a729069ded9ac8c0d292334a750f7648a455c104a680db93",
        "manifest": "c2534f6d9831d152180ad7fe9cf6dce234c4c253a9325a40e5283cbbf40287a7",
    },
    "strict-d2-275-blocks": {
        "cloud_0": "3c3ce2de6104b21025fe69ed61a2082f58f9e2f559c19cfce3c928bb16605641",
        "cloud_1": "9f53c0da1f1c4c0a17829345581cf691c368daecb2e5bb524d4121c8f930c83a",
        "local": "2fae360b4d953484a729069ded9ac8c0d292334a750f7648a455c104a680db93",
        "manifest": "e0e85af186e7c1f555dbaccd0b9b86feebb493bd9050d6f95980a1bc7ee57bbb",
    },
    "strict-d256-k16-100-blocks": {
        "cloud_0": "5e4bb897e7c8e232a6963c43b43a63b24669cb06c547cbb82abaddcbf20a1a80",
        "cloud_1": "e663706704e7d353be62d753dd2c51764995e97d19b9515abd3aed0a11b7f5ad",
        "local": "561b73ac24580706faea282ee2f04e8f4fb0a9ff4e539a8212454cb18f392ffe",
        "manifest": "f633cbbc765a1ec566a37dbf24c07ea51834634529249265fd82dcb96c6a4ada",
    },
    "strict-d256-k16-600-blocks": {
        "cloud_0": "2a3d7da1fe2c6233bb863a1f7158237ca60516b0c0b28288f3198534a76efb41",
        "cloud_1": "a2b33b8505d7acaedede5d1bb3462546ed91dfab5900f953dc26f8042812bb76",
        "local": "561b73ac24580706faea282ee2f04e8f4fb0a9ff4e539a8212454cb18f392ffe",
        "manifest": "ccbb3fd3646766c93969485bc5e40ba0e0cb4a6d495063bd433df0904aea1f51",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_bytes_match_pinned_digests(name):
    case = CASES[name]
    profile = SecurityProfile(breach=case["breach"], pu=case["pu"])
    root = storage.MemoryRoot(profile.p)
    pipeline.store_digits(
        pipeline.bytes_to_digits(message(case["size"]), case["d"]),
        root,
        gf.FieldSpec(k=case["k"], d=case["d"]),
        n=case["n"],
        profile=profile,
        mode=case["mode"],
        alpha=case["alpha"],
    )
    shards, local, text = root.snapshot()
    got = {f"cloud_{i}": hashlib.sha256(shards[i]).hexdigest() for i in sorted(shards)}
    got["local"] = hashlib.sha256(local).hexdigest()
    got["manifest"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == DIGESTS[name]
