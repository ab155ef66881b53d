"""Security validation: guessing simulations and the exact secrecy audit.

Two instruments: a Monte-Carlo eavesdropper who breached one cloud and
guesses the missing digits, and an exhaustive enumeration that measures
H(S|E) exactly to certify (or refute) perfect secrecy.
"""

from ncss import adversary, codec, gf, pipeline, planner, storage
from ncss.adversary import DigitSelection
from ncss.codec import DigitString
from ncss.planner import SecurityProfile

# --- Monte-Carlo: the breached-cloud guessing game ---------------------------
spec = gf.FieldSpec(k=3, d=2)
profile = SecurityProfile(breach=(0.5, 0.25), pu=1 / 64)
digits = DigitString(2, [0, 0, 1, 0, 1, 1, 1, 0, 1])
root = storage.MemoryRoot(2)
result = pipeline.store_digits(digits, root, spec, n=3, profile=profile)
print("caps:", result.plan.caps, " stored:", result.plan.stored)

manifest = pipeline.load_manifest(root)
for cloud in (0, 1):
    scenario = adversary.scenario_from_storage(manifest, root, cloud)
    rate = adversary.simulate_guess(scenario, trials=400_000, seed=cloud)
    formula = 2.0**-scenario.unknown_count
    print(
        f"cloud {cloud}: sees {scenario.observed_count}/9 digits, "
        f"empirical guess rate {rate:.2e} vs d^-unknown {formula:.2e}, "
        f"x breach {scenario.breach} = {scenario.breach * rate:.2e} "
        f"(budget {profile.pu:.2e})"
    )

# --- exact audit: how many coded components may the clouds hold? -------------
matrix = gf.build_vandermonde(gf.get_field(2), (1, 2, 3))
print("\nGF(4), n=3: observing t components, secret = w components")
for w in (1, 2):
    for t in range(0, 4):
        report = adversary.entropy_audit(matrix, w=w, t=t)
        print(
            f"  w={w} t={t}: H(S|E) = {report.h_s_given_e_symbols} of "
            f"{report.h_s_symbols} symbols, perfect={report.perfect}"
        )
print("perfect secrecy holds exactly up to t = n - w components in the clouds")

# --- the digit-level picture --------------------------------------------------
# withholding one digit per component behaves like component hiding only
# when one digit IS the whole component (d = 2^k); below that the withheld
# budget caps what remains hidden
single = DigitSelection(d=4, withheld=((0, 0),), width=1)
print("\nd = 2^k, withhold component 0's digit:",
      adversary.entropy_audit(matrix, w=1, selection=single).perfect)
partial = DigitSelection(d=2, withheld=((0, 0),))
report = adversary.entropy_audit(matrix, w=1, selection=partial)
print(f"d = 2 < 2^k, withhold one of two digits: perfect={report.perfect}, "
      f"H(S|E) = {report.h_s_given_e_bits:.1f} of {report.h_s_bits:.1f} bits")

# --- splitting for perfect secrecy against an all-cloud adversary ------------
stream = codec.encode_stream(
    digits, result.grouping, gf.build_vandermonde(spec, (1, 2, 3))
)
local, cloud = planner.perfect_secrecy_split(stream, w=1)
print("\nperfect-secrecy split, w=1: keep", local, "local,")
print("ship", sum(d1 - d0 for *_, d0, d1 in cloud), "of 9 digits to the clouds")
