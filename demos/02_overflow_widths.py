"""The overflow problem, and the two width rules that control it.

Encoding mixes digit groups into field elements; rendered back as digits,
an element can need more digits than the plaintext slice it replaced. The
strict width makes that impossible; the alpha-bounded width merely caps
the per-cloud expansion factor.
"""

import numpy as np

from ncss import codec, gf
from ncss.codec import ALPHA_BOUNDED, STRICT, DigitString

# --- strict mode: width k/log2(d) means d^s = 2^k exactly -------------------
spec = gf.FieldSpec(k=3, d=2)
s = codec.strict_width(3, 2)
print(f"strict width for k=3, d=2: s = {s}  (2^{s} digits = field size)")

plan = codec.make_grouping_plan(9, spec, n=3, mode=STRICT)
b = DigitString(2, [0, 0, 1, 0, 1, 1, 1, 0, 1])
elements = codec.regroup(b, plan)
print("regroup 001 011 101 ->", elements.tolist())

matrix = gf.build_vandermonde(spec, (1, 2, 3))
block = codec.encode_block(matrix, elements, plan)
print("encoded elements:", block.elements.tolist())
renders = block.render_digits.reshape(3, s)
print("fixed-width renders:", renders.tolist())
print("total digits in = total digits out:", block.total_digits, "== 9")

# --- a mismatched width shows the overflow ----------------------------------
# single-digit plaintext slices, but elements render up to 3 digits
one_digit = codec.GroupingPlan(mode=ALPHA_BOUNDED, d=2, k=3, width=1, r=3,
                               pad_count=0, alpha=3.0)
tiny = codec.regroup(DigitString(2, [0, 1, 1]), one_digit)
overflowing = codec.encode_block(matrix, tiny, one_digit)
lengths = codec.digit_lengths(overflowing.elements, 2)
print("\nsingle-digit plaintext, coded digit lengths:", lengths.tolist())

report = codec.classify_overflow(
    np.ones(3, dtype=np.int64), overflowing, [[0, 2], [1]], alpha=3
)
print("strictly non-overflow?", report.strict)
print("3-bounded non-overflow?", report.alpha_bound_satisfied,
      " per-cloud expansion:", report.per_cloud_ratios)

# --- the alpha rule: minimal width for a tolerated expansion ----------------
for alpha in (1, 2, 3, 5):
    print(f"alpha={alpha}: min width k=8,d=2 ->",
          codec.min_width_alpha(8, 2, alpha))

# round trip through regroup/encode/decode/ungroup is exact either way
for mode, alpha in ((STRICT, None), (ALPHA_BOUNDED, 3.0)):
    plan = codec.make_grouping_plan(20, spec, n=3, mode=mode, alpha=alpha)
    msg = DigitString(2, np.random.default_rng(1).integers(0, 2, size=20))
    stream = codec.encode_stream(msg, plan, matrix)
    coded = stream.elements.reshape(stream.block_count, stream.n)
    decoded = matrix.field.mat_vec_batch(matrix.inverse(), coded)
    assert codec.ungroup(decoded.reshape(-1), plan) == msg
    print(f"{mode}: 20-digit round trip exact "
          f"(width {plan.width}, {plan.pad_count} pad digits)")
