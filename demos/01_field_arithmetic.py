"""Field arithmetic walkthrough: GF(2^k) tables and the encoding matrix.

Everything downstream rests on this layer: XOR addition, log/antilog
multiplication, and an invertible Vandermonde matrix built from distinct
nonzero evaluation points.
"""

import numpy as np

from ncss import gf

# a small field, easy to eyeball: GF(8) with x^3 + x + 1
f = gf.get_field(3)
print(f"field: {f}, generator element {f.generator}")

print("\naddition is XOR:  3 + 5 =", f.add(3, 5))
print("multiplication:   3 * 5 =", f.mul(3, 5))
print("inverse:          1/3   =", f.inv(3), " check:", f.mul(3, f.inv(3)))

# the full multiplication table for GF(8)
q = f.q
table = f.mul_arr(np.repeat(np.arange(q), q), np.tile(np.arange(q), q))
print("\nmultiplication table:")
print(table.reshape(q, q))

# encoding matrix on points 1, 2, 3: row i holds the i-th powers
a = gf.build_vandermonde(f, (1, 2, 3))
print("\nVandermonde on points (1, 2, 3):")
print(a.rows)

# encode a vector and invert the matrix to get it back; mat_vec_batch
# multiplies the matrix by every row of a batch, here a batch of one
b = np.array([1, 3, 5])
c = f.mat_vec_batch(a.rows, b[None])[0]
print("\nencode  (1, 3, 5) ->", c)
print("inverse matrix:")
print(a.inverse())
print("decode ", c, "->", f.mat_vec_batch(a.inverse(), c[None])[0])

# distinct nonzero points are what make the inversion work; duplicates
# are rejected at construction
try:
    gf.build_vandermonde(f, (2, 2))
except Exception as exc:
    print("\nduplicate points rejected:", exc)
