"""
Basic sequences in the paravector variable
==========================================

Builds the basic sequence phi_k(x0, v) for a few vector dimensions,
prints the coefficient tables, and evaluates at exact rational points.
At n = 1 the sequence collapses to plain complex powers.
"""

from fractions import Fraction

from hyperappell import Paravector, build_family, coefficient_sequence, eval_at

# The interior coefficients depend only on n (and an optional shift).
# They come in equal pairs and shrink like double-factorial ratios.
for n in (1, 2, 3, 5):
    table = coefficient_sequence(n, 6)
    print(f"n={n}:", ", ".join(str(c) for c in table.values))

# The polynomials themselves are binomial combinations of x0 powers and
# vector powers: deg-k term count is k+1, never more.
seq = build_family(2, 4)
print()
for k, poly in enumerate(seq.polys):
    print(f"phi_{k} =", poly)

# Degree 1 is the Fueter-style variable: x0 + v/n.
print("\nphi_1 at n=4:", build_family(4, 1).polys[1])

# Evaluation is exact.  At x = 1 + 2 e_1 (n = 2, second component zero)
# the first few values stay in the span of 1 and e_1.
x = Paravector(1, (2, 0))
for k, value in enumerate(eval_at(seq, x)):
    print(f"phi_{k}(1 + 2e1) =", value)

# Homogeneity: phi_k(t x) = t^k phi_k(x) for scalar t.
t = Fraction(3, 2)
scaled = eval_at(seq, x.scaled(t))
plain = eval_at(seq, x)
print("\nhomogeneity at t=3/2:", all(scaled[k] == plain[k] * t**k for k in range(5)))

# n = 1 is the complex plane in disguise: phi_k(x) = (x0 + e1 x1)^k.
w = Paravector(1, (1,))
complex_seq = build_family(1, 8)
powers = eval_at(complex_seq, w)
base = w.to_multivector()
print("n=1 gives complex powers:", all(powers[k] == base**k for k in range(9)))
print("(1 + e1)^3 =", powers[3])
