"""
Classical families by transfer matrix
=====================================

Bernoulli, Euler, Frobenius-Euler, and Hermite sequences are all images
of the basic sequence under a triangular transfer matrix built from H.
Restricting to the real line recovers the classical polynomials.
"""

from fractions import Fraction

from hyperappell import build_family, restrict_real, transfer_matrix

# The Bernoulli transfer is the inverse of sum H^k / (k+1)!.  Its first
# column lists the Bernoulli numbers.
t = transfer_matrix("bernoulli", 6)
print("Bernoulli numbers:", ", ".join(str(t[i, 0]) for i in range(7)))

# Frobenius-Euler at lambda = -1 is the Euler transfer.
print("\nFrobenius-Euler(-1) == Euler:",
      transfer_matrix("frobenius-euler", 4, Fraction(-1)) == transfer_matrix("euler", 4))

# Hermite: exp(-H^2/4), again a finite sum.
print("Hermite transfer, m=4:")
print(transfer_matrix("hermite", 4))

# Hypercomplex Bernoulli sequence at n = 2.  The transfer mixes degrees,
# so the family is not homogeneous: phi_1 picks up the constant -1/2.
seq = build_family(2, 4, "bernoulli")
for k, poly in enumerate(seq.polys):
    print(f"B_{k} =", poly)

# On the real line (v = 0) only the x0 powers survive and the classical
# real polynomials appear, independent of n.
def show_restricted(family: str, symbol: str, lam: Fraction | None = None) -> None:
    rows = restrict_real(build_family(3, 4, family, lam=lam))
    for k, row in enumerate(rows):
        terms = [f"{a}*x^{i}" for i, a in enumerate(row) if a]
        print(f"{symbol}_{k}(x) =", " + ".join(terms) if terms else "0")
    print()

print()
show_restricted("bernoulli", "B")
show_restricted("euler", "E")
show_restricted("hermite", "He")
show_restricted("frobenius-euler", "F", lam=Fraction(3))
