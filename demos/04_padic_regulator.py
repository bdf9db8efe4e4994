# Walkthrough: the Z_p-valued regulator matrix.
#
# For each basis element xi and each prime v above p, the modified local
# absolute value (Nv)^(-ord_v) N_local(xi) is a p-adic unit; taking log_p
# gives a matrix over Z_p.  Its rows sum to zero by the product formula,
# torsion elements give zero rows, and the interesting question is whether
# the rank is always full (here it is, heuristically, at 50 digits).

from pweil.cyclo import CycloField
from pweil.splitting import split_prime
from pweil.weilgroup import build_weil_basis
from pweil.regulators import gross_matrix, gross_row

field = CycloField(5)
split = split_prime(field, 11)
basis = build_weil_basis(split)

gm = gross_matrix(basis, split, K=50)
print("rows:", gm.row_labels, " columns:", [pr.label for pr in split.primes])
print("entries (11-adic integers mod 11^%d):" % gm.precision)
for label, row in zip(gm.row_labels, gm.entries):
    print("  %s: %s" % (label, list(row)))
print("heuristic rank:", gm.heuristic_rank, "of", len(split.S))
print("row sums vanish to %d digits (product formula)" % gm.row_sum_min_valuation)

# roots of unity are in the kernel: their rows are exactly zero
row, _ = gross_row(field.zeta(), split, K=50)
print("row of zeta:", row)

# a residue degree > 1 example: n = 8, p = 5 (f = 2), one basis element
field8 = CycloField(8)
split8 = split_prime(field8, 5)
basis8 = build_weil_basis(split8)
gm8 = gross_matrix(basis8, split8, K=40)
print("\nn=8, p=5:")
print(gm8.to_csv())
print("heuristic rank:", gm8.heuristic_rank)
