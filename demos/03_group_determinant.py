# Walkthrough: when the basis is a single Galois orbit, coherent branch
# choices assemble the arguments into a group determinant, and the
# circulant factorization certifies that it does not vanish.
#
# Q(zeta_8) at p = 17: completely split, rank 2, and sigma_3 (of order 2,
# not conjugation) swaps the two prime pairs.  The 2x2 matrix of arguments
# is a circulant whose determinant factors over the characters of the
# two-element group.

from pweil.cyclo import CycloField
from pweil.splitting import split_prime
from pweil.weilgroup import build_weil_basis
from pweil.regulators import (
    BasisMismatch, circulant_group_delta, find_abelian_generator, group_determinant,
)

field = CycloField(8)
split = split_prime(field, 17)
basis = build_weil_basis(split)
a = find_abelian_generator(basis)
print("orbit generator: sigma_%d" % a)

rep = group_determinant(basis, a, 256)
print("matrix size:", rep.size)
for i, t in enumerate(rep.thetas):
    print("  theta_%d = %s" % (i, t.to_str(25)))
print("|det| (direct):       ", rep.delta.to_str(25))
print("|det| (char product): ", rep.delta_factored.to_str(25))
print("0 excluded:", rep.nonzero)

# scaling the element to xi^N multiplies the determinant by N^m when the
# branches are scaled coherently
n_scale = 5
scaled, scaled_fact = circulant_group_delta([t * n_scale for t in rep.thetas])
print("\nscaling check: delta(N theta) vs N^m delta overlap:",
      scaled.overlaps(rep.delta * n_scale ** rep.size))

# Q(zeta_5) at p = 11 is the cautionary case: (Z/5)* is cyclic of order 4,
# conjugation has no complement, and sigma_2 squares to conjugation -- the
# orbit never closes and no group determinant exists
field5 = CycloField(5)
split5 = split_prime(field5, 11)
basis5 = build_weil_basis(split5)
try:
    group_determinant(basis5, 2, 128)
except BasisMismatch as exc:
    print("\nQ(zeta_5), p=11 with sigma_2 is rejected:", exc)
print("any closing orbit at all:", find_abelian_generator(basis5))
