# Walkthrough: the multivalued argument regulator and its independence test.
#
# Each basis element xi has modulus 1 at every complex embedding, so only
# its arguments carry information.  Arguments live in R/2piZ; after
# tensoring with Q the natural question is whether the argument vectors of
# a basis stay R-linearly independent for EVERY choice of branch.  That is
# tested here at a bounded scale: an LLL search for integer relations
# among the argument enclosures, modulo 2 pi, with certified arithmetic.

from fractions import Fraction

from pweil.cyclo import CycloField
from pweil.splitting import split_prime
from pweil.weilgroup import build_weil_basis
from pweil.regulators import arg_vector, argument_independence_certificate

field = CycloField(5)
split = split_prime(field, 11)
basis = build_weil_basis(split)

for idx in split.S:
    av = arg_vector(basis.xi[idx], 192)
    print("arguments of xi[%s]:" % split.primes[idx].label)
    for place, val in zip(av.places, av.values):
        print("  place a=%d: %s" % (place, val.to_str(25)))

report = argument_independence_certificate(basis, bound=10_000, precision=512)
cert = report.certificate
print("\nrelation search up to |c| <=", cert.bound, "at", cert.precision, "bits:")
print("  status:", cert.status)
print("  settled at scale: 2^%d (largest 2^%d)" % (cert.scale_log2, cert.precision // 2))
# both are exact rationals; six significant digits show that one exceeds the other
print("  shortest-vector bound^2: %.6e" % Fraction(cert.sv_lower_bound_sq))
print("  threshold^2:             %.6e" % Fraction(cert.threshold_sq))

# branch choices only shift by lattice vectors already modded out, so the
# certificate is stable under arbitrary 2pi offsets
offsets = [[3, -2], [0, 5]]
perturbed = argument_independence_certificate(
    basis, bound=10_000, precision=512, offsets=offsets)
print("\nwith branch offsets", offsets, "->", perturbed.certificate.status)
