"""Rational p-Weil numbers in cyclotomic fields.

The group E_p(k) of elements of k* whose normalized absolute value is 1 at
every place not dividing p is finitely generated.  This package constructs
it explicitly for k = Q(zeta_n), computes its valuation and argument
regulators with certified enclosures, and produces machine-checkable
certificates for independence statements about the argument vectors.
The modules are the API; the package holds only ``__version__``, so
importing one module loads only what that module imports.
"""

__version__ = "0.7.0"
