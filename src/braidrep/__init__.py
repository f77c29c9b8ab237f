"""Exact Gassner/Burau representations of pure braid groups and friends.

Subpackages by theme:

- ``laurent`` / ``cyclo``: exact rings (multivariate Laurent polynomials over
  Z, their fraction field for the symbolic form, cyclotomic numbers) and the
  specialization of Laurent polynomials at roots of unity.
- ``braid``: braid words, pure-braid generators, half twists, permutations.
- ``artin``: the braid action on a free group and the semidirect-product
  evaluation that derives unreduced matrices from first principles.
- ``gassner``: the reduced / unreduced crossed-homomorphism matrices of
  braid words.
- ``hermitian``: the invariant tridiagonal skew-hermitian form, written once
  as a table of numerators over factors 1 - X_i; determinant identity, the
  specialized form read from the same table, signatures.
- ``spectral``: root-of-unity specializations, degeneracy structure,
  pigeonhole blocks, unipotent commutators, span-closure irreducibility.
- ``topology``: homology bookkeeping of cyclic covers of the line and
  Deligne-Mostow style condition reports.
- ``cli``: the ``braidrep`` command-line front end.
"""

__version__ = "0.1.0"

from .braid import BraidWord, Permutation, full_twist, pure_generator  # noqa: F401
from .cyclo import CycloNum, specialize_poly  # noqa: F401
from .errors import InvariantError, ValidationError  # noqa: F401
from .gassner import TwistedMap, evaluate_word  # noqa: F401
from .hermitian import form_matrix, signature, verify_invariance  # noqa: F401
from .laurent import LaurentPoly, RationalFunction  # noqa: F401
from .spectral import SpecializedRep, specialize_rep  # noqa: F401
from .topology import CoverSpec, classify, dm_report  # noqa: F401
