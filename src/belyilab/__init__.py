"""belyilab: exact analysis of Belyi covers given by permutation monodromy.

Computes Galois closures, genus, character-level Tate-module decompositions
of generalized Jacobians and the associated descent criterion, and verifies
finite-level lifting statements via relation modules, group cohomology and
constructive generator lifting.
"""

__version__ = "0.1.0"

from .permgroup import Permutation, PermGroup, generate  # noqa: F401
