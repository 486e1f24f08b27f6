"""Verification toolkit for Lucas sequence square classes.

Evaluates the generalized Fibonacci and Lucas sequences U_n(P, Q) and
V_n(P, Q) for Q in {1, -1} (exactly and modularly), checks the identity
and congruence lemmas behind the square classifications, solves the
associated Pell and quartic equations, and runs bounded searches whose
findings are diffed against the predicted solution sets.
"""

from . import arith, classifier, diophantine, identities, sequences
from .arith import *
from .classifier import *
from .diophantine import *
from .identities import *
from .sequences import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += arith.__all__
__all__ += classifier.__all__
__all__ += diophantine.__all__
__all__ += identities.__all__
__all__ += sequences.__all__
