"""midylab: block-sum periodicity of radix expansions.

Decides, for a base b and modulus N coprime to it, which block counts d
make every period of x/N sum to a multiple of b**k - 1 when cut into d
blocks of k digits; cross-validates the structural deciders against a
digit-level oracle; and constructs unbounded progressions of primes
congruent to 1 modulo a prime power.

The package exports what its modules export: each module's __all__
names a public symbol once, and __all__ here joins those lists.
"""

from . import arith, errors, expansion, jenkins, midy, order, progression
from .arith import *
from .errors import *
from .expansion import *
from .jenkins import *
from .midy import *
from .order import *
from .progression import *

__version__ = "0.1.0"

__all__ = [
    *arith.__all__,
    *errors.__all__,
    *expansion.__all__,
    *jenkins.__all__,
    *midy.__all__,
    *order.__all__,
    *progression.__all__,
]
