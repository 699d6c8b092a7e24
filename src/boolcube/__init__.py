"""Biased Fourier analysis on the Boolean cube, score-function gradient
estimators for product distributions over signs, and a toy sigmoid
belief net trained with those estimators.

The cube is {-1,+1}^n under an independent product measure where
coordinate i equals +1 with probability p_i.  Everything downstream
(transforms, smoothing operators, estimator algebra) is exact for n
small enough to enumerate, which is what the oracles in the test suite
lean on.
"""

from . import cube, estimators, fourier, funcspec, operators, rng, sbn
from .cube import *
from .estimators import *
from .fourier import *
from .funcspec import *
from .operators import *
from .rng import *
from .sbn import *

__version__ = "0.1.0"

# Each module's __all__ is its public list; the package re-exports them.
__all__ = ["__version__"]
__all__ += cube.__all__
__all__ += estimators.__all__
__all__ += fourier.__all__
__all__ += funcspec.__all__
__all__ += operators.__all__
__all__ += rng.__all__
__all__ += sbn.__all__
