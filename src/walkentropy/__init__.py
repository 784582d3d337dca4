"""Walk entropy, exact walk-regularity, and maximal-entropy temperatures.

A graph's walk entropy at temperature beta is the Shannon entropy of the
distribution proportional to the diagonal of exp(beta*A).  This package
decides walk-regularity exactly (arbitrary-precision walk counts), builds
the hub-matching family HM(m) of non-degree-regular graphs that still
attain maximal entropy at isolated temperatures, and locates all such
temperatures by bracketing and bisection.  It re-exports each module's
``__all__``, so a public name is declared once, where it is defined.
"""

from .graphs import *
from .walks import *
from .spectral import *
from .entropy import *
from .temperature import *

__version__ = "0.1.0"

# each ``from .x import *`` above also binds the submodule ``x`` here
__all__ = (
    graphs.__all__
    + walks.__all__
    + spectral.__all__
    + entropy.__all__
    + temperature.__all__
    + ["__version__"]
)
