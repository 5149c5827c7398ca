"""k-stage generalized-alpha time integration for M u' + K u = F.

The family trades k implicit solves per step for order 3k/2 (even k) or
3k/2 + 1/2 (odd k) while staying A-stable, with per-stage high-frequency
dissipation controls rho in [0, 1]. Alongside the integrator the package
carries the spectral toolkit used to verify those claims: amplification
matrices, dissipation sweeps, stability maps, and characteristic-polynomial
order checks.

Each library module declares its public names in its own __all__; the
package re-exports exactly those.
"""

from . import cayley, exceptions, integrator, params, problems, spectral
from .cayley import *
from .exceptions import *
from .integrator import *
from .params import *
from .problems import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [name for module in (cayley, exceptions, integrator, params, problems, spectral)
           for name in module.__all__] + ["__version__"]
