"""Finite closure operators, their lattices, generators, and representations.

The package is organized bottom-up:

* :mod:`closureops.core` — ground sets, bitmask subsets, closure operators,
  closed-set topologies, validation;
* :mod:`closureops.poset` — finite posets: Hasse diagrams, minimum chain
  covers (Dilworth), Möbius inversion;
* :mod:`closureops.generators` — weak orders and binary classifiers, and
  generation of operators by intersection;
* :mod:`closureops.complexity` — meet-irreducibles and the two complexity
  measures (MNWO, MNBC) with verified optimal witnesses;
* :mod:`closureops.labeling` — labeling correspondences and the classifiers
  they induce;
* :mod:`closureops.menus` — menu preferences, the Kreps operator, and
  state-space representations;
* :mod:`closureops.jsonio` / :mod:`closureops.cli` — JSON wire formats and the
  ``closureops`` command.

All arithmetic is exact (machine integers and :class:`fractions.Fraction`);
all values are immutable; all functions are pure and deterministic.
"""

from . import complexity, core, errors, generators, labeling, menus, poset
from .complexity import *
from .core import *
from .errors import *
from .generators import *
from .labeling import *
from .menus import *
from .poset import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += poset.__all__
__all__ += generators.__all__
__all__ += complexity.__all__
__all__ += labeling.__all__
__all__ += menus.__all__
__all__ += errors.__all__
