"""anyonforge: SU(2)_k fusion spaces, braid representations, and gate synthesis.

The package re-exports every name in its modules' ``__all__``; those lists
are the public surface.
"""

from . import model, spaces, codes, synth, assemble, files
from .model import *
from .spaces import *
from .codes import *
from .synth import *
from .assemble import *
from .files import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *spaces.__all__, *codes.__all__, *synth.__all__,
           *assemble.__all__, *files.__all__, "__version__"]
