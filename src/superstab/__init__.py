"""Super-stable matchings with ties, and deletion problems around them."""

# Each module's `__all__` is the package's public surface; it is listed once, there.
from . import hardness, model, oracle, superstable
from .hardness import *
from .model import *
from .oracle import *
from .superstable import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *superstable.__all__, *oracle.__all__, *hardness.__all__, "__version__"]
