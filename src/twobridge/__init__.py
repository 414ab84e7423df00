"""Exact continued-fraction machinery for two-bridge knots.

The package computes, for a two-bridge knot K(p,q), the minimal crossing
count achievable by a half-turn symmetric (Type A or Type B) continued
fraction of one of its slopes, along with the classical crossing number,
census tables over crossing ranges, and SVG drawings of the symmetric
diagrams.  All arithmetic is exact integer work; the library has no
floats.
"""

from . import contfrac, knot, oracle, render, search, solver, table
from .contfrac import *
from .knot import *
from .oracle import *
from .render import *
from .search import *
from .solver import *
from .table import *

__version__ = "0.1.0"

__all__ = []
__all__ += contfrac.__all__
__all__ += knot.__all__
__all__ += oracle.__all__
__all__ += render.__all__
__all__ += search.__all__
__all__ += solver.__all__
__all__ += table.__all__
