"""Maxmin-fair ranking under prefix group-fairness constraints.

Build an :class:`Instance` from ``(id, group, score)`` rows, pick a
:class:`ValueModel` preset, state prefix group bounds as a
:class:`ConstraintSet` (caps and, for one or two groups, floors), then call
:func:`solve_maxmin` for a randomized ranking policy that lexicographically
maximizes the sorted vector of expected per-individual satisfactions.  The
:mod:`fairrank.analysis` module holds exact small-instance oracles and
fairness metrics; the :mod:`fairrank.cli` module exposes everything as a
command line tool.
"""

# Each module's ``__all__`` is the one list of its public names; the
# package exports exactly those.
from . import analysis, baseline, core, errors, solver
from .core import *
from .errors import *
from .baseline import *
from .analysis import *
from .solver import *

__version__ = "0.1.0"

_MODULES = (core, errors, baseline, analysis, solver)
__all__ = [name for module in _MODULES for name in module.__all__]
