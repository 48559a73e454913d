"""Closure-operator toolkit for families of partial orders.

Library surface: relation algebra on a labelled ground set, the scaled
attribute context and its closure operator, union-free generic family
detection plus two enumerators, and a connectedness lab with a seeded
falsification search; the independent routes the tests check them
against live in ``ufgkit.oracles``.  ``ufgkit.cli`` exposes the same
machinery on the command line.  The top level re-exports the names of
the README tour and those the benchmark imports; everything else is
imported from its own module.
"""

from .orders import GroundSet, Poset, enumerate_all_posets, make_poset
from .context import gamma_interval
from .ufg import enumerate_ufg_exhaustive, is_ufg
from .connectedness import corrigendum_inputs, has_predecessor, random_pool
from .oracles import is_ufg_by_distinguishing

__version__ = "0.1.0"
