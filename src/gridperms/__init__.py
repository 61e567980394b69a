"""Monotone grid classes of permutations.

A 0/+-1 matrix carves a permutation's plot into cells; the grid class of
the matrix is every permutation that can be cut so each cell is increasing,
decreasing, or empty as the matrix dictates.  This package decides
membership, assigns the column and row signs that make a matrix a partial
multiplication table, and converts between words over the nonzero cells
and gridded permutations in an order-preserving way.
"""
from types import ModuleType as _ModuleType

from .codec import (
    InconsistentOrdersError,
    Letter,
    Word,
    alphabet,
    decode,
    encode,
    format_word,
    parse_word,
    row_col_orders,
    subword_leq,
)
from .enumeration import counting_sequence, enumerate_class, enumerate_via_words
from .graphs import (
    CellGraph,
    NotPartialMultiplicationError,
    RowColumnGraph,
    SignAssignment,
    cell_graph,
    cycle_sign,
    find_signs,
    has_negative_cycle,
    is_forest,
    row_column_graph,
)
from .gridding import (
    Gridding,
    GriddedPermutation,
    LimitExceededError,
    check_gridding,
    find_gridding,
    in_grid_class,
)
from .matrices import Cell, GridMatrix
from .perms import Permutation, containment_witness, contains, pattern_of, window

__version__ = "0.1.0"

# __all__ is every public name the imports above bind, less the submodules
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
