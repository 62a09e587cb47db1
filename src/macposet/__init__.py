"""macposet: ranked-poset algebra with Macaulay decision procedures."""

__version__ = "1.0.0"

from .core import (InducedSubposet, LevelSubset, PosetError, RankedPoset,
                   Verdict, Witness, induced_subposet, lower_shadow,
                   upper_shadow, validate_poset)
from .construct import (Provenance, adjoin_extreme, box, cartesian_product,
                        diamond, disjoint_union, fiber_product, path,
                        remove_extreme, spider, wedge)
from .ideals import (MonomialIdeal, divides, ideal_contains,
                     ideal_from_generators, ideal_intersection, ideal_sum,
                     inclusion_map, pure_power_ideal, quotient_is_finite,
                     standard_monomial_poset)
from .orders import (LevelOrderFamily, final_segment, initial_segment,
                     lex_order, order_from_lists, twist_order,
                     union_simplicial_order)
from .macaulay import (LevelCapExceeded, MinShadowTable, SearchResult,
                       SearchStats, check_macaulay, find_macaulay_order,
                       is_additive, min_shadow_table, new_shadow)

__all__ = [name for name in dir() if not name.startswith("_")]
