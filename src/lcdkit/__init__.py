"""lcdkit: a workbench for binary LCD (linear complementary dual) codes.

Construct, transform, and certify binary linear codes whose hull
C ∩ C⊥ is trivial: bit-packed GF(2) linear algebra, hull and parity
analysis, Gram normal forms, hull-guided puncture/shorten/extension
constructions, a step-down certification engine, extension-field code
expansion, and a CLI with a replayable construction ledger.
"""

from .gf2 import BitMatrix, BitVector
from .codes import (EngineBudgetError, LinearCode, ParityClass, ParseError,
                    format_gen1, parse_gen1)
from .conjecture import ConjectureCertificate, certify_step_down
from .expansion import (ExtField, ExtFieldCode, SelfDualBasis, expand_code,
                        find_self_dual_basis, format_extgen1, parse_extgen1)
from .ledger import ConstructionRecord, replay_ledger
from .search import lcd_search
from .tables import all_one_lcd_codes, dlcd_table, dlcd_value

__all__ = [
    "BitMatrix",
    "BitVector",
    "ConjectureCertificate",
    "ConstructionRecord",
    "EngineBudgetError",
    "ExtField",
    "ExtFieldCode",
    "LinearCode",
    "ParityClass",
    "ParseError",
    "SelfDualBasis",
    "all_one_lcd_codes",
    "certify_step_down",
    "dlcd_table",
    "dlcd_value",
    "expand_code",
    "find_self_dual_basis",
    "format_extgen1",
    "format_gen1",
    "lcd_search",
    "parse_extgen1",
    "parse_gen1",
    "replay_ledger",
]

__version__ = "0.1.0"
