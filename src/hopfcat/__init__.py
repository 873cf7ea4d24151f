"""Exact structure-constant calculus for finite k-linear Hopf categories.

Data lives as structure constants over an exact field (rationals or a prime
field); every axiom is verified exactly, on every basis element of its
domain, over the chosen bases.  Constructions: groupoid linearization,
group-graded lifting, duality on dual bases, weak-Hopf packing, the bimonoid
correspondence on the two-tensor-product category, and the freeness toolkit
(canonical Galois-type maps, antipode recovery, coinvariants, integrals).
"""

from .scalars import Field, FpElement, FieldMismatchError, GF, QQ, parse_field
from .linalg import LinMap, NotInvertible, invert, rank, rank_kernel, solve
from .report import (CheckItem, InternalInvariantError, PreconditionError,
                     Report)
from .core import (HopfCatData, MalformedDataError, MissingAntipodeError,
                   check_antipode_theorems, check_strictness, is_strict,
                   transform, verify_structure)
from .groupoid import (GroupoidData, GroupoidError, disjoint_union,
                       linearize_groupoid, pair_groupoid, validate_groupoid)
from .graded import (GradedError, GradedHopfData, GroupTable, from_graded,
                     validate_graded)
from .dual import DualHopfCatData, dualize, undualize, verify_dual
from .weak import (WeakHopfData, counital_source, counital_target, pack,
                   pack_dual, verify_weak_hopf)
from .modules import (ComoduleData, ModuleData, comodule_to_module,
                      module_to_comodule, regular_comodule, regular_module,
                      tensor_modules, unit_module, verify_comodule,
                      verify_module)
from .fundamental import (CoinvariantFamily, HopfModuleData, RecoveryFailure,
                          can_inverse, can_rank_table, canonical_hopf_module,
                          check_antipode_bijective, check_equivalence,
                          coinvariants, dual_hopf_module, free_hopf_module,
                          integrals, recover_antipode, regular_hopf_module,
                          verify_hopf_module)
from .duoidal import (BimonoidData, MkXObject, bimonoid_from_category,
                      black_tensor, category_from_bimonoid, verify_bimonoid,
                      white_tensor, zeta)

__version__ = "0.1.0"
