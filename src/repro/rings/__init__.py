"""Payload rings: the algebraic core of F-IVM.

The same view tree maintains counts, COVAR matrices or MI counts depending
only on the ring its payloads live in. See :mod:`repro.rings.base` for the
interface and :mod:`repro.rings.specs` for application-level bundles.
"""

from repro.rings.base import Ring, check_ring_axioms
from repro.rings.decay import DecayRing, DecaySpec, payload_drift, result_drift
from repro.rings.cofactor import (
    CofactorLayout,
    GeneralCofactor,
    GeneralCofactorRing,
    NumericCofactor,
    NumericCofactorBlock,
    NumericCofactorRing,
)
from repro.rings.cofactor_sparse import (
    SparseCofactor,
    SparseCofactorBlock,
    SparseCofactorRing,
)
from repro.rings.lifting import (
    CATEGORICAL,
    CONTINUOUS,
    Binning,
    Feature,
    LiftFunction,
    constant_lift,
    general_cofactor_lift,
    numeric_cofactor_lift,
    sparse_cofactor_lift,
)
from repro.rings.relational import RelationRing, RelationValue
from repro.rings.scalar import BoolRing, FloatRing, IntegerRing, MinPlusRing, R_FLOAT, Z
from repro.rings.specs import (
    CountSpec,
    CovarSpec,
    MISpec,
    PayloadPlan,
    PayloadSpec,
    SumProductSpec,
    SumSpec,
)

__all__ = [
    "Ring",
    "check_ring_axioms",
    "DecayRing",
    "DecaySpec",
    "payload_drift",
    "result_drift",
    "IntegerRing",
    "FloatRing",
    "BoolRing",
    "MinPlusRing",
    "Z",
    "R_FLOAT",
    "RelationRing",
    "RelationValue",
    "CofactorLayout",
    "NumericCofactor",
    "NumericCofactorBlock",
    "NumericCofactorRing",
    "GeneralCofactor",
    "GeneralCofactorRing",
    "SparseCofactor",
    "SparseCofactorBlock",
    "SparseCofactorRing",
    "CONTINUOUS",
    "CATEGORICAL",
    "Binning",
    "Feature",
    "LiftFunction",
    "constant_lift",
    "numeric_cofactor_lift",
    "sparse_cofactor_lift",
    "general_cofactor_lift",
    "CountSpec",
    "SumSpec",
    "SumProductSpec",
    "CovarSpec",
    "MISpec",
    "PayloadPlan",
    "PayloadSpec",
]
