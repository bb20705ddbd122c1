"""Dynamic cluster assignment mechanisms (the paper's contribution)."""

from .base import (
    FP_CLUSTER,
    INT_CLUSTER,
    SteeringScheme,
    affinity_cluster,
    least_loaded,
    operand_presence,
)
from .context import SteeringContext
from .extensions import (
    AffinityOnlySteering,
    BalanceOnlySteering,
    PrimaryClusterSteering,
)
from .fifo import FifoSteering
from .general import GeneralBalanceSteering
from .modulo import ModuloSteering
from .naive import NaiveSteering
from .nonslice_balance import NonSliceBalanceSteering
from .priority import PrioritySliceBalanceSteering
from .registry import (
    available_schemes,
    make_steering,
    register_scheme,
    scheme_description,
)
from .slice_balance import SliceBalanceSteering
from .slice_steering import BrSliceSteering, LdStSliceSteering, SliceSteering
from .static import StaticLdStSliceSteering

__all__ = [
    "FP_CLUSTER",
    "INT_CLUSTER",
    "SteeringScheme",
    "affinity_cluster",
    "least_loaded",
    "operand_presence",
    "SteeringContext",
    "AffinityOnlySteering",
    "BalanceOnlySteering",
    "PrimaryClusterSteering",
    "FifoSteering",
    "GeneralBalanceSteering",
    "ModuloSteering",
    "NaiveSteering",
    "NonSliceBalanceSteering",
    "PrioritySliceBalanceSteering",
    "available_schemes",
    "make_steering",
    "register_scheme",
    "scheme_description",
    "SliceBalanceSteering",
    "BrSliceSteering",
    "LdStSliceSteering",
    "SliceSteering",
    "StaticLdStSliceSteering",
]
