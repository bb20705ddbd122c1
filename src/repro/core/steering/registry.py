"""Name-based steering scheme registry.

``make_steering("general-balance")`` builds a fresh scheme instance; the
registry is the single place the CLI, the experiment harness and the
public :func:`repro.simulate` API resolve scheme names.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ...errors import ConfigError
from .base import SteeringScheme
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
from .slice_balance import SliceBalanceSteering
from .slice_steering import BrSliceSteering, LdStSliceSteering
from .static import StaticLdStSliceSteering

_FACTORIES: Dict[str, Callable[[], SteeringScheme]] = {
    "naive": NaiveSteering,
    "modulo": ModuloSteering,
    "ldst-slice": LdStSliceSteering,
    "br-slice": BrSliceSteering,
    "ldst-nonslice-balance": lambda: NonSliceBalanceSteering("ldst"),
    "br-nonslice-balance": lambda: NonSliceBalanceSteering("br"),
    "ldst-slice-balance": lambda: SliceBalanceSteering("ldst"),
    "br-slice-balance": lambda: SliceBalanceSteering("br"),
    "ldst-priority": lambda: PrioritySliceBalanceSteering("ldst"),
    "br-priority": lambda: PrioritySliceBalanceSteering("br"),
    "general-balance": GeneralBalanceSteering,
    "fifo": FifoSteering,
    "static-ldst": StaticLdStSliceSteering,
    "static-ldst+1": lambda: StaticLdStSliceSteering(neighbor_hops=1),
    # Extension schemes (see repro.core.steering.extensions).
    "affinity-only": AffinityOnlySteering,
    "balance-only": BalanceOnlySteering,
    "primary-cluster": PrimaryClusterSteering,
}


#: Optional explicit one-line descriptions (user registrations); names
#: without an entry fall back to the scheme class docstring.
_DESCRIPTIONS: Dict[str, str] = {}


def available_schemes() -> List[str]:
    """All registered scheme names, sorted."""
    return sorted(_FACTORIES)


def scheme_description(name: str) -> str:
    """One-line description of the scheme registered under *name*.

    Uses the description passed to :func:`register_scheme` when present,
    otherwise the first line of the scheme class's docstring — so the
    ``repro-sim schemes list`` output stays in sync with the code.
    """
    if name not in _FACTORIES:
        known = ", ".join(available_schemes())
        raise ConfigError(
            f"unknown steering scheme {name!r}; available: {known}"
        )
    explicit = _DESCRIPTIONS.get(name)
    if explicit:
        return explicit
    doc = make_steering(name).__doc__ or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def make_steering(name: str) -> SteeringScheme:
    """Instantiate the scheme registered under *name*."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(available_schemes())
        raise ConfigError(
            f"unknown steering scheme {name!r}; available: {known}"
        ) from None
    return factory()


def register_scheme(
    name: str,
    factory: Callable[[], SteeringScheme],
    description: str = "",
) -> None:
    """Register a user-defined scheme (used by the extension example).

    *description* feeds the CLI scheme listing; when omitted, the
    scheme class docstring's first line is used.
    """
    if name in _FACTORIES:
        raise ConfigError(f"steering scheme {name!r} already registered")
    _FACTORIES[name] = factory
    if description:
        _DESCRIPTIONS[name] = description
