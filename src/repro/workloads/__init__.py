"""Synthetic SpecInt95-like workloads (the paper's Table 1 stand-ins)."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..errors import WorkloadError
from .generator import ProgramGenerator, generate_program
from .profiles import (
    FIGURE3_ORDER,
    FIGURE_ORDER,
    SPECINT95,
    WorkloadProfile,
    get_profile,
    register_profile,
    registered_profiles,
    unregister_profile,
)
from .program import (
    BasicBlock,
    BranchBehavior,
    MemBehavior,
    StaticProgram,
)
from .columns import TraceColumns
from .trace import (
    SharedTrace,
    TraceExecutor,
    TraceRecord,
    TraceReplay,
    reset_trace_stats,
    trace_build_counts,
)


@dataclass(frozen=True)
class Workload:
    """A named benchmark: its profile, generated program, and seed.

    Create these through :func:`workload`; the dataclass itself is cheap to
    pass around and hashes by identity of its contents, which the
    experiment cache uses as a key component.
    """

    name: str
    #: Generator profile, or ``None`` for workloads not produced by the
    #: synthetic generator (e.g. imported ``.rtrace`` traces).
    profile: Optional[WorkloadProfile]
    program: StaticProgram
    seed: int
    #: Lazily created shared committed-path buffer; excluded from
    #: equality/hash so two workloads of the same program compare equal
    #: regardless of how much trace either has materialised.
    _shared_trace: Optional[SharedTrace] = field(
        default=None, compare=False, repr=False
    )

    def shared_trace(self) -> SharedTrace:
        """The workload's shared trace buffer (created on first use)."""
        if self._shared_trace is None:
            # Frozen dataclass: bypass the immutability guard for the
            # one-time cache population.
            object.__setattr__(
                self, "_shared_trace", SharedTrace(self.program, self.seed)
            )
        return self._shared_trace

    def trace(self) -> TraceReplay:
        """Fresh cursor over the committed path.

        Every call replays the same shared buffer, so running ten steering
        schemes over one workload decodes the trace once, not ten times.
        """
        return self.shared_trace().replay()


#: Generated-program cache: building a StaticProgram is by far the most
#: expensive part of :func:`workload`, and programs are immutable, so the
#: same object can back every simulation of a (bench, seed) pair.  The
#: key includes the *profile itself* (frozen, hashable), not just its
#: name: a registered profile reusing a name must never be served the
#: stale program generated for a different profile.  Values are weak: an
#: entry lives exactly as long as some caller holds the workload (a
#: campaign group, a worker batch, a test), and is freed by reference
#: counting once nothing does, so a many-seed study keeps only the
#: traces it is using.
_CacheKey = Tuple[str, int, WorkloadProfile]
_WORKLOAD_CACHE: "weakref.WeakValueDictionary[_CacheKey, Workload]" = (
    weakref.WeakValueDictionary()
)

#: Resolver callbacks tried, in registration order, when a name has no
#: profile.  Each takes ``(name, seed)`` and returns a
#: :class:`Workload` or ``None``; :mod:`repro.scenarios` registers one
#: for imported ``.rtrace`` workloads.  Resolvers own their caching —
#: results are not memoised here.
_WORKLOAD_RESOLVERS: List[Callable[[str, int], Optional[Workload]]] = []


def register_workload_resolver(
    resolver: Callable[[str, int], Optional[Workload]]
) -> None:
    """Add a fallback resolver for names without a registered profile."""
    _WORKLOAD_RESOLVERS.append(resolver)


def workload_for_profile(
    profile: WorkloadProfile, seed: int = 0, fresh: bool = False
) -> Workload:
    """Build (or fetch the cached) workload generated from *profile*.

    This is the cache-aware core of :func:`workload`; use it directly for
    profiles that are not registered under a global name.  The same
    object comes back for as long as any caller holds it; hold it for as
    long as its trace should be shared.
    """
    if fresh:
        program = generate_program(profile, seed=seed)
        return Workload(
            name=profile.name, profile=profile, program=program, seed=seed
        )
    key = (profile.name, seed, profile)
    cached = _WORKLOAD_CACHE.get(key)
    if cached is None:
        cached = workload_for_profile(profile, seed, fresh=True)
        _WORKLOAD_CACHE[key] = cached
    return cached


def workload(name: str, seed: int = 0, fresh: bool = False) -> Workload:
    """Build (or fetch the cached) workload for benchmark *name*.

    *name* is resolved against the SpecInt95 stand-ins, then against
    profiles registered by workload families, then against resolver
    callbacks (imported traces).  Repeated calls with the same
    ``(name, seed)`` — and the same registered profile — return the same
    :class:`Workload` object, which also shares its materialised trace,
    for as long as any caller holds it.  Once nothing does, the workload
    is freed and the next call generates it again, so a caller that
    runs several simulations of one ``(name, seed)`` holds the workload
    across them (as a campaign group does).  Pass ``fresh=True`` to
    force regeneration (determinism tests use this to prove cached and
    freshly built workloads behave identically).

    >>> wl = workload("gcc")
    >>> wl.program.num_instructions > 0
    True
    """
    try:
        profile = get_profile(name)
    except WorkloadError:
        for resolver in _WORKLOAD_RESOLVERS:
            resolved = resolver(name, seed)
            if resolved is not None:
                return resolved
        raise
    return workload_for_profile(profile, seed, fresh=fresh)


def clear_workload_cache() -> None:
    """Forget every cached workload.

    Workloads still held elsewhere stay alive, but the next
    :func:`workload` call builds a new object; those nobody holds are
    already gone, since the cache keeps a workload only while it is
    held.
    """
    _WORKLOAD_CACHE.clear()


__all__ = [
    "FIGURE3_ORDER",
    "FIGURE_ORDER",
    "SPECINT95",
    "WorkloadProfile",
    "get_profile",
    "register_profile",
    "registered_profiles",
    "unregister_profile",
    "register_workload_resolver",
    "workload_for_profile",
    "ProgramGenerator",
    "generate_program",
    "BasicBlock",
    "BranchBehavior",
    "MemBehavior",
    "StaticProgram",
    "SharedTrace",
    "TraceColumns",
    "TraceExecutor",
    "TraceRecord",
    "TraceReplay",
    "Workload",
    "workload",
    "clear_workload_cache",
    "reset_trace_stats",
    "trace_build_counts",
]
