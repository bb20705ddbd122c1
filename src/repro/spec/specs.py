"""Serializable experiment specs: MachineSpec, RunSpec, SuiteSpec.

These are the declarative layer in front of the simulator: plain frozen
dataclasses that name *what* to run — a machine from the registry plus
dotted-path overrides, a benchmark, a steering scheme, window sizes —
and round-trip losslessly through plain JSON dicts.  Everything that
executes simulations (:func:`repro.run`, the campaign engine, scenario
suites, the CLI) programs against these objects, and a spec written to a
data file today expands to the identical grid when loaded tomorrow or on
another host.

>>> from repro.spec import RunSpec
>>> spec = RunSpec(bench="gcc", scheme="modulo",
...                machine="bypass-latency-2")
>>> RunSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import json

from ..errors import ConfigError, SpecError
from ..pipeline.config import ProcessorConfig
from .machines import machine_config
from .overrides import (
    Overrides,
    normalize_overrides,
    overrides_from_jsonable,
    validate_overrides,
)

#: On-disk format tag / major version for suite data files.
SUITE_FORMAT = "repro-suite"
SUITE_VERSION = 1


def _reject_unknown_keys(kind: str, data: Dict[str, object], known) -> None:
    """Typos in spec data must fail loudly, not silently change the
    experiment — suite files are the source of truth for whole grids."""
    unknown = set(data) - set(known)
    if unknown:
        raise SpecError(
            f"{kind} has unknown keys: {', '.join(sorted(unknown))}; "
            f"known keys: {', '.join(sorted(known))}"
        )


@dataclass(frozen=True)
class MachineSpec:
    """A machine by registry name plus dotted-path overrides.

    ``overrides`` accepts a dict, an iterable of pairs, or the canonical
    tuple form; it is normalised on construction so specs stay hashable.
    """

    name: str = "clustered"
    overrides: Overrides = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides", normalize_overrides(self.overrides)
        )

    def resolve(self) -> ProcessorConfig:
        """Materialise (and thereby eagerly validate) the description."""
        return validate_overrides(self.overrides, machine_config(self.name))

    @property
    def label(self) -> str:
        """Human-readable name for logs and result tables."""
        if not self.overrides:
            return self.name
        changes = ",".join(f"{p}={v}" for p, v in self.overrides)
        return f"{self.name}[{changes}]"

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (overrides as an ordered mapping)."""
        out: Dict[str, object] = {"name": self.name}
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        return out

    @classmethod
    def from_dict(cls, data) -> "MachineSpec":
        """Inverse of :meth:`to_dict`; also accepts a bare name string."""
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, dict):
            raise SpecError(
                f"machine spec must be a name or a mapping, got {data!r}"
            )
        _reject_unknown_keys("machine spec", data, {"name", "overrides"})
        return cls(
            name=str(data.get("name", "clustered")),
            overrides=overrides_from_jsonable(data.get("overrides", ())),
        )


def _as_machine(value) -> MachineSpec:
    if isinstance(value, MachineSpec):
        return value
    if isinstance(value, (str, dict)):
        return MachineSpec.from_dict(value)
    raise ConfigError(
        f"machine must be a MachineSpec, name or mapping, got {value!r}"
    )


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation, serializable to a plain dict.

    It is also the campaign engine's point type: a campaign grid is a
    list of run specs, and frozen fields keep them hashable so result
    stores and resumes key on them.
    """

    bench: str
    scheme: str = "general-balance"
    machine: MachineSpec = field(default_factory=MachineSpec)
    seed: int = 0
    n_instructions: int = 20000
    warmup: int = 5000

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine", _as_machine(self.machine))

    def validate(self) -> "RunSpec":
        """Eagerly resolve the scheme and machine; returns self."""
        from ..core.steering import make_steering

        make_steering(self.scheme)
        self.machine.resolve()
        return self

    def config(self) -> ProcessorConfig:
        """Materialise the machine description for this run."""
        return self.machine.resolve()

    @property
    def trace_key(self) -> Tuple[str, int]:
        """Runs sharing this key share one generated workload trace."""
        return (self.bench, self.seed)

    @property
    def label(self) -> str:
        """Human-readable cell name for logs and error messages."""
        parts = [self.bench, self.scheme]
        if self.machine.name != "clustered":
            parts.append(self.machine.name)
        parts.extend(f"{p}={v}" for p, v in self.machine.overrides)
        if self.seed:
            parts.append(f"seed={self.seed}")
        return "/".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form, stable across releases."""
        return {
            "bench": self.bench,
            "scheme": self.scheme,
            "machine": self.machine.to_dict(),
            "seed": self.seed,
            "n_instructions": self.n_instructions,
            "warmup": self.warmup,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        """Inverse of :meth:`to_dict` (tolerating omitted defaults)."""
        if "bench" not in data:
            raise SpecError(f"run spec {data!r} is missing 'bench'")
        _reject_unknown_keys(
            "run spec", data, {f.name for f in fields(cls)}
        )
        return cls(
            bench=str(data["bench"]),
            scheme=str(data.get("scheme", "general-balance")),
            machine=_as_machine(data.get("machine", "clustered")),
            seed=int(data.get("seed", 0)),
            n_instructions=int(data.get("n_instructions", 20000)),
            warmup=int(data.get("warmup", 5000)),
        )


@dataclass(frozen=True)
class SuiteSpec:
    """A declarative campaign grid with a name and a purpose.

    The cross product of ``benches x schemes x machines x overrides x
    seeds`` expands into campaign points; ``overrides`` is a tuple of
    override *sets*, one grid axis entry each (the default single empty
    set means "the machines as registered").  Suites round-trip through
    JSON data files via :meth:`save` / :meth:`load`, which is how the
    checked-in ``suites/*.json`` definitions work.
    """

    name: str
    description: str
    benches: Tuple[str, ...]
    schemes: Tuple[str, ...]
    machines: Tuple[str, ...] = ("clustered",)
    seeds: Tuple[int, ...] = (0,)
    overrides: Tuple[Overrides, ...] = ((),)
    n_instructions: int = 8000
    warmup: int = 2000

    def __post_init__(self) -> None:
        for attr in ("benches", "schemes", "machines"):
            object.__setattr__(
                self, attr, tuple(str(v) for v in getattr(self, attr))
            )
        object.__setattr__(
            self, "seeds", tuple(int(s) for s in self.seeds)
        )
        object.__setattr__(
            self,
            "overrides",
            tuple(normalize_overrides(ov) for ov in self.overrides) or ((),),
        )

    def validate(self) -> "SuiteSpec":
        """Eagerly resolve every (machine, override set) combination."""
        from ..core.steering import make_steering

        for scheme in self.schemes:
            make_steering(scheme)
        for machine in self.machines:
            base = machine_config(machine)
            for override_set in self.overrides:
                validate_overrides(override_set, base)
        return self

    def points(
        self,
        n_instructions: Optional[int] = None,
        warmup: Optional[int] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> List[RunSpec]:
        """Expand the suite into its :class:`RunSpec` points.

        The window sizes and seeds can be overridden per run (smoke jobs
        shrink them; scenario studies widen them) without touching the
        suite definition.
        """
        from ..analysis.campaign import expand_grid

        return expand_grid(
            list(self.benches),
            list(self.schemes),
            machines=self.machines,
            overrides=self.overrides,
            seeds=tuple(seeds) if seeds is not None else self.seeds,
            n_instructions=(
                n_instructions
                if n_instructions is not None
                else self.n_instructions
            ),
            warmup=warmup if warmup is not None else self.warmup,
        )

    # ------------------------------------------------------------------
    # Data-file round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-data form written to suite data files."""
        return {
            "format": SUITE_FORMAT,
            "version": SUITE_VERSION,
            "name": self.name,
            "description": self.description,
            "benches": list(self.benches),
            "schemes": list(self.schemes),
            "machines": list(self.machines),
            "seeds": list(self.seeds),
            "overrides": [dict(ov) for ov in self.overrides],
            "n_instructions": self.n_instructions,
            "warmup": self.warmup,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SuiteSpec":
        """Inverse of :meth:`to_dict` (tolerating omitted defaults)."""
        if not isinstance(data, dict):
            raise SpecError(f"suite spec must be a mapping, got {data!r}")
        tag = data.get("format", SUITE_FORMAT)
        if tag != SUITE_FORMAT:
            raise SpecError(f"not a suite spec (format {tag!r})")
        version = int(data.get("version", SUITE_VERSION))
        if version > SUITE_VERSION:
            raise SpecError(
                f"suite spec version {version} is newer than the "
                f"supported version {SUITE_VERSION}"
            )
        missing = {"name", "benches", "schemes"} - set(data)
        if missing:
            raise SpecError(
                f"suite spec is missing keys: {', '.join(sorted(missing))}"
            )
        _reject_unknown_keys(
            "suite spec",
            data,
            {f.name for f in fields(cls)} | {"format", "version"},
        )
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            benches=tuple(data["benches"]),
            schemes=tuple(data["schemes"]),
            machines=tuple(data.get("machines", ("clustered",))),
            seeds=tuple(data.get("seeds", (0,))),
            overrides=tuple(
                overrides_from_jsonable(ov)
                for ov in data.get("overrides", ({},))
            ),
            n_instructions=int(data.get("n_instructions", 8000)),
            warmup=int(data.get("warmup", 2000)),
        )

    def save(self, path: str) -> None:
        """Write the suite as a JSON data file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SuiteSpec":
        """Read (and validate) a suite data file written by :meth:`save`."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as err:
            raise SpecError(f"cannot read suite file {path!r}: {err}") from None
        except ValueError as err:
            raise SpecError(
                f"suite file {path!r} is not valid JSON: {err}"
            ) from None
        return cls.from_dict(data).validate()
