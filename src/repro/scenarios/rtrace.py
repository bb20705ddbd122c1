"""Portable trace format: versioned, compressed ``.rtrace`` files.

An ``.rtrace`` file freezes one workload's committed path — the static
program plus a prefix of the dynamic :class:`~repro.workloads.trace.SharedTrace`
records — so the exact instruction stream can be shipped between machines
and replayed byte-identically without regenerating the program.  This is
the natural unit of work for distributed campaigns: a remote host that
receives the file needs neither the generator nor its RNG, only this
module.

File layout::

    magic   8 bytes   b"RTRACE\\x01\\n"   (format id + major version)
    body    zlib-compressed UTF-8 JSON document

The JSON body carries a minor ``version``, provenance metadata (workload
name, seed, generator profile when known), the full static program
(instructions, CFG successors, branch/memory behaviours) and the trace
records in column form (``pc`` / ``taken`` / ``addr`` parallel lists)
with a CRC-32 over the columns for corruption detection.

Imported traces replay through :class:`FrozenTrace`, a
:class:`~repro.workloads.trace.SharedTrace` that serves the recorded
records and refuses to extend past them: a frozen trace has no executor,
so running a longer window than was exported raises
:class:`~repro.errors.ScenarioError` instead of silently diverging.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ScenarioError
from ..isa import Instruction
from ..isa.opcodes import Opcode
from ..workloads import Workload, WorkloadProfile
from ..workloads.program import (
    BasicBlock,
    BranchBehavior,
    MemBehavior,
    StaticProgram,
)
from ..workloads.columns import TAKEN, TraceColumns
from ..workloads.trace import SharedTrace

#: File magic: format id, major format version, newline guard against
#: text-mode mangling.
MAGIC = b"RTRACE\x01\n"

#: Minor format version carried inside the JSON body.  Readers accept
#: equal-or-older minors of the same major.
VERSION = 1

#: Default cushion of extra records exported beyond the caller's window:
#: the fetch unit runs a few hundred instructions ahead of commit, so a
#: replayed simulation needs slightly more trace than it commits.
EXPORT_CUSHION = 4096


class FrozenTrace(SharedTrace):
    """A :class:`SharedTrace` replaying recorded records only.

    Behaves exactly like a live shared trace up to its recorded length
    and raises :class:`ScenarioError` beyond it: its
    :class:`~repro.workloads.columns.TraceColumns` set has a fixed
    length (no executor exists to extend it).  Frozen traces do not
    count as trace *builds* in :func:`repro.workloads.trace_build_counts`
    — nothing is decoded.
    """

    def __init__(
        self, program: StaticProgram, seed: int, columns: TraceColumns
    ) -> None:
        # Deliberately no super().__init__(): there is no TraceExecutor
        # behind a frozen trace, and importing one must not bump the
        # build counters the campaign tests use to prove "no regeneration".
        self.program = program
        self.seed = seed
        self._columns = columns


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def _instruction_to_row(inst: Instruction) -> list:
    return [inst.pc, int(inst.opcode), inst.dst, list(inst.srcs), inst.target]


def _instruction_from_row(row: list) -> Instruction:
    pc, opcode, dst, srcs, target = row
    return Instruction(
        pc=pc,
        opcode=Opcode(opcode),
        dst=dst,
        srcs=tuple(srcs),
        target=target,
    )


def _program_to_doc(program: StaticProgram) -> dict:
    return {
        "name": program.name,
        "entry": program.entry,
        "blocks": [
            {
                "taken": block.taken_succ,
                "fall": block.fall_succ,
                "insts": [_instruction_to_row(i) for i in block.instructions],
            }
            for block in program.blocks
        ],
        "branch_behaviors": [
            [pc, b.kind, b.taken_prob, b.trip]
            for pc, b in sorted(program.branch_behaviors.items())
        ],
        "mem_behaviors": [
            [pc, m.kind, m.base, m.region, m.stride]
            for pc, m in sorted(program.mem_behaviors.items())
        ],
    }


def _program_from_doc(doc: dict) -> StaticProgram:
    blocks = [
        BasicBlock(
            block_id,
            [_instruction_from_row(row) for row in entry["insts"]],
            taken_succ=entry["taken"],
            fall_succ=entry["fall"],
        )
        for block_id, entry in enumerate(doc["blocks"])
    ]
    return StaticProgram(
        name=doc["name"],
        blocks=blocks,
        entry=doc["entry"],
        branch_behaviors={
            pc: BranchBehavior(kind, taken_prob=prob, trip=trip)
            for pc, kind, prob, trip in doc["branch_behaviors"]
        },
        mem_behaviors={
            pc: MemBehavior(kind, base=base, region=region, stride=stride)
            for pc, kind, base, region, stride in doc["mem_behaviors"]
        },
    )


def _records_crc(pcs: List[int], taken: List[int], addrs: List[int]) -> int:
    crc = zlib.crc32(b"rtrace-records")
    for column in (pcs, taken, addrs):
        crc = zlib.crc32(",".join(map(str, column)).encode("ascii"), crc)
    return crc


@dataclass(frozen=True)
class TraceMeta:
    """Provenance and shape of one ``.rtrace`` file."""

    name: str
    seed: int
    n_records: int
    version: int = VERSION
    has_profile: bool = False
    static_instructions: int = 0

    def describe(self) -> str:
        """One-line human-readable summary."""
        profile = "with profile" if self.has_profile else "no profile"
        return (
            f"{self.name!r} seed={self.seed}: {self.n_records} records, "
            f"{self.static_instructions} static instructions, "
            f"format v{self.version}, {profile}"
        )


def export_trace_bytes(
    wl: Workload,
    n_records: int,
    cushion: int = EXPORT_CUSHION,
) -> Tuple[bytes, TraceMeta]:
    """*wl*'s committed path as in-memory ``.rtrace`` file contents.

    The byte form is what :func:`export_trace` writes to disk and what
    the worker protocol's ``preload`` op ships over the wire — one
    serialisation, two transports.  Returns ``(data, meta)``.
    """
    total = n_records + cushion
    shared = wl.shared_trace()
    shared.ensure(total)
    columns = shared.columns()
    pcs = columns.pcs[:total]
    # TAKEN is bit 0, so masking yields the wire's 0/1 directly.
    taken = [flags & TAKEN for flags in columns.flags[:total]]
    addrs = columns.mem_addrs[:total]
    profile_doc: Optional[Dict[str, object]] = None
    if wl.profile is not None:
        profile_doc = asdict(wl.profile)
    doc = {
        "format": "rtrace",
        "version": VERSION,
        "name": wl.name,
        "seed": wl.seed,
        "profile": profile_doc,
        "program": _program_to_doc(wl.program),
        "records": {"pc": pcs, "taken": taken, "addr": addrs},
        "crc": _records_crc(pcs, taken, addrs),
    }
    payload = zlib.compress(
        json.dumps(doc, separators=(",", ":")).encode("utf-8"), level=6
    )
    meta = TraceMeta(
        name=wl.name,
        seed=wl.seed,
        n_records=total,
        has_profile=profile_doc is not None,
        static_instructions=wl.program.num_instructions,
    )
    return MAGIC + payload, meta


def export_trace(
    wl: Workload,
    path: str,
    n_records: int,
    cushion: int = EXPORT_CUSHION,
) -> TraceMeta:
    """Write *wl*'s committed path to *path* as an ``.rtrace`` file.

    Materialises the workload's shared trace out to
    ``n_records + cushion`` records first, so a replayed simulation of an
    ``n_records`` window has the fetch-ahead headroom it needs.  Returns
    the metadata of the written file.
    """
    data, meta = export_trace_bytes(wl, n_records, cushion)
    with open(path, "wb") as fh:
        fh.write(data)
    return meta


def _parse_doc(data: bytes, origin: str) -> dict:
    head, body = data[: len(MAGIC)], data[len(MAGIC):]
    if head != MAGIC:
        raise ScenarioError(
            f"{origin}: not an .rtrace file (bad magic {head!r})"
        )
    try:
        doc = json.loads(zlib.decompress(body).decode("utf-8"))
    except (zlib.error, ValueError) as error:
        raise ScenarioError(
            f"{origin}: corrupt .rtrace body ({error})"
        ) from None
    if doc.get("format") != "rtrace":
        raise ScenarioError(f"{origin}: unrecognised payload format")
    if doc.get("version", 0) > VERSION:
        raise ScenarioError(
            f"{origin}: format v{doc.get('version')} is newer than this "
            f"reader (v{VERSION}); upgrade repro"
        )
    return doc


def _read_doc(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_doc(data, path)


def read_meta(path: str) -> TraceMeta:
    """Read only the metadata of an ``.rtrace`` file."""
    doc = _read_doc(path)
    return TraceMeta(
        name=doc["name"],
        seed=doc["seed"],
        n_records=len(doc["records"]["pc"]),
        version=doc["version"],
        has_profile=doc.get("profile") is not None,
        static_instructions=sum(
            len(b["insts"]) for b in doc["program"]["blocks"]
        ),
    )


def import_trace(path: str, name: Optional[str] = None) -> Workload:
    """Load an ``.rtrace`` file into a replayable :class:`Workload`.

    The returned workload carries the reconstructed static program and a
    :class:`FrozenTrace` over the recorded committed path, whose record
    columns are decoded straight into a fixed-length
    :class:`~repro.workloads.columns.TraceColumns` set; simulating it
    never touches the program generator or the trace executor.  *name*
    overrides the recorded workload name (useful when registering several
    traces of the same benchmark).
    """
    return _workload_from_doc(_read_doc(path), path, name)


def import_trace_bytes(
    data: bytes,
    name: Optional[str] = None,
    origin: str = "<bytes>",
) -> Workload:
    """:func:`import_trace` for in-memory ``.rtrace`` contents.

    This is the receiving half of the worker protocol's ``preload`` op:
    the dispatcher ships :func:`export_trace_bytes` output and the worker
    pins the resulting :class:`FrozenTrace` without touching the
    filesystem.  The same magic/CRC guards apply — corrupt bytes raise
    :class:`~repro.errors.ScenarioError` naming *origin*.
    """
    return _workload_from_doc(_parse_doc(data, origin), origin, name)


def _workload_from_doc(
    doc: dict, origin: str, name: Optional[str] = None
) -> Workload:
    columns = doc["records"]
    pcs, taken, addrs = columns["pc"], columns["taken"], columns["addr"]
    if not len(pcs) == len(taken) == len(addrs):
        raise ScenarioError(f"{origin}: record columns have unequal lengths")
    if doc.get("crc") != _records_crc(pcs, taken, addrs):
        raise ScenarioError(f"{origin}: record checksum mismatch")
    program = _program_from_doc(doc["program"])
    frozen = FrozenTrace(
        program,
        doc["seed"],
        TraceColumns.from_arrays(program, pcs, taken, addrs),
    )
    profile = None
    if doc.get("profile") is not None:
        profile_doc = dict(doc["profile"])
        profile_doc["data_branch_bias"] = tuple(
            profile_doc["data_branch_bias"]
        )
        profile = WorkloadProfile(**profile_doc)
    return Workload(
        name=name or doc["name"],
        profile=profile,
        program=program,
        seed=doc["seed"],
        _shared_trace=frozen,
    )
