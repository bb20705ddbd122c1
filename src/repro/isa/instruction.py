"""Static and dynamic instruction records.

:class:`Instruction` is the *static* form: one object per program location,
shared by every dynamic execution of that location.  :class:`DynInst` is the
*dynamic* form: one (slotted, cheap) object per executed instance, carrying
the timing state the pipeline stages mutate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ISAError
from .opcodes import (
    InstrClass,
    Opcode,
    class_of,
    is_control,
    latency_of,
)

#: Byte size of one instruction; PCs advance by this amount.
INSTRUCTION_SIZE = 4


@dataclass(frozen=True)
class Instruction:
    """A static instruction at a fixed program counter.

    Parameters
    ----------
    pc:
        Program counter (byte address, multiple of 4).
    opcode:
        Operation performed.
    dst:
        Destination logical register, or ``None`` when the instruction does
        not write a register (stores, branches, nop).
    srcs:
        Source logical registers (possibly empty).
    target:
        Branch/jump target pc, required for control instructions.
    """

    pc: int
    opcode: Opcode
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    target: Optional[int] = None
    cls: InstrClass = field(init=False)
    latency: int = field(init=False)
    #: Precomputed readiness/forwarding views of ``srcs`` (hot-path data:
    #: the renamer and issue logic read these once per dynamic instance).
    issue_srcs: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    store_data_src: Optional[int] = field(init=False, repr=False, compare=False)
    is_memory: bool = field(init=False, repr=False, compare=False)
    executes: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cls = class_of(self.opcode)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "latency", latency_of(self.opcode))
        self._validate()
        if cls is InstrClass.STORE:
            object.__setattr__(self, "issue_srcs", self.srcs[:-1])
            object.__setattr__(self, "store_data_src", self.srcs[-1])
        else:
            object.__setattr__(self, "issue_srcs", self.srcs)
            object.__setattr__(self, "store_data_src", None)
        object.__setattr__(
            self,
            "is_memory",
            cls is InstrClass.LOAD or cls is InstrClass.STORE,
        )
        object.__setattr__(
            self,
            "executes",
            cls is not InstrClass.JUMP and cls is not InstrClass.NOP,
        )

    def _validate(self) -> None:
        if self.pc < 0 or self.pc % INSTRUCTION_SIZE:
            raise ISAError(f"bad pc {self.pc:#x} for {self.opcode.name}")
        if is_control(self.opcode) and self.target is None:
            raise ISAError(f"control op {self.opcode.name} needs a target")
        if self.cls is InstrClass.STORE and len(self.srcs) < 2:
            raise ISAError("store needs an address source and a data source")
        if self.cls is InstrClass.LOAD and self.dst is None:
            raise ISAError("load needs a destination register")
        if self.cls is InstrClass.LOAD and not self.srcs:
            raise ISAError("load needs an address source")
        if self.cls in (InstrClass.BRANCH, InstrClass.STORE, InstrClass.NOP):
            if self.dst is not None:
                raise ISAError(f"{self.opcode.name} must not write a register")

    # ``issue_srcs`` — sources whose readiness gates issue.  For stores
    # this is the address sources only: the data value is read by the
    # store buffer at commit, and in-order commit guarantees its producer
    # has completed by then (see DESIGN.md modelling notes).
    # ``store_data_src`` — the data register of a store, None otherwise.
    # ``is_memory`` — true for loads and stores.
    # ``executes`` — false for jumps and nops, which complete at dispatch
    # without entering a window.
    # All precomputed in ``__post_init__`` (hot-path reads).

    @property
    def is_control(self) -> bool:
        """True for branches and jumps."""
        return is_control(self.opcode)

    @property
    def is_conditional(self) -> bool:
        """True for conditional branches."""
        return self.cls is InstrClass.BRANCH

    def __str__(self) -> str:
        from .registers import reg_name

        parts = [f"{self.pc:#06x}: {self.opcode.name.lower()}"]
        if self.dst is not None:
            parts.append(reg_name(self.dst))
        parts.extend(reg_name(s) for s in self.srcs)
        if self.target is not None:
            parts.append(f"-> {self.target:#06x}")
        return " ".join(parts)


class DynInst:
    """One dynamic instance of an instruction flowing through the pipeline.

    The pipeline stages mutate the timing fields in place; keeping the
    record slotted and attribute-based (rather than a dict) is what makes a
    pure-Python cycle simulator tolerable.
    """

    __slots__ = (
        "seq",
        "inst",
        "cls",
        "taken",
        "pred_taken",
        "mispredicted",
        "mem_addr",
        "cluster",
        "fetch_cycle",
        "dispatch_cycle",
        "issue_cycle",
        "complete_cycle",
        "commit_cycle",
        "in_ldst_slice",
        "in_br_slice",
        "is_copy",
        "copy_for",
        "copy_reg",
        "ea_done_cycle",
        "mem_latency",
        "completed",
        "providers",
        "copy_srcs",
        "critical",
        "frees",
        "pending_ops",
        "iq_rank",
    )

    def __init__(
        self,
        seq: int,
        inst: Instruction,
        taken: bool = False,
        mem_addr: int = 0,
    ) -> None:
        self.seq = seq
        self.inst = inst
        # Mirrored from the static instruction: the issue/steering hot
        # paths read the class far too often for a property indirection.
        self.cls = inst.cls
        self.taken = taken
        self.pred_taken = False
        self.mispredicted = False
        self.mem_addr = mem_addr
        self.cluster = -1
        self.fetch_cycle = -1
        self.dispatch_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.commit_cycle = -1
        self.in_ldst_slice = False
        self.in_br_slice = False
        self.is_copy = False
        self.copy_for = -1  # seq of the consumer that required this copy
        self.copy_reg = -1  # logical register being copied
        self.ea_done_cycle = -1
        self.mem_latency = 0
        self.completed = False
        # DynInst providers whose completion gates issue (None = ready).
        self.providers: list = []
        # True when any provider is a copy instruction — the only case
        # the critical-communication check can ever flag, so the issue
        # stage skips the provider walk entirely when this is False.
        self.copy_srcs = False
        # Set on copies that delayed a consumer (critical communication).
        self.critical = False
        # Physical registers this instruction's commit releases, per cluster.
        self.frees = (0, 0)
        # Event-driven wakeup state (see repro.pipeline.wakeup): number of
        # providers whose completion this instruction still awaits, and
        # the insertion rank inside the issue window (the select logic's
        # age order, which differs from ``seq`` order for copies).
        self.pending_ops = 0
        self.iq_rank = 0

    @property
    def opcode(self) -> Opcode:
        """Opcode of the underlying static instruction."""
        return self.inst.opcode

    @property
    def pc(self) -> int:
        """Program counter of the underlying static instruction."""
        return self.inst.pc

    def __repr__(self) -> str:
        return (
            f"<DynInst #{self.seq} {self.inst.opcode.name} "
            f"pc={self.inst.pc:#x} cluster={self.cluster}>"
        )


#: The one static COPY instruction: copies have no program location, so
#: every dynamic copy shares this frozen record (building a dataclass
#: with validation per copy showed up in dispatch profiles).
_COPY_INST = Instruction(pc=0, opcode=Opcode.COPY, dst=None, srcs=())


def make_copy_inst(seq: int, logical_reg: int, consumer_seq: int) -> DynInst:
    """Build the internal copy instruction moving *logical_reg* across
    clusters on behalf of consumer *consumer_seq*.

    Copies have no static program location; they reuse pc 0 and are tagged
    through :attr:`DynInst.is_copy`.
    """
    dyn = DynInst(seq, _COPY_INST)
    dyn.is_copy = True
    dyn.copy_for = consumer_seq
    dyn.copy_reg = logical_reg
    return dyn
