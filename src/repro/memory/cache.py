"""Set-associative cache model with LRU replacement.

Only tags are modelled (the simulator is timing-only); an access returns
hit/miss and updates the recency stack.  The geometry mirrors Table 2 of
the paper: 64KB 2-way 32-byte-line L1 caches and a 256KB 4-way
64-byte-line L2.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigError


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class SetAssocCache:
    """A tag-only set-associative cache with true-LRU replacement."""

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigError(f"{name}: sizes must be positive")
        if not _is_pow2(line_bytes):
            raise ConfigError(f"{name}: line size must be a power of two")
        n_lines = size_bytes // line_bytes
        if n_lines % assoc:
            raise ConfigError(
                f"{name}: {n_lines} lines not divisible by assoc {assoc}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = n_lines // assoc
        if not _is_pow2(self.n_sets):
            raise ConfigError(f"{name}: set count must be a power of two")
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1
        #: Line-number shift that leaves the tag (see :meth:`_locate`).
        self._tag_shift = self.n_sets.bit_length() - 1
        # Each set is an MRU-first list of tags.
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int) -> tuple:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def access(self, addr: int) -> bool:
        """Access the line containing *addr*; allocate on miss.

        Returns ``True`` on hit.  The line becomes most-recently-used
        either way (allocate-on-miss for reads and writes alike; the
        timing difference between write-allocate policies is far below the
        effects the paper studies).  Set and tag are computed inline, as
        in :meth:`_locate`.
        """
        line = addr >> self._line_shift
        tag = line >> self._tag_shift
        ways = self._sets[line & self._set_mask]
        if tag in ways:
            self.hits += 1
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.assoc:
            ways.pop()
        return False

    def probe(self, addr: int) -> bool:
        """Check for a hit without touching LRU state or statistics."""
        set_index, tag = self._locate(addr)
        return tag in self._sets[set_index]

    def invalidate_all(self) -> None:
        """Empty the cache (used between warm-up and measurement runs)."""
        for ways in self._sets:
            ways.clear()

    @property
    def accesses(self) -> int:
        """Total number of accesses observed."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when never accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters, keeping cache contents."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"<SetAssocCache {self.name} {self.size_bytes // 1024}KB "
            f"{self.assoc}-way {self.line_bytes}B lines>"
        )
