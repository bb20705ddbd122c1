"""The perf-profile ledger: version control for recorded profiles.

``BENCH_history/`` at the repository root stores one profile per
(suite, commit) — ``BENCH_history/<suite>/<commit12>[-dirty].json`` —
so perf is a *trajectory* the gate can test against, not a single
checked-in snapshot.  Operations: :meth:`Ledger.append` (atomic write,
refuses to silently replace a recorded profile), :meth:`Ledger.lookup`
(by commit prefix or latest), :meth:`Ledger.entries` (newest first),
and :meth:`Ledger.prune` (drop the oldest entries).

Entries are ordered by their ``recorded_at`` stamp.  Two entries
stamped in the same second with no finer digits (older profiles carry
whole-second stamps) are ordered by ancestry when the checkout holding
the ledger knows both commits, and by key otherwise.

Dirty working trees get a ``-dirty`` suffix in their key, so an
uncommitted re-record never replaces the clean profile of the same
commit.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import cmp_to_key
from typing import List, Optional, Tuple

from ..errors import PerfError
from .model import Profile, load_profile
from .provenance import UNKNOWN_COMMIT, is_ancestor

DEFAULT_LEDGER = "BENCH_history"


class Ledger:
    """A directory of recorded perf profiles, one per (suite, commit)."""

    def __init__(self, root: str = DEFAULT_LEDGER):
        self.root = root

    def _suite_dir(self, suite: str) -> str:
        return os.path.join(self.root, suite)

    def path_for(self, profile: Profile) -> str:
        return os.path.join(
            self._suite_dir(profile.suite),
            f"{profile.provenance.key}.json",
        )

    def suites(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name for name in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, name))
        )

    def entries(self, suite: str) -> List[Profile]:
        """Every recorded profile of *suite*, newest first."""
        suite_dir = self._suite_dir(suite)
        if not os.path.isdir(suite_dir):
            return []
        profiles = []
        for name in sorted(os.listdir(suite_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(suite_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    document = json.load(fh)
            except (OSError, ValueError) as error:
                raise PerfError(
                    f"ledger entry {path!r} is unreadable: {error}"
                ) from error
            profiles.append(Profile.from_document(document))
        profiles.sort(key=cmp_to_key(self._newer_first))
        return profiles

    def _newer_first(self, a: Profile, b: Profile) -> int:
        """Sort order of two entries, newest first (see the module
        docstring)."""
        a_at = _time_order(a.provenance.recorded_at)
        b_at = _time_order(b.provenance.recorded_at)
        if a_at != b_at:
            return -1 if a_at > b_at else 1
        a_commit, b_commit = a.provenance.commit, b.provenance.commit
        if a_commit != b_commit and UNKNOWN_COMMIT not in (a_commit, b_commit):
            checkout = os.path.dirname(os.path.abspath(self.root))
            if is_ancestor(b_commit, a_commit, checkout):
                return -1
            if is_ancestor(a_commit, b_commit, checkout):
                return 1
        a_key, b_key = a.provenance.key, b.provenance.key
        return (a_key < b_key) - (a_key > b_key)

    def append(self, profile: Profile, overwrite: bool = False) -> str:
        """Record *profile* under its (suite, commit) key; return the path.

        The write is atomic (temp file + rename in the suite directory)
        so a crashed recorder never leaves a truncated entry.  An entry
        already recorded for the same key raises :class:`PerfError`
        unless *overwrite* is passed — re-records must be deliberate.
        """
        path = self.path_for(profile)
        if os.path.exists(path) and not overwrite:
            raise PerfError(
                f"ledger already has a {profile.suite!r} profile for "
                f"{profile.provenance.key} at {path!r} "
                f"(pass overwrite=True to replace it)"
            )
        suite_dir = self._suite_dir(profile.suite)
        os.makedirs(suite_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=suite_dir, prefix=".append-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(profile.to_document(), fh, indent=1)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def lookup(self, suite: str, ref: Optional[str] = None) -> Profile:
        """Resolve *ref* (a commit/key prefix) — or the latest entry.

        Raises :class:`PerfError` when nothing (or more than one entry)
        matches.
        """
        entries = self.entries(suite)
        if not entries:
            raise PerfError(
                f"ledger {self.root!r} has no {suite!r} profiles "
                f"(record one with 'perf record')"
            )
        if ref is None:
            return entries[0]
        matches = [
            p for p in entries
            if p.provenance.key.startswith(ref)
            or p.provenance.commit.startswith(ref)
        ]
        if not matches:
            known = ", ".join(p.provenance.key for p in entries)
            raise PerfError(
                f"no {suite!r} profile matches {ref!r} (recorded: {known})"
            )
        if len(matches) > 1:
            ambiguous = ", ".join(p.provenance.key for p in matches)
            raise PerfError(
                f"{ref!r} is ambiguous among {suite!r} profiles: {ambiguous}"
            )
        return matches[0]

    def prune(self, suite: str, keep: int) -> List[str]:
        """Drop the oldest entries beyond *keep*; return removed paths."""
        if keep < 1:
            raise PerfError(f"prune keep must be at least 1, got {keep}")
        removed = []
        for profile in self.entries(suite)[keep:]:
            path = self.path_for(profile)
            os.unlink(path)
            removed.append(path)
        return removed


def _time_order(stamp: str) -> str:
    """*stamp* as ``YYYY-MM-DDTHH:MM:SS.ffffff``, so that date-only,
    whole-second and sub-second stamps sort by time as text.

    A whole-second stamp reads as the start of its second: as text,
    ``...:34Z`` would sort after ``...:34.5Z``.
    """
    date, _, clock = stamp.rstrip("Z").partition("T")
    whole, _, fraction = (clock or "00:00:00").partition(".")
    return f"{date}T{whole}.{fraction:0<6}"


def is_file_ref(ref: Optional[str]) -> bool:
    """Whether *ref* names a profile file rather than a ledger entry."""
    return ref is not None and (os.sep in ref or os.path.isfile(ref))


def resolve_profile(
    ledger: Ledger, suite: str, ref: Optional[str]
) -> Tuple[Profile, str]:
    """*ref* as a profile: a JSON file path, a commit prefix, or latest.

    Returns ``(profile, origin)`` where origin names where it came from
    (for the diff header).  File paths win over commit prefixes so
    ``perf diff old.json new.json`` works outside any ledger.
    """
    if is_file_ref(ref):
        return load_profile(ref), ref
    profile = ledger.lookup(suite, ref)
    return profile, os.path.relpath(ledger.path_for(profile))
