"""Provenance stamps for recorded perf profiles.

Every profile in the ledger says *where its numbers came from*: the
commit (and whether the working tree was dirty), the branch, the host
and platform, the Python version, and a UTC timestamp.  Without this a
ledger full of profiles is just a pile of numbers — a regression can
only be attributed when the profile names the exact tree that produced
it.

:func:`collect` gathers the stamp from ``git`` and the interpreter;
:meth:`Provenance.from_document` validates a decoded stamp field by
field, raising :class:`~repro.errors.ConfigError` naming the offending
field (the same contract the spec layer's override validation keeps).
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Optional

from ..errors import ConfigError

#: Placeholder when the profile was recorded outside a git checkout.
UNKNOWN_COMMIT = "unknown"

_HEX = set("0123456789abcdef")


def _git(args, cwd) -> Optional[str]:
    """One git query, or ``None`` when git/the repo is unavailable."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


@dataclass(frozen=True)
class Provenance:
    """Where and when a profile's samples were measured."""

    commit: str = UNKNOWN_COMMIT
    dirty: bool = False
    branch: str = UNKNOWN_COMMIT
    host: str = ""
    platform: str = ""
    python: str = ""
    recorded_at: str = ""  # ISO-8601 UTC, e.g. 2026-08-07T12:00:00.250000Z

    @property
    def short_commit(self) -> str:
        return self.commit[:12]

    @property
    def key(self) -> str:
        """The ledger key: one profile per (suite, key).

        Dirty trees get their own key so an uncommitted re-record never
        silently replaces the clean profile of the same commit.
        """
        return self.short_commit + ("-dirty" if self.dirty else "")

    def describe(self) -> str:
        date = self.recorded_at[:10] or "undated"
        state = "dirty" if self.dirty else "clean"
        return f"{self.short_commit} ({date}, {state}, {self.host or '?'})"

    def to_document(self) -> dict:
        return asdict(self)

    @classmethod
    def from_document(cls, document) -> "Provenance":
        """Decode and validate a provenance mapping.

        Raises :class:`ConfigError` naming the offending field for any
        value that is not what a recorder could have written.
        """
        if not isinstance(document, dict):
            raise ConfigError(
                f"provenance must be a mapping, got {type(document).__name__}"
            )
        known = {f: document.get(f, d) for f, d in (
            ("commit", UNKNOWN_COMMIT),
            ("dirty", False),
            ("branch", UNKNOWN_COMMIT),
            ("host", ""),
            ("platform", ""),
            ("python", ""),
            ("recorded_at", ""),
        )}
        commit = known["commit"]
        if not isinstance(commit, str) or not commit:
            raise ConfigError(
                f"provenance.commit must be a non-empty string, got {commit!r}"
            )
        if commit != UNKNOWN_COMMIT and (
            len(commit) < 7 or not set(commit.lower()) <= _HEX
        ):
            raise ConfigError(
                f"provenance.commit must be a hex commit hash of at least "
                f"7 characters (or {UNKNOWN_COMMIT!r}), got {commit!r}"
            )
        if not isinstance(known["dirty"], bool):
            raise ConfigError(
                f"provenance.dirty must be a boolean, got {known['dirty']!r}"
            )
        for field in ("branch", "host", "platform", "python", "recorded_at"):
            if not isinstance(known[field], str):
                raise ConfigError(
                    f"provenance.{field} must be a string, "
                    f"got {known[field]!r}"
                )
        recorded = known["recorded_at"]
        if recorded and (len(recorded) < 10 or recorded[4] != "-"):
            raise ConfigError(
                f"provenance.recorded_at must be an ISO-8601 UTC timestamp "
                f"(YYYY-MM-DD...), got {recorded!r}"
            )
        return cls(**known)


def collect(repo_root: Optional[str] = None) -> Provenance:
    """The current checkout's provenance stamp.

    Degrades gracefully outside a git repository (commit and branch
    become ``"unknown"``) so profiles can still be recorded from an
    exported tarball.
    """
    cwd = repo_root or os.getcwd()
    commit = _git(["rev-parse", "HEAD"], cwd) or UNKNOWN_COMMIT
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"], cwd) or UNKNOWN_COMMIT
    # Untracked files (bench output, fresh ledger entries awaiting
    # `git add`) don't make the *measured code* dirty — only tracked
    # modifications do.
    status = _git(["status", "--porcelain", "--untracked-files=no"], cwd)
    dirty = bool(status) if status is not None else False
    return Provenance(
        commit=commit,
        dirty=dirty,
        branch=branch,
        host=socket.gethostname(),
        platform=platform.platform(),
        python=platform.python_version(),
        # Microseconds: a parent and its change are often recorded
        # within one second, and the ledger orders entries by this.
        recorded_at=datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%S.%fZ"
        ),
    )
