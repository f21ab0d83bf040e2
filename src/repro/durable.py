"""Durable line logs: the one codec, scan, quarantine and journal.

The crawl checkpoint journal, the monitor's history journal and the
analytics store's readers share this module's line format
(:func:`encode_line`: ``sha256(body) TAB body NEWLINE``, the body in
:func:`canonical` JSON) and its corruption policy, :func:`scan`: a
crash mid-append writes a prefix of one line without its newline, so
an unterminated tail is the torn line and every complete line before
it is interior — one that fails to decode is corruption, quarantined
and never dropped silently.  When the file ends in a newline, a
complete final line that fails to decode still counts as torn.

:class:`Journal` is the one write-ahead log both journals derive from.
Its first line is a header holding the owner's configuration
fingerprint, in the same codec as every other line.  Opening a journal
only reads it: the used-directory refusal, the scan, the version check
of every line and the subclass's admission rules.  The repair — the
``.corrupt`` sidecar, the rewrite to the survivors and the warning —
waits for the first write, which comes after the owner has checked the
fingerprint against the header, so a refused directory is left exactly
as it was.

Imports nothing else from :mod:`repro`, so any layer can use it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "JournalVersionError",
    "ConfigMismatchError",
    "ReplayError",
    "check_version",
    "atomic_write",
    "next_sidecar_path",
    "canonical",
    "encode_line",
    "decode_line",
    "scan",
    "quarantine",
    "sweep_tmp",
    "Journal",
]

logger = logging.getLogger(__name__)


class JournalVersionError(ValueError):
    """A journal written in another line format: refused, not migrated."""


class ConfigMismatchError(ValueError):
    """A log directory stamped with another configuration's fingerprint."""


class ReplayError(RuntimeError):
    """A re-derived entry differs from its durable journal line."""


def check_version(payload: dict, version: int, what: str, directory) -> None:
    """Refuse *payload* unless it is a format-*version* line.

    Both journals check every line before they rewrite anything, so a
    refused directory is left exactly as it was.
    """
    found = payload.get("v")
    if found != version:
        raise JournalVersionError(
            f"{what} at {directory} holds format v{found} lines; this "
            f"build reads only v{version}. Start a fresh history: point "
            "--checkpoint at a new directory."
        )


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Write *data* to *path* all-or-nothing.

    The data goes to a temporary file in the same directory, is flushed
    and ``fsync``\\ ed, and only then renamed over *path* with
    ``os.replace`` — so readers (and crash recovery) see either the old
    complete file or the new complete file, never a torn mixture.  The
    directory entry is fsynced best-effort afterwards.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:  # directory fsync makes the rename itself durable (best-effort)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return path


def next_sidecar_path(path: str | Path) -> Path:
    """The first unused quarantine sidecar name for *path*.

    ``X.corrupt``, then ``X.corrupt.1``, ``X.corrupt.2``, … — each
    quarantine event gets its own sidecar, so interrupting and resuming
    a crawl repeatedly can never overwrite (or silently interleave
    with) the evidence of an earlier corruption.
    """
    path = Path(path)
    candidate = path.with_name(path.name + ".corrupt")
    counter = 0
    while candidate.exists():
        counter += 1
        candidate = path.with_name(f"{path.name}.corrupt.{counter}")
    return candidate


# -- the line codec ----------------------------------------------------------


def canonical(payload: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def encode_line(payload: dict) -> bytes:
    """One self-delimiting log line: digest, tab, canonical body, newline."""
    body = canonical(payload)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return digest + b"\t" + body + b"\n"


def decode_line(line: bytes) -> dict | None:
    """Parse one log line; ``None`` if torn, checksum-failed or not an object."""
    try:
        digest, body = line.split(b"\t", 1)
    except ValueError:
        return None
    if len(digest) != 64:
        return None
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


# -- the scan ------------------------------------------------------------------


def scan(
    raw: bytes, decode: Callable[[bytes], Any]
) -> tuple[list[tuple[bytes, Any]], list[bytes], bool]:
    """Split *raw* into lines and sort them by the torn-tail rule.

    *decode* maps one line (without its newline) to a payload, or to
    ``None`` when the line is damaged.  Returns ``(good, bad, torn)``:
    the survivors as ``(raw line, payload)`` pairs and the bad interior
    lines, both in file order, and whether a torn final line was
    dropped.  Pure: reads and writes nothing.
    """
    pieces = raw.split(b"\n")
    torn = bool(pieces.pop())  # the tail is b"" when raw ends in a newline
    good: list[tuple[bytes, Any]] = []
    bad: list[bytes] = []
    last = len(pieces) - 1
    for index, piece in enumerate(pieces):
        payload = decode(piece)
        if payload is not None:
            good.append((piece, payload))
        elif torn or index < last:
            bad.append(piece)
        else:
            torn = True
    return good, bad, torn


def quarantine(path: str | Path, lines: list[bytes]) -> Path:
    """Write *lines* to a fresh ``.corrupt`` sidecar of *path*, durably.

    The sidecar is written through :func:`atomic_write` before any
    caller rewrites *path* without those lines, so a power loss can
    never leave a quarantined line in neither file.
    """
    return atomic_write(
        next_sidecar_path(path), b"".join(line + b"\n" for line in lines)
    )


# -- resumable-log housekeeping ------------------------------------------------


def _layout(fingerprint: Any) -> dict | None:
    """The field names of every section of *fingerprint* that nests another.

    Leaf sections (a fault plan, a retry policy) count as values: a
    key there may follow a setting, as a fault plan's blackout windows
    do, while a change to the outer layout only comes with a new build.
    """
    if not isinstance(fingerprint, dict) or not any(
        isinstance(value, dict) for value in fingerprint.values()
    ):
        return None
    return {key: _layout(value) for key, value in fingerprint.items()}


def sweep_tmp(directory: str | Path) -> None:
    """Remove half-written ``*.tmp`` leftovers of interrupted writes."""
    for tmp in Path(directory).glob("*.tmp"):
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - racy cleanup
            pass


# -- the journal ---------------------------------------------------------------


class Journal:
    """An append-only write-ahead log in one directory.

    ``JOURNAL_NAME`` holds format ``FORMAT_VERSION`` lines, the first a
    header ``{"v": …, "fingerprint": …}`` naming the configuration the
    journal was written under (:meth:`check_fingerprint`), in the same
    codec and version check as every other line; beside it the directory
    holds only the sidecars of a repair.  A subclass adds its schema:
    the lines it writes, and an :meth:`_admit` hook that indexes one
    decoded line or names why it is rejected.

    Opening reads and nothing else.  A directory that already holds
    lines is refused without *resume* (:class:`FileExistsError`); every
    line must carry ``FORMAT_VERSION`` (:class:`JournalVersionError`);
    the header is set aside and the other survivors of :func:`scan` go
    through :meth:`_admit` in file order.  A line that fails to decode
    or that :meth:`_admit` rejects counts in :attr:`quarantined`; one it
    calls a ``"duplicate"`` is dropped silently.  The first write
    repairs the directory before it appends: stale ``*.tmp`` files are
    swept, rejected lines go to a fresh ``.corrupt`` sidecar with a
    warning, and the file is rewritten to exactly the survivors.  Every
    append is written, flushed and fsynced before it returns.
    """

    JOURNAL_NAME: str
    FORMAT_VERSION: int
    #: names the log in messages
    WHAT: str

    decode = staticmethod(decode_line)

    def __init__(self, directory: str | Path, resume: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: lines found damaged or contradictory when the journal opened
        self.quarantined = 0
        #: did the file end in a torn line when the journal opened?
        self.truncated_torn_line = False
        self._fh = None
        self._closed = False
        #: the header's fingerprint (``None``: no intact header line)
        self._fingerprint: dict | None = None
        #: do lines other than a torn tail follow a missing header?
        self._headless = False
        #: (rejected lines, surviving lines, reasons) the first write repairs
        self._damage: tuple[list[bytes], list[bytes], list[str]] | None = None
        if not resume and self.journal_path.exists() \
                and self.journal_path.stat().st_size > 0:
            raise FileExistsError(
                f"{self.WHAT} directory {self.directory} already holds "
                "data; pass resume=True (CLI: --resume) to continue it, "
                "or point --checkpoint at a fresh directory"
            )
        self._load()

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        path = self.journal_path
        if not path.exists():
            return
        raw = path.read_bytes()
        decoded, bad, torn = scan(raw, self.decode)
        for _, payload in decoded:
            check_version(payload, self.FORMAT_VERSION, self.WHAT, self.directory)
        # The header is the file's first line, intact, and is not admitted.
        good: list[bytes] = []
        if decoded and "fingerprint" in decoded[0][1] \
                and raw.startswith(decoded[0][0] + b"\n"):
            good.append(decoded[0][0])
            self._fingerprint = decoded[0][1]["fingerprint"]
        else:
            self._headless = bool(decoded or bad)
        reasons = ["corrupt"] * len(bad)
        for piece, payload in decoded[len(good):]:
            problem = self._admit(payload)
            if problem is None:
                good.append(piece)
            elif problem != "duplicate":
                bad.append(piece)
                reasons.append(problem)
        self.quarantined = len(bad)
        self.truncated_torn_line = torn
        if bad or torn or len(good) != len(decoded):
            self._damage = (bad, good, reasons)

    def check_fingerprint(self, fingerprint: dict) -> None:
        """Refuse to splice runs written under different configurations.

        A journal with no lines, or only a torn one, takes *fingerprint*
        as its header, the journal's first write.  Otherwise the header
        must hold *fingerprint*: a mismatch, a header laid out with other
        fields (:func:`_layout`, another build of repro), or a first
        line that is missing or damaged while other lines follow raises
        :class:`ConfigMismatchError` and writes nothing.
        """
        stored = self._fingerprint
        if stored is None:
            if self._headless:
                raise ConfigMismatchError(
                    f"{self.WHAT} at {self.directory} has no intact "
                    "configuration header: its first line is missing or "
                    "damaged, so nothing shows which settings wrote it. "
                    "Start a fresh directory."
                )
            self._write({"v": self.FORMAT_VERSION, "fingerprint": fingerprint})
            self._fingerprint = fingerprint
            return
        if _layout(stored) != _layout(fingerprint):
            raise ConfigMismatchError(
                f"{self.WHAT} at {self.directory} was written by another "
                f"build of repro: its fingerprint holds other fields "
                f"(stored {stored}; this build's {fingerprint}). No "
                "settings of this build can resume it; start a fresh "
                "directory."
            )
        if stored != fingerprint:
            raise ConfigMismatchError(
                f"{self.WHAT} at {self.directory} was written under a "
                f"different configuration (stored {stored}; current "
                f"{fingerprint}). Resume with the original settings, or "
                "start a fresh directory."
            )

    def _admit(self, payload: dict) -> str | None:
        """Index one decoded line; a string names why it is rejected."""
        raise NotImplementedError

    # -- writing -----------------------------------------------------------

    def _handle(self):
        """The append handle, opened after the first write's repair."""
        if self._closed:
            raise RuntimeError(f"{self.WHAT} journal is closed")
        if self._fh is None:
            sweep_tmp(self.directory)
            if self._damage is not None:
                bad, good, reasons = self._damage
                if bad:
                    sidecar = quarantine(self.journal_path, bad)
                    logger.warning(
                        "quarantined %d line(s) of %s (%s) to sidecar %s; "
                        "their entries are derived again", len(bad),
                        self.journal_path, ", ".join(reasons), sidecar,
                    )
                atomic_write(
                    self.journal_path, b"".join(line + b"\n" for line in good)
                )
                self._damage = None
            self._fh = open(self.journal_path, "ab")
        return self._fh

    def _write(self, payload: dict) -> bytes:
        """Make one line durable: written, flushed and fsynced."""
        line = encode_line(payload)
        handle = self._handle()
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
        return line

    def check(self, rederived: dict, durable: dict, where: str) -> None:
        """Raise :class:`ReplayError` unless a replay re-derived its line."""
        if canonical(rederived) != canonical(durable):
            raise ReplayError(
                f"{where}: the re-derived entry differs from its durable "
                f"line in {self.journal_path}; that {self.WHAT} does not "
                "replay under this world and configuration"
            )

    def close(self) -> None:
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
