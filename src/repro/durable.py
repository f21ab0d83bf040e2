"""Durable line logs: the one codec, scan and quarantine every journal uses.

The crawl checkpoint journal, the monitor's history journal and the
analytics store's readers share this module's line format
(:func:`encode_line`: ``sha256(body) TAB body NEWLINE``, the body in
:func:`canonical` JSON) and its corruption policy, :func:`scan`: a
crash mid-append writes a prefix of one line without its newline, so
an unterminated tail is the torn line and every complete line before
it is interior — one that fails to decode is corruption, quarantined
and never dropped silently.  When the file ends in a newline, a
complete final line that fails to decode still counts as torn.

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
    "atomic_write",
    "next_sidecar_path",
    "canonical",
    "encode_line",
    "decode_line",
    "scan",
    "quarantine",
    "check_fingerprint",
    "sweep_tmp",
]

logger = logging.getLogger(__name__)


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


def check_fingerprint(meta_path: str | Path, fingerprint: dict, what: str) -> None:
    """Refuse to splice logs written under different configurations.

    The first open stamps *meta_path* with *fingerprint*; later opens
    must match it, or resuming would silently mix entries from
    incompatible runs.  *what* names the log in messages.
    """
    meta_path = Path(meta_path)
    stored = None
    if meta_path.exists():
        try:
            stored = json.loads(
                meta_path.read_text(encoding="utf-8")
            ).get("fingerprint")
        except (ValueError, UnicodeDecodeError):
            logger.warning(
                "%s meta %s is corrupt; rewriting it from the current "
                "configuration", what, meta_path,
            )
    if stored is not None:
        if stored != fingerprint:
            raise ValueError(
                f"{what} at {meta_path.parent} was written under a "
                f"different configuration.\n  stored:  {stored}\n"
                f"  current: {fingerprint}\nResume with the original "
                "settings, or start a fresh directory."
            )
        return
    atomic_write(
        meta_path,
        json.dumps(
            {"format_version": 1, "fingerprint": fingerprint},
            indent=1,
            sort_keys=True,
        ),
    )


def sweep_tmp(directory: str | Path) -> None:
    """Remove half-written ``*.tmp`` leftovers of interrupted writes."""
    for tmp in Path(directory).glob("*.tmp"):
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - racy cleanup
            pass
