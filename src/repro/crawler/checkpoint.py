"""Crash-safe crawl persistence: write-ahead journal, snapshots, resume.

The paper's dataset is the product of a nine-month continuously running
crawl — a process that inevitably died and restarted many times.  PR 1
made the crawler survive the *network* failing; this module makes it
survive the *process* failing:

* :class:`CrawlJournal` — an append-only write-ahead log in the
  :mod:`repro.durable` line format.  Each completed
  :class:`~repro.crawler.crawler.CrawlRecord` is one entry carrying the
  full record *and* the transport/executor state needed to continue the
  crawl deterministically.  Periodically the journal compacts into a
  single checksummed snapshot file,
* :class:`CrashPlan` / :exc:`SimulatedCrash` — seeded crash injection
  at configurable points inside the crawl loop, including *between*
  journal write and flush (the torn-write window).

Durability contract
-------------------
An app is **durable** once ``CrawlJournal.append`` returns: its journal
line has been written, flushed, and ``fsync``\\ ed, so a process kill or
OS crash after that point cannot lose it (subject to the device
honouring fsync).  A crash *before* that point loses at most the app
being crawled; :meth:`AppCrawler.crawl_many
<repro.crawler.crawler.AppCrawler.crawl_many>` re-crawls it on resume
from journaled state, making the resumed run byte-identical to an
uninterrupted one.

Corruption policy
-----------------
Torn tails and interior corruption follow :mod:`repro.durable`.  On
top of it the journal names the apps whose lines it quarantined, scrubs
their fault bookkeeping from the restored state and re-crawls them;
a damaged snapshot is quarantined whole and its apps re-crawled.
"""

from __future__ import annotations

import json
import hashlib
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.crawler.crawler import COLLECTIONS, CrawlRecord
from repro.crawler.resilience import CrawlOutcome
from repro.durable import (
    atomic_write,
    canonical,
    decode_line,
    encode_line,
    next_sidecar_path,
    quarantine,
    scan,
    sweep_tmp,
)
from repro.obs.observer import get_observer
from repro.rng import derive_seed

__all__ = [
    "SimulatedCrash",
    "CrashPlan",
    "CrawlJournal",
    "BEFORE_APP",
    "AFTER_CRAWL",
    "MID_APPEND",
    "AFTER_APPEND",
    "CRASH_POINTS",
    "record_to_jsonable",
    "record_from_jsonable",
]

logger = logging.getLogger(__name__)


# -- crash injection --------------------------------------------------------


class SimulatedCrash(BaseException):
    """The process 'dies' here: an injected crash inside the crawl loop.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    no ordinary ``except Exception`` recovery path can accidentally
    swallow a simulated process death — the whole point is that nothing
    between the crash point and the journal gets a chance to clean up.
    """


#: crash before the app's crawl starts (nothing observed yet)
BEFORE_APP = "before_app"
#: crash after the crawl, before anything reaches the journal
AFTER_CRAWL = "after_crawl"
#: crash between journal write and flush — leaves a torn final line
MID_APPEND = "mid_append"
#: crash right after the record became durable
AFTER_APPEND = "after_append"

CRASH_POINTS = (BEFORE_APP, AFTER_CRAWL, MID_APPEND, AFTER_APPEND)


@dataclass
class CrashPlan:
    """Raise :exc:`SimulatedCrash` at one configurable crawl-loop point.

    ``app_index`` counts the apps *freshly crawled by this process* (the
    resume loop skips replayed apps), so a plan targets "the k-th app
    this incarnation works on".  A plan fires at most once; after the
    crash is raised, ``fired`` stays true and the plan is inert.
    """

    app_index: int
    point: str = MID_APPEND
    fired: bool = field(default=False, init=False)
    _started: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.point!r}; one of {CRASH_POINTS}"
            )
        if self.app_index < 0:
            raise ValueError(f"app_index must be >= 0, got {self.app_index}")

    @classmethod
    def random(cls, seed: int, n_apps: int) -> "CrashPlan":
        """A seeded plan crashing at a random (app, point) pair."""
        rng = np.random.default_rng(derive_seed(seed, "crash-plan"))
        index = int(rng.integers(0, max(1, n_apps)))
        point = CRASH_POINTS[int(rng.integers(0, len(CRASH_POINTS)))]
        return cls(app_index=index, point=point)

    def advance(self) -> None:
        """Move to the next app slot (called once per freshly crawled app)."""
        self._started += 1

    def due(self, point: str) -> bool:
        """Would the plan crash at *point* of the current app?"""
        return (
            not self.fired
            and point == self.point
            and self._started - 1 == self.app_index
        )

    def check(self, point: str) -> None:
        """Crash here if the plan says so."""
        if self.due(point):
            self.fired = True
            raise SimulatedCrash(
                f"injected crash at {point!r} of app #{self.app_index}"
            )


# -- record (de)serialisation ----------------------------------------------
#
# Unlike the dataset export (repro.io), the journal must be *lossless*:
# resume replays these records into feature extraction, so profile posts
# are kept in full, not reduced to a count.


def record_to_jsonable(record: CrawlRecord) -> dict[str, Any]:
    """A lossless, JSON-serialisable image of one crawl record."""
    return {
        "app_id": record.app_id,
        "summary_ok": bool(record.summary_ok),
        "name": record.name,
        "description": record.description,
        "company": record.company,
        "category": record.category,
        "mau_observations": [int(v) for v in record.mau_observations],
        "feed_ok": bool(record.feed_ok),
        "profile_posts": [
            {
                "message": str(post["message"]),
                "link": post["link"],
                "created_time": int(post["created_time"]),
                "from": int(post["from"]),
            }
            for post in record.profile_posts
        ],
        "inst_ok": bool(record.inst_ok),
        "permissions": list(record.permissions),
        "observed_client_id": record.observed_client_id,
        "redirect_uri": record.redirect_uri,
        "outcomes": {
            collection: {
                "status": outcome.status,
                "attempts": int(outcome.attempts),
                "faults": list(outcome.faults),
                "elapsed_s": float(outcome.elapsed_s),
            }
            for collection, outcome in record.outcomes.items()
        },
    }


def record_from_jsonable(data: dict[str, Any]) -> CrawlRecord:
    """The inverse of :func:`record_to_jsonable`.

    Outcomes are rebuilt in crawl order (summary, feed, install): the
    journal's canonical encoding sorts object keys, but a replayed
    record must be indistinguishable from a freshly crawled one — down
    to dict iteration order, which the dataset export serialises.
    """
    stored = data.get("outcomes", {})
    ordered = [c for c in COLLECTIONS if c in stored]
    ordered += [c for c in stored if c not in COLLECTIONS]
    return CrawlRecord(
        app_id=data["app_id"],
        summary_ok=bool(data["summary_ok"]),
        name=data.get("name"),
        description=data.get("description", ""),
        company=data.get("company", ""),
        category=data.get("category", ""),
        mau_observations=[int(v) for v in data.get("mau_observations", [])],
        feed_ok=bool(data["feed_ok"]),
        profile_posts=[dict(post) for post in data.get("profile_posts", [])],
        inst_ok=bool(data["inst_ok"]),
        permissions=tuple(data.get("permissions", ())),
        observed_client_id=data.get("observed_client_id"),
        redirect_uri=data.get("redirect_uri"),
        outcomes={
            collection: CrawlOutcome(
                collection=collection,
                status=stored[collection]["status"],
                attempts=int(stored[collection]["attempts"]),
                faults=list(stored[collection]["faults"]),
                elapsed_s=float(stored[collection]["elapsed_s"]),
            )
            for collection in ordered
        },
    )


_LINE_VERSION = 1


class CrawlJournal:
    """Write-ahead log + snapshot making a crawl kill-anywhere resumable.

    One directory holds everything:

    ``journal.jsonl``
        One checksummed line per durable app: the full crawl record plus
        the crawler state *after* that app (transport clock, fault-plan
        bookkeeping, breaker states, installer RNG).
    ``snapshot.json``
        Periodic compaction of the journal (every ``snapshot_every``
        appends) into one checksummed file, written atomically; the
        journal restarts empty afterwards.
    ``meta.json``
        The configuration fingerprint the journal was written under;
        resuming with a different configuration is refused loudly.
    ``journal.jsonl.corrupt`` / ``snapshot.json.corrupt``
        Quarantine sidecars for checksum-mismatched entries; repeated
        quarantines get counter-suffixed names (``….corrupt.1``, …) so
        no event overwrites another's evidence.

    ``append()`` returning *is* the durability point: line written,
    flushed, fsynced.  See the module docstring for the full contract.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"
    META_NAME = "meta.json"

    def __init__(
        self,
        directory: str | Path,
        snapshot_every: int = 64,
        resume: bool = True,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        #: app_id -> jsonable record, in durability order
        self._records: dict[str, dict] = {}
        self._state: dict | None = None
        self._since_compact = 0
        #: apps whose journal lines were quarantined at open (best-effort
        #: identification: a corrupt line may not name its app at all)
        self.quarantined: tuple[str, ...] = ()
        #: was a torn final line truncated at open?
        self.truncated_torn_line = False
        if not resume and self._has_data():
            raise FileExistsError(
                f"checkpoint directory {self.directory} already holds crawl "
                "data; pass resume=True (CLI: --resume) to continue it, or "
                "point --checkpoint at a fresh directory"
            )
        sweep_tmp(self.directory)
        self._load()
        self._fh = open(self.journal_path, "ab")

    # -- paths ------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def meta_path(self) -> Path:
        return self.directory / self.META_NAME

    def _has_data(self) -> bool:
        return any(
            p.exists() and p.stat().st_size > 0
            for p in (self.journal_path, self.snapshot_path)
        )

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        self._load_snapshot()
        self._load_journal()

    def _load_snapshot(self) -> None:
        path = self.snapshot_path
        if not path.exists():
            return
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            payload = doc["payload"]
            if hashlib.sha256(canonical(payload)).hexdigest() != doc["sha256"]:
                raise ValueError("snapshot checksum mismatch")
            records = {e["app_id"]: e for e in payload["records"]}
            state = payload["state"]
        except (KeyError, TypeError, ValueError, UnicodeDecodeError) as err:
            corrupt = next_sidecar_path(path)
            os.replace(path, corrupt)
            logger.warning(
                "quarantined corrupt snapshot %s -> %s (%s); its apps will "
                "be re-crawled", path, corrupt, err,
            )
            return
        self._records.update(records)
        self._state = state

    def _load_journal(self) -> None:
        path = self.journal_path
        if not path.exists():
            return
        good, bad, torn = scan(path.read_bytes(), self.decode)
        for _, payload in good:
            self._records[payload["app_id"]] = payload["record"]
        if good:
            self._state = good[-1][1]["state"]
        self._since_compact = len(good)
        if bad:
            self._quarantine_lines(bad)
        if bad or torn:
            # Rewrite the journal to exactly the surviving lines so the
            # damage is handled once, not re-discovered on every open.
            atomic_write(path, b"".join(piece + b"\n" for piece, _ in good))
            self.truncated_torn_line = torn

    @staticmethod
    def decode(line: bytes) -> dict | None:
        """One journal entry; ``None`` if damaged or not naming an app."""
        payload = decode_line(line)
        return payload if payload is not None and "app_id" in payload else None

    def _quarantine_lines(self, lines: list[bytes]) -> None:
        corrupt_path = quarantine(self.journal_path, lines)
        claimed = []
        for line in lines:
            try:  # best-effort: name the app if the payload still parses
                _, body = line.split(b"\t", 1)
                claimed.append(str(json.loads(body)["app_id"]))
            except Exception:  # noqa: BLE001 - corrupt by definition
                claimed.append("<unidentifiable>")
        self.quarantined = tuple(claimed)
        # The final journaled state may still carry the quarantined apps'
        # per-app fault bookkeeping; drop it so their re-crawl starts from
        # call index 0, like any fresh crawl.
        known = {c for c in claimed if c != "<unidentifiable>"}
        if known and self._state is not None:
            transport = self._state.get("transport", {})
            transport["call_index"] = [
                entry
                for entry in transport.get("call_index", [])
                if entry[1] not in known
            ]
            transport["vanished"] = [
                a for a in transport.get("vanished", []) if a not in known
            ]
        logger.warning(
            "quarantined %d corrupt journal line(s) in %s to sidecar "
            "%s (apps: %s); they will be re-crawled",
            len(lines), self.journal_path, corrupt_path, ", ".join(claimed),
        )

    # -- replay API --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._records

    @property
    def records(self) -> dict[str, CrawlRecord]:
        """Durable records, decoded fresh (callers may mutate them)."""
        return {
            app_id: record_from_jsonable(data)
            for app_id, data in self._records.items()
        }

    @property
    def state(self) -> dict | None:
        """The crawler state after the last durable app (``None`` if empty)."""
        return self._state

    # -- writing -----------------------------------------------------------

    def append(
        self, record: CrawlRecord, state: dict, tear: bool = False
    ) -> None:
        """Make *record* durable; the crawler state rides along.

        When this returns, the line is on disk (written + flushed +
        fsynced) — the app counts as done across any crash.  ``tear``
        simulates a crash in the write/flush window: a prefix of the
        line is written and :exc:`SimulatedCrash` raised, producing
        exactly the torn-final-line artifact resume must absorb.
        """
        if self._fh is None:
            raise RuntimeError("journal is closed")
        payload = {
            "v": _LINE_VERSION,
            "app_id": record.app_id,
            "record": record_to_jsonable(record),
            "state": state,
        }
        line = encode_line(payload)
        if tear:
            self._fh.write(line[: max(1, 2 * len(line) // 3)])
            self._fh.flush()
            raise SimulatedCrash(
                f"injected crash mid-append of {record.app_id} "
                "(torn journal line)"
            )
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._records[record.app_id] = payload["record"]
        self._state = state
        self._since_compact += 1
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "journal.append",
                t=self._journal_clock(state),
                category="checkpoint",
                app_id=record.app_id,
                line_bytes=len(line),
            )
            obs.count("journal_appends_total")
            obs.observe(
                "journal_line_bytes",
                float(len(line)),
                edges=(1024.0, 4096.0, 16384.0, 65536.0, 262144.0),
            )
        if self._since_compact >= self.snapshot_every:
            self.compact()

    def compact(self) -> None:
        """Fold journal + previous snapshot into one atomic snapshot file.

        Crash-safe at every step: the snapshot is written via
        :func:`atomic_write` first, and only then is the journal
        truncated.  A crash between the two leaves duplicate entries,
        which the loader resolves (journal lines win, identically).
        """
        if self._state is None:
            return
        payload = {
            "format_version": 1,
            "records": list(self._records.values()),
            "state": self._state,
            "count": len(self._records),
        }
        doc = {
            "sha256": hashlib.sha256(canonical(payload)).hexdigest(),
            "payload": payload,
        }
        atomic_write(self.snapshot_path, json.dumps(doc))
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.journal_path, "wb")  # truncate: snapshot owns it
        self._since_compact = 0
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "journal.compact",
                t=self._journal_clock(self._state),
                category="checkpoint",
                records=len(self._records),
            )
            obs.count("journal_compactions_total")

    @staticmethod
    def _journal_clock(state: dict | None) -> float:
        """The global simulated clock carried by a journaled crawler state.

        The journal has no clock of its own; timestamps for its trace
        events come from the transport accounting in the state that
        rides along with every append.
        """
        stats = (state or {}).get("transport", {}).get("stats", {})
        return float(stats.get("service_s", 0.0)) + float(stats.get("wait_s", 0.0))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CrawlJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
