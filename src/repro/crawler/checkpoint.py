"""Crash-safe crawl persistence: write-ahead journal and resume.

The paper's dataset is the product of a nine-month continuously running
crawl — a process that inevitably died and restarted many times.  PR 1
made the crawler survive the *network* failing; this module makes it
survive the *process* failing:

* :class:`CrawlJournal` — a :class:`repro.durable.Journal`, the
  write-ahead log the monitor history shares.  Each ``crawl_many``
  call writes one start line carrying the crawler state it starts
  from, then one line per completed :class:`~repro.crawler.crawler.CrawlRecord`
  holding only the record,
* :class:`CrashPlan` / :exc:`SimulatedCrash` — seeded crash injection
  at configurable points inside the crawl loop, including *between*
  journal write and flush (the torn-write window).

Durability contract
-------------------
An app is **durable** once ``CrawlJournal.append`` returns: its journal
line has been written, flushed, and ``fsync``\\ ed, so a process kill or
OS crash after that point cannot lose it (subject to the device
honouring fsync).  A crash *before* that point loses at most the app
being crawled.

Resume rule
-----------
The monitor journal's rule: a resumed call restores its durable start
state and walks its whole sorted plan again.  An app already durable in
the call is re-crawled and compared with its line in canonical JSON
(:class:`~repro.durable.ReplayError` on a mismatch, nothing appended on
a match); every other app is crawled and appended.  Restored start
state plus the same calls gives the same records, so the replay is what
carries the crawler across the durable prefix, and the resumed run is
byte-identical to an uninterrupted one.

Corruption policy
-----------------
Torn tails and interior corruption follow :mod:`repro.durable`: opening
the journal only reads it, and its first write — after ``crawl_many``
has checked the fingerprint against the header line — moves bad lines
to a sidecar and rewrites the file.  An app whose line was quarantined
is simply not durable: the walk re-crawls it in its place and appends
it again.  A quarantined start line is written afresh from the
crawler's state when its call begins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.crawler.crawler import COLLECTIONS, CrawlRecord
from repro.crawler.resilience import CrawlOutcome
from repro.durable import Journal, JournalVersionError, encode_line
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

    ``app_index`` counts the apps *freshly crawled by this process*
    (replaying a durable app does not count), so a plan targets "the
    k-th new app this incarnation works on".  A plan fires at most once; after the
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


#: the compaction file of the v1 format; its presence marks a v1 directory
_V1_SNAPSHOT_NAME = "snapshot.json"


class CrawlJournal(Journal):
    """Write-ahead log making a crawl kill-anywhere resumable.

    A :class:`~repro.durable.Journal`: the base opens, reads, repairs,
    appends and checks replays.  This class adds the crawl's schema.
    One directory holds everything:

    ``journal.jsonl``
        Format ``v`` 3 lines.  The first is the header holding the
        configuration fingerprint the journal was written under;
        resuming with a different configuration, or with a missing or
        damaged header, is refused loudly.  Each
        :meth:`AppCrawler.crawl_many
        <repro.crawler.crawler.AppCrawler.crawl_many>` call then writes
        one start line (the call's index in the directory and the
        crawler state it started from), then one line per app holding
        only the call index, the app ID and the record.
    ``journal.jsonl.corrupt``
        Quarantine sidecars for damaged or malformed lines; repeated
        quarantines get counter-suffixed names (``….corrupt.1``, …) so
        no event overwrites another's evidence.

    A directory holding lines of another version, or the ``snapshot.json``
    of the v1 format, is refused with
    :class:`~repro.durable.JournalVersionError` and left untouched.

    ``append()`` returning *is* the durability point: line written,
    flushed, fsynced.  See the module docstring for the full contract.
    """

    JOURNAL_NAME = "journal.jsonl"
    FORMAT_VERSION = 3
    WHAT = "crawl checkpoint"

    def __init__(self, directory: str | Path, resume: bool = True) -> None:
        #: call index -> the crawler state that call started from
        self._starts: dict[int, dict] = {}
        #: (call index, app_id) -> durable app line, in durability order
        self._lines: dict[tuple[int, str], dict] = {}
        #: index of the crawl_many call in progress (-1 before the first)
        self._call = -1
        super().__init__(directory, resume)

    def _load(self) -> None:
        if (self.directory / _V1_SNAPSHOT_NAME).exists():
            raise JournalVersionError(
                f"crawl checkpoint at {self.directory} holds a v1 "
                f"{_V1_SNAPSHOT_NAME}; this build reads only "
                f"v{self.FORMAT_VERSION}. Start a fresh history: point "
                "--checkpoint at a new directory."
            )
        super()._load()

    def _admit(self, payload: dict) -> str | None:
        call = payload.get("call")
        if not isinstance(call, int) or call < 0:
            return "malformed"
        if "app_id" in payload:
            if not isinstance(payload["app_id"], str) \
                    or not isinstance(payload.get("record"), dict):
                return "malformed"
            self._lines[(call, payload["app_id"])] = payload
        elif isinstance(payload.get("state"), dict):
            self._starts[call] = payload["state"]
        else:
            return "malformed"
        return None

    # -- replay API --------------------------------------------------------

    def __len__(self) -> int:
        """Durable app lines, over every call."""
        return len(self._lines)

    def __contains__(self, app_id: str) -> bool:
        """Is *app_id* durable in any call?"""
        return any(durable == app_id for _, durable in self._lines)

    def begin(self, state: dict) -> dict | None:
        """Open the next ``crawl_many`` call; its durable start state, if any.

        A call whose start line is not durable (a fresh call, or one
        whose start line was quarantined) makes a start line carrying
        *state*, the crawler's current state, durable and returns
        ``None``: there is nothing to restore.
        """
        self._call += 1
        start = self._starts.get(self._call)
        if start is None:
            self._write({"v": self.FORMAT_VERSION, "call": self._call,
                         "state": state})
        return start

    def durable(self, app_id: str) -> dict | None:
        """The open call's durable line for *app_id*, if any."""
        return self._lines.get((self._call, app_id))

    def line(self, record: CrawlRecord) -> dict:
        """The line :meth:`append` writes for *record* in the open call."""
        return {"v": self.FORMAT_VERSION, "call": self._call,
                "app_id": record.app_id, "record": record_to_jsonable(record)}

    # -- writing -----------------------------------------------------------

    def append(
        self, record: CrawlRecord, now_s: float, tear: bool = False
    ) -> None:
        """Make *record* durable in the open call.

        When this returns, the line is on disk (written + flushed +
        fsynced) — the app counts as done across any crash.  *now_s* is
        the crawler's simulated clock, the trace event's timestamp.
        ``tear`` simulates a crash in the write/flush window: a prefix
        of the line is written and :exc:`SimulatedCrash` raised,
        producing exactly the torn-final-line artifact resume must
        absorb.
        """
        payload = self.line(record)
        if tear:
            line = encode_line(payload)
            handle = self._handle()
            handle.write(line[: max(1, 2 * len(line) // 3)])
            handle.flush()
            raise SimulatedCrash(
                f"injected crash mid-append of {record.app_id} "
                "(torn journal line)"
            )
        line = self._write(payload)
        self._lines[(self._call, record.app_id)] = payload
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "journal.append",
                t=now_s,
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
