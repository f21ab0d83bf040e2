"""Simulated app lifecycle events: the ground truth behind forensics.

Kagan et al. (arXiv:1309.4067) observe that app *lifecycles* —
deletions, renames, permission churn — are themselves discriminative
signals, but only a long-running monitor can see them.  This module
scripts those events onto the simulated calendar so the continuous
monitor (:mod:`repro.crawler.monitor`) has ground truth to detect:

* ``rename`` — the app's display name changes (campaigns rebrand
  burned apps),
* ``permission_change`` — the requested permission set churns
  (privilege escalation after install-base growth),
* ``delete`` — the developer pulls the app (beyond the moderation
  engine's policed deletions),
* ``mute`` — the app scrubs its recent profile-feed posts (post-rate
  collapse: the campaign cleaned its wall and moved on).

Events are generated deterministically from the master seed and are
**absolute**: each event carries the exact post-state (the new name,
the new permission tuple), so applying a script is idempotent and a
resumed monitor that regenerates the script and re-applies it up to the
current day lands in byte-identical world state.

Nothing here runs by default — the seed pipeline never imports this
module, so the one-shot crawl stays byte-identical to previous
releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.platform.permissions import (
    OFFLINE_ACCESS,
    PUBLISH_STREAM,
    USER_BIRTHDAY,
)
from repro.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ecosystem.simulation import SimulatedWorld

__all__ = ["LifecycleEvent", "LifecycleScript", "EVENT_KINDS"]

EVENT_KINDS = ("rename", "permission_change", "delete", "mute")

#: rebranding suffixes campaigns append when an app name is burned
_RENAME_SUFFIXES = ("2", "Plus", "Pro", "HD", "New")

#: the churn pool: permissions toggled by a permission_change event
_CHURN_PERMISSIONS = (OFFLINE_ACCESS, USER_BIRTHDAY, "read_stream")

#: how far back a ``mute`` wall wipe reaches, in days
MUTE_WIPE_DAYS = 45


@dataclass(frozen=True)
class LifecycleEvent:
    """One scripted change to one app, effective from *day* on."""

    day: int
    app_id: str
    kind: str  # rename | permission_change | delete | mute
    #: post-state payloads (absolute, so application is idempotent)
    new_name: str | None = None
    new_permissions: tuple[str, ...] | None = None

    def jsonable(self) -> dict:
        return {
            "day": self.day,
            "app_id": self.app_id,
            "kind": self.kind,
            "new_name": self.new_name,
            "new_permissions": (
                None if self.new_permissions is None
                else list(self.new_permissions)
            ),
        }


@dataclass
class LifecycleScript:
    """A day-ordered event script and the cursor of what was applied."""

    events: list[LifecycleEvent] = field(default_factory=list)
    _cursor: int = field(default=0, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def generate(
        cls,
        world: "SimulatedWorld",
        start_day: int,
        horizon_days: int,
        n_events: int | None = None,
    ) -> "LifecycleScript":
        """Script *n_events* lifecycle events over the monitoring window.

        A pure function of the (freshly built) world and its master
        seed: generation reads pre-event app state, so regenerating on
        a resumed monitor yields the identical script.
        """
        rng = np.random.default_rng(
            derive_seed(world.config.master_seed, "app-lifecycle")
        )
        malicious = sorted(world.registry.malicious(), key=lambda a: a.app_id)
        benign = sorted(world.registry.benign(), key=lambda a: a.app_id)
        if n_events is None:
            n_events = max(4, len(malicious) // 6)
        events: list[LifecycleEvent] = []
        used: set[str] = set()
        for _ in range(n_events):
            # Campaign apps churn far more than benign ones (4:1).
            pool = malicious if rng.random() < 0.8 and malicious else benign
            candidates = [a for a in pool if a.app_id not in used]
            if not candidates:
                break
            app = candidates[int(rng.integers(0, len(candidates)))]
            used.add(app.app_id)
            day = start_day + int(rng.integers(1, max(2, horizon_days)))
            kind = EVENT_KINDS[int(rng.integers(0, len(EVENT_KINDS)))]
            if kind == "rename":
                suffix = _RENAME_SUFFIXES[
                    int(rng.integers(0, len(_RENAME_SUFFIXES)))
                ]
                events.append(LifecycleEvent(
                    day=day, app_id=app.app_id, kind=kind,
                    new_name=f"{app.name} {suffix}",
                ))
            elif kind == "permission_change":
                churn = _CHURN_PERMISSIONS[
                    int(rng.integers(0, len(_CHURN_PERMISSIONS)))
                ]
                current = set(app.permissions)
                if churn in current:
                    current.discard(churn)
                else:
                    current.add(churn)
                current.add(PUBLISH_STREAM)  # campaigns never drop posting
                events.append(LifecycleEvent(
                    day=day, app_id=app.app_id, kind=kind,
                    new_permissions=tuple(sorted(current)),
                ))
            elif kind == "delete":
                if app.deleted_day is not None and app.deleted_day <= day:
                    continue  # moderation got there first
                events.append(LifecycleEvent(
                    day=day, app_id=app.app_id, kind=kind,
                ))
            else:  # mute
                events.append(LifecycleEvent(
                    day=day, app_id=app.app_id, kind=kind,
                ))
        events.sort(key=lambda e: (e.day, e.app_id, e.kind))
        return cls(events=events)

    # -- application --------------------------------------------------------

    def apply_until(self, world: "SimulatedWorld", day: int) -> list[LifecycleEvent]:
        """Apply every not-yet-applied event with ``event.day <= day``.

        Returns the events applied by this call.  Application mutates
        the registry in place; because every payload is absolute, a
        fresh process that regenerates the script and calls
        ``apply_until`` with the same cutoff reproduces the identical
        world state regardless of how the cutoffs were batched.
        """
        applied: list[LifecycleEvent] = []
        while self._cursor < len(self.events):
            event = self.events[self._cursor]
            if event.day > day:
                break
            self._cursor += 1
            app = world.registry.maybe_get(event.app_id)
            if app is None:
                continue
            if event.kind == "rename":
                app.name = event.new_name or app.name
            elif event.kind == "permission_change":
                if event.new_permissions is not None:
                    app.permissions = event.new_permissions
            elif event.kind == "delete":
                if app.deleted_day is None or app.deleted_day > event.day:
                    app.deleted_day = event.day
            elif event.kind == "mute":
                # Wall wipe: the campaign scrubbed its last ~6 weeks of
                # posts.  The cutoff reaches back past the posting
                # horizon so the next feed crawl observes the collapse.
                cutoff = max(0, event.day - MUTE_WIPE_DAYS)
                app.profile_feed = [
                    post for post in app.profile_feed if post.day <= cutoff
                ]
            applied.append(event)
        return applied
