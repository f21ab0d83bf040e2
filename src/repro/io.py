"""Dataset export/import: share a study as plain JSON.

Serialises the labelled crawl records (features come from the crawl,
labels from MyPageKeeper's heuristic) so downstream users can train
their own models without running the simulation, and loads such files
back into :class:`~repro.crawler.crawler.CrawlRecord` objects.

Format versions
---------------
``format_version: 2`` (current)
    Adds ``records_sha256``, a checksum over the canonical JSON of the
    record list, so truncated or bit-rotted exports are detected at
    load time instead of silently training a model on damage.
``format_version: 1``
    The original checksum-less layout.  Loading migrates it to v2 in
    memory via :func:`migrate_dataset_v1_to_v2`; re-exporting writes v2.

Exports are written through
:func:`~repro.durable.atomic_write`, so a crash mid-export
leaves the previous complete file (or nothing), never a torn one.

Lossy by design: ``profile_posts`` are exported as a *count* only and
reloaded as that many placeholder posts — post-content features are not
recomputable from an export (the precomputed aggregate features ride
along instead).  The crawl checkpoint journal
(:mod:`repro.crawler.checkpoint`) is the lossless format.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.crawler.crawler import CrawlRecord
from repro.crawler.resilience import CrawlOutcome
from repro.durable import atomic_write

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import PipelineResult

__all__ = [
    "export_dataset",
    "load_dataset",
    "dataset_to_dict",
    "migrate_dataset_v1_to_v2",
    "DatasetFormatError",
    "atomic_write",
]

_FORMAT_VERSION = 2


class DatasetFormatError(ValueError):
    """An exported dataset file cannot be trusted or understood.

    Raised (instead of a raw ``json.JSONDecodeError`` or ``KeyError``)
    for corrupt/truncated JSON, unsupported format versions, and
    checksum mismatches — always with what to do about it.
    """


def _records_checksum(entries: list[dict]) -> str:
    """sha256 over the canonical JSON of the record list."""
    canonical = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _record_to_dict(record: CrawlRecord) -> dict:
    return {
        "app_id": record.app_id,
        "summary_ok": record.summary_ok,
        "name": record.name,
        "description": record.description,
        "company": record.company,
        "category": record.category,
        "mau_observations": list(record.mau_observations),
        "feed_ok": record.feed_ok,
        "profile_post_count": len(record.profile_posts),
        "inst_ok": record.inst_ok,
        "permissions": list(record.permissions),
        "observed_client_id": record.observed_client_id,
        "redirect_uri": record.redirect_uri,
        "outcomes": {
            collection: {
                "status": outcome.status,
                "attempts": outcome.attempts,
                "faults": list(outcome.faults),
                "elapsed_s": outcome.elapsed_s,
            }
            for collection, outcome in record.outcomes.items()
        },
    }


def _record_from_dict(data: dict) -> CrawlRecord:
    # Placeholder posts: the export carries only the count, so each
    # post is rebuilt as an *independent* empty dict — callers may
    # mutate one without spookily mutating the other n-1.
    profile_posts = [
        {"message": "", "link": None, "created_time": 0, "from": 0}
        for _ in range(int(data.get("profile_post_count", 0)))
    ]
    return CrawlRecord(
        app_id=data["app_id"],
        summary_ok=bool(data["summary_ok"]),
        name=data.get("name"),
        description=data.get("description", ""),
        company=data.get("company", ""),
        category=data.get("category", ""),
        mau_observations=[int(v) for v in data.get("mau_observations", [])],
        feed_ok=bool(data["feed_ok"]),
        profile_posts=profile_posts,
        inst_ok=bool(data["inst_ok"]),
        permissions=tuple(data.get("permissions", ())),
        observed_client_id=data.get("observed_client_id"),
        redirect_uri=data.get("redirect_uri"),
        # Older exports carry no outcomes; such records read as
        # authoritative (no transient give-ups), matching their era.
        outcomes={
            collection: CrawlOutcome(
                collection=collection,
                status=entry.get("status", "ok"),
                attempts=int(entry.get("attempts", 0)),
                faults=list(entry.get("faults", [])),
                elapsed_s=float(entry.get("elapsed_s", 0.0)),
            )
            for collection, entry in data.get("outcomes", {}).items()
        },
    )


def dataset_to_dict(result: "PipelineResult") -> dict:
    """The D-Sample dataset as a JSON-serialisable dictionary (v2)."""
    bundle = result.bundle
    entries = []
    for app_id in sorted(bundle.d_sample):
        record = bundle.records[app_id]
        entry = _record_to_dict(record)
        entry["label"] = bundle.label(app_id)
        entry["external_link_ratio"] = result.extractor.feature_value(
            "external_link_ratio", record
        )
        entry["name_matches_malicious"] = result.extractor.feature_value(
            "name_matches_malicious", record
        )
        entries.append(entry)
    return {
        "format_version": _FORMAT_VERSION,
        "records_sha256": _records_checksum(entries),
        "paper": "FRAppE (CoNEXT 2012) reproduction",
        "scale": result.world.config.scale,
        "seed": result.world.config.master_seed,
        "n_benign": len(bundle.d_sample_benign),
        "n_malicious": len(bundle.d_sample_malicious),
        "records": entries,
    }


def migrate_dataset_v1_to_v2(data: dict) -> dict:
    """Upgrade a loaded v1 dataset dict to v2 (adds the checksum).

    Returns a new dict; the input is not mutated.  The checksum is
    computed over the v1 records as-is — migration vouches for the
    bytes from here on, it cannot retroactively detect damage that
    predates it.
    """
    version = data.get("format_version")
    if version != 1:
        raise DatasetFormatError(
            f"migrate_dataset_v1_to_v2 expects format_version 1, got "
            f"{version!r}"
        )
    migrated = dict(data)
    migrated["format_version"] = 2
    migrated["records_sha256"] = _records_checksum(data["records"])
    return migrated


def export_dataset(result: "PipelineResult", path: str | Path) -> Path:
    """Write the labelled D-Sample dataset to *path* as JSON, atomically."""
    return atomic_write(path, json.dumps(dataset_to_dict(result), indent=1))


def load_dataset(path: str | Path) -> tuple[list[CrawlRecord], list[int], dict]:
    """Load an exported dataset: (records, labels, metadata).

    Accepts format v2 (checksum verified) and v1 (migrated in memory).
    Raises :class:`DatasetFormatError` — never a raw JSON traceback —
    for corrupt/truncated files, unknown versions, and checksum
    mismatches.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DatasetFormatError(
            f"{path} is not valid JSON ({err}); the export is likely "
            "truncated or corrupt. Re-export it with `repro export` (v2 "
            "exports are written atomically and checksummed)."
        ) from err
    version = data.get("format_version")
    if version == 1:
        data = migrate_dataset_v1_to_v2(data)
    elif version != _FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported dataset format version: {version!r} (supported: "
            "1 — migrated on load — and 2). Re-export the dataset with "
            "this version of `repro export`."
        )
    try:
        entries = data["records"]
        stored = data["records_sha256"]
    except KeyError as err:
        raise DatasetFormatError(
            f"{path} is missing the {err.args[0]!r} field; the export is "
            "incomplete. Re-export it with `repro export`."
        ) from err
    actual = _records_checksum(entries)
    if actual != stored:
        raise DatasetFormatError(
            f"{path} failed its integrity check (records_sha256 mismatch: "
            f"stored {stored[:12]}…, computed {actual[:12]}…); the file "
            "was corrupted after export. Restore it from a good copy or "
            "re-export with `repro export`."
        )
    records, labels = [], []
    for entry in entries:
        records.append(_record_from_dict(entry))
        labels.append(int(entry["label"]))
    metadata = {k: v for k, v in data.items() if k != "records"}
    return records, labels, metadata
