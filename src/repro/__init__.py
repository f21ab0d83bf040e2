"""repro — a reproduction of "FRAppE: Detecting Malicious Facebook
Applications" (Rahman, Huang, Madhyastha, Faloutsos — CoNEXT 2012).

The package has three layers:

* **substrates** — a simulated Facebook platform
  (:mod:`repro.platform`), web/URL infrastructure
  (:mod:`repro.urlinfra`), a generative app ecosystem
  (:mod:`repro.ecosystem`), the MyPageKeeper post classifier
  (:mod:`repro.mypagekeeper`), a crawler + dataset builder
  (:mod:`repro.crawler`), and a from-scratch SVM stack
  (:mod:`repro.ml`);
* **the contribution** — FRAppE feature extraction, classifiers,
  validation, and pipeline (:mod:`repro.core`), plus the AppNet
  forensics (:mod:`repro.collusion`);
* **evaluation** — one module per paper table/figure
  (:mod:`repro.experiments`).

Quickstart::

    from repro.config import ScaleConfig
    from repro.core import FrappePipeline

    result = FrappePipeline(ScaleConfig(scale=0.02)).run()
    print(result.bundle.table1_rows())

Durability: long crawls are crash-safe.  :class:`CrawlJournal` is a
write-ahead log — once ``append`` returns, that app's record is on disk
(written, flushed, fsynced) and survives any process death; killing a
checkpointed crawl anywhere and resuming it yields records, and an
exported dataset, byte-identical to an uninterrupted run.
:func:`atomic_write` is the shared all-or-nothing file write behind the
journal's snapshots and the dataset export, and :exc:`SimulatedCrash`
is the injected process death the crash tests kill crawls with::

    from repro import CrawlJournal

    with CrawlJournal("checkpoint/") as journal:
        records = crawler.crawl_many(app_ids, journal=journal)
"""

from repro.config import PAPER, PaperStats, ScaleConfig
from repro.crawler.checkpoint import CrawlJournal, SimulatedCrash
from repro.durable import atomic_write

__version__ = "1.0.0"

__all__ = [
    "PAPER",
    "PaperStats",
    "ScaleConfig",
    "CrawlJournal",
    "SimulatedCrash",
    "atomic_write",
    "__version__",
]
