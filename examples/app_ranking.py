"""The independent app watchdog: assessment, advisories, and ranking.

The paper's conclusion envisions "an independent watchdog for app
assessment and ranking, so as to warn Facebook users before installing
apps."  This example trains FRAppE, crawls and assesses a mixed
population, and prints the risk ranking with human-readable advisories.

Run:  python examples/app_ranking.py
"""

import numpy as np

from repro.config import ScaleConfig
from repro.core import AppWatchdog, FrappePipeline, frappe
from repro.crawler.crawler import AppCrawler


def main() -> None:
    print("Training FRAppE and starting the watchdog ...")
    result = FrappePipeline(ScaleConfig(scale=0.02, master_seed=31)).run(
        sweep_unlabelled=False
    )
    records, labels = result.sample_records()
    classifier = frappe(result.extractor).fit(records, labels)
    crawler = AppCrawler(result.world)
    watchdog = AppWatchdog(classifier, result.extractor, crawler.stats)

    # Assess a random slice of the whole observed population.
    rng = np.random.default_rng(2)
    population = sorted(result.bundle.d_total)
    sample = [population[i] for i in rng.choice(len(population), 60, replace=False)]
    assessments = [
        watchdog.assess_record(crawler.crawl_app(app_id)) for app_id in sorted(sample)
    ]
    ranking = sorted(assessments, key=lambda a: a.risk_score, reverse=True)

    print(f"\nAssessed {len(assessments)} apps. The ten riskiest:\n")
    for assessment in ranking[:10]:
        print(assessment.summary())
        print()

    truth = result.world.truth_malicious_ids()
    risky = [a for a in ranking if a.is_risky]
    hits = sum(1 for a in risky if a.app_id in truth)
    print(f"\nOf {len(risky)} high-risk verdicts, {hits} are truly "
          "malicious (per the simulation's hidden labels).")


if __name__ == "__main__":
    main()
