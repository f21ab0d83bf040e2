"""The structured tracer: causality, canonical export, the full chain.

Unit tests pin the tracer's determinism rules (nesting, last-recording-
wins, canonical root order, auto keys, post-close patching), and the
acceptance test drives a fault_rate=0.2 service with a hair-trigger
breaker and asserts the exported trace reconstructs the complete causal
chain — retry attempt → injected fault → breaker transition →
degradation rung → typed response — for at least one faulted app.
"""

from __future__ import annotations

import json

import pytest

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.obs import TracingObserver, Tracer, load_trace, observation, walk_events
from repro.service import make_service


class TestSpanTree:
    def test_nested_spans_become_children(self):
        tracer = Tracer()
        with tracer.span("outer", key="k", category="crawl", t=0.0) as outer:
            with tracer.span("inner", key="k", category="crawl", t=1.0) as inner:
                tracer.event("tick", t=1.5, detail="x")
        assert outer.children == [inner]
        assert [e.name for e in inner.events] == ["tick"]
        roots = tracer.roots()
        assert roots == [outer]  # only the outer span is a root

    def test_last_recording_wins_per_category_key(self):
        # Re-recording the same (category, key) replaces the earlier
        # recording; the latest one must be the one that survives.
        tracer = Tracer()
        with tracer.span("crawl.app", key="app1", t=0.0) as first:
            first.note(which="first")
        with tracer.span("crawl.app", key="app1", t=0.0) as second:
            second.note(which="second")
        (root,) = tracer.roots()
        assert root.attrs["which"] == "second"

    def test_auto_keys_are_sequential_per_category_and_name(self):
        tracer = Tracer()
        with tracer.span("svm.fit", category="train"):
            pass
        with tracer.span("svm.fit", category="train"):
            pass
        assert [s.key for s in tracer.roots()] == ["000000", "000001"]

    def test_event_outside_any_span_lands_on_a_category_root(self):
        tracer = Tracer()
        tracer.event("schedule.commit", t=3.0, category="schedule", app_id="a")
        (root,) = tracer.roots()
        assert root.name == "_root" and root.category == "schedule"
        assert root.events[0].attrs == {"app_id": "a"}

    def test_note_and_end_work_after_the_span_closes(self):
        # Batched serving closes request spans before outcomes are
        # known; the tick patches them in afterwards.
        tracer = Tracer()
        with tracer.span("serve.request", key="000001", category="serve") as span:
            pass
        span.end(12.5)
        span.note(outcome="served", batch_size=4)
        (root,) = tracer.roots()
        assert root.t_end == 12.5
        assert root.attrs == {"outcome": "served", "batch_size": 4}

    def test_duration_is_clamped_non_negative(self):
        tracer = Tracer()
        with tracer.span("s", key="k", t=10.0) as span:
            span.end(4.0)
        assert span.duration_s == 0.0


class TestCanonicalExport:
    def test_roots_sort_by_category_then_key_not_completion_order(self):
        tracer = Tracer()
        for category, key in (
            ("serve", "000002"), ("crawl", "zzz"),
            ("crawl", "aaa"), ("serve", "000001"),
        ):
            with tracer.span("s", key=key, category=category):
                pass
        assert [(s.category, s.key) for s in tracer.roots()] == [
            ("crawl", "aaa"), ("crawl", "zzz"),
            ("serve", "000001"), ("serve", "000002"),
        ]

    def test_jsonl_is_byte_stable_across_recording_orders(self):
        def record(tracer, order):
            for key in order:
                with tracer.span("crawl.app", key=key, t=1.0, k=key):
                    tracer.event("tick", t=2.0)

        forward, backward = Tracer(), Tracer()
        record(forward, ["a", "b", "c"])
        record(backward, ["c", "b", "a"])
        assert forward.to_jsonl() == backward.to_jsonl()

    def test_category_filter_excludes_schedule_metadata(self):
        tracer = Tracer()
        with tracer.span("crawl.app", key="a", category="crawl"):
            pass
        tracer.event("schedule.commit", category="schedule")
        assert '"schedule"' not in tracer.to_jsonl(categories=("crawl",))
        assert '"schedule"' in tracer.to_jsonl()

    def test_export_roundtrips_through_load_trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("crawl.app", key="a", t=0.5, status="ok") as span:
            tracer.event("retry.attempt", t=0.6, attempt=0)
            span.end(1.5)
        path = tracer.export(tmp_path / "trace.jsonl")
        (root,) = load_trace(path)
        assert root["name"] == "crawl.app"
        assert root["t_end"] == 1.5
        assert root["events"][0]["attrs"]["attempt"] == 0
        # Canonical bytes: sorted keys, tight separators, one line.
        line = (tmp_path / "trace.jsonl").read_text().splitlines()[0]
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )


@pytest.fixture(scope="module")
def chaos_result():
    """A private fault_rate=0.2 pipeline (module-owned; serving mutates)."""
    return FrappePipeline(
        ScaleConfig(scale=0.01, master_seed=424242, fault_rate=0.2)
    ).run(sweep_unlabelled=False)


def test_trace_reconstructs_the_full_causal_chain(chaos_result, tmp_path):
    """retry → breaker transition → degradation rung → typed response."""
    observer = TracingObserver()
    service = make_service(
        chaos_result, ServiceConfig(breaker_failure_threshold=1)
    )
    apps = sorted(chaos_result.bundle.d_sample)[:20]
    with observation(observer):
        for app_id in apps:
            service.score(app_id)
    path = observer.tracer.export(tmp_path / "serve-trace.jsonl")
    roots = load_trace(path)
    chains = []
    for root in roots:
        if root["name"] != "serve.request":
            continue
        event_names = {event["name"] for _s, event in walk_events([root])}
        crawled = any(c["name"] == "crawl.app" for c in root["children"])
        if (
            crawled
            and "retry.attempt" in event_names
            and "retry.fault" in event_names
            and "breaker.transition" in event_names
            and root["attrs"].get("outcome") is not None
            and root["attrs"].get("rung") is not None
        ):
            chains.append(root)
    assert chains, (
        "no request span recorded the complete "
        "retry -> breaker -> rung -> response chain"
    )
    # The chain is causally ordered inside one request span: the fault
    # precedes the breaker transition, which precedes the span's close.
    root = chains[0]
    events = [event for _s, event in walk_events([root])]
    fault_t = min(
        e["t"] for e in events if e["name"] == "retry.fault"
    )
    transition_t = min(
        e["t"] for e in events if e["name"] == "breaker.transition"
    )
    assert fault_t <= transition_t
    # ... and the breaker genuinely tripped on the hair trigger.
    transitions = [
        (e["attrs"]["from_state"], e["attrs"]["to_state"])
        for e in events if e["name"] == "breaker.transition"
    ]
    assert ("closed", "open") in transitions
