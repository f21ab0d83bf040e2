"""The admission queue's running depth against a plain-lanes model.

``AdmissionQueue`` keeps its depth as a counter that ``offer``,
``pop`` and ``pop_batch`` update, so the serving loop never sums the
lanes.  This property drives random sequences of offers (random
priorities and sequence numbers), pops, batch pops and peeks on a small
bound, and checks every step against a reference model that keeps one
plain list per priority lane and recomputes everything from them.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import AdmissionQueue, ScoreRequest
from repro.service.types import PRIORITIES


class LaneModel:
    """The admission policy written directly over plain lane lists."""

    def __init__(self, max_depth: int) -> None:
        self.max_depth = max_depth
        self.lanes: dict[str, list[ScoreRequest]] = {p: [] for p in PRIORITIES}
        self.offered: Counter[str] = Counter()
        self.shed: Counter[str] = Counter()
        self.max_depth_seen = 0

    def depth(self) -> int:
        return sum(len(lane) for lane in self.lanes.values())

    def offer(self, request: ScoreRequest) -> list[ScoreRequest]:
        self.offered[request.priority] += 1
        if self.depth() < self.max_depth:
            self.lanes[request.priority].append(request)
            self.max_depth_seen = max(self.max_depth_seen, self.depth())
            return []
        # The youngest entry of the least important lane that is
        # strictly less important than the arrival.
        rank = PRIORITIES.index(request.priority)
        for priority in reversed(PRIORITIES[rank + 1:]):
            if self.lanes[priority]:
                victim = self.lanes[priority].pop()
                self.shed[priority] += 1
                self.lanes[request.priority].append(request)
                return [victim]
        self.shed[request.priority] += 1
        return [request]

    def ordered(self) -> list[ScoreRequest]:
        return [r for priority in PRIORITIES for r in self.lanes[priority]]

    def peek_batch(self, limit: int) -> list[ScoreRequest]:
        return self.ordered()[:limit]

    def pop_batch(self, limit: int) -> list[ScoreRequest]:
        batch = self.peek_batch(limit)
        if not batch:
            raise IndexError("empty")
        for request in batch:
            self.lanes[request.priority].pop(0)
        return batch


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"), st.sampled_from(PRIORITIES), st.integers(0, 40)
        ),
        st.tuples(st.just("pop")),
        st.tuples(st.just("pop_batch"), st.integers(1, 6)),
        st.tuples(st.just("peek_batch"), st.integers(1, 6)),
    ),
    max_size=80,
)


def check_against(queue: AdmissionQueue, model: LaneModel) -> None:
    depth = model.depth()
    assert len(queue) == depth
    assert sum(queue.depth_of(p) for p in PRIORITIES) == depth
    assert bool(queue) is (len(queue) > 0)
    assert queue.snapshot()["depth"] == depth
    assert queue.max_depth_seen == model.max_depth_seen
    assert dict(queue.offered_counts) == dict(model.offered)
    assert dict(queue.shed_counts) == dict(model.shed)
    assert queue.peek_batch(queue.max_depth) == model.ordered()


@given(max_depth=st.integers(1, 5), operations=OPERATIONS)
@settings(deadline=None, max_examples=300)
def test_running_depth_matches_the_lane_model(max_depth, operations):
    queue = AdmissionQueue(max_depth=max_depth)
    model = LaneModel(max_depth)
    for op, *args in operations:
        if op == "offer":
            priority, sequence = args
            request = ScoreRequest(
                app_id=f"app{sequence % 7}",
                arrival_s=float(sequence),
                priority=priority,
                sequence=sequence,
            )
            assert queue.offer(request) == model.offer(request)
        elif op == "pop":
            if model.depth():
                assert [queue.pop()] == model.pop_batch(1)
            else:
                with pytest.raises(IndexError):
                    queue.pop()
        elif op == "pop_batch":
            (limit,) = args
            if model.depth():
                assert queue.pop_batch(limit) == model.pop_batch(limit)
            else:
                with pytest.raises(IndexError):
                    queue.pop_batch(limit)
        else:
            (limit,) = args
            assert queue.peek_batch(limit) == model.peek_batch(limit)
        check_against(queue, model)
