"""Request batcher: coalescing, splitting, shedding, drain."""

import asyncio

import pytest

from repro import obs
from repro.serve.batcher import QueueFullError, RequestBatcher


class Recorder:
    """An evaluate callable that records every batch it receives."""

    def __init__(self, fail_on=None):
        self.batches = []
        self.fail_on = fail_on or set()

    def __call__(self, items):
        self.batches.append(list(items))
        if any(item in self.fail_on for item in items):
            raise RuntimeError("evaluator exploded")
        return [item * 10 for item in items]


def assert_same_turn_submissions_coalesce(window_s):
    """Submissions made in one event-loop turn form one batch."""
    obs.enable(tracing=False, metrics=True)
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder, window_s=window_s, max_batch=64)
        batcher.start()
        results = await asyncio.gather(
            *[batcher.submit(i) for i in range(8)]
        )
        await batcher.stop()
        return results

    results = asyncio.run(run())
    assert results == [i * 10 for i in range(8)]
    assert len(recorder.batches) == 1
    assert recorder.batches[0] == list(range(8))
    metrics = obs.get_metrics().snapshot()
    assert metrics["counters"]["serve.batch.count"] == 1
    assert metrics["counters"]["serve.batch.queries"] == 8
    occupancy = metrics["histograms"]["serve.batch.occupancy"]
    assert occupancy["count"] == 1
    assert occupancy["mean"] == 8.0


def test_concurrent_submissions_coalesce_into_one_batch(clean_obs):
    assert_same_turn_submissions_coalesce(window_s=0.005)


def test_concurrent_submissions_coalesce_without_a_window(clean_obs):
    assert_same_turn_submissions_coalesce(window_s=0.0)


def test_lone_submission_resolves_without_a_timer(clean_obs):
    """The default batcher is work-conserving: a lone request is
    evaluated within a few event-loop turns, not after a timer."""
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder)
        batcher.start()
        future = batcher.submit(7)
        turns = 0
        while not future.done() and turns < 4:
            await asyncio.sleep(0)
            turns += 1
        done = future.done()
        await batcher.stop()
        return done, future.result()

    assert asyncio.run(run()) == (True, 70)
    assert recorder.batches == [[7]]


def test_max_batch_splits_large_windows(clean_obs):
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder, window_s=0.005, max_batch=4)
        batcher.start()
        results = await asyncio.gather(
            *[batcher.submit(i) for i in range(10)]
        )
        await batcher.stop()
        return results

    results = asyncio.run(run())
    assert results == [i * 10 for i in range(10)]
    assert [len(b) for b in recorder.batches] == [4, 4, 2]


def test_queue_full_sheds_with_counter(clean_obs):
    obs.enable(tracing=False, metrics=True)
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(
            recorder, window_s=0.005, max_batch=8, max_pending=3
        )
        batcher.start()
        admitted = [batcher.submit(i) for i in range(3)]
        with pytest.raises(QueueFullError):
            batcher.submit(99)
        results = await asyncio.gather(*admitted)
        await batcher.stop()
        return results

    assert asyncio.run(run()) == [0, 10, 20]
    snapshot = obs.get_metrics().snapshot()
    assert snapshot["counters"]["serve.shed.total"] == 1


def test_stop_drains_pending_work(clean_obs):
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder, window_s=10.0)
        batcher.start()
        # The window is absurdly long: stop() must not wait for it.
        futures = [batcher.submit(i) for i in range(5)]
        await batcher.stop()
        assert all(f.done() for f in futures)
        return [f.result() for f in futures]

    assert asyncio.run(run()) == [i * 10 for i in range(5)]
    assert len(recorder.batches) == 1


def test_submit_after_stop_raises(clean_obs):
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder)
        batcher.start()
        await batcher.stop()
        with pytest.raises(RuntimeError):
            batcher.submit(1)

    asyncio.run(run())


def test_evaluator_failure_propagates_to_all_waiters(clean_obs):
    recorder = Recorder(fail_on={2})

    async def run():
        batcher = RequestBatcher(recorder, window_s=0.002)
        batcher.start()
        futures = [batcher.submit(i) for i in range(4)]
        gathered = await asyncio.gather(
            *futures, return_exceptions=True
        )
        await batcher.stop()
        return gathered

    outcomes = asyncio.run(run())
    assert all(isinstance(o, RuntimeError) for o in outcomes)
    # The batch still drained; later submissions would start fresh.
    assert len(recorder.batches) == 1


@pytest.mark.parametrize("window_s", [-1.0, float("nan"), float("inf")])
def test_constructor_rejects_bad_windows(window_s):
    with pytest.raises(ValueError):
        RequestBatcher(lambda items: items, window_s=window_s)


def test_constructor_validation():
    with pytest.raises(ValueError):
        RequestBatcher(lambda items: items, max_batch=0)
    with pytest.raises(ValueError):
        RequestBatcher(lambda items: items, max_pending=0)
