"""Self-time arithmetic and the wrappers that record spans."""

from __future__ import annotations

import sys
import threading
import types

import pytest

from bench.trace import Patcher, Recorder, Target, self_times


def span(name, start, end, tid=1, pid=1):
    return (name, pid, tid, start, end)


def test_self_time_of_nested_spans():
    spans = [
        span("a", 0, 100),
        span("b", 10, 40),
        span("c", 20, 30),
        span("d", 50, 90),
    ]
    assert self_times(spans) == {"a": 30, "b": 20, "c": 10, "d": 40}
    assert sum(self_times(spans).values()) == 100


def test_self_time_of_repeated_and_recursive_spans():
    spans = [span("f", 0, 50), span("f", 10, 20), span("g", 60, 70), span("f", 80, 90)]
    assert self_times(spans) == {"f": 60, "g": 10}


def test_spans_on_other_threads_or_processes_are_not_children():
    spans = [
        span("a", 0, 100, tid=1),
        span("b", 10, 60, tid=2),
        span("c", 20, 30, tid=2),
        span("d", 20, 30, tid=1, pid=2),
    ]
    assert self_times(spans) == {"a": 100, "b": 40, "c": 10, "d": 10}


@pytest.fixture
def fake_modules():
    """``repro._bench_fake`` defines the targets; ``repro._bench_user``
    imported two of them by name, as program modules do."""
    lib = types.ModuleType("repro._bench_fake")

    def work(x):
        return x + 1

    async def coro():
        return 1

    def gen(n):
        yield from range(n)

    class Model:
        def evaluate(self, x):
            return work(x) * 2

        @classmethod
        def build(cls, x):
            return x

    lib.work, lib.coro, lib.gen, lib.Model = work, coro, gen, Model
    user = types.ModuleType("repro._bench_user")
    user.work, user.Model = work, Model
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    yield lib, user
    del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_wrapper_patches_every_binding_and_restores_them_all(fake_modules):
    lib, user = fake_modules
    original, method, build = lib.work, lib.Model.__dict__["evaluate"], lib.Model.__dict__["build"]
    recorder = Recorder()
    targets = [
        Target("fake.work", "repro._bench_fake", "work"),
        Target("fake.evaluate", "repro._bench_fake", "Model.evaluate"),
        Target("fake.build", "repro._bench_fake", "Model.build"),
    ]
    with Patcher(targets, recorder) as patcher:
        assert set(patcher.status.values()) == {"wrapped"}
        assert lib.work is not original and user.work is lib.work
        # A module imported while wrapped binds the wrapper by name.
        late = types.ModuleType("repro._bench_late")
        late.work = lib.work
        sys.modules[late.__name__] = late
        assert user.work(1) == 2 and lib.Model().evaluate(1) == 4 and user.Model.build(3) == 3
    try:
        assert lib.work is original and user.work is original and late.work is original
        assert lib.Model.__dict__["evaluate"] is method and lib.Model.__dict__["build"] is build
        names = [s[0] for s in recorder.spans]
        assert sorted(names) == ["fake.build", "fake.evaluate", "fake.work"]
    finally:
        del sys.modules["repro._bench_late"]


def test_missing_targets_are_absent_not_errors(fake_modules):
    targets = [
        Target("x", "repro._bench_no_such_module", "f"),
        Target("y", "repro._bench_fake", "no_such_function"),
        Target("z", "repro._bench_fake", "NoSuchClass.method"),
        Target("w", "repro._bench_fake", "Model.no_such_method"),
    ]
    with Patcher(targets, Recorder()) as patcher:
        assert list(patcher.status.values()) == ["absent"] * 4


def test_async_targets_are_refused(fake_modules):
    lib, _ = fake_modules
    coro = lib.coro
    with Patcher([Target("fake.coro", "repro._bench_fake", "coro")], Recorder()) as patcher:
        assert list(patcher.status.values()) == ["refused"]
        assert lib.coro is coro


def test_generator_span_covers_the_iteration(fake_modules):
    lib, _ = fake_modules
    recorder = Recorder()
    with Patcher([Target("fake.gen", "repro._bench_fake", "gen")], recorder):
        it = lib.gen(3)
        assert recorder.spans == []
        assert list(it) == [0, 1, 2]
    assert [s[0] for s in recorder.spans] == ["fake.gen"]


def test_counter_only_target_counts_calls_from_threads(fake_modules):
    lib, user = fake_modules
    recorder = Recorder()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so a lost update would show
    try:
        with Patcher([Target("fake.work", "repro._bench_fake", "work", spans=False)], recorder):
            threads = [threading.Thread(target=lambda: [user.work(i) for i in range(2000)]) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert recorder.spans == []
    assert recorder.counts == {"fake.work.calls": 8000}
