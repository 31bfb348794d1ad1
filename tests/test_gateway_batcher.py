"""Micro-batching: concurrent rank calls coalesce into one fused pass."""

import asyncio

from repro.gateway import RankBatcher


class RecordingRunner:
    """A batch runner that records every batch it receives."""

    def __init__(self, results=None, error=None):
        self.calls: list[list[str]] = []
        self.results = results or {}
        self.error = error

    async def __call__(self, queries):
        self.calls.append(list(queries))
        if self.error is not None:
            raise self.error
        return [self.results.get(q, f"rank:{q}") for q in queries]


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_calls_share_one_runner_invocation(self):
        async def body():
            runner = RecordingRunner()
            batcher = RankBatcher(runner)
            results = await asyncio.gather(
                batcher.rank("a"), batcher.rank("b"), batcher.rank("c")
            )
            assert results == ["rank:a", "rank:b", "rank:c"]
            assert len(runner.calls) == 1
            assert sorted(runner.calls[0]) == ["a", "b", "c"]
            assert batcher.stats()["batches"] == 1
            assert batcher.stats()["largest_batch"] == 3

        run(body())

    def test_identical_queries_deduplicate(self):
        async def body():
            runner = RecordingRunner()
            batcher = RankBatcher(runner)
            results = await asyncio.gather(
                batcher.rank("a"), batcher.rank("a"), batcher.rank("a")
            )
            assert results == ["rank:a"] * 3
            assert runner.calls == [["a"]]  # one backend pass for three callers
            assert batcher.stats()["batched_queries"] == 3

        run(body())

    def test_lone_request_waits_for_no_timer(self):
        async def body():
            runner = RecordingRunner()
            batcher = RankBatcher(runner)
            task = asyncio.create_task(batcher.rank("a"))
            # the flush runs on the next loop turn, not after a window
            for _ in range(5):
                await asyncio.sleep(0)
            assert task.done()
            assert task.result() == "rank:a"
            assert runner.calls == [["a"]]

        run(body())

    def test_sequential_calls_each_get_their_own_batch(self):
        async def body():
            runner = RecordingRunner()
            batcher = RankBatcher(runner)
            assert await batcher.rank("a") == "rank:a"
            assert await batcher.rank("b") == "rank:b"
            assert runner.calls == [["a"], ["b"]]

        run(body())


class TestFailureIsolation:
    def test_per_query_exception_fails_only_its_own_callers(self):
        async def body():
            runner = RecordingRunner(
                results={"bad": KeyError("bad is not a word")}
            )
            batcher = RankBatcher(runner)
            good, bad = await asyncio.gather(
                batcher.rank("good"),
                batcher.rank("bad"),
                return_exceptions=True,
            )
            assert good == "rank:good"
            assert isinstance(bad, KeyError)

        run(body())

    def test_runner_crash_fails_the_whole_batch(self):
        async def body():
            runner = RecordingRunner(error=RuntimeError("backend died"))
            batcher = RankBatcher(runner)
            results = await asyncio.gather(
                batcher.rank("a"), batcher.rank("b"), return_exceptions=True
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        run(body())

    def test_length_mismatch_is_a_loud_error(self):
        async def body():
            async def short_runner(queries):
                return ["only-one"]

            batcher = RankBatcher(short_runner)
            results = await asyncio.gather(
                batcher.rank("a"), batcher.rank("b"), return_exceptions=True
            )
            assert all(isinstance(r, RuntimeError) for r in results)
            assert "2 queries" in str(results[0])

        run(body())


class TestDrain:
    def test_drain_flushes_pending_queries(self):
        async def body():
            runner = RecordingRunner()
            batcher = RankBatcher(runner)
            task = asyncio.create_task(batcher.rank("a"))
            await asyncio.sleep(0)
            await batcher.drain()
            assert await asyncio.wait_for(task, timeout=5) == "rank:a"

        run(body())

