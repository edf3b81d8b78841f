"""The serving layer: epochs, coalescing, admission, shutdown, TCP.

Interleavings are driven deterministically, not by timing: tests wrap
``QueryServer._evaluate`` (the documented hook) with a gate so a reader
can be held *inside* evaluation while updates swap epochs around it.
"""

import asyncio
import json
import threading

import pytest

from helpers import build_graph, build_pattern
from repro.engine import QueryEngine
from repro.errors import ServerClosedError, ServerOverloadedError
from repro.graph.io import pattern_to_json
from repro.serve import Epoch, QueryServer, SnapshotRegistry, serve_tcp
from repro.simulation import match
from repro.views import Delta, ViewDefinition, ViewSet
from repro.views.maintenance import IncrementalViewSet


def _graph():
    return build_graph(
        {1: "A", 2: "B", 3: "C", 4: "A", 5: "B", 6: "C"},
        [(1, 2), (2, 3), (4, 5), (5, 6), (2, 6)],
    )


def _definitions():
    return [
        ViewDefinition("AB", build_pattern({"a": "A", "b": "B"}, [("a", "b")])),
        ViewDefinition("BC", build_pattern({"b": "B", "c": "C"}, [("b", "c")])),
    ]


AB = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
BC = build_pattern({"x": "B", "y": "C"}, [("x", "y")])


def make_server(**kwargs):
    """A served engine over the tiny graph, maintenance attached.
    Returns (server, tracker) -- ``tracker.graph`` is the live graph
    (the engine adopts the tracker's copy on attach)."""
    graph = _graph()
    definitions = _definitions()
    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(ViewSet(definitions), graph=graph)
    engine.attach_maintenance(tracker)
    return QueryServer(engine, **kwargs), tracker


class Gate:
    """Holds every ``_evaluate`` call until released (30s failsafe)."""

    def __init__(self, server):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._original = server._evaluate
        server._evaluate = self._gated

    def _gated(self, spec, epoch):
        self.calls += 1
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("Gate never released")
        return self._original(spec, epoch)

    async def wait_entered(self):
        await asyncio.get_running_loop().run_in_executor(
            None, self.entered.wait, 30
        )


async def spin_until(predicate, timeout=10.0):
    """Cede the loop until ``predicate()`` holds (tests only)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never held")
        await asyncio.sleep(0.005)


class TestEpoch:
    def test_pin_release_refcount(self):
        epoch = Epoch(0, object())
        epoch.acquire()
        epoch.acquire()
        assert epoch.readers == 2
        epoch.release()
        assert epoch.readers == 1
        assert not epoch.drained
        epoch.retire()
        assert epoch.retired and not epoch.drained
        epoch.release()
        assert epoch.drained
        assert epoch.wait_drained(0.1)

    def test_over_release_is_an_error(self):
        epoch = Epoch(0, object())
        with pytest.raises(RuntimeError):
            epoch.release()

    def test_retire_with_no_readers_drains_immediately(self):
        epoch = Epoch(3, object())
        epoch.retire()
        assert epoch.drained

    def test_registry_swap_retires_previous(self):
        registry = SnapshotRegistry()
        with pytest.raises(RuntimeError):
            registry.pin()
        assert registry.current_id == -1
        first = registry.swap("ck0")
        assert (first.epoch_id, registry.current_id) == (0, 0)
        pinned = registry.pin()
        assert pinned is first
        second = registry.swap("ck1")
        assert second.epoch_id == 1
        assert first.retired and not first.drained  # reader still on it
        pinned.release()
        assert first.drained
        stats = registry.drain_stats()
        assert stats == {"swaps": 1, "draining": 0, "drained": 1}


class TestServerLifecycle:
    def test_requires_a_graph(self):
        engine = QueryEngine(ViewSet(_definitions()))
        with pytest.raises(ValueError):
            QueryServer(engine)

    def test_validates_admission_parameters(self):
        graph = _graph()
        engine = QueryEngine(ViewSet(_definitions()), graph=graph)
        with pytest.raises(ValueError):
            QueryServer(engine, max_inflight=0)
        with pytest.raises(ValueError):
            QueryServer(engine, max_queue=-1)

    def test_query_before_start_and_after_stop(self):
        async def run():
            server, _ = make_server()
            with pytest.raises(ServerClosedError):
                await server.query(AB)
            async with server:
                answer = await server.query(AB)
                assert answer.epoch == 0
            with pytest.raises(ServerClosedError) as err:
                await server.query(AB)
            assert err.value.retriable is False

        asyncio.run(run())

    def test_clean_shutdown_drains_inflight_requests(self):
        async def run():
            server, _ = make_server()
            await server.start()
            gate = Gate(server)
            inflight = asyncio.ensure_future(server.query(AB))
            await gate.wait_entered()
            stopper = asyncio.ensure_future(server.stop())
            # stop() refuses new work immediately...
            await spin_until(lambda: server.closing)
            with pytest.raises(ServerClosedError):
                await server.query(BC)
            # ...but waits for the pinned reader, which completes fine.
            assert not stopper.done()
            gate.release.set()
            answer = await inflight
            await stopper
            assert answer.epoch == 0 and answer.result.result_size > 0
            await server.stop()  # idempotent

        asyncio.run(run())


class TestEpochSwap:
    def test_reader_pinned_before_update_sees_old_epoch(self):
        async def run():
            server, tracker = make_server()
            before = tracker.graph.copy()
            async with server:
                gate = Gate(server)
                early = asyncio.ensure_future(server.query(AB))
                await gate.wait_entered()  # pinned + evaluating on epoch 0

                # Maintenance swaps to epoch 1 while the reader is held.
                outcome = await server.update(Delta().insert(4, 2).delete(1, 2))
                assert outcome.epoch == 1
                assert server.current_epoch == 1
                stats = server.stats()["epoch"]
                assert stats["draining"] == 1  # epoch 0: retired, pinned

                gate.release.set()
                answer = await early
                # Served from the epoch it pinned, with *that* epoch's data.
                assert answer.epoch == 0
                assert (
                    answer.result.edge_matches
                    == match(AB, before).edge_matches
                )

                late = await server.query(AB)
                assert late.epoch == 1
                assert (
                    late.result.edge_matches
                    == match(AB, tracker.graph).edge_matches
                )
                drain = server.stats()["epoch"]
                assert drain["draining"] == 0 and drain["drained"] == 1

        asyncio.run(run())

    def test_updates_never_block_readers(self):
        async def run():
            server, tracker = make_server()
            async with server:
                for round_index in range(4):
                    source = 10 + round_index
                    update = asyncio.ensure_future(
                        server.update(Delta().insert(source, 2))
                    )
                    # Readers admitted while maintenance runs still finish.
                    answers = await asyncio.gather(
                        *(server.query(AB) for _ in range(3))
                    )
                    outcome = await update
                    for answer in answers:
                        assert answer.epoch in (outcome.epoch - 1, outcome.epoch)
                assert server.current_epoch == 4
                final = await server.query(AB)
                assert (
                    final.result.edge_matches
                    == match(AB, tracker.graph).edge_matches
                )

        asyncio.run(run())


class TestCoalescing:
    def test_identical_inflight_queries_coalesce_to_one_evaluation(self):
        async def run():
            server, _ = make_server()
            async with server:
                gate = Gate(server)
                queries = [
                    asyncio.ensure_future(server.query(AB)) for _ in range(5)
                ]
                await gate.wait_entered()
                # 4 followers parked on the owner's future.
                await spin_until(
                    lambda: server.stats()["requests"]["coalesced"] == 4
                )
                gate.release.set()
                answers = await asyncio.gather(*queries)

                assert gate.calls == 1
                requests = server.stats()["requests"]
                assert requests["evaluated"] == 1
                assert requests["coalesced"] == 4
                owners = [a for a in answers if not a.coalesced]
                assert len(owners) == 1
                reference = owners[0].result.edge_matches
                for answer in answers:
                    assert answer.result.edge_matches == reference
                    assert answer.epoch == 0

                # A later identical query at the same versions: LRU hit.
                again = await server.query(AB)
                assert again.cache_hit
                assert server.stats()["requests"]["cache_hits"] == 1

        asyncio.run(run())

    def test_distinct_queries_do_not_coalesce(self):
        async def run():
            server, _ = make_server()
            async with server:
                gate = Gate(server)
                a = asyncio.ensure_future(server.query(AB))
                b = asyncio.ensure_future(server.query(BC))
                await spin_until(lambda: gate.calls == 2)
                gate.release.set()
                await asyncio.gather(a, b)
                requests = server.stats()["requests"]
                assert requests["evaluated"] == 2
                assert requests["coalesced"] == 0

        asyncio.run(run())

    def test_coalesced_queries_on_different_epochs_evaluate_separately(self):
        async def run():
            server, _ = make_server()
            async with server:
                first = await server.query(AB)
                # Swap epochs; same pattern must not reuse epoch-0 entry
                # (the delta touches AB's view, so the stamp moved).
                await server.update(Delta().insert(4, 2))
                second = await server.query(AB)
                assert (first.epoch, second.epoch) == (0, 1)
                assert not second.cache_hit
                assert second.result.result_size > first.result.result_size

        asyncio.run(run())


class TestBackpressure:
    def test_overload_sheds_with_retriable_error(self):
        async def run():
            server, _ = make_server(max_inflight=1, max_queue=1)
            async with server:
                gate = Gate(server)
                running = asyncio.ensure_future(server.query(AB))
                await gate.wait_entered()
                queued = asyncio.ensure_future(server.query(BC))
                await spin_until(
                    lambda: server.stats()["requests"]["inflight"] == 2
                )
                # Admission is full: 1 evaluating + 1 queued.
                with pytest.raises(ServerOverloadedError) as err:
                    await server.query(AB)
                assert err.value.retriable is True
                assert server.stats()["requests"]["shed"] == 1

                # Shedding never wedges the server: held work completes.
                gate.release.set()
                answers = await asyncio.wait_for(
                    asyncio.gather(running, queued), timeout=30
                )
                assert all(a.result is not None for a in answers)
                requests = server.stats()["requests"]
                assert requests["completed"] == 2
                assert requests["inflight"] == 0
                after = await server.query(AB)  # admission reopened
                assert after.cache_hit

        asyncio.run(run())


class TestStats:
    def test_stats_shape(self):
        async def run():
            server, _ = make_server()
            async with server:
                await server.query(AB)
                await server.update(Delta().insert(7, 1).delete(7, 1).delete(9, 9))
                stats = server.stats()
                assert stats["epoch"]["current"] == 1
                assert stats["epoch"]["swaps"] == 1  # one transition
                assert stats["requests"]["admitted"] == 1
                assert stats["requests"]["deltas"] == 1
                assert stats["requests"]["ops_applied"] == 2
                assert stats["requests"]["ops_skipped"] == 1
                assert {"AB", "BC"} <= set(stats["views"])
                assert "served_answers" in stats["caches"]
                assert "answers" in stats["caches"]

        asyncio.run(run())


class TestTcpProtocol:
    def test_round_trip(self):
        async def run():
            server, _ = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def call(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                pong = await call({"op": "ping"})
                assert pong == {"ok": True, "epoch": 0, "pong": True}

                answer = await call(
                    {"op": "query", "pattern": pattern_to_json(AB)}
                )
                assert answer["ok"] and answer["epoch"] == 0
                assert answer["result"]["pairs"] > 0

                updated = await call(
                    {"op": "update", "ops": [["+", 4, 2], ["-", 1, 2]]}
                )
                assert updated["ok"] and updated["epoch"] == 1
                assert updated["applied"] == 2

                stats = await call({"op": "stats"})
                assert stats["ok"] and stats["stats"]["epoch"]["current"] == 1

                bad = await call({"op": "frobnicate"})
                assert bad["ok"] is False and bad["retriable"] is False
                bad_pattern = await call({"op": "query"})
                assert bad_pattern["ok"] is False

                writer.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(run())


class TestOversizedRequests:
    """Request lines past asyncio's 64 KiB default must not drop the
    connection unanswered: big-but-legal lines are served, over-limit
    lines get a typed envelope, and the server keeps serving others."""

    @staticmethod
    async def _open(port):
        return await asyncio.open_connection("127.0.0.1", port, limit=2**22)

    def test_five_thousand_op_update_succeeds(self):
        async def run():
            server, _ = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await self._open(port)
                nodes = [1, 2, 3, 4, 5, 6]
                ops = [
                    ["insert" if k % 2 == 0 else "delete",
                     nodes[(k // 2) % 6], nodes[(k // 12) % 6]]
                    for k in range(5000)
                ]
                line = json.dumps({"op": "update", "ops": ops}).encode() + b"\n"
                assert len(line) > 64 * 1024
                writer.write(line)
                await writer.drain()
                answer = json.loads(await reader.readline())
                assert answer["ok"] is True
                assert answer["applied"] + answer["skipped"] > 0
                writer.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(run())

    def test_over_limit_line_gets_typed_error_and_others_are_served(
        self, monkeypatch
    ):
        from repro.serve import protocol

        monkeypatch.setattr(protocol, "MAX_REQUEST_BYTES", 4096)

        async def run():
            server, _ = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await self._open(port)
                payload = {"op": "ping", "pad": "x" * 6000}
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                answer = json.loads(await reader.readline())
                assert answer == {
                    "ok": False,
                    "error": "request too large",
                    "retriable": False,
                }
                # The server closed this connection after answering.
                assert await reader.readline() == b""
                writer.close()

                other_reader, other_writer = await self._open(port)
                other_writer.write(b'{"op": "ping"}\n')
                await other_writer.drain()
                pong = json.loads(await other_reader.readline())
                assert pong["ok"] is True and pong["pong"] is True
                other_writer.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(run())
