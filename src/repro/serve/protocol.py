"""A JSON-lines TCP front-end for :class:`~repro.serve.server.QueryServer`.

``repro serve`` speaks newline-delimited JSON over a plain socket --
deliberately stdlib-only, trivially scriptable (``nc``, a five-line
client, a load generator), and shaped like the in-process API:

Request (one JSON object per line)::

    {"op": "query",  "pattern": {<pattern JSON>}, "selection": "minimal"?}
    {"op": "update", "ops": [["insert", u, v], ["delete", u, v], ...]}
    {"op": "stats"}
    {"op": "metrics"}                  # registry snapshot (counters/histograms)
    {"op": "slowlog", "limit": N?}     # slowest request span trees
    {"op": "traces",  "limit": N?}     # most recent request span trees
    {"op": "plans",   "limit": N?}     # recent plan-choice records
    {"op": "ping"}

Response (one JSON object per line)::

    {"ok": true, "epoch": N, ...}                      # op-specific payload
    {"ok": false, "error": "...", "retriable": bool}   # failures

A shed request answers ``retriable: true`` (back off and resend); every
other error answers ``retriable: false``.  A request line longer than
:data:`MAX_REQUEST_BYTES` answers ``{"ok": false, "error": "request too
large", "retriable": false}`` and the server then closes that
connection (the rest of the oversized line cannot be re-synchronized).
Pattern and node encodings are exactly the :mod:`repro.graph.io` JSON
formats, so pattern files written by ``repro generate`` can be sent
verbatim.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any, Dict, Optional

from repro.errors import ReproError

log = logging.getLogger(__name__)
from repro.graph.io import node_from_json, node_to_json, pattern_from_json
from repro.serve.server import QueryServer, ServedAnswer
from repro.simulation.result import MatchResult
from repro.views.maintenance import DELETE, INSERT, Delta

#: Longest accepted request line in bytes (the stream reader's buffer
#: limit; asyncio's 64 KiB default is too small for bulk updates).
MAX_REQUEST_BYTES = 16 * 1024 * 1024


def _encode_result(result: MatchResult) -> Dict[str, Any]:
    return {
        "pairs": result.result_size,
        "node_matches": {
            str(node): sorted((node_to_json(v) for v in values), key=repr)
            for node, values in result.node_matches.items()
        },
        "edge_matches": {
            f"{edge[0]}->{edge[1]}": sorted(
                ([node_to_json(u), node_to_json(v)] for u, v in pairs),
                key=repr,
            )
            for edge, pairs in result.edge_matches.items()
        },
    }


def _encode_answer(answer: ServedAnswer) -> Dict[str, Any]:
    return {
        "ok": True,
        "epoch": answer.epoch,
        "cache_hit": answer.cache_hit,
        "coalesced": answer.coalesced,
        "elapsed_ms": answer.elapsed * 1e3,
        "result": _encode_result(answer.result),
    }


def _parse_delta(ops: Any) -> Delta:
    delta = Delta()
    for entry in ops:
        op, source, target = entry
        if op == "+":
            op = INSERT
        elif op == "-":
            op = DELETE
        if op == INSERT:
            delta.insert(node_from_json(source), node_from_json(target))
        elif op == DELETE:
            delta.delete(node_from_json(source), node_from_json(target))
        else:
            raise ValueError(
                f"unknown update op {op!r}; expected '+', '-', "
                f"{INSERT!r} or {DELETE!r}"
            )
    return delta


async def _dispatch(server: QueryServer, request: Dict[str, Any]) -> Dict[str, Any]:
    op = request.get("op")
    if op == "query":
        pattern = pattern_from_json(request["pattern"])
        answer = await server.query(pattern, request.get("selection"))
        return _encode_answer(answer)
    if op == "update":
        outcome = await server.update(_parse_delta(request.get("ops", [])))
        return {
            "ok": True,
            "epoch": outcome.epoch,
            "applied": outcome.report.applied,
            "skipped": outcome.report.skipped,
            "changed_views": list(outcome.report.changed_views),
            "stale_bounded": list(outcome.report.stale_bounded),
        }
    if op == "stats":
        return {"ok": True, "epoch": server.current_epoch, "stats": server.stats()}
    if op == "metrics":
        return {
            "ok": True,
            "epoch": server.current_epoch,
            "metrics": server.engine.registry.snapshot(),
        }
    if op == "slowlog":
        limit = int(request.get("limit", 10))
        return {
            "ok": True,
            "epoch": server.current_epoch,
            "slowlog": server.traces.slowest(limit),
        }
    if op == "traces":
        limit = int(request.get("limit", 10))
        return {
            "ok": True,
            "epoch": server.current_epoch,
            "traces": server.traces.recent(limit),
        }
    if op == "plans":
        limit = int(request.get("limit", 10))
        return {
            "ok": True,
            "epoch": server.current_epoch,
            "plans": [r.to_dict() for r in server.engine.plan_log(limit)],
        }
    if op == "ping":
        return {"ok": True, "epoch": server.current_epoch, "pong": True}
    raise ValueError(f"unknown op {op!r}")


async def handle_connection(
    server: QueryServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client: read JSON lines until EOF, answer each."""
    peer = writer.get_extra_info("peername")
    log.debug("connection from %s", peer)
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                log.warning(
                    "request from %s exceeds %d bytes; closing",
                    peer, MAX_REQUEST_BYTES,
                )
                writer.write(
                    json.dumps(
                        {
                            "ok": False,
                            "error": "request too large",
                            "retriable": False,
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                break
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                response = await _dispatch(server, request)
            except ReproError as err:
                response = {
                    "ok": False,
                    "error": str(err),
                    "retriable": bool(getattr(err, "retriable", False)),
                }
            except (KeyError, TypeError, ValueError) as err:
                log.warning("bad request from %s: %s", peer, err)
                response = {
                    "ok": False,
                    "error": f"bad request: {err}",
                    "retriable": False,
                }
            writer.write(json.dumps(response, default=str).encode() + b"\n")
            await writer.drain()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        pass  # client vanished mid-request; nothing to answer
    finally:
        # close() without wait_closed(): awaiting here keeps the
        # handler task alive into server shutdown, where its
        # cancellation is logged as a spurious error by asyncio.
        writer.close()


async def serve_tcp(
    server: QueryServer,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Open the TCP front door (``port=0`` picks an ephemeral port;
    read the bound address off ``.sockets[0].getsockname()``).  The
    returned server is not yet serving forever -- callers own its
    lifecycle (``async with``, or ``serve_forever()``)."""

    async def _handler(reader, writer):
        await handle_connection(server, reader, writer)

    return await asyncio.start_server(
        _handler, host=host, port=port, limit=MAX_REQUEST_BYTES
    )
