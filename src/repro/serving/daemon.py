"""The asyncio TCP serving daemon: many open-loop clients, one batcher.

``serve`` (the stdin loop) demonstrates the service; this module *deploys*
it: an :mod:`asyncio` TCP front end speaking a line-delimited JSON
protocol, multiplexing any number of concurrent client connections into
the one :class:`~repro.serving.service.InferenceService` --
micro-batching, response cache, supervision and deadline plumbing
included.  The bridge between the async front end and the threaded worker
is a single done-callback per request
(:meth:`~repro.serving.batcher.PendingRequest.add_done_callback` hopping
the completion onto the event loop via ``call_soon_threadsafe``), so a
pending request costs no thread and no poll.

Protocol (one JSON object per line, UTF-8, ``\\n``-terminated)::

    -> {"op": "infer", "id": "r1", "tokens": [3, 1, 4], "deadline_ms": 250}
    <- {"id": "r1", "ok": true, "shape": [3, 64], "hidden": [[...], ...],
        "cached": false}

    -> {"op": "ping"}
    <- {"ok": true, "op": "ping", "protocol": 1}

    -> {"op": "stats"}
    <- {"ok": true, "op": "stats", "stats": {...service snapshot...}}

``op`` defaults to ``"infer"`` when ``tokens`` is present.  Failures are
**typed**, never silent::

    <- {"id": "r1", "ok": false, "error": "DeadlineExceeded",
        "message": "..."}

with ``error`` one of ``DeadlineExceeded`` (the deadline passed while
queued), ``Overloaded`` (admission control shed the request up front),
``QueueFull`` (backpressure), ``ServiceClosed``, ``SupervisorExhausted``
(restart budget spent), ``InvalidRequest`` (bad JSON / tokens / knobs) or
``InternalError``.  Hidden states ride as JSON numbers, which round-trip
float64 exactly -- responses over the wire are **bitwise** identical to
solo in-process inference, restarts included.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Set

from repro.serving.batcher import (
    DeadlineExceededError,
    OverloadedError,
    PendingRequest,
    QueueFullError,
    RequestCancelledError,
    ServiceClosedError,
    WorkerCrashError,
)
from repro.serving.supervisor import SupervisorExhaustedError

#: Wire protocol version, reported by ``ping``.
PROTOCOL_VERSION = 1

#: Longest accepted request line (bytes); a 32k-token request is ~200 kB.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Exception type -> wire error code, most specific first.
_ERROR_CODES = (
    (DeadlineExceededError, "DeadlineExceeded"),
    (OverloadedError, "Overloaded"),
    (QueueFullError, "QueueFull"),
    (SupervisorExhaustedError, "SupervisorExhausted"),
    (ServiceClosedError, "ServiceClosed"),
    (RequestCancelledError, "RequestCancelled"),
    (WorkerCrashError, "WorkerCrash"),
    (ValueError, "InvalidRequest"),
    (TypeError, "InvalidRequest"),
)


def error_code(exc: BaseException) -> str:
    """Map an exception to its typed wire error code."""
    for exc_type, code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "InternalError"


def _error_response(exc: BaseException, request_id=None) -> dict:
    response = {"ok": False, "error": error_code(exc), "message": str(exc)}
    if request_id is not None:
        response["id"] = request_id
    return response


class ServingDaemon:
    """TCP front end over an inference service.

    Parameters
    ----------
    service:
        A started-or-startable :class:`~repro.serving.service.
        InferenceService`; the daemon owns its lifecycle (started in
        :meth:`start`, stopped -- with its typed backlog drain -- in
        :meth:`stop`).
    host / port:
        Bind address; ``port=0`` picks a free port, readable from
        :attr:`port` after :meth:`start`.
    """

    def __init__(self, service, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self.connections_total = 0
        self.requests_total = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "ServingDaemon":
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._loop = asyncio.get_running_loop()
        self.service.start()
        # Shard processes boot asynchronously; don't announce the
        # listening socket until they settle so the first stats reply
        # reflects steady state, not the boot transient.
        self.service.wait_ready()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop intake, resolve every pending request
        (typed), then close client connections."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # service.stop() joins worker threads and fails the backlog with
        # typed errors; pending daemon futures resolve via done-callbacks.
        # Run it off-loop: the join can wait out a hung worker's timeout.
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.stop)
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.connections_total += 1
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {
                        "ok": False, "error": "InvalidRequest",
                        "message": f"request line exceeds "
                                   f"{MAX_LINE_BYTES} bytes"})
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                response = await self._dispatch_line(line)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    response: dict) -> None:
        writer.write(json.dumps(response).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": "InvalidRequest",
                    "message": f"not a JSON request line: {exc}"}
        if not isinstance(payload, dict):
            return {"ok": False, "error": "InvalidRequest",
                    "message": "a request must be a JSON object"}
        op = payload.get("op", "infer" if "tokens" in payload else None)
        request_id = payload.get("id")
        if op == "ping":
            return {"ok": True, "op": "ping", "protocol": PROTOCOL_VERSION}
        if op == "stats":
            return {"ok": True, "op": "stats",
                    "stats": self.service.snapshot()}
        if op == "infer":
            return await self._infer(payload, request_id)
        return {"ok": False, "error": "InvalidRequest", "id": request_id,
                "message": f"unknown op {op!r} (choose infer, ping, stats)"}

    async def _infer(self, payload: dict, request_id) -> dict:
        tokens = payload.get("tokens")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None \
                and not isinstance(deadline_ms, (int, float)):
            return {"ok": False, "error": "InvalidRequest", "id": request_id,
                    "message": "deadline_ms must be a number"}
        if not isinstance(tokens, list):
            return {"ok": False, "error": "InvalidRequest", "id": request_id,
                    "message": "tokens must be a list of token ids"}
        self.requests_total += 1
        try:
            request = self.service.submit(tokens, deadline_ms=deadline_ms)
        except Exception as exc:  # noqa: BLE001 - typed on the wire
            return _error_response(exc, request_id)
        future: "asyncio.Future" = self._loop.create_future()

        def _on_done(completed: PendingRequest,
                     loop=self._loop, fut=future) -> None:
            # Runs on the completing (worker/supervisor) thread: hop back
            # onto the event loop; the loop may already be gone on a
            # hard teardown, in which case the response is moot.
            try:
                loop.call_soon_threadsafe(_resolve_future, fut, completed)
            except RuntimeError:  # pragma: no cover - loop closed
                pass

        request.add_done_callback(_on_done)
        completed = await future
        try:
            hidden = completed.result(timeout=0)
        except Exception as exc:  # noqa: BLE001 - typed on the wire
            return _error_response(exc, request_id)
        return {
            "id": request_id,
            "ok": True,
            "shape": list(hidden.shape),
            "hidden": hidden.tolist(),
            "cached": completed.cached,
        }


def _resolve_future(future: "asyncio.Future",
                    request: PendingRequest) -> None:
    if not future.done():
        future.set_result(request)


# ---------------------------------------------------------------------- #
# blocking entry points (CLI)
# ---------------------------------------------------------------------- #
def run_daemon(service, host: str = "127.0.0.1", port: int = 0,
               announce=print) -> dict:
    """Run the daemon until SIGINT/SIGTERM; returns the final snapshot.

    Shutdown is graceful: intake stops, the backlog resolves with typed
    errors, client connections close, and the final service snapshot is
    returned for the CLI to print -- exit code 0, not a traceback.
    """
    import signal

    async def _amain() -> dict:
        daemon = ServingDaemon(service, host=host, port=port)
        await daemon.start()
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        registered = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                registered.append(signum)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass  # non-main thread / exotic platform: Ctrl-C only
        announce(f"serving daemon listening on {daemon.host}:{daemon.port} "
                 f"(protocol v{PROTOCOL_VERSION}); SIGINT/SIGTERM for "
                 "graceful shutdown")
        try:
            await stop_event.wait()
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)
            await daemon.stop()
        snapshot = service.snapshot()
        snapshot["connections_total"] = daemon.connections_total
        snapshot["daemon_requests_total"] = daemon.requests_total
        return snapshot

    return asyncio.run(_amain())


async def _smoke_client(host: str, port: int, requests) -> list:
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        ping = json.loads(await reader.readline())
        if not (ping.get("ok") and ping.get("protocol") == PROTOCOL_VERSION):
            raise AssertionError(f"bad ping response: {ping}")
        for index, tokens in enumerate(requests):
            payload = {"op": "infer", "id": f"smoke-{index}",
                       "tokens": list(tokens)}
            writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        for _ in requests:
            responses.append(json.loads(await reader.readline()))
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return responses


def daemon_smoke(service, num_requests: int = 6,
                 reference_model=None) -> dict:
    """Start the daemon, round-trip ``num_requests`` over a real socket,
    shut down cleanly; asserts wire responses are bitwise identical to
    solo in-process inference.  Returns a summary dict (used by the CI
    smoke and ``repro.cli daemon --smoke``).
    """
    import numpy as np

    from repro.serving.loadtest import synthetic_requests

    requests = synthetic_requests(num_requests, seed=23)

    async def _amain() -> dict:
        daemon = ServingDaemon(service)
        await daemon.start()
        try:
            responses = await _smoke_client(daemon.host, daemon.port,
                                            requests)
        finally:
            await daemon.stop()
        stats = responses.pop()
        assert stats.get("ok") and "stats" in stats, stats
        model = reference_model if reference_model is not None \
            else service.model
        for tokens, response in zip(requests, responses):
            if not response.get("ok"):
                raise AssertionError(f"smoke request failed: {response}")
            served = np.asarray(response["hidden"], dtype=np.float64)
            solo = model.encode_ragged([list(tokens)])[0]
            if not np.array_equal(served, solo):
                raise AssertionError(
                    "daemon response diverged from solo inference; "
                    "wire bit-transparency is broken")
        return {
            "requests": len(requests),
            "ok": sum(1 for r in responses if r.get("ok")),
            "bitwise_identical_to_solo": True,
            "completed": stats["stats"]["completed"],
            "connections_total": daemon.connections_total,
        }

    return asyncio.run(_amain())
