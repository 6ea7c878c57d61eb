"""Stdlib-only asyncio HTTP front end for the sweep fabric.

One small, dependency-free server (``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 exchange -- no ``http.server`` threads, no
frameworks) exposing the broker:

====================================  ==================================
``GET  /healthz``                     liveness + job/unit gauges
``GET  /metrics``                     broker ``fabric.*`` counters
``POST /jobs``                        submit ``{"spec": <to_wire>}``;
                                      returns the job descriptor (a warm
                                      grid is already ``state: done``)
``GET  /jobs/<id>``                   job status
``GET  /jobs/<id>/events``            long-poll the event log
                                      (``?since=N&timeout=T``)
``GET  /jobs/<id>/result``            full results (``?timeout=T``;
                                      ``{"pending": true}`` if not done)
====================================  ==================================

Every broker call is synchronous (one lock), so the handlers push them
onto the default executor and the event loop itself never blocks --
long-polls from many clients interleave freely.  A job's progress has
one route, the ``events`` long-poll: ``SweepClient``, ``submit`` and
the fabric smoke all follow a job through it.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..experiments.spec import SweepSpec
from .broker import Broker
from .wire import FabricError

__all__ = ["FabricService", "start_in_thread"]

MAX_BODY_BYTES = 4 * 1024 * 1024
MAX_POLL_SECONDS = 60.0
_JSON_HEADERS = "Content-Type: application/json\r\n"


class FabricService:
    """HTTP facade over one :class:`~repro.fabric.broker.Broker`."""

    def __init__(self, broker: Broker, host: str = "127.0.0.1",
                 port: int = 0):
        self.broker = broker
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except FabricError as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
                return
            if request is not None:
                await self._dispatch(writer, *request)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """``(method, target, body)``, or ``None`` on a connection closed
        before a request line; a request no handler can take raises
        :class:`FabricError` (a 400)."""
        async def readline() -> bytes:
            try:
                return await reader.readline()
            except ValueError:      # past the stream's line limit
                raise FabricError("request line or header too long") \
                    from None

        line = await readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError:
            raise FabricError("malformed request line") from None
        length = 0
        while True:
            header = await readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise FabricError(
                        "Content-Length is not an integer") from None
        if length < 0:
            raise FabricError("negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise FabricError(f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, body

    @staticmethod
    async def _send_json(writer: asyncio.StreamWriter, status: int,
                         payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n{_JSON_HEADERS}"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii") + body)
        await writer.drain()

    async def _call(self, fn: Callable, *args):
        """Run a blocking broker call off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        target: str, body: bytes) -> None:
        split = urlsplit(target)
        path = [part for part in split.path.split("/") if part]
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        try:
            await self._route(writer, method, path, query, body)
        except FabricError as exc:
            status = 404 if "unknown job" in str(exc) else 400
            await self._send_json(writer, status, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            await self._send_json(
                writer, 400, {"error": f"{type(exc).__name__}: {exc}"})

    async def _route(self, writer, method: str, path, query,
                     body: bytes) -> None:
        if path == ["healthz"] and method == "GET":
            metrics = await self._call(self.broker.metrics)
            await self._send_json(writer, 200, {
                "ok": True, "jobs": metrics["jobs"],
                "units": metrics["units"],
                "workers": sorted(metrics["workers"])})
        elif path == ["metrics"] and method == "GET":
            await self._send_json(
                writer, 200, await self._call(self.broker.metrics))
        elif path == ["jobs"] and method == "POST":
            handle = await self._call(self.broker.submit,
                                      self._parse_spec(body))
            await self._send_json(writer, 200, handle)
        elif len(path) == 2 and path[0] == "jobs" and method == "GET":
            await self._send_json(
                writer, 200, await self._call(self.broker.status,
                                              path[1]))
        elif (len(path) == 3 and path[0] == "jobs"
                and path[2] == "events" and method == "GET"):
            since = self._since(query)
            timeout = self._poll_budget(query)
            events, nxt = await self._call(self.broker.events_since,
                                           path[1], since, timeout)
            await self._send_json(writer, 200,
                                  {"events": events, "next": nxt})
        elif (len(path) == 3 and path[0] == "jobs"
                and path[2] == "result" and method == "GET"):
            timeout = self._poll_budget(query)
            payload = await self._call(self.broker.result, path[1],
                                       timeout)
            if payload is None:
                status = await self._call(self.broker.status, path[1])
                status["pending"] = True
                await self._send_json(writer, 200, status)
            else:
                await self._send_json(writer, 200, payload)
        else:
            await self._send_json(
                writer, 405 if path else 404,
                {"error": f"no route for {method} /{'/'.join(path)}"})

    @staticmethod
    def _parse_spec(body: bytes) -> SweepSpec:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise FabricError("request body is not JSON") from None
        if not isinstance(payload, dict) or "spec" not in payload:
            raise FabricError('expected a {"spec": {...}} body')
        return SweepSpec.from_wire(payload["spec"])

    @staticmethod
    def _since(query) -> int:
        """The event index a poll starts at (a negative one would slice
        the log's tail and rewind the client's cursor)."""
        since = int(query.get("since", 0))
        if since < 0:
            raise FabricError(f"since must be >= 0, got {since}")
        return since

    @staticmethod
    def _poll_budget(query) -> float:
        return max(0.0, min(float(query.get("timeout", 10.0)),
                            MAX_POLL_SECONDS))


def start_in_thread(broker: Broker, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, Callable[[], None]]:
    """Run a :class:`FabricService` on a daemon thread; returns its URL
    and a stop callable.  The test/CI entry point -- the ``serve`` CLI
    uses :meth:`FabricService.serve_forever` on the main thread."""
    service = FabricService(broker, host, port)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list = []

    async def _main() -> None:
        try:
            await service.start()
        except Exception as exc:  # noqa: BLE001 - surface to caller
            failure.append(exc)
            return
        finally:
            started.set()
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            await service.stop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="fabric-service",
                              daemon=True)
    thread.start()
    started.wait(timeout=10.0)
    if failure:
        raise failure[0]

    def stop() -> None:
        def _cancel() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()
        if loop.is_running():
            loop.call_soon_threadsafe(_cancel)
        thread.join(timeout=5.0)

    return service.url, stop
