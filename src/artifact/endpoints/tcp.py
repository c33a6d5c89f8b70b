"""Newline-framed TCP endpoints.

Frames are UTF-8 text lines terminated by LF, no embedded newlines. The
"tcp:" scheme addresses `tcp:<host>:<port>?role=client|server`. A client
endpoint keeps one connection per (host, port), shared between the consumer
and producer side of routes, and reconnects with exponential backoff capped
at 5 seconds. A server endpoint accepts any number of peers; its consumer
surfaces lines from all of them, its producer broadcasts.
"""
from __future__ import annotations

import logging
import socket
import threading
import time

from ..errors import ConnectionClosedError, FramingError
from ..messages import Message
from ..routing import Component, Consumer, MessageQueue, Producer, Route
from ..uri import EndpointUri
from ..values import render_value

log = logging.getLogger(__name__)

BACKOFF_INITIAL_S = 0.05
BACKOFF_CAP_S = 5.0
ACCEPT_JOIN_S = 5.0

_WAKE = object()

REMOTE_HEADER = "tcp.remote"


def frame_line(text: str) -> bytes:
    if "\n" in text or "\r" in text:
        raise FramingError(f"payload contains a newline: {text!r}")
    return text.encode("utf-8") + b"\n"


def tcp_connect(host: str, port: int, timeout: float = 5.0) -> socket.socket:
    """One-shot connect; raises ConnectionRefusedError like the socket API."""
    return socket.create_connection((host, port), timeout=timeout)


def shutdown_socket(sock: socket.socket) -> None:
    """Tear a connection down so peers and blocked reader threads wake up.

    A bare close() does not interrupt a recv() another thread is blocked in,
    and no FIN reaches the peer until that syscall returns."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _SocketLineReader:
    """Reads LF-terminated lines from a socket into a callback."""

    def __init__(self, sock: socket.socket, on_line, on_close, name: str):
        self._sock = sock
        self._on_line = on_line
        self._on_close = on_close
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        buffer = b""
        try:
            while True:
                chunk = self._sock.recv(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    raw, buffer = buffer.split(b"\n", 1)
                    self._on_line(raw.rstrip(b"\r").decode("utf-8", errors="replace"))
        except OSError:
            pass
        finally:
            self._on_close()


class ServerConnection:
    def __init__(self, server: "LineServer", sock: socket.socket, peer):
        self._server = server
        self._sock = sock
        self.peer = f"{peer[0]}:{peer[1]}"
        self._send_lock = threading.Lock()
        self.closed = threading.Event()
        self._reader = _SocketLineReader(
            sock, self._on_line, self._on_close, f"tcp-server-conn-{self.peer}"
        )

    def _on_line(self, line: str) -> None:
        self._server._handle_line(self, line)

    def _on_close(self) -> None:
        self.close()

    def send_line(self, line: str) -> None:
        data = frame_line(line)
        with self._send_lock:
            try:
                self._sock.sendall(data)
            except OSError as exc:
                self.close()
                raise ConnectionClosedError(self.peer) from exc

    def close(self) -> None:
        if not self.closed.is_set():
            self.closed.set()
            shutdown_socket(self._sock)
            self._server._forget(self)


class LineServer:
    """TCP listener delivering each received line to `handler(conn, line)`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, handler=None, name: str = "tcp"):
        self.handler = handler
        self.name = name
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()
        self._lock = threading.Lock()
        self._conns: list[ServerConnection] = []
        self._conn_event = threading.Condition(self._lock)
        self._stopped = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()
        log.info("%s listening on %s:%d", name, self.host, self.port)

    def _accept_loop(self) -> None:
        while not self._stopped:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return
            if self._stopped:
                shutdown_socket(sock)
                return
            conn = ServerConnection(self, sock, peer)
            with self._lock:
                self._conns.append(conn)
                self._conn_event.notify_all()

    def _handle_line(self, conn: ServerConnection, line: str) -> None:
        if self.handler is not None:
            try:
                self.handler(conn, line)
            except Exception:
                log.exception("%s handler failed for %r", self.name, line)

    def _forget(self, conn: ServerConnection) -> None:
        with self._lock:
            if conn in self._conns:
                self._conns.remove(conn)

    def connections(self) -> list[ServerConnection]:
        with self._lock:
            return list(self._conns)

    def wait_for_connection(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._lock:
            while not self._conns:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopped:
                    return False
                self._conn_event.wait(remaining)
            return True

    def broadcast(self, line: str) -> int:
        sent = 0
        for conn in self.connections():
            try:
                conn.send_line(line)
                sent += 1
            except ConnectionClosedError:
                pass
        return sent

    def drop_connections(self) -> int:
        """Close every current connection (used for fault injection)."""
        conns = self.connections()
        for conn in conns:
            conn.close()
        return len(conns)

    def stop(self) -> None:
        """Stop accepting, wait for the accept thread, then drop every peer."""
        self._stopped = True
        # close() alone leaves the accept thread blocked in accept() for good.
        shutdown_socket(self._listener)
        self._accept_thread.join(ACCEPT_JOIN_S)
        if self._accept_thread.is_alive():
            log.warning("%s accept thread did not exit within %.1fs", self.name, ACCEPT_JOIN_S)
        self.drop_connections()


class _ClientHub:
    """One maintained client connection; reconnects with capped backoff."""

    def __init__(self, host: str, port: int, inbox_capacity: int = 1024):
        self.host = host
        self.port = port
        self.inbox: MessageQueue = MessageQueue(inbox_capacity, f"tcp:{host}:{port}")
        self._lock = threading.Lock()
        self._connected = threading.Condition(self._lock)
        self._sock: socket.socket | None = None
        self._closed = False
        self.refs = 0
        self._thread = threading.Thread(
            target=self._connection_loop, name=f"tcp-client-{host}:{port}", daemon=True
        )
        self._thread.start()

    def _connection_loop(self) -> None:
        backoff = BACKOFF_INITIAL_S
        while not self._closed:
            try:
                sock = socket.create_connection((self.host, self.port), timeout=5.0)
            except OSError as exc:
                log.warning(
                    "tcp %s:%d connect failed (%s); retrying in %.2fs",
                    self.host, self.port, exc, backoff,
                )
                time.sleep(backoff)
                backoff = min(backoff * 2, BACKOFF_CAP_S)
                continue
            backoff = BACKOFF_INITIAL_S
            peer = f"{self.host}:{self.port}"
            with self._lock:
                self._sock = sock
                self._connected.notify_all()
            log.info("tcp %s connected", peer)
            buffer = b""
            try:
                while not self._closed:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    buffer += chunk
                    while b"\n" in buffer:
                        raw, buffer = buffer.split(b"\n", 1)
                        line = raw.rstrip(b"\r").decode("utf-8", errors="replace")
                        self.inbox.put(
                            Message(headers={REMOTE_HEADER: peer}, body=[line])
                        )
            except OSError:
                pass
            with self._lock:
                self._sock = None
            shutdown_socket(sock)
            if not self._closed:
                log.warning("tcp %s disconnected; reconnecting", peer)

    def send_line(self, line: str, timeout: float = 30.0) -> None:
        """Send one frame, waiting through reconnects up to `timeout`."""
        data = frame_line(line)
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                while self._sock is None:
                    if self._closed:
                        raise ConnectionClosedError(f"{self.host}:{self.port}")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ConnectionClosedError(
                            f"{self.host}:{self.port} unavailable for {timeout:.1f}s"
                        )
                    self._connected.wait(remaining)
                sock = self._sock
            try:
                sock.sendall(data)
                return
            except OSError:
                with self._lock:
                    if self._sock is sock:
                        self._sock = None
                shutdown_socket(sock)
                if time.monotonic() >= deadline:
                    raise ConnectionClosedError(f"{self.host}:{self.port}") from None

    def close(self) -> None:
        self._closed = True
        with self._lock:
            sock = self._sock
            self._sock = None
            self._connected.notify_all()
        if sock is not None:
            shutdown_socket(sock)
        self.inbox.close()


class _ServerHub:
    """Server-role endpoint state: a LineServer feeding an inbox."""

    def __init__(self, host: str, port: int):
        self.inbox: MessageQueue = MessageQueue(1024, f"tcp-server:{host}:{port}")
        self.server = LineServer(host, port, handler=self._on_line, name=f"tcp-server:{port}")
        self.refs = 0

    def _on_line(self, conn: ServerConnection, line: str) -> None:
        self.inbox.put(Message(headers={REMOTE_HEADER: conn.peer}, body=[line]))

    def close(self) -> None:
        self.server.stop()
        self.inbox.close()


class _TcpConsumer(Consumer):
    def __init__(self, component: "TcpComponent", key, inbox: MessageQueue):
        self._component = component
        self._key = key
        self._inbox = inbox

    def poll(self, timeout: float) -> Message | None:
        item = self._inbox.get(timeout=timeout)
        return item if isinstance(item, Message) else None

    def wake(self) -> None:
        self._inbox.force_put(_WAKE)

    def close(self) -> None:
        self._component._release(self._key)


class _TcpClientProducer(Producer):
    def __init__(self, component: "TcpComponent", key, hub: _ClientHub):
        self._component = component
        self._key = key
        self._hub = hub

    def send(self, message: Message) -> None:
        self._hub.send_line(render_value(message.body))

    def close(self) -> None:
        self._component._release(self._key)


class _TcpServerProducer(Producer):
    def __init__(self, component: "TcpComponent", key, hub: _ServerHub):
        self._component = component
        self._key = key
        self._hub = hub

    def send(self, message: Message) -> None:
        line = render_value(message.body)
        if not self._hub.server.connections():
            if not self._hub.server.wait_for_connection(timeout=10.0):
                raise ConnectionClosedError("no connected peer to send to")
        if self._hub.server.broadcast(line) == 0:
            raise ConnectionClosedError("no connected peer accepted the frame")

    def close(self) -> None:
        self._component._release(self._key)


class TcpComponent(Component):
    """Endpoint component for `tcp:<host>:<port>?role=client|server`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._hubs: dict[tuple, object] = {}

    @staticmethod
    def _address(uri: EndpointUri) -> tuple[str, int]:
        host, sep, port = uri.path.rpartition(":")
        if not sep or not host:
            raise ValueError(f"tcp endpoint needs host:port, got {uri.path!r}")
        try:
            return host, int(port)
        except ValueError:
            raise ValueError(f"tcp port must be an integer, got {port!r}") from None

    def validate(self, uri: EndpointUri, side: str) -> None:
        self._address(uri)
        role = uri.param("role", "client")
        if role not in ("client", "server"):
            raise ValueError(f"tcp role must be client or server, got {role!r}")

    def _hub_for(self, uri: EndpointUri):
        host, port = self._address(uri)
        role = uri.param("role", "client")
        key = (host, port, role)
        with self._lock:
            hub = self._hubs.get(key)
            if hub is None:
                hub = _ClientHub(host, port) if role == "client" else _ServerHub(host, port)
                self._hubs[key] = hub
            hub.refs += 1
            return key, hub

    def _release(self, key) -> None:
        with self._lock:
            hub = self._hubs.get(key)
            if hub is None:
                return
            hub.refs -= 1
            if hub.refs <= 0:
                del self._hubs[key]
            else:
                hub = None
        if hub is not None:
            hub.close()

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        key, hub = self._hub_for(uri)
        return _TcpConsumer(self, key, hub.inbox)

    def create_producer(self, uri: EndpointUri, route: Route) -> Producer:
        key, hub = self._hub_for(uri)
        if isinstance(hub, _ClientHub):
            return _TcpClientProducer(self, key, hub)
        return _TcpServerProducer(self, key, hub)
