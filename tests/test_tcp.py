from __future__ import annotations

import logging
import socket
import threading
import time

import pytest

from artifact import Message, SetHeader
from artifact.endpoints.tcp import LineServer, frame_line, tcp_connect
from artifact.errors import FramingError

from conftest import wait_until


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_frame_line_rejects_newlines():
    assert frame_line("MOVE A") == b"MOVE A\n"
    with pytest.raises(FramingError):
        frame_line("two\nlines")


def test_connect_to_closed_port_is_refused():
    with pytest.raises(ConnectionRefusedError):
        tcp_connect("127.0.0.1", _free_port(), timeout=1.0)


def test_line_server_echo_roundtrip():
    server = LineServer(handler=lambda conn, line: conn.send_line(f"echo {line}"))
    try:
        sock = tcp_connect("127.0.0.1", server.port)
        sock.sendall(b"hello\n")
        data = b""
        while not data.endswith(b"\n"):
            data += sock.recv(64)
        assert data == b"echo hello\n"
        sock.close()
    finally:
        server.stop()


def test_producer_writes_exact_frame(env):
    received = []
    server = LineServer(handler=lambda conn, line: received.append(line))
    try:
        route = env.engine.define_route(
            "mq:tcp/out", [], f"tcp:127.0.0.1:{server.port}?role=client"
        )
        env.engine.start_route(route)
        env.broker.publish("tcp/out", Message(body=["MOVE A"]))
        assert wait_until(lambda: received == ["MOVE A"])
    finally:
        server.stop()


def test_consumer_surfaces_lines_with_remote_header(env):
    server = LineServer()
    try:
        route = env.engine.define_route(
            f"tcp:127.0.0.1:{server.port}?role=client", [], "mq:tcp/in"
        )
        tap = env.broker.subscribe("tcp/in")
        env.engine.start_route(route)
        assert server.wait_for_connection(5.0)
        server.broadcast("POS 4")
        message = tap.poll(5.0)
        assert message is not None
        assert message.body == "POS 4"
        assert message.headers["tcp.remote"].startswith("127.0.0.1:")
    finally:
        server.stop()


def test_client_reconnects_with_backoff_and_resumes(env, caplog):
    responses = []
    server = LineServer(handler=lambda conn, line: responses.append(line))
    uri = f"tcp:127.0.0.1:{server.port}?role=client"
    try:
        route = env.engine.define_route("mq:tcp/cmds", [], uri)
        env.engine.start_route(route)
        env.broker.publish("tcp/cmds", Message(body=["first"]))
        assert wait_until(lambda: responses == ["first"])

        with caplog.at_level(logging.WARNING, logger="artifact.endpoints.tcp"):
            server.drop_connections()
            time.sleep(0.05)
            env.broker.publish("tcp/cmds", Message(body=["second"]))
            assert wait_until(lambda: responses == ["first", "second"], timeout=10)
        assert any("reconnect" in record.message for record in caplog.records)
    finally:
        server.stop()


def test_random_ascii_lines_survive_roundtrip(env):
    import random
    import string

    rng = random.Random(7)
    lines = [
        "".join(rng.choice(string.printable.replace("\n", "").replace("\r", "").replace("\x0b", "").replace("\x0c", "")) for _ in range(rng.randint(1, 40)))
        for _ in range(40)
    ]
    received = []
    server = LineServer(handler=lambda conn, line: received.append(line))
    try:
        route = env.engine.define_route(
            "mq:tcp/fuzz", [], f"tcp:127.0.0.1:{server.port}?role=client"
        )
        env.engine.start_route(route)
        for line in lines:
            env.broker.publish("tcp/fuzz", Message(body=[line]))
        assert wait_until(lambda: len(received) == len(lines), timeout=10)
        assert received == lines
    finally:
        server.stop()


def test_server_role_endpoints(env):
    port = _free_port()
    inbound = env.engine.define_route(f"tcp:127.0.0.1:{port}?role=server", [], "mq:srv/in")
    outbound = env.engine.define_route(
        "mq:srv/out", [SetHeader("via", "server")], f"tcp:127.0.0.1:{port}?role=server"
    )
    tap = env.broker.subscribe("srv/in")
    env.engine.start_route(inbound)
    env.engine.start_route(outbound)

    sock = tcp_connect("127.0.0.1", port)
    try:
        sock.sendall(b"ping\n")
        message = tap.poll(5.0)
        assert message is not None and message.body == "ping"

        env.broker.publish("srv/out", Message(body=["pong"]))
        data = b""
        sock.settimeout(5.0)
        while not data.endswith(b"\n"):
            data += sock.recv(64)
        assert data == b"pong\n"
    finally:
        sock.close()


def _accept_threads(server: LineServer) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == f"{server.name}-accept"]


@pytest.mark.parametrize("with_peer", [False, True])
def test_no_accept_thread_outlives_stop(with_peer):
    server = LineServer(name="stop-probe")
    peer = None
    try:
        if with_peer:
            peer = tcp_connect("127.0.0.1", server.port)
            assert server.wait_for_connection(5.0)
        assert len(_accept_threads(server)) == 1
    finally:
        server.stop()
        if peer is not None:
            peer.close()
    assert _accept_threads(server) == []
    assert server.connections() == []
