from __future__ import annotations

import logging
import socket
import struct
import sys
import threading
import time

import pytest

from artifact import Message, SetHeader, loop, parse_endpoint_uri
from artifact.bench.industry import RobotSimulator
from artifact.bench.scenarios import BenchEnv
from artifact.endpoints import VarStoreServer, tcp
from artifact.endpoints.tcp import LineConnection, LineServer, TcpComponent, frame_line, tcp_connect
from artifact.errors import ConnectionClosedError, FramingError

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


def test_a_connection_is_listed_before_its_first_line_is_handled():
    listed: list = []
    server = LineServer(handler=lambda conn, line: listed.append(conn in server._conns))
    try:
        with server._lock:  # hold registration up; no line may be handled meanwhile
            sock = tcp_connect("127.0.0.1", server.port)
            sock.sendall(b"hi\n")
            time.sleep(0.1)
        assert wait_until(lambda: listed == [True])
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


def test_a_send_on_the_loop_while_the_hub_is_down_is_held_and_sent_after_the_reconnect():
    received = []
    server = LineServer(handler=lambda conn, line: received.append(line))
    component = TcpComponent()
    key, hub = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{server.port}?role=client"))
    returned = []

    def on_line():  # on the shared loop, which reads the hub and runs a tcp: route
        hub._conn.close()  # the connection drops under it
        start = time.monotonic()
        hub.send_line("reply")
        returned.append(time.monotonic() - start)

    hub.inbox.add_listener(on_line)
    try:
        assert server.wait_for_connection(5.0)
        server.broadcast("ping")
        # only this loop could reconnect, so the send does not wait for it
        assert wait_until(lambda: returned, timeout=5.0)
        assert returned[0] < 0.1
        assert wait_until(lambda: received == ["reply"], timeout=10.0)
    finally:
        component._release(key)
        server.stop()


def test_a_send_before_the_first_connect_arrives_after_it():
    port = _free_port()
    component = TcpComponent()
    key, hub = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{port}?role=client"))
    received = []
    server = None
    try:
        started = time.monotonic()
        for line in ("a", "b", "c"):
            hub.send_line(line)  # nothing listens yet
        assert time.monotonic() - started < 0.1
        server = LineServer(port=port, handler=lambda conn, line: received.append(line))
        assert wait_until(lambda: received == ["a", "b", "c"], timeout=10.0)
        hub.send_line("d")
        assert wait_until(lambda: received == ["a", "b", "c", "d"])
    finally:
        component._release(key)
        if server is not None:
            server.stop()


def test_sends_while_the_server_restarts_arrive_in_order_and_exactly_once():
    received = []
    server = LineServer(handler=lambda conn, line: received.append(line))
    port = server.port
    component = TcpComponent()
    key, hub = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{port}?role=client"))
    try:
        hub.send_line("before")
        assert wait_until(lambda: received == ["before"])
        server.stop()
        assert wait_until(lambda: hub._conn is None)  # the hub saw it go
        lines = [f"held {i}" for i in range(20)]
        for line in lines:
            hub.send_line(line)
        server = LineServer(port=port, handler=lambda conn, line: received.append(line))
        hub.send_line("after")
        assert wait_until(lambda: len(received) == 22, timeout=10.0)
        time.sleep(0.1)  # time for a frame sent twice to show
        assert received == ["before", *lines, "after"]
        assert hub.dropped == 0
    finally:
        component._release(key)
        server.stop()


def test_a_hub_down_past_the_deadline_drops_its_held_frames_and_holds_up_no_other(monkeypatch):
    monkeypatch.setattr(tcp, "ENQUEUE_TIMEOUT_S", 0.2)
    down_port = _free_port()
    echo = LineServer(handler=lambda conn, line: conn.send_line(f"echo {line}"))
    component = TcpComponent()
    down_key, down = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{down_port}?role=client"))
    up_key, up = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{echo.port}?role=client"))
    late = None
    received = []
    try:
        assert echo.wait_for_connection(5.0)
        for i in range(3):
            down.send_line(f"stale {i}")
        slowest = 0.0
        deadline = time.monotonic() + 5.0
        while down.dropped < 3 and time.monotonic() < deadline:
            before = time.monotonic()
            up.send_line("ping")
            message = up.inbox.get(timeout=5.0)
            assert message is not None and message.body == ["echo ping"]
            slowest = max(slowest, time.monotonic() - before)
            time.sleep(0.01)
        assert down.dropped == 3
        assert slowest < 0.3
        # The dropped frames are gone: a server that comes later gets only
        # new ones, held long enough for the reconnect.
        monkeypatch.setattr(tcp, "ENQUEUE_TIMEOUT_S", 10.0)
        late = LineServer(port=down_port, handler=lambda conn, line: received.append(line))
        down.send_line("fresh")
        assert wait_until(lambda: received == ["fresh"], timeout=10.0)
    finally:
        component._release(down_key)
        component._release(up_key)
        echo.stop()
        if late is not None:
            late.stop()


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


def _shared_loops() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "artifact-loop"]


@pytest.mark.parametrize("with_peer", [False, True])
def test_no_loop_thread_outlives_stop(with_peer):
    refs = loop.shared_loop._refs
    server = LineServer(name="stop-probe")
    peer = None
    try:
        assert loop.shared_loop._refs == refs + 1
        if with_peer:
            peer = tcp_connect("127.0.0.1", server.port)
            assert server.wait_for_connection(5.0)
        assert len(_shared_loops()) == 1
    finally:
        server.stop()
        if peer is not None:
            peer.close()
    assert loop.shared_loop._refs == refs
    assert _shared_loops() == []  # the server was the loop's last user
    assert server.connections() == []


def test_servers_of_every_kind_run_on_the_one_loop_and_it_ends_with_the_last():
    before = set(threading.enumerate())
    env = BenchEnv()
    store = VarStoreServer()
    robot = RobotSimulator()
    peers = []
    try:
        ports = [_free_port() for _ in range(8)]
        for port in ports:
            env.engine.start_route(
                env.engine.define_route(f"tcp:127.0.0.1:{port}?role=server", [], "mq:servers"))
        tap = env.broker.subscribe("servers")
        peers = [tcp_connect("127.0.0.1", port) for port in [*ports, store.port, robot.port]]
        for i, peer in enumerate(peers[:8]):
            peer.sendall(b"line %d\n" % i)
        got = [tap.poll(5.0) for _ in ports]
        assert sorted(m.body if m else None for m in got) == [f"line {i}" for i in range(8)]
        for peer, request, reply in ((peers[8], b"WRITE x 1\n", b"OK\n"),
                                     (peers[9], b"MOVE a\n", b"AT a\n")):
            peer.sendall(request)
            peer.settimeout(5.0)
            assert peer.recv(64) == reply
        assert [t.name for t in threading.enumerate() if t not in before] == ["artifact-loop"]
    finally:
        for peer in peers:
            peer.close()
        env.close()
        store.stop()
        robot.stop()
    assert [t.name for t in threading.enumerate() if t not in before] == []


def test_stopping_one_server_leaves_another_servers_peers_served():
    def echo(conn, line):
        conn.send_line(f"echo {line}")

    first, second = LineServer(handler=echo), LineServer(handler=echo)
    gone = tcp_connect("127.0.0.1", first.port)
    kept = tcp_connect("127.0.0.1", second.port)
    try:
        assert wait_until(lambda: first.connections() and second.connections())
        first.stop()
        with pytest.raises(ConnectionRefusedError):  # its listener is closed
            tcp_connect("127.0.0.1", first.port, timeout=1.0)
        gone.settimeout(5.0)
        assert gone.recv(64) == b""  # and so is its peer
        kept.sendall(b"still here\n")
        kept.settimeout(5.0)
        assert kept.recv(64) == b"echo still here\n"
        assert len(second.connections()) == 1
    finally:
        gone.close()
        kept.close()
        second.stop()


def test_a_send_on_the_loop_to_a_server_endpoint_with_no_peer_dead_letters_at_once(env):
    echo = LineServer(handler=lambda conn, line: conn.send_line(f"echo {line}"))
    inbound, outbound = _free_port(), _free_port()
    # Runs on the loop that reads the inbound line; nobody connects outbound.
    route = env.engine.define_route(f"tcp:127.0.0.1:{inbound}?role=server", [],
                                    f"tcp:127.0.0.1:{outbound}?role=server")
    env.engine.start_route(route)
    sender = tcp_connect("127.0.0.1", inbound)
    other = tcp_connect("127.0.0.1", echo.port)
    try:
        started = time.monotonic()
        sender.sendall(b"to nobody\n")
        other.sendall(b"hi\n")
        other.settimeout(5.0)
        assert other.recv(64) == b"echo hi\n"
        assert time.monotonic() - started < 0.5
        assert wait_until(lambda: len(route.dead_letters) == 1, timeout=0.5)
        assert time.monotonic() - started < 0.5
        assert "no connected peer" in route.dead_letters.entries()[0].reason
    finally:
        sender.close()
        other.close()
        echo.stop()


def test_stop_with_live_peers_closes_them_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(loop, "ENQUEUE_TIMEOUT_S", 30.0)  # no deadline during the test
    server = LineServer(name="stop-peers", handler=lambda conn, line: conn.send_line(f"echo {line}"))
    peers = [tcp_connect("127.0.0.1", server.port) for _ in range(3)]
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.connect(("127.0.0.1", server.port))  # reads nothing
    outcome = []
    try:
        assert wait_until(lambda: len(server.connections()) == 4)
        for peer in peers:
            peer.sendall(b"hi\n")
            assert peer.recv(64) == b"echo hi\n"
        conn = next(c for c in server.connections() if c.peer.endswith(f":{stalled.getsockname()[1]}"))

        def send_until_it_waits():  # a sender off the loop, left waiting by the stalled peer
            try:
                while True:
                    conn.send_line("x" * 65536)
            except ConnectionClosedError:
                outcome.append("closed")

        sender = threading.Thread(target=send_until_it_waits, daemon=True)
        sender.start()
        assert wait_until(lambda: conn._out)  # its output waits for the socket
        server.stop()
        sender.join(5.0)
        assert outcome == ["closed"]
        assert _shared_loops() == []
        assert server.connections() == []
        for peer in peers:
            peer.settimeout(5.0)
            assert peer.recv(64) == b""  # each peer saw its connection end
    finally:
        for peer in peers:
            peer.close()
        stalled.close()


def test_frames_from_the_loop_and_other_threads_arrive_whole_and_in_order():
    server = LineServer(handler=lambda conn, line: conn.send_line(f"loop {line} " + "." * 500))
    peer = socket.socket()
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    peer.connect(("127.0.0.1", server.port))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert server.wait_for_connection(5.0)
        conn = server.connections()[0]
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)  # so output waits

        def send(tag):
            for i in range(100):
                conn.send_line(f"{tag} {i} " + "." * 500)

        senders = [threading.Thread(target=send, args=(f"t{k}",), daemon=True) for k in range(4)]
        for t in senders:
            t.start()
        peer.sendall(b"".join(b"%d\n" % i for i in range(100)))  # the loop answers each
        got: dict[str, list[int]] = {}
        data = b""
        peer.settimeout(10.0)
        while sum(map(len, got.values())) < 500:
            data += peer.recv(65536)
            *lines, data = data.split(b"\n")
            for line in lines:
                tag, i, pad = line.decode().split(" ")
                assert pad == "." * 500
                got.setdefault(tag, []).append(int(i))
        for t in senders:
            t.join(5.0)
        assert not any(t.is_alive() for t in senders)
        assert got == {tag: list(range(100)) for tag in ("loop", "t0", "t1", "t2", "t3")}
    finally:
        sys.setswitchinterval(switch)
        peer.close()
        server.stop()


def test_a_peer_that_drops_mid_frame_loses_its_partial_line_and_others_are_served():
    received = []

    def echo(conn, line):
        received.append(line)
        conn.send_line(f"echo {line}")

    server = LineServer(handler=echo)
    dropping = tcp_connect("127.0.0.1", server.port)
    other = tcp_connect("127.0.0.1", server.port)
    try:
        assert wait_until(lambda: len(server.connections()) == 2)
        dropping.sendall(b"whole\npart of a li")
        assert wait_until(lambda: received == ["whole"])
        dropping.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        dropping.close()  # a reset, mid-frame
        assert wait_until(lambda: len(server.connections()) == 1)
        other.sendall(b"still here\n")
        data = b""
        while not data.endswith(b"\n"):
            data += other.recv(64)
        assert data == b"echo still here\n"
        assert received == ["whole", "still here"]
    finally:
        other.close()
        server.stop()


def test_a_client_reconnects_after_its_server_restarts_on_the_same_port(env):
    received = []
    server = LineServer(handler=lambda conn, line: received.append(line))
    port = server.port
    try:
        route = env.engine.define_route("mq:tcp/restart", [], f"tcp:127.0.0.1:{port}?role=client")
        env.engine.start_route(route)
        env.broker.publish("tcp/restart", Message(body=["before"]))
        assert wait_until(lambda: received == ["before"])
        server.stop()
        server = LineServer(port=port, handler=lambda conn, line: received.append(line))
        env.broker.publish("tcp/restart", Message(body=["after"]))
        assert wait_until(lambda: received == ["before", "after"], timeout=10)
    finally:
        server.stop()


class _ScriptedSocket:
    """Stands in for a socket: recv returns (or raises) each scripted chunk
    in turn, then reports the peer closed."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def fileno(self):
        return -1

    def recv(self, size):
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if isinstance(chunk, BaseException):
            raise chunk
        return chunk

    def shutdown(self, how):
        pass

    def close(self):
        pass


@pytest.mark.parametrize("chunks, lines", [
    pytest.param((b"MOVE sta", b"tion-1\nAT", b" x\n"), ["MOVE station-1", "AT x"], id="split-across-chunks"),
    pytest.param((b"".join(b"L%d\n" % i for i in range(100)),), [f"L{i}" for i in range(100)], id="100-lines-in-one-chunk"),
    pytest.param((b"a\r\nb\r\n",), ["a", "b"], id="crlf"),
    pytest.param(("caf\u00e9\n".encode()[:4], "caf\u00e9\n".encode()[4:]), ["caf\u00e9"], id="utf8-split-across-chunks"),
    pytest.param((b"ok\xff\xfe\n",), ["ok\ufffd\ufffd"], id="invalid-utf8-replaced"),
    pytest.param((b"whole\npart",), ["whole"], id="partial-line-at-close-discarded"),
    pytest.param((b"be", BlockingIOError(), b"fore\n"), ["before"], id="recv-would-block-is-a-silence"),
])
def test_the_framer(chunks, lines):
    """Each chunk through `receive`, the read a loop makes on each event."""
    got = []
    conn = LineConnection(_ScriptedSocket(*chunks), "peer", None, got.append)
    for _ in range(len(chunks)):
        assert conn.receive()
    assert not conn.receive()  # the peer closed: the loop closes the connection
    assert got == lines


def test_a_line_handler_that_raises_is_logged_and_reading_goes_on(caplog):
    got = []

    def on_line(line):
        if line == "bad":
            raise ValueError("boom")
        got.append(line)

    conn = LineConnection(_ScriptedSocket(b"bad\ngood\n"), "peer", None, on_line)
    with caplog.at_level(logging.ERROR, logger="artifact.endpoints.tcp"):
        assert conn.receive()
    assert got == ["good"]
    assert any("'bad'" in record.getMessage() for record in caplog.records)


def test_a_closed_client_hub_leaves_no_thread_behind(monkeypatch, caplog):
    monkeypatch.setattr(tcp, "BACKOFF_INITIAL_S", 2.0)  # a long wait after a refused connect
    component = TcpComponent()
    uri = parse_endpoint_uri(f"tcp:127.0.0.1:{_free_port()}?role=client")
    with caplog.at_level(logging.WARNING, logger="artifact.endpoints.tcp"):
        key, hub = component._hub_for(uri)
        assert wait_until(lambda: any("retrying in 2.00s" in r.getMessage() for r in caplog.records))
    loops = _shared_loops()
    assert len(loops) == 1
    closed_at = time.monotonic()
    component._release(key)
    loops[0].join(max(0.0, closed_at + 0.5 - time.monotonic()))
    assert not loops[0].is_alive()


def test_a_full_source_drops_lines_and_its_reader_keeps_serving():
    server = LineServer()
    component = TcpComponent()
    key, hub = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{server.port}?role=client"))
    try:
        assert server.wait_for_connection(5.0)
        for i in range(hub.inbox.capacity + 3):  # no route takes them
            server.broadcast(f"line {i}")
        assert wait_until(lambda: hub.inbox.dropped == 3)
        while hub.inbox.try_get() is not None:
            pass
        server.broadcast("after")
        message = hub.inbox.get(timeout=5.0)
        assert message is not None and message.body == ["after"]
    finally:
        component._release(key)
        server.stop()


def test_a_full_server_source_drops_lines_at_once_and_its_peers_are_served():
    component = TcpComponent()
    key, hub = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{_free_port()}?role=server"))
    flooding = tcp_connect("127.0.0.1", hub.server.port)
    other = tcp_connect("127.0.0.1", hub.server.port)
    try:
        assert wait_until(lambda: len(hub.server.connections()) == 2)
        # No route takes them: one line more than the source holds.
        flooding.sendall(b"".join(b"line %d\n" % i for i in range(hub.inbox.capacity + 1)))
        assert wait_until(lambda: hub.inbox.dropped == 1, timeout=0.5)
        started = time.monotonic()
        assert hub.server.broadcast("to every peer") == 2
        assert time.monotonic() - started < 0.3
        other.settimeout(5.0)
        assert other.recv(64) == b"to every peer\n"
    finally:
        flooding.close()
        other.close()
        component._release(key)


def test_a_client_peer_that_stops_reading_holds_up_no_other_client_and_is_closed(monkeypatch):
    monkeypatch.setattr(loop, "ENQUEUE_TIMEOUT_S", 0.5)  # the send deadline
    stalled_server = socket.socket()
    stalled_server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled_server.bind(("127.0.0.1", 0))
    stalled_server.listen(1)  # accepts, and its peer reads nothing
    echo = LineServer(handler=lambda conn, line: conn.send_line(f"echo {line}"))
    component = TcpComponent()
    key, hub = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{echo.port}?role=client"))
    shared = loop.shared_loop.acquire()  # the loop the hub shares
    stalled = shared.connect("127.0.0.1", stalled_server.getsockname()[1], lambda line: None)
    stalled.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    outcome = []

    def send_until_closed():
        started = time.monotonic()
        try:
            while True:
                stalled.send_line("x" * 65536)
        except ConnectionClosedError:
            outcome.append(time.monotonic() - started)

    sender = threading.Thread(target=send_until_closed, daemon=True)
    try:
        assert echo.wait_for_connection(5.0)
        sender.start()
        assert wait_until(lambda: stalled._out)  # its output waits for the socket
        slowest = 0.0
        deadline = time.monotonic() + 5.0
        while not outcome and time.monotonic() < deadline:
            before = time.monotonic()
            hub.send_line("ping")
            message = hub.inbox.get(timeout=5.0)
            assert message is not None and message.body == ["echo ping"]
            slowest = max(slowest, time.monotonic() - before)
            time.sleep(0.01)
        sender.join(5.0)
        assert outcome and outcome[0] >= 0.5  # not before its output waited out the deadline
        assert stalled.closed
        assert slowest < 0.3
    finally:
        stalled.close()
        loop.shared_loop.release()
        component._release(key)
        echo.stop()
        stalled_server.close()


def test_closing_a_client_endpoint_while_its_peer_sends_drops_and_counts_the_lines(caplog):
    server = LineServer()
    component = TcpComponent()
    key, hub = component._hub_for(parse_endpoint_uri(f"tcp:127.0.0.1:{server.port}?role=client"))
    closed = []

    def close_on_first_line():  # on the loop, with the rest of the burst still to frame
        if not closed:
            closed.append(True)
            component._release(key)

    hub.inbox.add_listener(close_on_first_line)
    try:
        assert server.wait_for_connection(5.0)
        with caplog.at_level(logging.WARNING, logger="artifact"):
            burst = b"".join(frame_line(f"line {i}") for i in range(50))
            server.connections()[0].queue_frame(burst)()
            assert wait_until(lambda: hub.inbox.dropped == 49)
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in caplog.records if "is closed" in r.getMessage()] == [
            f"tcp:127.0.0.1:{server.port} is closed; dropping every item"]
    finally:
        component._release(key)
        server.stop()
