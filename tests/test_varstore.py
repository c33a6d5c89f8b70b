from __future__ import annotations

import socket
import threading
import time
from functools import partial

import pytest

from artifact import ARTIFACT_NAME_HEADER, OPERATION_NAME_HEADER, GatewayArtifact, Message, SetHeader, loop, operation
from artifact.endpoints import VarClient, VarStoreServer
from artifact.endpoints.tcp import LineServer
from artifact.errors import FramingError, UnknownVariableError, VarStoreProtocolError

from conftest import wait_until


@pytest.fixture
def store():
    server = VarStoreServer()
    yield server
    server.stop()


class _WireClient:
    """Raw socket client asserting the exact bytes of the protocol."""

    def __init__(self, server: VarStoreServer):
        self.sock = socket.create_connection((server.host, server.port), timeout=5)
        self.sock.settimeout(5)
        self.buffer = b""

    def send(self, line: str) -> None:
        self.sock.sendall(line.encode() + b"\n")

    def recv_line(self) -> bytes:
        while b"\n" not in self.buffer:
            self.buffer += self.sock.recv(256)
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line

    def close(self) -> None:
        self.sock.close()


def test_wire_protocol_is_bit_exact(store):
    wire = _WireClient(store)
    try:
        wire.send("READ counter")
        assert wire.recv_line() == b"ERR unknown-variable counter"

        wire.send("WRITE counter 5")
        assert wire.recv_line() == b"OK"

        wire.send("READ counter")
        assert wire.recv_line() == b"VALUE counter 0 5"

        wire.send("WRITE counter 6")
        assert wire.recv_line() == b"OK"
        wire.send("READ counter")
        assert wire.recv_line() == b"VALUE counter 1 6"

        wire.send("SUB counter")
        assert wire.recv_line() == b"OK"
        store.write("counter", 7)
        assert wire.recv_line() == b"VALUE counter 2 7"

        wire.send("SUB ghost")
        assert wire.recv_line() == b"ERR unknown-variable ghost"

        wire.send("NOPE")
        assert wire.recv_line() == b"ERR bad-request NOPE"
    finally:
        wire.close()


def test_client_read_write_subscribe(store):
    client = VarClient(store.host, store.port)
    try:
        with pytest.raises(UnknownVariableError):
            client.read("nosuch")
        client.write("speed", 1.5)
        assert client.read("speed") == (1.5, 0)
        client.write("speed", "fast mode")
        assert client.read("speed") == ("fast mode", 1)

        client.write("rpm", 0)
        sub = client.subscribe("rpm")
        for i in range(1, 6):
            store.write("rpm", i)
        got = [sub.poll(2.0) for _ in range(5)]
        assert got == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
    finally:
        client.close()


def test_a_client_outlives_a_silence_longer_than_its_timeout(store):
    store.write("x", 1)
    client = VarClient(store.host, store.port, timeout=0.1)
    try:
        sub = client.subscribe("x")
        time.sleep(0.3)  # no line for three timeouts
        store.write("x", 2)
        assert sub.poll(2.0) == (2, 1)
        assert client.read("x") == (2, 1)
    finally:
        client.close()


def test_subscribe_unknown_variable(store):
    client = VarClient(store.host, store.port)
    try:
        with pytest.raises(UnknownVariableError):
            client.subscribe("ghost")
    finally:
        client.close()


def test_subscription_stream_equals_write_log(store):
    client = VarClient(store.host, store.port)
    try:
        client.write("x", 0)
        sub = client.subscribe("x")
        writes = [3, 1, 4, 1, 5, 9, 2, 6]
        for value in writes:
            store.write("x", value)
        stream = [sub.poll(2.0) for _ in range(len(writes))]
        assert [value for value, _ in stream] == writes
        assert [version for _, version in stream] == list(range(1, len(writes) + 1))
    finally:
        client.close()


class _MirrorGateway(GatewayArtifact):
    @operation
    def var_changed(self, value):
        self.update_property("mirrored", value)


def test_sync_route_mirrors_variable_into_property(env, store):
    store.write("counter", 0)
    aid = env.runtime.make_artifact("main", "mirror", _MirrorGateway, [])
    gateway = env.runtime.lookup(aid)
    env.gateways.append(gateway)
    route = env.engine.define_route(
        f"vars:{store.host}:{store.port}/counter?mode=subscribe",
        [SetHeader(ARTIFACT_NAME_HEADER, "mirror"), SetHeader(OPERATION_NAME_HEADER, "var_changed")],
        "artifact:mirror",
    )
    gateway.attach_route(route, engine=env.engine)
    gateway.start_listening()

    store.write("counter", 42)
    assert wait_until(lambda: gateway.property_value("mirrored", None) == 42)
    store.write("counter", 43)
    assert wait_until(lambda: gateway.property_value("mirrored", None) == 43)


def test_read_mode_consumer_emits_on_version_change(env, store):
    store.write("level", 10)
    route = env.engine.define_route(
        f"vars:{store.host}:{store.port}/level?mode=read", [], "mq:levels"
    )
    tap = env.broker.subscribe("levels")
    env.engine.start_route(route)
    first = tap.poll(2.0)
    assert first is not None and first.body == "10"
    assert tap.poll(0.2) is None  # same version is not re-emitted
    store.write("level", 11)
    second = tap.poll(2.0)
    assert second is not None and second.body == "11"


def test_a_stalled_read_source_holds_up_no_other_route(env):
    reads = []
    stalled = LineServer(handler=lambda conn, line: reads.append(line))  # never answers
    try:
        for i in range(4):
            source = env.engine.define_route(
                f"vars:127.0.0.1:{stalled.port}/v{i}?mode=read", [], "mq:never"
            )
            env.engine.start_route(source)
        bridge = env.engine.define_route("mq:in", [], "mq:out")
        tap = env.broker.subscribe("out")
        env.engine.start_route(bridge)
        assert wait_until(lambda: len(reads) == 4)
        time.sleep(0.2)  # ten read periods, every READ unanswered
        for i in range(10):
            env.broker.publish("in", Message(body=[i]))
        got = [tap.poll(1.0) for _ in range(10)]
        assert [m.body if m else None for m in got] == [str(i) for i in range(10)]
        # one READ each, left waiting on no thread of the engine
        assert sorted(reads) == [f"READ v{i}" for i in range(4)]
        workers = [t for t in threading.enumerate() if t.name.startswith("route-worker")]
        assert len(workers) <= 1
    finally:
        env.close()
        stalled.stop()


class _LateFirstReply:
    """A line server that answers its first request after `delay` seconds,
    in order, and every later one at once."""

    def __init__(self, first: str, later, delay: float):
        self.requests: list[str] = []
        self._first, self._later, self._delay = first, later, delay
        self._held: list[str] | None = None  # later replies, while the first is due
        self.server = LineServer(handler=self._handle)

    def _handle(self, conn, line):  # on the shared loop, which must not sleep
        self.requests.append(line)
        if len(self.requests) == 1:
            self._held = []
            loop.loop_thread.reactor.call_later(self._delay, partial(self._answer_first, conn))
        elif self._held is not None:
            self._held.append(self._later(len(self.requests)))
        else:
            conn.send_line(self._later(len(self.requests)))

    def _answer_first(self, conn):
        held, self._held = self._held, None
        for reply in [self._first, *held]:
            conn.send_line(reply)


@pytest.mark.parametrize("op", ["write", "read"])
def test_a_late_reply_is_not_taken_by_the_next_request(op):
    # Each request waits 0.5 s. The first reply comes 0.75 s after its
    # request, while the second request waits: it must not take it.
    if op == "write":
        server = _LateFirstReply("ERR first-write", lambda n: "OK", 0.75)
    else:
        server = _LateFirstReply("VALUE x 0 first", lambda n: f"VALUE x {n} v{n}", 0.75)
    client = VarClient("127.0.0.1", server.server.port, timeout=0.5)
    try:
        if op == "write":
            with pytest.raises(VarStoreProtocolError, match="no response"):
                client.write("x", 1)
            client.write("x", 2)  # the late ERR belongs to the first write
            client.write("x", 3)
        else:
            with pytest.raises(VarStoreProtocolError, match="no response"):
                client.read("x")
            assert client.read("x") == ("v2", 2)
            assert client.read("x") == ("v3", 3)
        assert len(server.requests) == 3
    finally:
        client.close()
        server.server.stop()


def test_a_late_value_for_an_abandoned_read_is_no_subscription_push():
    server = _LateFirstReply("VALUE x 0 first", lambda n: "OK", 0.75)
    client = VarClient("127.0.0.1", server.server.port, timeout=0.5)
    try:
        with pytest.raises(VarStoreProtocolError):
            client.read("x")
        sub = client.subscribe("x")  # sent while the READ's reply is due
        assert sub.poll(0.2) is None
    finally:
        client.close()
        server.server.stop()


def test_a_value_with_a_newline_is_refused_and_nothing_is_sent(store):
    client = VarClient(store.host, store.port)
    try:
        client.write("x", 1)
        with pytest.raises(FramingError):
            client.write("x", "a\nWRITE y 7")
        with pytest.raises(UnknownVariableError):
            store.read("y")
        assert client.read("x") == (1, 0)
    finally:
        client.close()


def test_a_malformed_value_reply_fails_its_read_and_the_client_stays_in_step():
    def answer(conn, line):
        conn.send_line("VALUE x notanumber 5" if line.startswith("READ ") else "OK")

    server = LineServer(handler=answer)
    client = VarClient("127.0.0.1", server.port, timeout=1.0)
    try:
        with pytest.raises(VarStoreProtocolError, match="unexpected response"):
            client.read("x")
        client.write("x", 1)
        assert not client._conn.closed  # the loop still reads it
    finally:
        client.close()
        server.stop()


def test_a_subscriber_that_stops_reading_is_dropped_and_others_are_served(monkeypatch, store):
    monkeypatch.setattr(loop, "ENQUEUE_TIMEOUT_S", 0.2)  # the send deadline
    store.write("x", 0)
    stalled = _WireClient(store)
    try:
        stalled.send("SUB x")
        assert stalled.recv_line() == b"OK"  # and it reads nothing more
        written = threading.Event()

        def write_many():
            for _ in range(400):  # 25 MB, more than the socket buffers hold
                store.write("x", "v" * 65536)
            written.set()

        threading.Thread(target=write_many, daemon=True).start()
        assert written.wait(5.0)
        assert store._subs["x"] == []
        assert store.read("x")[1] == 400
        client = VarClient(store.host, store.port)
        try:
            client.write("y", 1)
            assert client.read("y") == (1, 0)
        finally:
            client.close()
    finally:
        stalled.close()


def test_a_stalled_subscriber_holds_up_no_read_and_no_other_variable(monkeypatch, store):
    monkeypatch.setattr(loop, "ENQUEUE_TIMEOUT_S", 1.0)  # the send deadline
    store.write("x", 0)
    store.write("other", 0)
    stalled = _WireClient(store)
    try:
        stalled.send("SUB x")
        assert stalled.recv_line() == b"OK"  # and it reads nothing more
        written = threading.Event()

        def write_many():
            for _ in range(400):  # 25 MB, more than the socket buffers hold
                store.write("x", "v" * 65536)
            written.set()

        started = time.monotonic()
        threading.Thread(target=write_many, daemon=True).start()
        slowest = 0.0
        while not written.is_set():
            before = time.monotonic()
            store.read("other")
            store.write("other", 1)
            slowest = max(slowest, time.monotonic() - before)
            time.sleep(0.01)
        assert time.monotonic() - started >= 0.9  # the writer did stall
        assert slowest < 0.3
    finally:
        stalled.close()


def test_pushes_of_concurrent_writers_arrive_in_version_order(store):
    store.write("x", 0)
    client = VarClient(store.host, store.port)
    try:
        sub = client.subscribe("x")
        writers = [
            threading.Thread(target=lambda: [store.write("x", i) for i in range(100)], daemon=True)
            for _ in range(4)
        ]
        for t in writers:
            t.start()
        for t in writers:
            t.join(10.0)
        assert not any(t.is_alive() for t in writers)
        versions = [sub.poll(2.0)[1] for _ in range(400)]
        assert versions == list(range(1, 401))
    finally:
        client.close()


class _SlowSubscriber:
    """A subscriber connection that takes 2 ms per push and notes how many
    committed versions of `x` had not been pushed to it at each one."""

    def __init__(self, store: VarStoreServer):
        self._store = store
        self.lines: list[str] = []
        self.unpushed: list[int] = []

    def send_line(self, line: str) -> None:
        if line.startswith("VALUE "):
            time.sleep(0.002)
            self.unpushed.append(self._store.read("x")[1] - int(line.split(" ")[2]))
        self.lines.append(line)

    def queue_line(self, line: str):
        self.send_line(line)
        return lambda: None  # taken by the time it is queued


def test_writers_wait_for_a_slow_subscriber_and_nothing_queues(store):
    store.write("x", 0)
    slow = _SlowSubscriber(store)
    store._handle(slow, "SUB x")
    late: list[str] = []

    def write_many(tag: str) -> None:
        for i in range(50):
            value = f"{tag}{i}"
            version = store.write("x", value)
            if f"VALUE x {version} {value}" not in slow.lines:
                late.append(value)  # write returned before its push went out

    writers = [threading.Thread(target=write_many, args=(tag,), daemon=True) for tag in "ab"]
    for t in writers:
        t.start()
    for t in writers:
        t.join(10.0)
    assert not any(t.is_alive() for t in writers)
    assert late == []
    assert slow.lines[0] == "OK"
    assert [int(line.split(" ")[2]) for line in slow.lines[1:]] == list(range(1, 101))
    # No write commits while another's push is out, so none waits in a queue.
    assert max(slow.unpushed) == 0


def test_a_full_subscription_drops_pushes_and_replies_still_come(store):
    store.write("x", 0)
    client = VarClient(store.host, store.port)
    try:
        sub = client.subscribe("x")  # never polled
        over = 200
        for i in range(sub.capacity + over):
            store.write("x", i)
        started = time.monotonic()
        client.write("y", 1)  # answered after every push
        # No push that finds no room waits for it.
        assert time.monotonic() - started < 0.5
        assert client.read("y") == (1, 0)
        assert sub.dropped == over
    finally:
        client.close()


def _shared_loops() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "artifact-loop"]


def test_no_reader_thread_outlives_stop_or_close(store):
    refs = loop.shared_loop._refs  # the store's
    client = VarClient(store.host, store.port)
    client.write("x", 1)
    threads = _shared_loops()
    assert len(threads) == 1  # the server and its client share the loop
    assert loop.shared_loop._refs == refs + 1
    assert len(store.server.connections()) == 1
    client.close()
    assert loop.shared_loop._refs == refs and threads[0].is_alive()
    store.stop()  # the loop's last user
    assert loop.shared_loop._refs == refs - 1
    assert not threads[0].is_alive()
    assert store.server.connections() == []


def test_a_subscriber_that_stops_reading_holds_up_no_wire_request(monkeypatch, store):
    monkeypatch.setattr(loop, "ENQUEUE_TIMEOUT_S", 0.5)  # the send deadline
    store.write("x", 0)
    store.write("other", 0)
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.connect((store.host, store.port))
    stalled.sendall(b"SUB x\n")
    assert stalled.recv(3) == b"OK\n"  # and it reads nothing more
    writer = VarClient(store.host, store.port)
    reader = VarClient(store.host, store.port)
    started = time.monotonic()
    dropped_after = []

    def write_until_dropped(write):
        while store._subs["x"] and time.monotonic() - started < 10.0:
            write("x", "v" * 16384)
            time.sleep(0.001)
        dropped_after.append(time.monotonic() - started)

    # Wire WRITEs, whose pushes the server's loop queues, and local writes,
    # which wait for their pushes off the loop.
    writers = [threading.Thread(target=write_until_dropped, args=(write,), daemon=True)
               for write in (writer.write, store.write)]
    try:
        for t in writers:
            t.start()
        slowest = 0.0
        while any(t.is_alive() for t in writers):
            before = time.monotonic()
            assert reader.read("other") == (0, 0)
            slowest = max(slowest, time.monotonic() - before)
            time.sleep(0.01)
        assert store._subs["x"] == []
        assert min(dropped_after) >= 0.5  # not before its output waited out the deadline
        assert slowest < 0.3
    finally:
        writer.close()
        reader.close()
        stalled.close()


def test_a_subscribe_to_write_route_mirrors_one_variable_into_another(env, store):
    # The write sink runs on the shared loop, which reads its OK: it must not wait for it.
    store.write("a", 0)
    route = env.engine.define_route(
        f"vars:{store.host}:{store.port}/a?mode=subscribe", [],
        f"vars:{store.host}:{store.port}/b?mode=write",
    )
    env.engine.start_route(route)
    for i in range(1, 21):
        store.write("a", i)
    assert wait_until(lambda: route.stats.delivered == 20)
    assert wait_until(lambda: "b" in store._vars and store.read("b") == (20, 19))
    assert env.dead_letter_total() == 0


def test_a_read_or_subscribe_on_the_client_loop_raises_at_once(store):
    store.write("x", 0)
    client = VarClient(store.host, store.port)
    outcomes = []

    def on_push():  # on the shared loop, which would have to read the reply
        for call in (client.read, client.subscribe):
            started = time.monotonic()
            try:
                call("x")
            except VarStoreProtocolError:
                outcomes.append(time.monotonic() - started)

    try:
        sub = client.subscribe("x")
        sub.add_listener(on_push)
        store.write("x", 1)
        assert wait_until(lambda: len(outcomes) == 2)
        assert max(outcomes) < 0.1
        assert client.read("x") == (1, 1)  # off the loop it waits for its reply
    finally:
        client.close()


def test_no_client_loop_outlives_the_last_client_and_a_later_client_starts_it(store):
    refs = loop.shared_loop._refs  # the store's
    first = VarClient(store.host, store.port)
    second = VarClient(store.host, store.port)
    loops = _shared_loops()
    assert len(loops) == 1  # one loop for the server and every client connection
    assert loop.shared_loop._refs == refs + 2
    first.close()
    second.write("x", 1)
    assert loop.shared_loop._refs == refs + 1 and loops[0].is_alive()
    second.close()
    store.stop()  # the loop's last user
    assert loop.shared_loop._refs == refs - 1
    assert not loops[0].is_alive()
    later = VarStoreServer()
    third = VarClient(later.host, later.port)
    try:
        third.write("x", 2)
        assert later.read("x") == (2, 0)
        assert len(_shared_loops()) == 1 and _shared_loops() != loops
    finally:
        third.close()
        later.stop()
    assert _shared_loops() == []


class _SlowEchoGateway(GatewayArtifact):
    """Notes each echo in `echoes`, a list read without the artifact's lock,
    after a device step that lets other threads run meanwhile."""

    echoes: list

    @operation
    def echoed(self, value):
        time.sleep(0.002)
        self.echoes.append(value)


def test_a_write_returns_after_the_chain_it_set_off_on_the_loop(env, store):
    # vars: push -> tcp: client -> echo server -> tcp: reply -> gateway, all
    # on the one loop, which wakes the writer only once all of it is done: a
    # writer woken earlier runs during the last step and misses its echo.
    # The chain takes three turns of the loop, well inside IDLE_TURNS, so
    # the outcome does not hang on how long any step takes.
    echo = LineServer(handler=lambda conn, line: conn.send_line(line))
    store.write("x", 0)
    tcp_uri = f"tcp:127.0.0.1:{echo.port}?role=client"
    aid = env.runtime.make_artifact("main", "mirror", _SlowEchoGateway, [])
    gateway = env.runtime.lookup(aid)
    gateway.echoes = []
    env.gateways.append(gateway)
    forward = env.engine.define_route(f"vars:{store.host}:{store.port}/x?mode=subscribe", [], tcp_uri)
    replies = env.engine.define_route(
        tcp_uri,
        [SetHeader(ARTIFACT_NAME_HEADER, "mirror"), SetHeader(OPERATION_NAME_HEADER, "echoed")],
        "artifact:mirror",
    )
    env.engine.start_route(forward)
    gateway.attach_route(replies, engine=env.engine)
    gateway.start_listening()
    client = VarClient(store.host, store.port)
    try:
        assert echo.wait_for_connection(5.0)
        for i in range(1, 21):
            client.write("x", i)
            assert gateway.echoes[-1:] == [str(i)]
    finally:
        client.close()
        env.engine.stop_route(forward)
        echo.stop()


def test_a_write_returns_soon_while_the_loop_never_runs_dry(store):
    # Two connections on the loop play ping-pong, so every poll finds a
    # line; the writer's wake still runs within IDLE_TURNS turns, each a
    # volley of tens of microseconds.
    reactor = loop.shared_loop.acquire()
    echo = LineServer(handler=lambda conn, line: conn.send_line(line))
    volleys = []

    def hit_back(line):
        volleys.append(line)
        player.send_line(line)

    player = reactor.connect(echo.host, echo.port, hit_back)
    client = VarClient(store.host, store.port)
    try:
        player.send_line("ball")
        assert wait_until(lambda: len(volleys) > 100)
        spent = []
        for i in range(21):
            started = time.monotonic()
            client.write("x", i)
            spent.append(time.monotonic() - started)
        assert sorted(spent)[10] < 0.002, spent
        assert store.read("x") == (20, 20)
    finally:
        client.close()
        player.close()
        echo.stop()
        loop.shared_loop.release()


def test_a_wake_queued_when_the_loop_stops_releases_the_requester_at_once():
    assert loop.shared_loop._refs == 0  # the loop this test stops is its own
    listener = socket.create_server(("127.0.0.1", 0))
    peers = []

    def answer():  # a variable server on its own thread: OK to the first request
        peer, _ = listener.accept()
        peers.append(peer)
        peer.recv(256)
        peer.sendall(b"OK\n")

    server = threading.Thread(target=answer, daemon=True)
    server.start()
    client = VarClient("127.0.0.1", listener.getsockname()[1], timeout=2.0)
    read_ok = client._conn.on_line

    def read_ok_and_stop(line):  # on the loop: queue the wake, then stop
        read_ok(line)
        client._loop.stop()

    client._conn.on_line = read_ok_and_stop
    try:
        started = time.monotonic()
        client.write("x", 1)
        assert time.monotonic() - started < 0.5
    finally:
        client.close()
        server.join(5.0)
        for sock in peers + [listener]:
            sock.close()
