from __future__ import annotations

import inspect
import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from artifact import GatewayArtifact, OpRequest, Runtime, operation
from artifact.errors import (
    CalledOutsideOperationError,
    DuplicateNameError,
    NotLinkedError,
    OperationFailedError,
    SelfLinkError,
    UnknownArtifactError,
    UnknownOperationError,
    UnknownTemplateError,
    UnknownWorkspaceError,
)
from artifact.runtime import Artifact, ArtifactId, CallbackObserver, LinkRef, OpResult, stages_nothing

from conftest import CounterArtifact, RecordingObserver, wait_until


def test_fresh_counter_starts_at_zero(runtime):
    aid = runtime.make_artifact("main", "s1", "counter", [])
    assert aid == ArtifactId("main", "s1")
    art = runtime.lookup(aid)
    props = art.properties()
    assert props["count"].value == 0
    assert props["count"].version == 0


def test_duplicate_name_rejected(runtime):
    runtime.make_artifact("main", "s1", "counter", [])
    with pytest.raises(DuplicateNameError):
        runtime.make_artifact("main", "s1", "counter", [])


def test_unknown_workspace_and_template(runtime):
    with pytest.raises(UnknownWorkspaceError):
        runtime.make_artifact("nope", "x", "counter", [])
    with pytest.raises(UnknownTemplateError):
        runtime.make_artifact("main", "x", "no-such-template", [])


def test_reserved_characters_in_name(runtime):
    with pytest.raises(ValueError):
        runtime.make_artifact("main", "a:b", "counter", [])
    with pytest.raises(ValueError):
        runtime.make_artifact("main", "a?b", "counter", [])


def test_workspace_names_unique(runtime):
    runtime.create_workspace("floor")
    with pytest.raises(DuplicateNameError):
        runtime.create_workspace("floor")
    aid = runtime.make_artifact("floor", "c", "counter", [])
    assert aid.workspace == "floor"


def test_gateway_template_starts_empty(runtime):
    aid = runtime.make_artifact("main", "r7", GatewayArtifact, [])
    gateway = runtime.lookup(aid)
    assert gateway.routes == []
    assert len(gateway.outgoing) == 0
    assert len(gateway.incoming) == 0


def test_sequential_incs(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    for _ in range(3):
        runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert runtime.lookup(aid).property_value("count") == 3


def test_concurrent_incs_are_atomic(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(runtime.exec_op, aid, OpRequest("c1", "inc", [])) for _ in range(100)]
        results = [f.result() for f in futures]
    assert all(r.success for r in results)
    art = runtime.lookup(aid)
    assert art.property_value("count") == 100
    assert art.properties()["count"].version == 100


def test_unknown_operation_and_arity_mismatch(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    with pytest.raises(UnknownOperationError):
        runtime.exec_op(aid, OpRequest("c1", "nosuch", []))
    with pytest.raises(UnknownOperationError):
        runtime.exec_op(aid, OpRequest("c1", "inc", [1, 2, 3]))
    with pytest.raises(UnknownOperationError):
        runtime.exec_op(aid, OpRequest("c1", "properties", []))  # not marked


def test_op_result_reports_versions(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    result = runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert result.property_versions == {"count": 1}


class Quiet(Artifact):
    @operation
    def noop(self):
        pass


def test_operation_staging_nothing_returns_a_fresh_result(runtime):
    aid = runtime.make_artifact("main", "q1", Quiet, [])
    first = runtime.exec_op(aid, OpRequest("q1", "noop", []))
    assert first == OpResult(True, [], {})
    first.signals.append("mutated by a caller")
    first.property_versions["x"] = 1
    assert runtime.exec_op(aid, OpRequest("q1", "noop", [])) == OpResult(True, [], {})


class NoInit(Artifact):
    @operation
    def set(self, value):
        self.update_property("value", value)


def test_an_artifact_without_init_takes_any_parameters_and_behaves_alike(runtime):
    aid = runtime.make_artifact("main", "n1", NoInit, iter([1, "two", [3]]))
    art = runtime.lookup(aid)
    assert art.properties() == {}
    observer = RecordingObserver()
    assert runtime.focus(observer, aid) == {}
    runtime.exec_op(aid, OpRequest("n1", "set", [7]))
    assert wait_until(lambda: observer.change_count() == 1)
    assert observer.changes == [(aid, "value", 7, 0)]
    with pytest.raises(TypeError):
        runtime.make_artifact("main", "n2", NoInit, 5)  # parameters not iterable
    assert runtime.find_artifact("main", "n2") is None
    with pytest.raises(DuplicateNameError):
        runtime.make_artifact("main", "n1", NoInit, [])


class InitInOperation(Artifact):
    def init(self, *params):
        self.params = params
        self.inside_operation = self._current_ctx() is not None
        self.update_property("params", list(params))


class InheritsInit(InitInOperation):
    pass


class FailingInit(Artifact):
    def init(self):
        self.update_property("half", 1)
        raise RuntimeError("init failed")


@pytest.mark.parametrize("template", [InitInOperation, InheritsInit])
def test_an_overridden_init_runs_as_an_operation(runtime, template):
    art = runtime.lookup(runtime.make_artifact("main", "i1", template, (1, 2)))
    assert art.params == (1, 2) and art.inside_operation
    assert art.properties()["params"].value == [1, 2]


def test_a_failing_init_commits_nothing_and_registers_nothing(runtime):
    with pytest.raises(OperationFailedError):
        runtime.make_artifact("main", "f1", FailingInit, [])
    assert runtime.find_artifact("main", "f1") is None


class MarkedInit(Artifact):
    @stages_nothing
    def init(self, *params):
        self.params = params
        self.inside_operation = self._current_ctx() is not None
        if params == ("stage",):
            self.update_property("half", 1)
        if params == ("raise",):
            raise RuntimeError("init failed")


class OverridesMarkedInit(MarkedInit):
    def init(self, *params):
        super().init(*params)
        self.update_property("params", list(params))


def test_a_marked_init_runs_outside_an_operation_and_an_override_inside(runtime):
    marked = runtime.lookup(runtime.make_artifact("main", "m1", MarkedInit, (1, 2)))
    assert marked.params == (1, 2) and not marked.inside_operation
    override = runtime.lookup(runtime.make_artifact("main", "m2", OverridesMarkedInit, (3,)))
    assert override.inside_operation and override.properties()["params"].value == [3]


@pytest.mark.parametrize("params", [("stage",), ("raise",)])
def test_a_marked_init_that_stages_or_fails_registers_nothing(runtime, params):
    with pytest.raises(OperationFailedError):
        runtime.make_artifact("main", "m3", MarkedInit, params)
    assert runtime.find_artifact("main", "m3") is None


def test_failed_operation_rolls_back(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    observer = RecordingObserver()
    runtime.focus(observer, aid)
    with pytest.raises(OperationFailedError):
        runtime.exec_op(aid, OpRequest("c1", "boom", []))
    art = runtime.lookup(aid)
    assert art.property_value("count") == 0
    assert art.properties()["count"].version == 0
    runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert wait_until(lambda: observer.change_count() == 1)
    # neither the staged update nor the signal of the aborted op leaked out
    assert observer.changes[0][3] == 1
    assert observer.signals == []


def test_update_property_outside_operation(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    with pytest.raises(CalledOutsideOperationError):
        runtime.lookup(aid).update_property("count", 5)


def test_focus_snapshot_after_five_incs(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    for _ in range(5):
        runtime.exec_op(aid, OpRequest("c1", "inc", []))
    observer = RecordingObserver()
    snapshot = runtime.focus(observer, aid)
    assert snapshot["count"].value == 5
    assert snapshot["count"].version == 5


def test_focus_then_single_change(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    observer = RecordingObserver()
    runtime.focus(observer, aid)
    runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert wait_until(lambda: observer.change_count() == 1)
    artifact_id, name, value, version = observer.changes[0]
    assert (artifact_id, name, value, version) == (aid, "count", 1, 1)


def test_unfocus_stops_later_events_for_that_observer_only(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    leaving, staying = RecordingObserver(), RecordingObserver()
    runtime.focus(leaving, aid)
    runtime.focus(staying, aid)
    runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert wait_until(lambda: leaving.change_count() == 1)
    runtime.unfocus(leaving, aid)
    for _ in range(3):
        runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert wait_until(lambda: staying.change_count() == 4)
    assert staying.changes == [(aid, "count", n, n) for n in range(1, 5)]
    assert leaving.changes == [(aid, "count", 1, 1)]


def test_unfocusing_an_observer_that_never_focused_changes_nothing(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    observer, stranger = RecordingObserver(), RecordingObserver()
    runtime.focus(observer, aid)
    runtime.unfocus(stranger, aid)
    runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert wait_until(lambda: observer.change_count() == 1)
    assert observer.changes == [(aid, "count", 1, 1)]
    assert stranger.changes == []


def test_focus_on_disposed_artifact(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    runtime.dispose_artifact(aid)
    with pytest.raises(UnknownArtifactError):
        runtime.focus(RecordingObserver(), aid)
    with pytest.raises(UnknownArtifactError):
        runtime.exec_op(aid, OpRequest("c1", "inc", []))


def test_two_updates_in_one_operation_commit_in_order(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    observer = RecordingObserver()
    runtime.focus(observer, aid)
    runtime.exec_op(aid, OpRequest("c1", "add", [2]))
    runtime.exec_op(aid, OpRequest("c1", "add", [3]))
    assert wait_until(lambda: observer.change_count() == 2)
    versions = [change[3] for change in observer.changes]
    values = [change[2] for change in observer.changes]
    assert versions == [1, 2]
    assert values == [2, 5]


def test_observer_completeness_mid_stream(runtime):
    aid = runtime.make_artifact("main", "c1", "counter", [])
    for _ in range(3):
        runtime.exec_op(aid, OpRequest("c1", "inc", []))
    observer = RecordingObserver()
    snapshot = runtime.focus(observer, aid)
    for _ in range(7):
        runtime.exec_op(aid, OpRequest("c1", "inc", []))
    assert wait_until(lambda: observer.change_count() == 7)
    versions = [change[3] for change in observer.changes]
    assert versions == list(range(snapshot["count"].version + 1, 11))


def test_links(runtime):
    a = runtime.make_artifact("main", "a", "counter", [])
    b = runtime.make_artifact("main", "b", "counter", [])
    link = runtime.link_artifacts(a, b)
    assert link == LinkRef(a, b)
    assert runtime.link_artifacts(a, b) == link  # idempotent
    assert runtime.links_from(a) == [b]
    assert runtime.links_from(b) == []  # directional
    with pytest.raises(SelfLinkError):
        runtime.link_artifacts(a, a)
    with pytest.raises(UnknownArtifactError, match="main/ghost"):
        runtime.link_artifacts(a, ArtifactId("main", "ghost"))
    with pytest.raises(UnknownArtifactError, match="main/ghost"):
        runtime.link_artifacts(ArtifactId("main", "ghost"), a)
    with pytest.raises(UnknownArtifactError, match="nowhere/a"):
        runtime.link_artifacts(ArtifactId("nowhere", "a"), b)
    assert runtime.links_from(ArtifactId("main", "ghost")) == []
    assert runtime.links_from(a) == [b]


def test_linked_exec_requires_link(runtime):
    a = runtime.make_artifact("main", "a", "counter", [])
    b = runtime.make_artifact("main", "b", "counter", [])
    with pytest.raises(NotLinkedError):
        runtime.exec_op(b, OpRequest("b", "inc", []), caller=LinkRef(a, b))
    runtime.link_artifacts(a, b)
    runtime.exec_op(b, OpRequest("b", "inc", []), caller=LinkRef(a, b))
    assert runtime.lookup(b).property_value("count") == 1


def test_linked_exec_follows_link_dispose_and_remake(runtime):
    a = runtime.make_artifact("main", "a", "counter", [])
    b = runtime.make_artifact("main", "b", "counter", [])
    link = runtime.link_artifacts(a, b)
    inc = OpRequest("b", "inc", [])
    runtime.exec_op(b, inc, caller=link)
    # equal ids, not the link's own objects
    runtime.exec_op(ArtifactId("main", "b"), inc, caller=LinkRef(ArtifactId("main", "a"), b))
    with pytest.raises(NotLinkedError):
        runtime.exec_op(a, OpRequest("a", "inc", []), caller=link)  # the link names b
    runtime.dispose_artifact(b)
    with pytest.raises(UnknownArtifactError):
        runtime.exec_op(b, inc, caller=link)
    b = runtime.make_artifact("main", "b", "counter", [])
    with pytest.raises(NotLinkedError):
        runtime.exec_op(b, inc, caller=link)  # disposing b removed the link
    assert not runtime.linked(a, b) and runtime.links_from(a) == []
    runtime.link_artifacts(a, b)
    runtime.exec_op(b, inc, caller=link)
    assert runtime.lookup(b).property_value("count") == 1
    runtime.dispose_artifact(a)
    runtime.make_artifact("main", "a", "counter", [])
    with pytest.raises(NotLinkedError):
        runtime.exec_op(b, inc, caller=link)  # so did disposing a
    runtime.exec_op(b, inc)  # no link needed without a LinkRef caller
    assert runtime.lookup(b).property_value("count") == 2


def test_focus_starts_no_thread_and_events_arrive_once_in_commit_order():
    before = set(threading.enumerate())
    runtime = Runtime()
    try:
        aid = runtime.make_artifact("main", "c", CounterArtifact, [])
        observers = [RecordingObserver(), RecordingObserver()]
        for observer in observers:
            runtime.focus(observer, aid)
        assert [t for t in threading.enumerate() if t not in before] == []

        def inc_many():
            for _ in range(200):
                runtime.exec_op(aid, OpRequest("c", "inc", []))

        # Committing threads deliver, each its own events or, finding
        # another delivering, leaving them to it.
        senders = [threading.Thread(target=inc_many) for _ in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in senders:
                t.start()
            for t in senders:
                t.join(10.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in senders)
        for observer in observers:
            assert [(value, version) for _, _, value, version in observer.changes] == [
                (n, n) for n in range(1, 801)]
    finally:
        runtime.shutdown()
    assert [t for t in threading.enumerate() if t not in before and t not in senders] == []


def test_an_observer_that_operates_on_what_it_observes_neither_deadlocks_nor_reorders(runtime):
    aid = runtime.make_artifact("main", "c", "counter", [])
    seen = []

    def on_change(artifact_id, name, value, version):
        seen.append(value)
        if value < 5:  # commits the next value while this one is delivered
            runtime.exec_op(aid, OpRequest("c", "inc", []))

    runtime.focus(CallbackObserver(on_change=on_change), aid)
    other = RecordingObserver()
    runtime.focus(other, aid)
    committer = threading.Thread(
        target=runtime.exec_op, args=(aid, OpRequest("c", "inc", [])), daemon=True)
    committer.start()
    committer.join(5.0)
    assert not committer.is_alive()
    assert seen == [1, 2, 3, 4, 5]
    assert [value for _, _, value, _ in other.changes] == [1, 2, 3, 4, 5]


class _Outer(CounterArtifact):
    @operation
    def poke(self, name):
        self.runtime.exec_op(ArtifactId("main", name), OpRequest(name, "inc", []))
        self.update_property("count", self.property_value("count") + 1)


def test_an_observer_reached_from_inside_another_operation_runs_after_its_lock_is_released(runtime):
    outer = runtime.make_artifact("main", "outer", _Outer, [])
    inner = runtime.make_artifact("main", "inner", "counter", [])
    outcomes = []

    def on_inner_change(artifact_id, name, value, version):
        # Another thread operates on the outer artifact: it gets its lock at
        # once only if the operation that reached this one has let it go.
        other = threading.Thread(
            target=runtime.exec_op, args=(outer, OpRequest("outer", "inc", [])), daemon=True)
        other.start()
        other.join(0.5)
        outcomes.append(not other.is_alive())

    runtime.focus(CallbackObserver(on_change=on_inner_change), inner)
    runtime.exec_op(outer, OpRequest("outer", "poke", ["inner"]))
    assert outcomes == [True]
    assert runtime.lookup(outer).property_value("count") == 2


def test_an_observer_that_raises_is_logged_and_delivery_goes_on(runtime, caplog):
    aid = runtime.make_artifact("main", "c", "counter", [])

    def boom(artifact_id, name, value, version):
        raise RuntimeError("observer boom")

    runtime.focus(CallbackObserver(on_change=boom), aid)
    good = RecordingObserver()
    runtime.focus(good, aid)
    with caplog.at_level(logging.ERROR, logger="artifact.runtime"):
        runtime.exec_op(aid, OpRequest("c", "inc", []))
        runtime.exec_op(aid, OpRequest("c", "inc", []))
    assert [value for _, _, value, _ in good.changes] == [1, 2]
    assert sum("observer callback failed" in r.getMessage() for r in caplog.records) == 2


def test_signals_delivered_in_order(runtime):
    class Beeper(CounterArtifact):
        @operation
        def beep(self, n):
            for i in range(n):
                self.signal("beeped", i)

    aid = runtime.make_artifact("main", "noisy", Beeper, [])
    observer = RecordingObserver()
    runtime.focus(observer, aid)
    runtime.exec_op(aid, OpRequest("noisy", "beep", [3]))
    assert wait_until(lambda: len(observer.signals) == 3)
    assert [s.seq for s in observer.signals] == [0, 1, 2]
    assert [s.payload for s in observer.signals] == [(0,), (1,), (2,)]


def test_runtime_registry_safe_for_concurrent_creation(runtime):
    errors = []

    def create(i):
        try:
            runtime.make_artifact("main", f"art{i}", "counter", [])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=create, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(runtime.artifact_ids()) == 32


class _MixinOps:
    @operation
    def from_mixin(self, a, b=2):
        pass


class _ParityBase(Artifact):
    @operation
    def plain(self, a, b):
        pass

    @operation
    def defaults(self, a, b=1, c=2):
        pass

    @operation
    def star(self, a, *rest):
        pass

    @operation
    def keyword_required(self, a, *, key):
        pass

    @operation
    def keyword_optional(self, a, *, key=0):
        pass

    @operation
    def overridden(self, a):
        pass

    @staticmethod
    @operation
    def static(a):
        pass


class _Parity(_MixinOps, _ParityBase):
    def overridden(self, a):  # undecorated: no longer an operation
        pass


@pytest.mark.parametrize(
    "name",
    ["plain", "defaults", "star", "keyword_required", "keyword_optional", "static", "from_mixin"],
)
def test_operation_table_accepts_what_signature_binds(name):
    art = _Parity()
    for count in range(6):
        params = tuple(range(count))
        try:
            inspect.signature(getattr(art, name)).bind(*params)
            binds = True
        except TypeError:
            binds = False
        try:
            art._resolve_operation(name, params)
            resolves = True
        except UnknownOperationError:
            resolves = False
        assert resolves == binds, (name, count)


def test_operation_names_come_from_the_table():
    art = _Parity()
    assert art.operation_names() == [
        "defaults", "from_mixin", "keyword_optional", "keyword_required", "plain", "star", "static",
    ]
    with pytest.raises(UnknownOperationError):
        art._resolve_operation("overridden", (1,))


class _DecoratorOrders(Artifact):
    calls: list = []

    @operation
    @staticmethod
    def static_outer(a):
        _DecoratorOrders.calls.append(("static_outer", a))

    @staticmethod
    @operation
    def static_inner(a):
        _DecoratorOrders.calls.append(("static_inner", a))

    @operation
    @classmethod
    def class_outer(cls, a):
        cls.calls.append(("class_outer", a))

    @classmethod
    @operation
    def class_inner(cls, a):
        cls.calls.append(("class_inner", a))


@pytest.mark.parametrize("name", ["static_outer", "static_inner", "class_outer", "class_inner"])
def test_operation_above_or_below_static_and_class_method(runtime, name):
    aid = runtime.make_artifact("main", "orders", _DecoratorOrders, [])
    assert name in runtime.lookup(aid).operation_names()
    _DecoratorOrders.calls.clear()
    runtime.exec_op(aid, OpRequest("orders", name, [7]))
    assert _DecoratorOrders.calls == [(name, 7)]
    with pytest.raises(UnknownOperationError):
        runtime.exec_op(aid, OpRequest("orders", name, [1, 2]))
