from __future__ import annotations

import inspect
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from artifact import GatewayArtifact, OpRequest, operation
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
from artifact.runtime import Artifact, ArtifactId, LinkRef

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
    with pytest.raises(UnknownArtifactError):
        runtime.link_artifacts(a, ArtifactId("main", "ghost"))


def test_linked_exec_requires_link(runtime):
    a = runtime.make_artifact("main", "a", "counter", [])
    b = runtime.make_artifact("main", "b", "counter", [])
    with pytest.raises(NotLinkedError):
        runtime.exec_op(b, OpRequest("b", "inc", []), caller=LinkRef(a, b))
    runtime.link_artifacts(a, b)
    runtime.exec_op(b, OpRequest("b", "inc", []), caller=LinkRef(a, b))
    assert runtime.lookup(b).property_value("count") == 1


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
