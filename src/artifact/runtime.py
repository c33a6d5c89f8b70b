"""Workspace/artifact environment runtime.

Workspaces host named artifacts. An artifact exposes an operation interface,
versioned observable properties and signals. Operations execute atomically
with respect to all other operations on the same artifact: property updates
and signals staged inside an operation become visible to observers only when
the operation commits, and are discarded when it aborts.

Observer notification is asynchronous (a single dispatcher thread per
runtime) but order-preserving per artifact, and exactly-once per observer.
"""
from __future__ import annotations

import inspect
import logging
import queue
import sys
import threading
import types
from dataclasses import dataclass
from typing import Callable

from .errors import (
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
from .messages import OpRequest
from .values import Value, copy_value

log = logging.getLogger(__name__)

DEFAULT_WORKSPACE = "main"

_MISSING = object()
_SHUTDOWN = object()


@dataclass(frozen=True)
class WorkspaceId:
    name: str


@dataclass(frozen=True)
class ArtifactId:
    workspace: str
    name: str

    def __str__(self) -> str:
        return f"{self.workspace}/{self.name}"


@dataclass(frozen=True)
class ObservableProperty:
    """A named, versioned piece of artifact state visible to observers."""

    name: str
    value: Value
    version: int


@dataclass(frozen=True)
class Signal:
    source: ArtifactId
    label: str
    payload: tuple
    seq: int


@dataclass(frozen=True)
class LinkRef:
    """Directional permission for `source` to invoke operations on `target`."""

    source: ArtifactId
    target: ArtifactId


@dataclass
class OpResult:
    success: bool
    signals: list[Signal]
    property_versions: dict[str, int]


def operation(fn: Callable) -> Callable:
    """Mark a method as part of the artifact's operation interface."""
    fn.__artifact_operation__ = True
    return fn


def _positional_counts(member: Callable) -> range:
    """The parameter counts with which `member(*params)` binds its signature.

    Defaults lower the minimum, ``*args`` removes the maximum and a required
    keyword-only parameter leaves no count that binds.
    """
    params = inspect.signature(member).parameters.values()
    if any(p.kind is p.KEYWORD_ONLY and p.default is p.empty for p in params):
        return range(0)
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    lowest = max((i + 1 for i, p in enumerate(positional) if p.default is p.empty), default=0)
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return range(lowest, sys.maxsize)
    return range(lowest, len(positional) + 1)


def _operation_table(cls: type) -> dict[str, range]:
    """Map each public ``@operation`` of `cls`, inherited ones included, to
    the parameter counts it accepts."""
    table = {}
    for name in dir(cls):
        if name.startswith("_"):
            continue
        member = getattr(cls, name, None)
        if not callable(member) or not getattr(member, "__artifact_operation__", False):
            continue
        if isinstance(inspect.getattr_static(cls, name), types.FunctionType):
            # Instances call the bound method, which supplies `self`.
            member = types.MethodType(member, cls)
        table[name] = _positional_counts(member)
    return table


class CallbackObserver:
    """Observer identity backed by plain callables; both callbacks optional."""

    def __init__(self, on_change: Callable | None = None, on_signal: Callable | None = None):
        self._on_change = on_change
        self._on_signal = on_signal

    def on_property_change(self, artifact_id, name, value, version):
        if self._on_change is not None:
            self._on_change(artifact_id, name, value, version)

    def on_signal(self, signal: Signal):
        if self._on_signal is not None:
            self._on_signal(signal)


class _OpContext:
    """Per-operation staging area; applied on commit, dropped on abort."""

    __slots__ = ("events", "staged_props", "thread_id")

    def __init__(self):
        self.events: list[tuple] = []
        self.staged_props: dict[str, tuple[Value, int]] = {}
        self.thread_id = threading.get_ident()


class Artifact:
    """Base class for passive environment entities.

    Subclasses define an ``init`` routine and methods decorated with
    :func:`operation`. Inside an executing operation the artifact may call
    :meth:`update_property` and :meth:`signal`; both take effect atomically
    when the operation commits.

    The operations are read once, when the class is defined, into a table of
    name -> accepted parameter counts; methods attached later are not
    operations.
    """

    _operations: dict[str, range] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._operations = _operation_table(cls)

    def __init__(self):
        self._runtime: "Runtime | None" = None
        self._id: ArtifactId | None = None
        self._lock = threading.RLock()
        self._props: dict[str, tuple[Value, int]] = {}
        self._signal_seq = 0
        self._observers: list = []
        self._ctx: _OpContext | None = None
        self._disposed = False

    # -- template hooks ----------------------------------------------------

    def init(self, *params):
        """Initialization routine; runs atomically before the artifact is usable."""

    def on_created(self):
        """Called once the artifact is registered with its workspace."""

    def on_dispose(self):
        """Called while the artifact is being removed from its workspace."""

    # -- identity ------------------------------------------------------------

    @property
    def id(self) -> ArtifactId:
        return self._id

    @property
    def runtime(self) -> "Runtime":
        return self._runtime

    # -- state accessible inside operations ----------------------------------

    def _current_ctx(self) -> _OpContext | None:
        ctx = self._ctx
        if ctx is not None and ctx.thread_id == threading.get_ident():
            return ctx
        return None

    def update_property(self, name: str, value: Value) -> int:
        """Stage a property update; returns the version it will commit at."""
        ctx = self._current_ctx()
        if ctx is None:
            raise CalledOutsideOperationError(
                f"update_property({name!r}) outside an operation of {self._id}"
            )
        if name in ctx.staged_props:
            base = ctx.staged_props[name][1]
        elif name in self._props:
            base = self._props[name][1]
        else:
            base = -1
        version = base + 1
        staged = copy_value(value)
        ctx.staged_props[name] = (staged, version)
        ctx.events.append(("prop", name, staged, version))
        return version

    def signal(self, label: str, *payload: Value) -> None:
        ctx = self._current_ctx()
        if ctx is None:
            raise CalledOutsideOperationError(
                f"signal({label!r}) outside an operation of {self._id}"
            )
        ctx.events.append(("signal", label, tuple(copy_value(p) for p in payload)))

    def property_value(self, name: str, default: Value = _MISSING) -> Value:
        """Read a property; inside an operation the staged value is visible."""
        ctx = self._current_ctx()
        if ctx is not None and name in ctx.staged_props:
            return ctx.staged_props[name][0]
        with self._lock:
            if name in self._props:
                return self._props[name][0]
        if default is not _MISSING:
            return default
        raise KeyError(name)

    def properties(self) -> dict[str, ObservableProperty]:
        """Committed snapshot of every observable property."""
        with self._lock:
            return {
                name: ObservableProperty(name, copy_value(value), version)
                for name, (value, version) in self._props.items()
            }

    def operation_names(self) -> list[str]:
        return sorted(self._operations)

    # -- execution machinery (runtime-internal) -------------------------------

    def _resolve_operation(self, name: str, params: tuple) -> Callable:
        counts = self._operations.get(name)
        if counts is None:
            raise UnknownOperationError(f"{self._id} has no operation {name!r}")
        if len(params) not in counts:
            raise UnknownOperationError(
                f"{self._id} has no operation {name!r} taking {len(params)} parameter(s)"
            )
        return getattr(self, name)

    def _run_atomically(self, fn: Callable, params: tuple, op_name: str) -> OpResult:
        """Execute under the artifact lock; commit staged effects or roll back."""
        with self._lock:
            ctx = _OpContext()
            self._ctx = ctx
            try:
                fn(*params)
            except Exception as exc:
                raise OperationFailedError(op_name, exc) from exc
            finally:
                self._ctx = None
            return self._commit(ctx)

    def _commit(self, ctx: _OpContext) -> OpResult:
        signals: list[Signal] = []
        versions: dict[str, int] = {}
        deliveries: list[tuple] = []
        for event in ctx.events:
            if event[0] == "prop":
                _, name, value, version = event
                self._props[name] = (value, version)
                versions[name] = version
                deliveries.append(event)
            else:
                _, label, payload = event
                sig = Signal(self._id, label, payload, self._signal_seq)
                self._signal_seq += 1
                signals.append(sig)
                deliveries.append(("signal", sig))
        if deliveries and self._observers:
            observers = list(self._observers)
            runtime = self._runtime
            for event in deliveries:
                for observer in observers:
                    runtime._enqueue_event(observer, self._id, event)
        return OpResult(True, signals, versions)


class Runtime:
    """Registry of workspaces, artifacts, templates and links.

    Safe for concurrent use; a default workspace exists from the start. Use as
    a context manager or call :meth:`shutdown` to stop the dispatcher thread
    and dispose every artifact.
    """

    def __init__(self, default_workspace: str = DEFAULT_WORKSPACE):
        self._lock = threading.RLock()
        self._workspaces: dict[str, dict[str, Artifact]] = {default_workspace: {}}
        self._default_workspace = default_workspace
        self._templates: dict[str, type[Artifact]] = {}
        self._links: set[tuple[ArtifactId, ArtifactId]] = set()
        self._events: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self.services: dict[str, object] = {}
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="artifact-observer-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for aid in self.artifact_ids():
            try:
                self.dispose_artifact(aid)
            except UnknownArtifactError:
                pass
        self._events.put(_SHUTDOWN)
        self._dispatcher.join(timeout=5)

    # -- workspaces and templates ----------------------------------------------

    @property
    def default_workspace(self) -> WorkspaceId:
        return WorkspaceId(self._default_workspace)

    def create_workspace(self, name: str) -> WorkspaceId:
        if not name:
            raise ValueError("workspace name must be non-empty")
        with self._lock:
            if name in self._workspaces:
                raise DuplicateNameError(f"workspace {name!r} already exists")
            self._workspaces[name] = {}
        return WorkspaceId(name)

    def register_template(self, name: str, cls: type[Artifact]) -> None:
        if not issubclass(cls, Artifact):
            raise TypeError(f"{cls!r} is not an Artifact subclass")
        with self._lock:
            if name in self._templates:
                raise DuplicateNameError(f"template {name!r} already registered")
            self._templates[name] = cls

    def _resolve_template(self, template) -> type[Artifact]:
        if isinstance(template, str):
            with self._lock:
                cls = self._templates.get(template)
            if cls is None:
                raise UnknownTemplateError(template)
            return cls
        if isinstance(template, type) and issubclass(template, Artifact):
            return template
        raise UnknownTemplateError(repr(template))

    # -- artifact lifecycle ------------------------------------------------------

    def make_artifact(self, workspace, name: str, template, init_params=()) -> ArtifactId:
        ws = workspace.name if isinstance(workspace, WorkspaceId) else workspace
        if not name:
            raise ValueError("artifact name must be non-empty")
        if ":" in name or "?" in name:
            raise ValueError(f"artifact name {name!r} contains a reserved character")
        cls = self._resolve_template(template)
        with self._lock:
            if ws not in self._workspaces:
                raise UnknownWorkspaceError(ws)
            registry = self._workspaces[ws]
            if name in registry:
                raise DuplicateNameError(f"artifact {ws}/{name} already exists")
            art = cls()
            art._runtime = self
            art._id = ArtifactId(ws, name)
            art._run_atomically(art.init, tuple(init_params), "init")
            registry[name] = art
        art.on_created()
        log.debug("created artifact %s (%s)", art._id, cls.__name__)
        return art._id

    def dispose_artifact(self, artifact_id: ArtifactId) -> None:
        with self._lock:
            art = self._workspaces.get(artifact_id.workspace, {}).pop(artifact_id.name, None)
            if art is None:
                raise UnknownArtifactError(str(artifact_id))
            self._links = {
                link for link in self._links if artifact_id not in link
            }
        with art._lock:
            art._disposed = True
            art._observers.clear()
        art.on_dispose()
        log.debug("disposed artifact %s", artifact_id)

    def lookup(self, artifact_id: ArtifactId) -> Artifact:
        art = self._find(artifact_id.workspace, artifact_id.name)
        if art is None:
            raise UnknownArtifactError(str(artifact_id))
        return art

    def find_artifact(self, workspace, name: str) -> Artifact | None:
        ws = workspace.name if isinstance(workspace, WorkspaceId) else workspace
        return self._find(ws, name)

    def _find(self, ws: str, name: str) -> Artifact | None:
        with self._lock:
            return self._workspaces.get(ws, {}).get(name)

    def artifact_ids(self) -> list[ArtifactId]:
        with self._lock:
            return [
                ArtifactId(ws, name)
                for ws, arts in self._workspaces.items()
                for name in arts
            ]

    # -- links ---------------------------------------------------------------------

    def link_artifacts(self, source: ArtifactId, target: ArtifactId) -> LinkRef:
        if source == target:
            raise SelfLinkError(str(source))
        self.lookup(source)
        self.lookup(target)
        with self._lock:
            self._links.add((source, target))
        return LinkRef(source, target)

    def linked(self, source: ArtifactId, target: ArtifactId) -> bool:
        with self._lock:
            return (source, target) in self._links

    def links_from(self, source: ArtifactId) -> list[ArtifactId]:
        with self._lock:
            return [dst for (src, dst) in self._links if src == source]

    # -- operations and observation ---------------------------------------------------

    def exec_op(self, target: ArtifactId, request: OpRequest, caller=None) -> OpResult:
        """Execute an operation atomically; `caller` is an agent identity or LinkRef."""
        art = self.lookup(target)
        if isinstance(caller, LinkRef):
            if caller.target != target or not self.linked(caller.source, caller.target):
                raise NotLinkedError(f"{caller.source} is not linked to {target}")
        with art._lock:
            if art._disposed:
                raise UnknownArtifactError(str(target))
            fn = art._resolve_operation(request.operation, request.params)
            return art._run_atomically(fn, request.params, request.operation)

    def focus(self, observer, target: ArtifactId) -> dict[str, ObservableProperty]:
        """Subscribe `observer` to a target; returns the property snapshot.

        Every property change and signal committed after the snapshot is
        delivered to the observer exactly once, in order.
        """
        art = self.lookup(target)
        with art._lock:
            if art._disposed:
                raise UnknownArtifactError(str(target))
            snapshot = {
                name: ObservableProperty(name, copy_value(value), version)
                for name, (value, version) in art._props.items()
            }
            if observer not in art._observers:
                art._observers.append(observer)
        return snapshot

    def unfocus(self, observer, target: ArtifactId) -> None:
        art = self.lookup(target)
        with art._lock:
            if observer in art._observers:
                art._observers.remove(observer)

    # -- observer dispatch ---------------------------------------------------------------

    def _enqueue_event(self, observer, artifact_id: ArtifactId, event: tuple) -> None:
        self._events.put((observer, artifact_id, event))

    def _dispatch_loop(self) -> None:
        while True:
            item = self._events.get()
            if item is _SHUTDOWN:
                return
            observer, artifact_id, event = item
            try:
                if event[0] == "prop":
                    _, name, value, version = event
                    observer.on_property_change(artifact_id, name, value, version)
                else:
                    observer.on_signal(event[1])
            except Exception:
                log.exception("observer callback failed for %s", artifact_id)
