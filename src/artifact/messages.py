"""Routed message unit and the operation-request payload carried by gateways."""
from __future__ import annotations

from dataclasses import dataclass, field

from .values import Value, copy_value

ARTIFACT_NAME_HEADER = "ArtifactName"
OPERATION_NAME_HEADER = "OperationName"


def _copy_headers(headers: dict[str, Value]) -> dict[str, Value]:
    """A private header map; scalars are immutable, so only lists are copied."""
    out = headers.copy()
    for key, value in headers.items():
        if isinstance(value, list):
            out[key] = copy_value(value)
    return out


@dataclass
class Message:
    """A routed unit: header map and payload body."""

    headers: dict[str, Value] = field(default_factory=dict)
    body: Value = field(default_factory=list)

    def copy(self) -> "Message":
        body = self.body
        if isinstance(body, list):
            body = copy_value(body)
        return Message(_copy_headers(self.headers), body)

    def header(self, key: str, default: Value | None = None) -> Value | None:
        return self.headers.get(key, default)


@dataclass(frozen=True)
class OpRequest:
    """Names a target artifact, one of its operations and the parameter list."""

    artifact_name: str
    operation: str
    params: tuple = ()

    def __post_init__(self):
        if not self.artifact_name:
            raise ValueError("artifact_name must be non-empty")
        if not self.operation:
            raise ValueError("operation must be non-empty")
        object.__setattr__(self, "params", tuple(self.params))

    def to_message(self, extra_headers: dict[str, Value] | None = None) -> Message:
        headers: dict[str, Value] = {
            ARTIFACT_NAME_HEADER: self.artifact_name,
            OPERATION_NAME_HEADER: self.operation,
        }
        if extra_headers:
            headers.update(_copy_headers(extra_headers))
        return Message(headers, [copy_value(p) if isinstance(p, list) else p for p in self.params])
