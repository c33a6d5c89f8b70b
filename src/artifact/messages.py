"""Routed message unit and the operation-request payload carried by gateways."""
from __future__ import annotations

from dataclasses import dataclass, field

from .values import Value, copy_value

ARTIFACT_NAME_HEADER = "ArtifactName"
OPERATION_NAME_HEADER = "OperationName"


@dataclass
class Message:
    """A routed unit: header map and payload body."""

    headers: dict[str, Value] = field(default_factory=dict)
    body: Value = field(default_factory=list)

    def copy(self) -> "Message":
        return self.with_body(copy_value(self.body))

    def with_body(self, body: Value) -> "Message":
        """A message with a private copy of these headers and `body` as is."""
        return Message(headers={k: copy_value(v) for k, v in self.headers.items()}, body=body)

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
            headers.update(extra_headers)
        return Message(headers=headers, body=[copy_value(p) for p in self.params])
