"""Exception taxonomy shared across the runtime, routing engine and endpoints."""
from __future__ import annotations


class ArtifactError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# runtime


class UnknownWorkspaceError(ArtifactError):
    pass


class DuplicateNameError(ArtifactError):
    pass


class UnknownTemplateError(ArtifactError):
    pass


class UnknownArtifactError(ArtifactError):
    pass


class UnknownOperationError(ArtifactError):
    pass


class OperationFailedError(ArtifactError):
    """An operation body raised; the transaction was rolled back."""

    def __init__(self, operation: str, cause: BaseException | None = None):
        self.operation = operation
        self.cause = cause
        detail = f": {cause!r}" if cause is not None else ""
        super().__init__(f"operation {operation!r} failed{detail}")


class SelfLinkError(ArtifactError):
    pass


class NotLinkedError(ArtifactError):
    """A link-identified caller invoked an operation without a registered link."""


class CalledOutsideOperationError(ArtifactError):
    pass


# ---------------------------------------------------------------------------
# endpoint URIs


class UriError(ArtifactError):
    pass


class MissingSchemeError(UriError):
    pass


class EmptySchemeError(UriError):
    pass


class MalformedQueryError(UriError):
    pass


# ---------------------------------------------------------------------------
# transform expressions


class ExprSyntaxError(ArtifactError):
    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at offset {position}: expected {expected}")


class EvalError(ArtifactError):
    pass


class IndexOutOfRangeError(EvalError):
    def __init__(self, index: int, length: int):
        self.index = index
        self.length = length
        super().__init__(f"body index {index} out of range for length {length}")


class BadNumericCoercionError(EvalError):
    def __init__(self, text: str):
        self.text = text
        super().__init__(f"cannot coerce {text!r} to a number")


class DivisionByZeroError(EvalError):
    pass


class MissingHeaderError(EvalError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no header named {key!r}")


# ---------------------------------------------------------------------------
# routing engine


class RoutingError(ArtifactError):
    pass


class UnknownSchemeError(RoutingError):
    def __init__(self, scheme: str, side: str):
        self.scheme = scheme
        self.side = side
        super().__init__(f"no endpoint component registered for scheme {scheme!r} ({side})")


class UnsupportedEndpointRoleError(RoutingError):
    """The scheme exists but cannot act as the requested route side."""


class InvalidTransitionError(RoutingError):
    pass


class ProcessorEvalError(EvalError):
    """Wraps an EvalError with the index of the processor that raised it."""

    def __init__(self, index: int, cause: EvalError):
        self.index = index
        self.cause = cause
        super().__init__(f"processor[{index}]: {cause}")


class QueueFullError(RoutingError):
    pass


class QueueClosedError(RoutingError):
    pass


class DeliveryError(RoutingError):
    """A producer endpoint could not hand a message to any receiver."""


# ---------------------------------------------------------------------------
# gateway artifacts


class GatewayStoppedError(ArtifactError):
    pass


class RouteNotOwnedError(ArtifactError):
    pass


# ---------------------------------------------------------------------------
# endpoints


class BrokerStoppedError(ArtifactError):
    pass


class UnknownVariableError(ArtifactError):
    pass


class VarStoreProtocolError(ArtifactError):
    pass


class FramingError(ArtifactError):
    """Payload cannot be framed as a single text line."""


class ConnectionClosedError(ArtifactError, ConnectionError):
    """A connection is down, or could not take a frame before its deadline."""


# ---------------------------------------------------------------------------
# bench harness


class NoDataError(ArtifactError):
    pass


class RouteFileError(ArtifactError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"route file line {line}: {message}")
