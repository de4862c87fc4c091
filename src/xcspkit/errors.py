"""Exception hierarchy shared by all xcspkit modules."""

from __future__ import annotations

from .record import record


@record
class SourceLocation:
    """1-based position inside an XML document."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class XcspError(Exception):
    """Base class for all errors raised by this package."""


class UnboundVariableError(XcspError):
    def __init__(self, var_id: str):
        super().__init__(f"variable {var_id!r} is not bound")
        self.var_id = var_id


class ScopeMismatchError(XcspError):
    pass


class NotAnOptimizationInstanceError(XcspError):
    pass


class XmlSyntaxError(XcspError):
    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{message} ({location})")
        self.location = location


class UnsupportedFeatureError(XcspError):
    def __init__(self, feature: str, location: SourceLocation | None = None):
        where = f" ({location})" if location else ""
        super().__init__(f"unsupported feature: {feature}{where}")
        self.feature = feature
        self.location = location


class InvariantViolationError(XcspError):
    """Raised when an instance fails validation; carries the full report
    and, for a parsed document, where the first violation's element is."""

    def __init__(self, report, location: SourceLocation | None = None):
        where = f" ({location})" if location else ""
        super().__init__("; ".join(str(v) for v in report) + where)
        self.report = list(report)
        self.location = location


class LengthMismatchError(XcspError):
    pass


class BadParameterError(XcspError):
    pass


class NonIntegralMagicError(BadParameterError):
    pass


class UnknownVariantError(XcspError):
    def __init__(self, problem: str, variant: str):
        super().__init__(f"unknown variant {variant!r} for problem {problem!r}")
        self.problem = problem
        self.variant = variant


class SchemaMismatchError(XcspError):
    pass


class InvalidInstanceError(XcspError):
    pass


class SpawnFailureError(XcspError):
    pass


class ProtocolViolationError(XcspError):
    def __init__(self, line: str):
        super().__init__(f"malformed solver output line: {line!r}")
        self.line = line


class DuplicateRecordError(XcspError):
    pass


class UnknownModeError(XcspError):
    pass
