"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid grid/solver/experiment configuration or mismatched operands."""


class EvaluationError(ValueError):
    """A symbol or multiplier produced a non-finite value."""


class DomainError(ValueError):
    """Evaluation requested outside a declared frequency band."""


class BlowUpError(RuntimeError):
    """Solution left the representable range; carries the blow-up time and
    the last valid time."""

    def __init__(self, message, time, last_valid_time):
        super().__init__(message)
        self.time = time
        self.last_valid_time = last_valid_time
