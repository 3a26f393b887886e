"""Shared exception types."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ClampedTimeError(DomainError):
    """Time is inside the clamped band next to t=1 where velocity targets blow up."""


class IntegrationError(RuntimeError):
    """The sampler produced a non-finite state; carries the failing step index."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class TrainingError(RuntimeError):
    """Training hit a non-finite loss or gradient; carries step and objective."""

    def __init__(self, message: str, step_index: int, objective: str):
        super().__init__(message)
        self.step_index = step_index
        self.objective = objective


class EvaluationError(RuntimeError):
    """A score of sampled endpoints (paired MSE, energy distance, ...) is not finite."""
