"""Exception types shared across the pipeline."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class RingTooSmall(RuntimeError):
    """The sampling ring near the critical normal has fewer pixels than required."""


class InsufficientMatches(RuntimeError):
    """Block matching produced too few reliable correspondences."""


class DegenerateGeometry(RuntimeError):
    """Triangulation normal matrix is singular or near-singular."""


class EmptyOutput(RuntimeError):
    """An image-producing operation has no valid pixels to emit."""
