"""Exception types shared across the package."""

__all__ = ["GuardError", "StateError"]


class GuardError(RuntimeError):
    """A numeric guard tripped: an incomplete Kraus family, recurrence, or overflow."""


class StateError(ValueError):
    """A state failed a density-matrix check (raised by ``channel.check_states``)."""
