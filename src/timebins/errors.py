"""Exception types shared across the package."""

__all__ = ["GuardError"]


class GuardError(RuntimeError):
    """A numeric guard tripped: truncation loss, recurrence, overflow, or drift."""
