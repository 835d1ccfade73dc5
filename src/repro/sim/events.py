"""The kernel's error type."""


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delay, empty calendar, ...)."""
