"""Exception types raised by the library."""


class ModrotorError(Exception):
    """Base class for all errors raised by this package."""


class AssemblyError(ModrotorError):
    """Structure assembly failed (grid collision, mixed frame sizes, degenerate map)."""


class AllocationError(ModrotorError):
    """Thrust allocation is impossible for the structure's actuation rank."""


class ControlDegeneracyError(ModrotorError):
    """The control law cannot act on its input: the desired acceleration is
    too small or too aligned with the attitude target to define an attitude,
    or the commanded acceleration or the commanded wrench is not finite."""


class IntegrationError(ModrotorError):
    """The integrator produced a non-finite state."""


class SimulationError(ModrotorError):
    """Closed-loop run aborted; message carries the failing timestep."""


class ConfigError(ModrotorError):
    """Configuration text failed to parse or validate."""
