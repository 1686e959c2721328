"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ProcessKilled(ReproError):
    """A simulated process was forcibly terminated."""


class ConfigurationError(ReproError):
    """A configuration input (a Damaris XML file, an environment knob)
    is invalid or incomplete."""


class ShmAllocationError(ReproError):
    """The shared-memory segment cannot satisfy an allocation request."""


class UnknownVariableError(ConfigurationError):
    """A client wrote a variable that the configuration does not declare."""


class UnknownEventError(ConfigurationError):
    """A client signalled an event that the configuration does not declare."""


class UnknownLayoutError(ConfigurationError):
    """A variable references a layout that the configuration does not declare."""


class PluginError(ReproError):
    """A user plugin failed to load or raised during execution."""


class StorageError(ReproError):
    """A simulated file-system operation failed."""


class FileExistsInFSError(StorageError):
    """Attempted to create a file that already exists (without overwrite)."""


class FileNotFoundInFSError(StorageError):
    """Attempted to open a file that does not exist."""


class MPIError(ReproError):
    """A simulated MPI operation was used incorrectly."""


class FormatError(ReproError):
    """An SHDF container or layout descriptor is malformed."""


class RuntimeShutdownError(ReproError):
    """The real (threaded) Damaris runtime was used after shutdown."""
