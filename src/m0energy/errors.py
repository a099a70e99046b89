"""Exception hierarchy shared across the simulator and analysis modules."""


class M0EnergyError(Exception):
    """Base class for all errors raised by this package."""


class MalformedImageError(M0EnergyError):
    """Binary image too short or otherwise unloadable."""


class BadEntryError(M0EnergyError):
    """Reset vector or user entry point outside executable memory."""


class UndefinedInstructionError(M0EnergyError):
    """Encoding is not part of the supported ARMv6-M subset."""

    def __init__(self, addr, raw, reason="undefined instruction"):
        self.addr = addr
        self.raw = raw
        super().__init__("%s 0x%04x at 0x%08x" % (reason, raw, addr))


class MemoryFault(M0EnergyError):
    """Access outside mapped regions, misaligned, or write to Flash."""

    def __init__(self, addr, kind):
        self.addr = addr
        self.kind = kind  # unmapped | misaligned | write-to-flash
        super().__init__("%s at 0x%08x" % (kind, addr))


class InvalidStateFault(M0EnergyError):
    """Interworking branch (BX, BLX, POP into pc) to a target with the
    Thumb bit clear; ARMv6-M has no ARM state and takes an INVSTATE fault."""

    def __init__(self, target):
        self.target = target
        super().__init__("INVSTATE: branch to 0x%08x with the Thumb bit clear"
                         % target)


class InvalidConfigError(M0EnergyError):
    """Hardware configuration outside the ten supported combinations."""


class DatasetError(M0EnergyError):
    """Regression dataset malformed or too small."""


class DegenerateDesignError(DatasetError):
    """Counter matrix is rank-deficient."""

    def __init__(self, rank, dependent_columns):
        self.rank = rank
        self.dependent_columns = list(dependent_columns)
        super().__init__(
            "design matrix is rank-deficient (rank %d < 6); dependent columns: %s"
            % (rank, ", ".join(dependent_columns) or "unidentified")
        )


class AnalysisError(M0EnergyError):
    """Static analysis hit undecodable bytes at a reachable address."""

    def __init__(self, addr, detail):
        self.addr = addr
        super().__init__("%s at 0x%08x" % (detail, addr))


class PathError(M0EnergyError):
    """Block sequence handed to path_energy is not connected in the CFG."""
