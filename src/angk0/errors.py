"""Exception types shared across the package."""


class AngK0Error(Exception):
    """Base class for errors raised by this package."""


class InfiniteGroupError(AngK0Error):
    """An operation requiring a finite group was given an infinite one."""


class NotWellDefinedError(AngK0Error):
    """A candidate homomorphism does not kill the source relations.

    The `witness` attribute holds a relation row whose image falls outside
    the target relation lattice.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EvenNUnsupportedError(AngK0Error):
    """A classification construction was requested for even n."""


class _ViolationsError(AngK0Error):
    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class InvalidTensorError(_ViolationsError):
    """A tensor table failed validation; `violations` lists the reasons."""


class InvalidEmbeddingError(_ViolationsError, ValueError):
    """An embedding failed validation; `violations` lists the reasons."""


class WitnessBoundError(AngK0Error):
    """A class-equality witness would exceed its size limit; raised first."""
