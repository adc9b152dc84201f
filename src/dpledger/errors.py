"""Exception types shared across the package."""


class DPLedgerError(Exception):
    """Base class for every error raised by this library."""


# --- transaction and ledger validation ---

class InvalidQuantity(DPLedgerError):
    """Write quantity outside the allowed per-transaction range."""


class MissingField(DPLedgerError):
    """A required string field is empty."""


class EmptyBatch(DPLedgerError):
    """Tried to build a block from an empty transaction batch."""


# --- mechanism parameters ---

class NonPositiveEpsilon(DPLedgerError):
    """Epsilon is non-positive or below the enforced floor."""


class NonPositiveSensitivity(DPLedgerError):
    pass


class IncompatibleBinning(DPLedgerError):
    """Histograms do not share bin edges, so they cannot be compared."""


class EmptyHistogram(DPLedgerError):
    """A histogram holds no samples, so it has no frequencies to compare."""


class UnsupportedAggregate(DPLedgerError):
    """Only COUNT and SUM queries are supported."""


# --- budget accounting ---

class ZeroQueries(DPLedgerError):
    pass


class BudgetExhausted(DPLedgerError):
    """Remaining budget cannot cover the requested spend; state is unchanged."""


# --- network flow ---

class NotMember(DPLedgerError):
    """Peer is not a member of the channel."""


class NotAuthorized(DPLedgerError):
    """Client is not a registered participant on the channel."""


class ValidationFailure(DPLedgerError):
    pass


# --- adversary harness ---

class PredicateMismatch(DPLedgerError):
    """Observed responses do not cover the attack target."""


class NoCommonQueries(DPLedgerError):
    pass


# --- benchmark and reporting ---

class ZeroActual(DPLedgerError):
    """Relative error is undefined when the actual value is zero."""


class ConfigInvalid(DPLedgerError):
    pass


class IoFailure(DPLedgerError):
    pass
