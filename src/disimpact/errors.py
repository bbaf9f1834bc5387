"""Exception hierarchy shared across the package."""


class DisimpactError(Exception):
    """Base class for all package-specific errors; the CLI exits with ``exit_code``."""

    exit_code = 1


class OutOfRange(DisimpactError):
    """A category code or numeric argument fell outside its allowed range."""


class MalformedInput(DisimpactError):
    """An input file is unusable."""

    exit_code = 2


class MalformedCsv(MalformedInput):
    """A CSV file violates its documented schema."""


class NegativeValue(MalformedInput):
    """A value that must be nonnegative was negative."""


class UnknownPostId(MalformedInput):
    """A label referenced a post id that is not in the dataset."""


class InputChanged(DisimpactError):
    """An input file changed while a command was reading it."""


class TransportError(DisimpactError):
    """A classifier backend failed at the transport level (after retries)."""

    exit_code = 3
    # A backend sets it False on a failure that asking again cannot mend.
    retryable = True


class MalformedResponse(DisimpactError):
    """A classifier backend returned an unparseable judgment."""


class BeforeAnchor(DisimpactError):
    """A timestamp precedes the configured window anchor."""


class MisalignedRange(DisimpactError):
    """A requested range does not sit on window boundaries."""


class InvalidCounts(DisimpactError):
    """Count arguments violate n <= total or nonnegativity."""


class EmptyInput(DisimpactError):
    """An operation that needs at least one element got none."""


class EmptyTable(DisimpactError):
    """An agreement table has no items or too few annotators."""


class DegenerateExpected(DisimpactError):
    """Chance agreement is 1, so the kappa correction is undefined."""


class LengthMismatch(DisimpactError):
    """Two paired sequences differ in length."""


class EvenRaterCount(DisimpactError):
    """Majority consensus is undefined for an even number of raters."""


class ConstantInput(DisimpactError):
    """A rank correlation was requested on a constant vector."""


class MisalignedGrids(DisimpactError):
    """Two weekly series do not share the same 7-day phase."""


class AllLagsUndefined(DisimpactError):
    """No lag in a correlation profile had enough overlap to be defined."""


class UnknownColumn(MalformedInput):
    """A CSV input does not carry the column a command expects."""
