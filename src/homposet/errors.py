"""Exception types raised across the package."""


class HomPosetError(Exception):
    """Base class for all library errors."""


class ZeroRingExcluded(HomPosetError):
    """The one-element ring is rejected everywhere it is not explicitly allowed."""


class NotPrime(HomPosetError):
    """A field constructor received a composite characteristic."""


class BaseNotField(HomPosetError):
    """Matrix rings are only built over finite fields here."""


class ImproperIdeal(HomPosetError):
    """An operation needing a proper ideal received the whole ring."""


class NotAnIdeal(HomPosetError):
    """A member set failed the two-sided ideal closure checks."""


class CapExceeded(HomPosetError):
    """A requested carrier or search exceeds the configured caps."""


class RingMismatch(HomPosetError):
    """Operands live over different rings."""


class NotCommutative(HomPosetError):
    """A commutative-only operation received a noncommutative ring."""


class NotAProduct(HomPosetError):
    """Corner decomposition needs a source built by make_product."""


class NotComposable(HomPosetError):
    """Morphisms do not chain: a target disagrees with the next source."""


class NoFactorization(HomPosetError):
    """The universal factoring hypotheses fail for the given morphisms."""


class InvalidPair(HomPosetError):
    """A kernel/unit-preimage pair fails its defining invariants."""
