"""Exception types shared across the package.

Everything derives from ModpartError so callers can catch the package's
errors in one clause; the concrete classes name the violated precondition
(the CLI prints the class name on exit code 2, except for an ArgumentError,
whose text names the argument).
"""


class ModpartError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(ModpartError, ValueError):
    """An argument other than a partition or a prime has the wrong type or
    value: a count, a residue, a sign, a node, a check id, a list of primes,
    checks or reports, or a sweep bound."""


class PartitionError(ModpartError, ValueError):
    """Invalid partition input."""


class MalformedPartition(PartitionError):
    """Partition text that does not match the plain or exponent grammar."""


class NonPositivePart(PartitionError):
    """A part was zero or negative."""


class NotWeaklyDecreasing(PartitionError):
    """Parts were not weakly decreasing."""


class EmptyPartition(PartitionError):
    """An operation that needs at least one part got the empty partition."""


class OddPrimeRequired(ModpartError, ValueError):
    """The characteristic must be an odd prime (p >= 3; p = 2 is rejected)."""


class NotPRegular(ModpartError, ValueError):
    """An operation defined only on p-regular partitions got a p-singular one."""


class SignRequired(ModpartError, ValueError):
    """A self-associate label needs an explicit sign."""


class SignOnNonFixed(ModpartError, ValueError):
    """A sign was supplied for a label that splits into no signed pair."""


class LabelMismatch(ModpartError, ValueError):
    """Two labels that should share n and p do not."""


class UnsupportedCharacteristic(ModpartError, ValueError):
    """The tensor-product classifier only supports p = 5."""


class DimensionOneFactor(ModpartError, ValueError):
    """Tensor factors of dimension one are outside the classifier's contract."""


class InternalInconsistency(ModpartError, RuntimeError):
    """A derived object violated an invariant the theory guarantees."""


class ReconstructionFailure(ModpartError, RuntimeError):
    """Symbol reconstruction did not produce exactly one candidate (a bug)."""


class SweepTooLarge(ModpartError, ValueError):
    """A verification sweep exceeded the configured ceiling."""
