"""Exception types shared across the package."""


class TcamSplitError(Exception):
    """Base class for all validation and capacity errors."""


class ZeroWeight(TcamSplitError):
    pass


class BadSum(TcamSplitError):
    pass


class WidthOverflow(TcamSplitError):
    pass


class IndexOutOfRange(TcamSplitError):
    pass


class KTooLarge(TcamSplitError):
    pass


class KTooSmall(TcamSplitError):
    pass


class InstanceTooLarge(TcamSplitError):
    pass


class WidthTooSmall(TcamSplitError):
    pass


class WidthMismatch(TcamSplitError):
    pass


class IncompleteCover(TcamSplitError):
    pass


class InternalInvariantViolated(TcamSplitError):
    pass


class TooLargeToEvaluate(TcamSplitError):
    pass


class BadProbability(TcamSplitError):
    pass


class AllZero(TcamSplitError):
    pass


class BadCount(TcamSplitError):
    pass


class BadOracleInput(TcamSplitError):
    pass
