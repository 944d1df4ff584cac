"""Exception types shared across the package."""


class FinspaceError(Exception):
    pass


class InvalidParameter(FinspaceError):
    pass


class CycleDetected(InvalidParameter):
    """The covering relation would force some x < x: a bad input, like
    any other ``InvalidParameter``."""


class NotOrderPreserving(FinspaceError):
    """Raised with a witness (x, x2) where x <= x2 but f(x) !<= f(x2)."""

    def __init__(self, x, x2, fx, fx2):
        self.witness = (x, x2, fx, fx2)
        super().__init__(
            f"not order-preserving: {x} <= {x2} but f({x})={fx} !<= f({x2})={fx2}"
        )


class MismatchedSpaces(FinspaceError):
    pass


class MismatchedSizes(FinspaceError):
    pass


class NotOpen(FinspaceError):
    pass


class NotContinuous(FinspaceError):
    def __init__(self, stage, witness):
        self.stage = stage
        self.witness = witness
        super().__init__(f"stage {stage!r} is not continuous at {witness}")


class BudgetExceeded(FinspaceError):
    pass


class BaseMismatch(FinspaceError):
    pass
