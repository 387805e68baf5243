"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed user input: bad dimensions, unknown names, schema violations."""


class BudgetError(RuntimeError):
    """An enumeration bound would be exceeded (too many formulas, slots, ...)."""


class NegationViolation(RuntimeError):
    """No measurement swaps fixpoints and zeros with the given one."""

    def __init__(self, measurement: str, message: str | None = None):
        self.measurement = measurement
        super().__init__(message or f"no negation for measurement {measurement!r}")


class ClosureViolation(RuntimeError):
    """A map that the axioms promise to be a measurement is not in M."""


class OrderViolation(RuntimeError):
    """The fixpoint order and the zero-set order disagree on a pair; the
    defining laws make them coincide."""


class NotCommutingError(ValueError):
    """A connective was requested for a non-commuting pair."""

    def __init__(self, first: str, second: str):
        self.pair = (first, second)
        super().__init__(f"measurements {first!r} and {second!r} do not commute")


class NotStronglySeparable(RuntimeError):
    """A state has no point measurement, so point-based checks cannot run."""

    def __init__(self, state: str):
        self.state = state
        super().__init__(f"state {state!r} has no point measurement")
