"""Exception hierarchy shared by all goodmeasures modules."""


class GoodMeasuresError(Exception):
    """Base class for every domain error raised by this package."""


class NotInV(GoodMeasuresError):
    """A value lies outside the clopen values set it was required to be in."""


class SumMismatch(GoodMeasuresError):
    """Two quantities that must sum to the same total do not."""


class NonRationalScale(GoodMeasuresError):
    """Value-set scaling was requested for a non-rational scale or value set."""


class NotGroupLike(GoodMeasuresError):
    """The descriptor does not describe a (countably infinite) group-like set."""


class InvalidChallenge(GoodMeasuresError):
    """A morphism challenge handed to the chain engine is not a valid morphism."""


class NotSmaller(GoodMeasuresError):
    """subset witnesses require a strictly smaller measure on the first set."""


class WeightMismatch(GoodMeasuresError):
    """A cell bijection does not preserve weights."""


class NotEquiSummed(GoodMeasuresError):
    """A matrix violates the equal row/column sum condition."""


class NotCycleObject(GoodMeasuresError):
    """A matrix expected to have one nonzero entry per row does not."""


class DepthTooShallow(GoodMeasuresError):
    """An automorphism prefix is not deep enough for the requested check."""


class MassMismatch(GoodMeasuresError):
    """Cycle tuples with different masses where equal masses are required."""


class NotRingLike(GoodMeasuresError):
    """An operation requiring a ring-like value set was invoked without one."""


class NotQLike(GoodMeasuresError):
    """An operation requiring a Q-like value set was invoked without one."""


class PreconditionFailed(GoodMeasuresError):
    """A named precondition of an analysis operation failed.

    The offending check is named in ``check``.
    """

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        super().__init__(f"precondition failed: {check}" + (f" ({detail})" if detail else ""))


class ComponentMixing(GoodMeasuresError):
    """A partial isomorphism maps across composite components with incompatible values."""


class NotAValue(GoodMeasuresError):
    """A target is not attained by the composite measure on any clopen set."""


class NotSeparable(GoodMeasuresError):
    """A composite is not coefficient-separable and cannot be represented."""


class PrecisionExhausted(GoodMeasuresError):
    """An enclosure oracle cannot reach the requested interval width."""


class EffortExhausted(GoodMeasuresError):
    """A bounded search used up its effort before reaching a verdict."""
