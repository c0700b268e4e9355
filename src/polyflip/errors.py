"""Exception types shared across the package."""


class PolyflipError(Exception):
    """Base class for all library errors.

    The first argument is the message; an optional second argument is a
    JSON-ready counterexample, which verification reports carry.
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""

    @property
    def counterexample(self):
        return self.args[1] if len(self.args) > 1 else None


class MalformedDissection(PolyflipError):
    """Chord set does not define a valid (m+2)-angulation."""


class SizeGuardExceeded(PolyflipError):
    """Requested exhaustive computation exceeds the configured size guard."""


class NotAQ0Diagonal(PolyflipError):
    """Flip requested on a diagonal that is not a shared fan diagonal."""


class ArityMismatch(PolyflipError):
    """Gluing data with inconsistent shapes."""


class NotFinal(PolyflipError):
    """Operation defined only for final dissections."""


class NoWitness(PolyflipError):
    """No fan diagonal crosses exactly one diagonal; falsifies the descent lemma."""


class DecompositionFailure(PolyflipError):
    """Interval does not split as glue(b0; parts); falsifies interval reduction."""


class StructureViolation(PolyflipError):
    """An interval failed the distributive forest-ideal structure checks."""


class EmptyCrossing(PolyflipError):
    """A non-fan diagonal crossing no fan diagonal (impossible in valid input)."""


class ConstructionStuck(PolyflipError):
    """Fan construction ran out of admissible starting vertices (non-Dyck input)."""


class NotDyck(PolyflipError):
    """Vector fails the m-Dyck prefix condition."""


class VerificationFailure(PolyflipError):
    """A verification routine found a counterexample."""
