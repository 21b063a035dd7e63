"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class StarLatticeError(Exception):
    """Base class for package-specific errors."""


class RationalParseError(StarLatticeError):
    """A string is not a canonical exact rational of the form "p" or "p/q"."""


class ConstraintViolation(StarLatticeError):
    """A stencil breaks one of its defining constraints."""


class NotInvertible(StarLatticeError):
    """A formal series with vanishing linear coefficient has no compositional inverse."""


class IndexOutOfRange(StarLatticeError):
    """An operation asked for sequence entries beyond the stored prefix."""


class LengthMismatch(StarLatticeError):
    """Two sequences that must share a length do not."""


class ArityZero(StarLatticeError):
    """Star power of arity zero requested; use the unit sequence instead."""


class OrderTooLarge(StarLatticeError):
    """A difference order exceeds the stored sequence length."""


class NotForwardSolvable(StarLatticeError):
    """The leading coefficient vanishes at the origin, so stepping cannot isolate the next value."""


class RootCertificationError(StarLatticeError, ArithmeticError):
    """Float roots of a factor cannot be proved: their Smith inclusion discs are not pairwise disjoint."""


class FloatOverflow(StarLatticeError, ArithmeticError):
    """A float computation leaves the double range."""


class SingularSystem(StarLatticeError):
    """A solution set has an exactly-zero modified Wronskian (dependent solutions)."""


class PochhammerPole(StarLatticeError):
    """A rising-factorial denominator hits zero."""


class SingularAtOrigin(StarLatticeError):
    """A closed-form solution has a pole at the expansion point."""


class GammaPole(StarLatticeError):
    """A Gamma-ratio prefactor is undefined for the given parameters."""


class SchemaError(StarLatticeError):
    """An input document does not match the equation schema."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")
