"""Exception hierarchy for the optomech package."""


class OptomechError(Exception):
    """Base class for all package errors."""


class InvalidParameter(OptomechError, ValueError):
    """A model parameter is non-finite or outside its allowed range."""


class InvalidElement(OptomechError):
    """An optical element has an unknown kind, an amplitude outside [0, 1]
    or a non-finite phase."""


class DegenerateDenominator(OptomechError):
    """A closed-form denominator is numerically zero (perfect reflectors in
    anti-resonance)."""


class NoZeroDispersivePoint(OptomechError):
    """The zero-dispersive condition has no solution for these element
    parameters."""


class NoRootInWindow(OptomechError):
    """A resonance search window contains no root of the resonance equation."""


class BranchAmbiguity(OptomechError):
    """A derivative branch cannot be selected (evaluation on its singular
    locus)."""


class SingularSystem(OptomechError):
    """The intracavity linear system is singular."""


class ZeroCoupling(OptomechError):
    """Both optomechanical coupling constants are zero."""


class ConfigError(OptomechError):
    """Invalid configuration input (CLI / scan layer)."""
