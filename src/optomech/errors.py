"""Exception hierarchy for the optomech package."""


class OptomechError(Exception):
    """Base class for all package errors."""


class InvalidParameter(OptomechError, ValueError):
    """A model parameter is non-finite or outside its allowed range, or
    finite parameters drive a formula out of the float range ("... leaves
    the float range"): rounding trouble, never reported as physics."""


class InvalidElement(InvalidParameter):
    """An optical element of the wrong kind: an unknown kind, a mirror
    given a reflection phase, or a tandem given another pair than
    (mirror, membrane)."""


class DegenerateDenominator(OptomechError):
    """A closed-form denominator is zero.  synthetic_response raises it where
    its inputs make the reflection amplitude vanish, and with it mu: t = t_m
    at psi = +-pi (at t = t_m = 0 the transmission denominator too), or
    t = t_m = 1; msi_couplings raises it when the effective mirror's
    reflection rho is zero."""


class NoZeroDispersivePoint(OptomechError):
    """The zero-dispersive condition has no solution for these element
    parameters."""


class NoRootInWindow(OptomechError):
    """A resonance search window contains no root of the resonance equation."""


class BranchAmbiguity(OptomechError):
    """A derivative branch cannot be selected (evaluation on its singular
    locus)."""


class ZeroCoupling(OptomechError):
    """Both optomechanical coupling constants are zero."""


class ConfigError(OptomechError):
    """Invalid configuration input (CLI / scan layer)."""
