"""Exception hierarchy for the ccve package."""


class CcveError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CcveError):
    pass


class ANotPositiveDefinite(CcveError):
    def __init__(self, player, min_eig=None):
        self.player = player
        self.min_eig = min_eig
        msg = f"A{player} is not positive definite"
        if min_eig is not None:
            msg += f" (min eigenvalue {min_eig:.3e})"
        super().__init__(msg)


class MSingular(CcveError):
    def __init__(self, player, rcond=None):
        self.player = player
        self.rcond = rcond
        msg = f"MSingular({player}): M{player} fails the invertibility threshold"
        if rcond is not None:
            msg += f" (1-norm rcond estimate {rcond:.3e})"
        super().__init__(msg)


class EigFailure(CcveError):
    pass


class ConjugatePairSplit(CcveError):
    """Selection boundary falls inside a complex conjugate pair."""


class SingularBestResponse(CcveError):
    def __init__(self, player):
        self.player = player
        super().__init__(f"SingularBestResponse({player})")


class SingularComposite(CcveError):
    def __init__(self, player):
        self.player = player
        super().__init__(f"SingularComposite({player})")


class SubspaceNotGraph(CcveError):
    """Top block Y1 of the invariant-subspace basis is numerically singular."""


class SingularActionSystem(CcveError):
    pass


class SingularNashSystem(CcveError):
    pass


class SingularSocialSystem(CcveError):
    pass


class NotAFixedPoint(CcveError):
    pass


class NoStableSelection(CcveError):
    """The largest-magnitude candidate is rejected (the ``__cause__``) or unstable.

    Auto mode tries only that selection: no other can certify stable.
    """


class EnumerationTooLarge(CcveError):
    pass


class DegenerateScalar(CcveError):
    pass


class ComplexFixedPoints(CcveError):
    """Scalar composite map has complex fixed points (elliptic case)."""
