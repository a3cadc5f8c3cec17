"""Exception hierarchy for the ccve package."""


class CcveError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CcveError):
    pass


class ANotPositiveDefinite(CcveError):
    def __init__(self, player, min_eig):
        self.player = player
        self.min_eig = min_eig
        super().__init__(
            f"A{player} is not positive definite (min eigenvalue {min_eig:.3e})")


class MSingular(CcveError):
    def __init__(self, player, rcond):
        self.player = player
        self.rcond = rcond
        super().__init__(
            f"MSingular({player}): M{player} fails the invertibility threshold "
            f"(1-norm rcond estimate {rcond:.3e})")


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
