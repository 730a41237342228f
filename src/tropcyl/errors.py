"""Exception types shared across the package."""

from __future__ import annotations


class TropcylError(Exception):
    """Base class for all library errors."""


class ZeroVector(TropcylError):
    pass


class NotPrimitive(TropcylError):
    def __init__(self, message: str = "vector is not primitive", index: int | None = None):
        super().__init__(message)
        self.index = index


class TooFewRays(TropcylError):
    pass


class NotSmooth(TropcylError):
    def __init__(self, index: int):
        super().__init__(f"cone between rays {index} and {index + 1} is not smooth")
        self.index = index


class NotComplete(TropcylError):
    pass


class AlreadyRay(TropcylError):
    pass


class LengthMismatch(TropcylError):
    pass


class NegativeMultiplicity(TropcylError):
    def __init__(self, index: int):
        super().__init__(f"blowup multiplicity at ray {index} is negative")
        self.index = index


class RayIndexOutOfRange(TropcylError):
    pass


class ComponentOutOfRange(TropcylError):
    pass


class ModelMismatch(TropcylError):
    pass


class NonRepresentable(TropcylError):
    pass


class NotATropicalCurve(TropcylError):
    pass


class AffineInconsistent(TropcylError):
    pass


class PathThroughOrigin(TropcylError):
    pass


class OutOfPrimitiveScope(TropcylError):
    pass


class NotPrimitiveCylinder(TropcylError):
    pass


class AnchorOrderViolation(TropcylError):
    pass


class AnchorOnWall(TropcylError):
    pass


class IdentityViolation(TropcylError):
    pass


class ConfigError(TropcylError):
    """Raised for malformed configuration input; carries a path-addressed message."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
