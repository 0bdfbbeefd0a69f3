"""Exception types shared across the library.

Domain failures get their own classes so the CLI can map them to exit
code 1 with a machine-readable payload; plain ``ValueError`` is reserved
for caller precondition mistakes (bad indices, malformed input).
"""

from __future__ import annotations


class GreenseqError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class InvalidQuiver(GreenseqError, ValueError):
    code = "invalid-quiver"


class InvalidModule(GreenseqError, ValueError):
    code = "invalid-module"


class InvalidCharge(GreenseqError, ValueError):
    code = "invalid-charge"


class InfiniteStableSet(GreenseqError):
    """The charge admits infinitely many stable modules."""

    code = "infinite-stable-set"


class NonGeneric(GreenseqError):
    """A maximal green sequence was requested from a non-generic charge.

    ``reason`` is ``"tie"`` (two stable modules share a slope) or
    ``"strict-semistable"`` (a semistable-but-not-stable module exists);
    ``culprits`` lists the offending modules.
    """

    code = "non-generic"

    def __init__(self, reason: str, culprits):
        self.reason = reason
        self.culprits = tuple(culprits)
        names = ", ".join(repr(m) for m in self.culprits)
        super().__init__(f"non-generic charge ({reason}): {names}")

    def payload(self) -> dict:
        return {
            "error": self.code,
            "reason": self.reason,
            "culprits": [{"i": m.i, "j": m.j} for m in self.culprits],
            "message": str(self),
        }


class SpliceInvalid(GreenseqError):
    """The two charges cannot be spliced into a single green path."""

    code = "splice-invalid"


class _CertificationError(GreenseqError):
    """A construction missed its target stable set.

    ``missing`` lists the target modules the charge does not make stable
    and ``extra`` the stable modules outside the target, both sorted by
    (i, j); both are empty when the failure is not a set mismatch.
    """

    def __init__(self, message: str, missing=(), extra=()):
        self.missing = tuple(missing)
        self.extra = tuple(extra)
        super().__init__(message)

    def payload(self) -> dict:
        return {
            "error": self.code,
            "missing": [{"i": m.i, "j": m.j} for m in self.missing],
            "extra": [{"i": m.i, "j": m.j} for m in self.extra],
            "message": str(self),
        }


class WitnessSearchFailed(_CertificationError):
    """A witness construction's one template missed its target stable set."""

    code = "witness-search-failed"


class VerificationFailed(_CertificationError):
    """A constructed charge failed its mandatory post-verification."""

    code = "verification-failed"
