"""Exception hierarchy for the Treaty reproduction.

Security violations (integrity/freshness/authentication) are modelled as
exceptions so that tests can assert *detection*: per the paper's threat
model, Treaty detects — but cannot prevent — tampering with untrusted
state, and turns every detected violation into a hard fault.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SecurityError",
    "IntegrityError",
    "FreshnessError",
    "AuthenticationError",
    "AttestationError",
    "ReplayError",
    "TransactionError",
    "TransactionAborted",
    "LockTimeout",
    "CoordinatorUnreachable",
    "ConflictError",
    "StorageError",
    "CorruptLogError",
    "NetworkError",
    "RequestTimeout",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --- security ------------------------------------------------------------


class SecurityError(ReproError):
    """A violation of Treaty's security properties was detected."""


class IntegrityError(SecurityError):
    """Unauthorized modification detected (MAC/hash verification failed)."""


class FreshnessError(SecurityError):
    """Stale state detected (rollback / fork: trusted counter mismatch)."""


class AuthenticationError(SecurityError):
    """A peer or client failed authentication."""


class AttestationError(SecurityError):
    """Enclave attestation failed (wrong measurement or unverified quote)."""


class ReplayError(SecurityError):
    """A message or operation was observed more than once (at-most-once)."""


# --- transactions ----------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction-level failures."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (caller may retry)."""

    def __init__(self, reason: str = "aborted"):
        super().__init__(reason)
        self.reason = reason


class LockTimeout(TransactionAborted):
    """A lock could not be acquired within the configured timeframe (§V-B)."""

    def __init__(self, key: bytes = b""):
        super().__init__("lock timeout on key %r" % (key,))
        self.key = key


class CoordinatorUnreachable(TransactionAborted):
    """The client lost its coordinator mid-request: the outcome of a
    commit in flight is unknown to it (survivors may know, §VII)."""


class ConflictError(TransactionAborted):
    """Optimistic validation failed: a read key changed before commit."""

    def __init__(self, key: bytes = b""):
        super().__init__("optimistic conflict on key %r" % (key,))
        self.key = key


# --- storage / network ------------------------------------------------------


class StorageError(ReproError):
    """A storage-engine fault that is not a security violation."""


class CorruptLogError(StorageError):
    """A log could not be parsed (distinct from a *detected* tamper)."""


class NetworkError(ReproError):
    """Transport-level failure (timeouts, unreachable peer)."""


class RequestTimeout(NetworkError):
    """A request's reply did not arrive by its deadline: the request,
    its reply, or the peer was lost on the way (the peer may be alive)."""
