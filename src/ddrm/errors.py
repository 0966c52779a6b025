"""Exception hierarchy for the DDRM simulator.

Every protocol-level rejection raises a distinct DdrmError subclass so
scenario code can record denials without string matching. Operations
validate all preconditions before mutating anything, so catching a
DdrmError always leaves the simulation in its pre-call state.
"""


class DdrmError(Exception):
    """Base class for all protocol and configuration errors."""


class ConfigError(DdrmError):
    """Invalid or malformed run configuration."""


class ValidationError(DdrmError):
    """A precondition not covered by a more specific error."""


class InvariantViolation(DdrmError):
    """An internal consistency check (conservation, chain) failed."""


# --- ledger ---

class InsufficientFunds(DdrmError):
    """Account balance cannot cover the requested debit."""


class PoolTooSmall(DdrmError):
    """Beacon draw requested more items than the pool holds."""


class UnknownAccount(DdrmError):
    """Ledger account does not exist."""


# --- identity ---

class DuplicateCard(DdrmError):
    """Card fingerprint is already bound to a registration."""


class UnknownParticipant(DdrmError):
    """No participant with that id."""


class ParticipantExcluded(DdrmError):
    """Participant has been excluded and may not transact."""


# --- marketplace ---

class UnknownService(DdrmError):
    """No service with that id."""


class NotOwner(DdrmError):
    """Caller is not the provider of the listing."""


class ServiceWithdrawn(DdrmError):
    """Listing no longer accepts purchases."""


class NoPurchase(DdrmError):
    """Purchase does not exist or does not belong to the caller."""


# --- tokens ---

class TokenNotActive(DdrmError):
    """Token already burned, consumed, expired, or voided."""


class TokenExpired(DdrmError):
    """Token lifetime has elapsed."""


class NotSelectedEndorser(DdrmError):
    """Caller is not on the service's selected-endorser roster."""


# --- reviews and endorsement ---

class AlreadyReviewed(DdrmError):
    """The purchase already has a review."""


class NoValidSrat(DdrmError):
    """No active, unexpired review-authorization token for the purchase."""


class NoValidSrdt(DdrmError):
    """No active, unexpired discount token for the service."""


class FundExhausted(DdrmError):
    """Service review fund cannot cover the submission subsidy."""


class DuplicateEndorsement(DdrmError):
    """Endorser already voted on this review."""


class ReviewAlreadyBadged(DdrmError):
    """Review has left the Pending state."""


class NoReviews(DdrmError):
    """Service has no reviews to bootstrap endorsers from."""


# --- refunds ---

class AlreadyRefunded(DdrmError):
    """Purchase already refunded."""


class DuplicateClaim(DdrmError):
    """An open or approved claim already exists for the purchase."""


class ClaimWindowClosed(DdrmError):
    """Too many ticks have passed since the purchase."""


class NoEndorsersAvailable(DdrmError):
    """Service has no selected endorsers to form a panel."""


class NotPanelMember(DdrmError):
    """Voter is not on the claim's panel."""


class DuplicateVote(DdrmError):
    """Panel member already voted on this claim."""


class ClaimClosed(DdrmError):
    """Claim already settled."""


# --- log verification ---

class ChainBroken(DdrmError):
    """Event log hash chain failed verification."""

    def __init__(self, seq: int, reason: str):
        self.seq = seq
        self.reason = reason      # which check failed at seq
        super().__init__(f"chain broken at seq {seq}: {reason}")


class MalformedEvent(DdrmError):
    """Event log line could not be parsed."""
