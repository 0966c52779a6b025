"""Simulated append-only ledger: accounts, gas metering, event log, ticks.

Money is integer Wei throughout (1 Ether = 10**18 Wei, 1 Gwei = 10**9 Wei);
arithmetic is exact and balances can never go negative. Gas is charged by a
config.GasSchedule, which holds every rule on its values. Every state change
appends an EventRecord to a hash chain:

    hash = sha256("{seq}|{tick}|{kind}|{payload_json}|{prev_hash}")

where payload_json is the canonical JSON encoding (sorted keys, compact
separators, UTF-8) and the genesis record's prev_hash is 64 zero hex digits.
A record is its bytes: append_event keeps payload_json and drops the dict, and
write_log, the one export, streams those bytes into one line per record of a
binary file. iter_log_lines, the one reader and the only chain check, takes
those exact bytes, LF included, as strict UTF-8, holding one line and one
record at a time. It accepts a line only in its exact export form: the
envelope is matched in place, and the payload text against a regular
expression compiled from its kind's row of EVENTS, the table of the log's
format, that matches exactly the canonical texts of the payloads that fit
the row. No payload is decoded to accept it; a read record decodes its
payload when something reads it. Any other line is parsed in full only to
name what broke. A live chain is checked by reading back what write_log
writes. The codec needs CPython's `_json`.
Digests are SHA-256, hex-encoded lowercase. The randomness beacon is a
seeded Mersenne Twister behind a partial Fisher-Yates draw, so identical
(seed, call sequence) always reproduces identical output and therefore an
identical final log hash.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import (
    ChainBroken,
    InsufficientFunds,
    MalformedEvent,
    PoolTooSmall,
    UnknownAccount,
    ValidationError,
)

if TYPE_CHECKING:  # config imports this module
    from .config import GasSchedule

WEI_PER_GWEI = 10**9
WEI_PER_ETHER = 10**18
MAX_WEI = 2**256 - 1  # a uint256, as on Ethereum

ZERO_DIGEST = "0" * 64

# Operation kinds with a gas schedule entry.
OP_ADD_SERVICE = "add_service"
OP_REQUEST_SERVICE = "request_service"
OP_ENDORSE_REVIEW = "endorse_review"
GAS_OPS = (OP_ADD_SERVICE, OP_REQUEST_SERVICE, OP_ENDORSE_REVIEW)

# The account gas and review subsidies are paid into; no participant (P0001),
# service (SVC-0001) or the faucet (FAUCET) is ever named so.
GAS_SINK = "GAS-SINK"


# JSON's number syntax: no blank, underscore, leading "+" or ".", NaN or Infinity.
_JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def quoted(value, limit: int = 60) -> str:
    """repr(value) for an error message, cut to about `limit` characters."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit - 20]}... ({len(text)} characters)"


def json_number(value) -> Decimal:
    """A JSON number, or a string in JSON's number syntax, as an exact Decimal; else ValidationError."""
    text = str(value)
    if isinstance(value, bool) or not _JSON_NUMBER.fullmatch(text):
        raise ValidationError(f"{quoted(value)} is not a number")
    return Decimal(text)


def ether(amount, unit: int = WEI_PER_ETHER) -> int:
    """A json_number() of `unit` Wei (Ether by default) as whole Wei within MAX_WEI, else ValidationError."""
    number = json_number(amount)
    # An exact comparison, made before the product, which could leave the exponent range.
    if number.copy_abs() > Fraction(MAX_WEI, unit):
        raise ValidationError(f"{quoted(amount)} is more than 2**256 - 1 Wei")
    wei = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN).multiply(number, unit)  # rounds no digit
    if wei != wei.to_integral_value():
        raise ValidationError(f"{quoted(amount)} is not a whole number of Wei")
    return int(wei)


def format_ether(wei: int, places: int = 6) -> str:
    """Render Wei as a fixed-point Ether string, rounded exactly, half away from zero (ROUND_HALF_UP)."""
    scale = 10**places
    units = (2 * abs(wei) * scale + WEI_PER_ETHER) // (2 * WEI_PER_ETHER)  # in 10**-places Ether, half up
    sign = "-" if wei < 0 else ""
    return f"{sign}{units // scale}.{units % scale:0{places}d}" if places else f"{sign}{units}"


_encode_str = json.encoder.encode_basestring_ascii
# One C encoder for every payload, built once (JSONEncoder.encode builds one
# per call): sorted keys, ":" and ",", ASCII, allow_nan. It keeps no
# circular-marker dict, so no state outlives a call; payloads are trees.
_encode = json.encoder.c_make_encoder(None, json.JSONEncoder().default, _encode_str, None, ":", ",", True, False, True)
_raw_decode = json.JSONDecoder().raw_decode
_scan = json.scanner.c_make_scanner(json.JSONDecoder())  # (value, end) of the JSON text at an index


def canonical_payload(payload: dict) -> str:
    """Canonical JSON used both for hashing and for log export."""
    return "".join(_encode(payload, 0))


def record_hash(seq: int, tick: int, kind: str, payload_json: str, prev_hash: str) -> str:
    preimage = f"{seq}|{tick}|{kind}|{payload_json}|{prev_hash}"
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


# Not frozen: a frozen dataclass sets each field through object.__setattr__, which
# makes building a record about 5x slower. iter_log_lines recomputes every field.
@dataclass(slots=True)
class EventRecord:
    seq: int
    tick: int
    kind: str
    payload_json: str  # the canonical payload bytes the hash covers and export writes
    prev_hash: str
    hash: str
    # The payload dict of a read record, decoded on its first access and then kept; None on a
    # live record and on a record built any other way (dataclasses.replace included).
    _decoded: dict | None = field(default=None, init=False, compare=False, repr=False)
    _read: bool = field(default=False, init=False, compare=False, repr=False)  # the reader accepted it

    @property
    def payload(self) -> dict:
        """payload_json as a dict, decoded when read, by the C scanner (json.loads wraps it in more checks).

        A read record (from iter_log_lines or from_json_line) keeps the dict, so the replay fold, and an
        edit made through it, use one decode; any other record decodes afresh on every access, so no
        edit of the dict it returns reaches the bytes its hash covers.
        """
        decoded = self._decoded
        if decoded is None:
            decoded = _scan(self.payload_json, 0)[0]
            if self._read:
                self._decoded = decoded
        return decoded

    def to_json_line(self) -> str:
        """The record as one canonical JSON object (sorted keys, compact, ASCII)."""
        return (
            f'{{"hash":{_encode_str(self.hash)},"kind":{_encode_str(self.kind)},'
            f'"payload":{self.payload_json},"prev_hash":{_encode_str(self.prev_hash)},'
            f'"seq":{self.seq},"tick":{self.tick}}}'
        )

    @staticmethod
    def from_json_line(line: str) -> "EventRecord":
        try:
            doc, end = _raw_decode(line)  # unlike json.loads, skips no whitespace
        except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
            raise MalformedEvent(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise MalformedEvent("JSON nested too deeply") from exc
        if end != len(line):
            raise MalformedEvent(f"data after the JSON object at column {end}")
        if not isinstance(doc, dict):
            raise MalformedEvent("event line is not a JSON object")
        try:
            # Positional: keyword arguments cost a dataclass constructor more. payload_json follows.
            record = EventRecord(doc["seq"], doc["tick"], doc["kind"], "", doc["prev_hash"], doc["hash"])
            payload = record._decoded = doc["payload"]
        except KeyError as exc:
            raise MalformedEvent(f"event missing field {exc}") from exc
        # `type(...) is int` also refuses bools, which are ints to isinstance.
        if type(record.seq) is not int or type(record.tick) is not int:
            raise MalformedEvent(f"seq and tick must be integers, not {record.seq!r} and {record.tick!r}")
        if type(record.kind) is not str or type(record.hash) is not str or type(record.prev_hash) is not str:
            raise MalformedEvent("kind, hash and prev_hash must be strings")
        if type(payload) is not dict:
            raise MalformedEvent(f"payload must be a JSON object, not {type(payload).__name__}")
        record.payload_json = canonical_payload(payload)
        return record


class RandomBeacon:
    """Deterministic randomness source (seeded MT19937 plus a draw counter)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.counter = 0
        self._rng = random.Random(seed)

    def draw(self, pool, k: int) -> list:
        """Sample k distinct items without replacement.

        The caller passes the pool in its canonical order (normally sorted
        by id); the draw is a partial Fisher-Yates shuffle over that order,
        so results depend only on (seed, prior draws, pool order, k).
        """
        items = list(pool)
        if k > len(items):
            raise PoolTooSmall(f"cannot draw {k} from pool of {len(items)}")
        for i in range(k):
            j = self._rng.randrange(i, len(items))
            items[i], items[j] = items[j], items[i]
        self.counter += 1
        return items[:k]

    def randint(self, a: int, b: int) -> int:
        self.counter += 1
        return self._rng.randint(a, b)

    def chance(self, p: float) -> bool:
        """True with probability p."""
        self.counter += 1
        return self._rng.random() < p


class Ledger:
    """Single-threaded account store with tick counter and event log.

    Every Wei lives in an account: each participant's, the faucet's, each
    service's review fund (named by its service id) and the gas sink. Only
    the faucet opens with a balance; afterwards money only moves, by
    transfer, so the sum of all accounts is constant.
    """

    def __init__(self, gas: GasSchedule, seed: int):
        gas.validate()
        self.gas = gas
        self.accounts: dict[str, int] = {}
        self.spent: dict[str, int] = {}   # Wei that ever left each account
        self.log: list[EventRecord] = []
        self.tick = 0
        self.beacon = RandomBeacon(seed)
        self.open_account(GAS_SINK)

    # -- accounts --

    def open_account(self, account_id: str, initial_balance: int = 0) -> None:
        if account_id in self.accounts:
            raise ValidationError(f"account {account_id} already exists")
        if initial_balance < 0:
            raise ValidationError("initial balance cannot be negative")
        self.accounts[account_id] = initial_balance
        self.spent[account_id] = 0

    def balance(self, account_id: str) -> int:
        if account_id not in self.accounts:
            raise UnknownAccount(account_id)
        return self.accounts[account_id]

    def transfer(self, src: str, dst: str, amount: int) -> None:
        if amount < 0:
            raise ValidationError("negative transfer")
        self.balance(dst)
        if self.balance(src) < amount:
            raise InsufficientFunds(f"{src} holds {self.accounts[src]} Wei, needs {amount}")
        self.accounts[src] -= amount
        self.spent[src] += amount
        self.accounts[dst] += amount

    # -- gas --

    def gas_cost(self, op: str) -> int:
        return self.gas.charge(op)

    def charge_gas(self, payer: str, op: str) -> int:
        """Move gas_used(op) * price from payer into the gas sink."""
        amount = self.gas.charge(op)
        self.transfer(payer, GAS_SINK, amount)
        self.append_event("GasCharged", {"payer": payer, "op": op, "amount_wei": amount})
        return amount

    # -- event log --

    def append_event(self, kind: str, payload: dict) -> EventRecord:
        """Encode payload once and append the record of those bytes; the dict is not kept."""
        seq = len(self.log)
        prev = self.log[-1].hash if self.log else ZERO_DIGEST
        payload_json = canonical_payload(payload)
        digest = record_hash(seq, self.tick, kind, payload_json, prev)
        rec = EventRecord(seq, self.tick, kind, payload_json, prev, digest)
        self.log.append(rec)
        return rec

    def final_hash(self) -> str:
        return self.log[-1].hash if self.log else ZERO_DIGEST

    def write_log(self, f) -> None:
        """Write the log to binary file f as newline-delimited JSON, one event per line, LF endings."""
        f.writelines((rec.to_json_line() + "\n").encode() for rec in self.log)

    # -- time --

    def advance_tick(self) -> int:
        self.tick += 1
        return self.tick


# The canonical text of the leaf types of EVENTS: what the encoder writes for their values. An int has at
# most 4300 digits, as many as int() reads. A string is printable ASCII but `"` and `\`, and escapes:
# here a backslash and the character after it, so that the string ends where it should; _ESCAPES then
# holds each to what the encoder writes. Each pattern is an unrolled loop, so every token matches in
# one way only and a failed match gives text back in linear time (possessive quantifiers would say the
# same but need Python 3.11). The escapes stay out of _STR, which every string field repeats: inlined
# there, the 19 rows compile in about 4x the time and hold twice the memory (151 against 75 KiB).
_STR = r'"[ !#-\[\]-~]*(?:\\.[ !#-\[\]-~]*)*"'
# The escapes the encoder writes, the one statement of them: \" \\ \b \f \n \r \t, and \u with lowercase
# hex for every other code point below 0x20 and for 0x7f to 0xffff (a code point above, as a surrogate
# pair; a lone surrogate, alone). Matched in full over a payload text that holds a backslash.
_ESCAPES = re.compile(
    r'[^\\]*(?:\\(?:["\\bfnrt]|u(?:00(?:0[0-7bef]|1[0-9a-f]|7f|[89a-f][0-9a-f])'
    r'|0[1-9a-f][0-9a-f]{2}|[1-9a-f][0-9a-f]{3}))[^\\]*)*'
)


def _items(item: str) -> str:
    """A pattern for zero or more comma-separated `item`s before a closing bracket, `item` written once."""
    return f"(?:{item}(?:,(?![\\]}}])|(?=[\\]}}])))*"


# The event-log format, after JSON Schema's `required` and `additionalProperties: false`: each kind's
# payload holds exactly its row's fields, each a Leaf, [t] a list of t, or a dict, a nested row. Each kind
# is ASCII letters, so it is its own JSON string form. A Leaf states a leaf type once: a test of the decoded
# values it takes, a pattern of their canonical texts, and whether a text the pattern matches must also
# decode and re-encode to itself, where the pattern cannot decide it (an object's keys sorted and unique).
# A Leaf is not a function, so no wrapper of the module's functions replaces it.
Leaf = NamedTuple("Leaf", [("test", Callable[[object], bool]), ("text", str), ("reencode", bool)])
INT = Leaf(lambda value: type(value) is int and value >= 0, "(?:0|[1-9][0-9]{0,4299})", False)  # never a bool
STR = Leaf(lambda value: type(value) is str, _STR, False)
STR_OR_NULL = Leaf(lambda value: value is None or type(value) is str, f"(?:null|{_STR})", False)
QUALITIES = Leaf(lambda value: type(value) is dict and all(q == "Good" or q == "Bad" for q in value.values()),
                 r"\{" + _items(f'{_STR}:"(?:Good|Bad)"') + r"\}", True)  # an object of "Good" and "Bad"
_MINTED = {"token": STR, "holder": STR}
EVENTS = {
    "Registered": {"participant": STR, "address": STR, "roles": [STR], "card_fingerprint": STR, "genesis_wei": INT},
    "AddressBound": {"participant": STR, "address": STR},
    "GasCharged": {"payer": STR, "op": STR, "amount_wei": INT},
    "ServiceAdded": {"service": STR, "provider": STR, "s_cost_wei": INT, "fund_wei": INT},
    "ServicePurchased": {
        "purchase": STR, "service": STR, "consumer": STR, "provider": STR, "list_price_wei": INT,
        "price_paid_wei": INT, "srat_token": STR, "srdt_token": STR_OR_NULL,
    },
    "ServiceModified": {"service": STR, "old_cost_wei": INT, "new_cost_wei": INT},
    "ServiceWithdrawn": {"service": STR, "fund_refunded_wei": INT},
    "FundReplenished": {"service": STR, "provider": STR, "amount_wei": INT, "fund_wei": INT},
    "ReviewSubmitted": {
        "review": STR, "purchase": STR, "service": STR, "reviewer": STR, "rating": INT, "text_digest": STR,
        "srat_token": STR, "subsidy_wei": INT,
    },
    "EndorsementCast": {"review": STR, "service": STR, "endorser": STR, "vote": STR, "srdt_token": STR},
    "SelectionRun": {
        "service": STR,
        "badged": [{"review": STR, "badge": STR, "upvotes": INT, "downvotes": INT, "reviewer": STR, "rating": INT}],
        "roster": [STR], "srdt_minted": [_MINTED], "penalized": [{"participant": STR, "count": INT}],
        "excluded": [STR],
    },
    "EndorsersBootstrapped": {"service": STR, "roster": [STR], "srdt_minted": [_MINTED]},
    "Excluded": {"participant": STR, "voided_tokens": [STR], "rosters_removed": [STR], "services_withdrawn": [STR]},
    "DretAwarded": {"provider": STR, "service": STR, "new_count": INT},
    "TokensExpired": {"tokens": [STR]},
    "RefundClaimFiled": {"claim": STR, "purchase": STR, "claimant": STR, "panel": [STR]},
    "RefundVoteCast": {"claim": STR, "endorser": STR, "vote": STR},
    "RefundSettled": {
        "claim": STR, "purchase": STR, "outcome": STR, "amount_wei": INT, "provider": STR, "consumer": STR,
        "approvals": INT, "panel_size": INT,
    },
    "ScenarioSetup": {
        "scenario": STR, "kind": STR, "attackers": [STR], "ground_truth": QUALITIES, "target_providers": [STR],
    },
}


def _misfit(spec, value):
    """Where `value` departs from the type `spec` (see EVENTS): a row's key, a list's index, "" (itself) or None."""
    if type(value) is not type(spec):  # a row is a dict and a list a list; any other spec is a Leaf
        return None if type(spec) is Leaf and spec.test(value) else ""
    fields = spec.items() if type(spec) is dict else enumerate(spec * len(value))
    try:
        for key, field in fields:
            if _misfit(field, value[key]) is not None:
                return key
    except KeyError:
        return key
    return min(value.keys() - spec.keys()) if type(value) is dict and len(value) != len(spec) else None


def _text_pattern(spec) -> str:
    """A regular expression for the canonical texts of the values that fit `spec` (see EVENTS)."""
    if type(spec) is list:
        return r"\[" + _items(_text_pattern(spec[0])) + r"\]"
    if type(spec) is dict:  # a row: its keys in sorted order, as the encoder writes them
        fields = (f"{re.escape(_encode_str(key))}:{_text_pattern(spec[key])}" for key in sorted(spec))
        return r"\{" + ",".join(fields) + r"\}"
    return spec.text


def _reencodes(spec) -> bool:
    """Whether a text that matches spec's pattern must also re-encode to itself: a leaf at any depth asks it."""
    if type(spec) is Leaf:
        return spec.reencode
    return any(_reencodes(item) for item in (spec.values() if type(spec) is dict else spec))


_ROW_PATTERNS: dict = {}  # kind -> _row_pattern(kind), for each kind read so far


def _row_pattern(kind: str):
    """(compiled pattern of kind's row, whether a text it matches must also re-encode to itself), or None.

    Compiled on first use: compiling all 19 rows at import would slow every start by several ms.
    """
    row = EVENTS.get(kind)
    if row is not None:
        _ROW_PATTERNS[kind] = (re.compile(_text_pattern(row)), _reencodes(row))
    return _ROW_PATTERNS.get(kind)


def iter_log_lines(log):
    """Parse and verify an exported log line by line, yielding each record once it passes.

    `log` is an exported log's bytes or a binary file at its start. Raises MalformedEvent on a
    line that is not UTF-8 or does not parse or fit EVENTS, and ChainBroken(seq, reason) on a
    broken link or hash or any byte export would not write ("not canonical", a missing final LF
    included), after yielding every record before that line.
    """
    prev, last_tick = ZERO_DIGEST, 0
    for seq, raw in enumerate(io.BytesIO(log) if isinstance(log, bytes) else log):
        if raw[-1:] != b"\n":
            raise ChainBroken(seq, "not canonical: the last line does not end in LF")
        try:
            line = raw[:-1].decode("utf-8")  # cheaper than a memoryview, which the GC tracks
        except UnicodeDecodeError as exc:
            raise MalformedEvent(f"malformed event at seq {seq}: log is not UTF-8: {exc}") from exc
        if not line:
            raise ChainBroken(seq, "not canonical: blank line")
        rec = _exact_record(line, seq, prev, last_tick) or _refuse(line, seq, prev, last_tick)
        yield rec
        prev, last_tick = rec.hash, rec.tick


def _exact_record(line: str, seq: int, prev: str, last_tick: int) -> EventRecord | None:
    """The record `line` is if it is exactly the export of a valid record `seq` after `prev`, else None.

    The only path that accepts a line. The envelope is matched in place around the payload, whose text
    must match its kind's row pattern (_row_pattern) at its offset; the hash is recomputed over that
    text. Nothing is decoded, except on a row with a leaf that sets Leaf.reencode (QUALITIES, whose keys
    its pattern cannot hold to sorted and unique, in ScenarioSetup, one line per log): that text is also
    decoded and must re-encode to itself.
    """
    if not (line.startswith('{"hash":"') and line.startswith('","kind":"', 73)):
        return None
    kind_end = line.find('"', 83)
    kind = line[83:kind_end]
    compiled = _ROW_PATTERNS.get(kind) or _row_pattern(kind)
    if compiled is None or not line.startswith('","payload":', kind_end):
        return None
    pattern, reencode = compiled
    start = kind_end + 12
    match = pattern.match(line, start)
    if match is None:
        return None
    end = match.end()
    payload_json = line[start:end]
    if "\\" in payload_json and not _ESCAPES.fullmatch(payload_json):
        return None
    if reencode and canonical_payload(_raw_decode(payload_json)[0]) != payload_json:
        return None
    tail = f',"prev_hash":"{prev}","seq":{seq},"tick":'
    if not line.startswith(tail, end):
        return None
    digits = line[end + len(tail):-1]
    # JSON's integer form, and short enough that int() cannot refuse it (past 4300 digits).
    if line[-1] != "}" or not (digits.isascii() and digits.isdigit()) or len(digits) > 4300:
        return None
    if digits[0] == "0" and digits != "0":
        return None
    tick = int(digits)
    if tick < last_tick:
        return None
    digest = line[9:73]
    if record_hash(seq, tick, kind, payload_json, prev) != digest:
        return None
    rec = EventRecord(seq, tick, kind, payload_json, prev, digest)
    rec._read = True
    return rec


def _refuse(line: str, seq: int, prev: str, last_tick: int):
    """Raise the error naming the first check, in the order below, that `line` fails as record `seq` after `prev`."""
    try:
        rec = EventRecord.from_json_line(line)
    except MalformedEvent as exc:
        raise MalformedEvent(f"malformed event at seq {seq}: {exc}") from exc
    row = EVENTS.get(rec.kind)
    if row is None:
        raise MalformedEvent(f"malformed event at seq {seq}: unknown kind {quoted(rec.kind)}")
    if rec.seq != seq:
        raise ChainBroken(rec.seq, f"seq gap: expected {seq}")
    if rec.prev_hash != prev:
        raise ChainBroken(rec.seq, "prev-hash mismatch: does not link to the previous record")
    if rec.tick < last_tick:
        raise ChainBroken(rec.seq, f"tick regression: {rec.tick} after {last_tick}")
    # The hash may cover the payload's canonical text or, where the head is in export form, the line's own
    # payload text: a line re-hashed over a text that export would not write is then found not canonical.
    head = f'{{"hash":{_encode_str(rec.hash)},"kind":"{rec.kind}","payload":{{'
    own = line[len(head) - 1:_scan(line, len(head) - 1)[1]] if line.startswith(head) else rec.payload_json
    hashes = {record_hash(rec.seq, rec.tick, rec.kind, text, rec.prev_hash) for text in {rec.payload_json, own}}
    if rec.hash not in hashes:
        raise ChainBroken(rec.seq, "hash mismatch: record contents were altered")
    name = _misfit(row, rec.payload)
    if name is not None:
        fault = "unknown" if name not in row else "missing" if name not in rec.payload else "mistyped"
        raise MalformedEvent(f"malformed event at seq {seq}, kind {rec.kind}: {fault} field {quoted(name)}")
    raise ChainBroken(seq, "not canonical: the line differs from its export form")
