"""Simulated append-only ledger: accounts, gas metering, event log, ticks.

Money is integer Wei throughout (1 Ether = 10**18 Wei, 1 Gwei = 10**9 Wei);
arithmetic is exact and balances can never go negative. Every state change
appends an EventRecord to a hash chain:

    hash = sha256("{seq}|{tick}|{kind}|{payload_json}|{prev_hash}")

where payload_json is the canonical JSON encoding (sorted keys, compact
separators, UTF-8) and the genesis record's prev_hash is 64 zero hex digits.
A record appended here keeps its payload_json, and write_log, the one export,
streams those bytes into one line per record of a binary file. An exported log
is bytes, never text: iter_log_lines, the one reader, takes a binary file or
bytes, accepts only those exact bytes, LF included, as strict UTF-8, and checks
each line as it reads it, holding one line and one record at a time. The codec
needs CPython's `_json` module.
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
from dataclasses import dataclass, field

from .errors import (
    ChainBroken,
    ConfigError,
    InsufficientFunds,
    MalformedEvent,
    PoolTooSmall,
    UnknownAccount,
    ValidationError,
)

WEI_PER_GWEI = 10**9
WEI_PER_ETHER = 10**18

ZERO_DIGEST = "0" * 64
_NO_FINAL_LF = "not canonical: the last line does not end in LF"

# Operation kinds with a gas schedule entry.
OP_ADD_SERVICE = "add_service"
OP_REQUEST_SERVICE = "request_service"
OP_ENDORSE_REVIEW = "endorse_review"
GAS_OPS = (OP_ADD_SERVICE, OP_REQUEST_SERVICE, OP_ENDORSE_REVIEW)


def ether(amount) -> int:
    """Convert an Ether quantity (int, float, str, Decimal) to integer Wei."""
    from decimal import Decimal

    wei = Decimal(str(amount)) * WEI_PER_ETHER
    if wei != wei.to_integral_value():
        raise ValidationError(f"{amount} Ether is not a whole number of Wei")
    return int(wei)


def format_ether(wei: int, places: int = 6) -> str:
    """Render Wei as a fixed-point Ether string (ROUND_HALF_UP)."""
    from decimal import ROUND_HALF_UP, Decimal

    q = Decimal(1).scaleb(-places)
    return str((Decimal(wei) / WEI_PER_ETHER).quantize(q, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class GasRow:
    gas_limit: int
    gas_used: int


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas units plus the Wei price per gas unit.

    Charges are gas_used * price_wei; gas_limit is retained as a cap and
    a schedule where gas_used exceeds gas_limit is rejected as misconfigured.
    """

    price_wei: int = 2_900_000_000  # 2.9 Gwei
    rows: dict[str, GasRow] = field(
        default_factory=lambda: {
            OP_ADD_SERVICE: GasRow(272456, 182304),
            OP_REQUEST_SERVICE: GasRow(99872, 63789),
            OP_ENDORSE_REVIEW: GasRow(106754, 86532),
        }
    )

    def validate(self) -> None:
        if self.price_wei <= 0:
            raise ConfigError("gas price must be strictly positive")
        for op in GAS_OPS:
            if op not in self.rows:
                raise ConfigError(f"gas schedule missing entry for {op}")
        for op, row in self.rows.items():
            if row.gas_used <= 0 or row.gas_limit <= 0:
                raise ConfigError(f"gas units for {op} must be strictly positive")
            if row.gas_used > row.gas_limit:
                raise ConfigError(f"gas_used exceeds gas_limit for {op}")

    def charge(self, op: str) -> int:
        if op not in self.rows:
            raise ConfigError(f"no gas schedule entry for operation {op!r}")
        return self.rows[op].gas_used * self.price_wei


_encode_str = json.encoder.encode_basestring_ascii
# One C encoder for every payload, built once (JSONEncoder.encode builds one
# per call): sorted keys, ":" and ",", ASCII, allow_nan. It keeps no
# circular-marker dict, so no state outlives a call; payloads are trees.
_encode = json.encoder.c_make_encoder(None, json.JSONEncoder().default, _encode_str, None, ":", ",", True, False, True)
_raw_decode = json.JSONDecoder().raw_decode


def canonical_payload(payload: dict) -> str:
    """Canonical JSON used both for hashing and for log export."""
    return "".join(_encode(payload, 0))


def record_hash(seq: int, tick: int, kind: str, payload_json: str, prev_hash: str) -> str:
    preimage = f"{seq}|{tick}|{kind}|{payload_json}|{prev_hash}"
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


# Not frozen: a frozen dataclass sets each field through object.__setattr__, which
# makes building a record about 5x slower. The chain checks recompute every field.
@dataclass(slots=True)
class EventRecord:
    seq: int
    tick: int
    kind: str
    payload: dict
    prev_hash: str
    hash: str
    # The canonical payload JSON the hash was computed over, set by
    # Ledger.append_event only; export writes these exact bytes.
    # verify_records never reads it, so an edit to `payload` after append
    # still shows as a hash mismatch.
    _payload_json: str | None = field(default=None, init=False, compare=False, repr=False)

    def to_json_line(self) -> str:
        """The record as one canonical JSON object (sorted keys, compact, ASCII)."""
        payload_json = self._payload_json
        if payload_json is None:
            payload_json = canonical_payload(self.payload)
        return _splice(self, payload_json)

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
            # Positional: keyword arguments cost a dataclass constructor more.
            record = EventRecord(doc["seq"], doc["tick"], doc["kind"], doc["payload"], doc["prev_hash"], doc["hash"])
        except KeyError as exc:
            raise MalformedEvent(f"event missing field {exc}") from exc
        # `type(...) is int` also refuses bools, which are ints to isinstance.
        if type(record.seq) is not int or type(record.tick) is not int:
            raise MalformedEvent(f"seq and tick must be integers, not {record.seq!r} and {record.tick!r}")
        if type(record.kind) is not str or type(record.hash) is not str or type(record.prev_hash) is not str:
            raise MalformedEvent("kind, hash and prev_hash must be strings")
        if type(record.payload) is not dict:
            raise MalformedEvent(f"payload must be a JSON object, not {type(record.payload).__name__}")
        return record


def _splice(rec: EventRecord, payload_json: str) -> str:
    return (
        f'{{"hash":{_encode_str(rec.hash)},"kind":{_encode_str(rec.kind)},'
        f'"payload":{payload_json},"prev_hash":{_encode_str(rec.prev_hash)},'
        f'"seq":{rec.seq},"tick":{rec.tick}}}'
    )


def _check_link(rec: EventRecord, seq: int, prev: str, last_tick: int, payload_json: str) -> None:
    """Raise ChainBroken unless rec is record `seq`, links to `prev` and hashes right."""
    if rec.seq != seq:
        raise ChainBroken(rec.seq, f"seq gap: expected {seq}")
    if rec.prev_hash != prev:
        raise ChainBroken(rec.seq, "prev-hash mismatch: does not link to the previous record")
    if rec.tick < last_tick:
        raise ChainBroken(rec.seq, f"tick regression: {rec.tick} after {last_tick}")
    if record_hash(rec.seq, rec.tick, rec.kind, payload_json, rec.prev_hash) != rec.hash:
        raise ChainBroken(rec.seq, "hash mismatch: record contents were altered")


def verify_records(records) -> None:
    """Recompute every link and hash of a live chain; raise ChainBroken at the first bad record."""
    prev, last_tick = ZERO_DIGEST, 0
    for seq, rec in enumerate(records):
        _check_link(rec, seq, prev, last_tick, canonical_payload(rec.payload))
        prev, last_tick = rec.hash, rec.tick


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
    """Single-threaded account store with gas sink, tick counter, and event log.

    Accounts are opened with a zero balance except at genesis (the faucet);
    afterwards money only moves, so the sum of all accounts plus the gas
    sink is constant apart from amounts explicitly parked in external pools
    (service review funds) via debit()/credit().
    """

    def __init__(self, gas: GasSchedule, seed: int):
        gas.validate()
        self.gas = gas
        self.accounts: dict[str, int] = {}
        self.spent: dict[str, int] = {}   # Wei that ever left each account
        self.gas_sink = 0
        self.log: list[EventRecord] = []
        self.tick = 0
        self.beacon = RandomBeacon(seed)

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

    def debit(self, account_id: str, amount: int) -> None:
        if amount < 0:
            raise ValidationError("negative debit")
        if self.balance(account_id) < amount:
            raise InsufficientFunds(f"{account_id} holds {self.accounts[account_id]} Wei, needs {amount}")
        self.accounts[account_id] -= amount
        self.spent[account_id] += amount

    def credit(self, account_id: str, amount: int) -> None:
        if amount < 0:
            raise ValidationError("negative credit")
        self.balance(account_id)
        self.accounts[account_id] += amount

    def transfer(self, src: str, dst: str, amount: int) -> None:
        self.balance(dst)
        self.debit(src, amount)
        self.accounts[dst] += amount

    def credit_gas_sink(self, amount: int) -> None:
        if amount < 0:
            raise ValidationError("negative gas sink credit")
        self.gas_sink += amount

    def total_account_wei(self) -> int:
        return sum(self.accounts.values())

    # -- gas --

    def gas_cost(self, op: str) -> int:
        return self.gas.charge(op)

    def charge_gas(self, payer: str, op: str) -> int:
        """Debit gas_used(op) * price from payer into the gas sink."""
        amount = self.gas.charge(op)
        self.debit(payer, amount)
        self.gas_sink += amount
        self.append_event("GasCharged", {"payer": payer, "op": op, "amount_wei": amount})
        return amount

    # -- event log --

    def append_event(self, kind: str, payload: dict) -> EventRecord:
        seq = len(self.log)
        prev = self.log[-1].hash if self.log else ZERO_DIGEST
        payload_json = canonical_payload(payload)
        rec = EventRecord(seq, self.tick, kind, payload, prev, record_hash(seq, self.tick, kind, payload_json, prev))
        rec._payload_json = payload_json
        self.log.append(rec)
        return rec

    def verify_chain(self) -> None:
        """Raise ChainBroken unless the live log forms an intact chain."""
        verify_records(self.log)

    def final_hash(self) -> str:
        return self.log[-1].hash if self.log else ZERO_DIGEST

    def write_log(self, f) -> None:
        """Write the log to binary file f as newline-delimited JSON, one event per line, LF endings."""
        f.writelines((rec.to_json_line() + "\n").encode() for rec in self.log)

    # -- time --

    def advance_tick(self) -> int:
        self.tick += 1
        return self.tick


def iter_log_lines(log):
    """Parse and verify an exported log line by line, yielding each record once it passes.

    `log` is an exported log's bytes or a binary file at its start. Raises MalformedEvent on
    a line that is not UTF-8 or does not parse or type-check, and ChainBroken(seq,
    reason) on a broken link or hash or any byte export would not write ("not
    canonical"; a missing final LF before any line, or at the last line of a pipe),
    after yielding every record before that line.
    """
    prev, last_tick = ZERO_DIGEST, 0
    for seq, line in enumerate(_file_lines(io.BytesIO(log) if isinstance(log, bytes) else log)):
        if not line:
            raise ChainBroken(seq, "not canonical: blank line")
        try:
            rec = EventRecord.from_json_line(line)
        except MalformedEvent as exc:
            raise MalformedEvent(f"malformed event at seq {seq}: {exc}") from exc
        payload_json = canonical_payload(rec.payload)
        _check_link(rec, seq, prev, last_tick, payload_json)
        if _splice(rec, payload_json) != line:
            raise ChainBroken(seq, "not canonical: the line differs from its export form")
        yield rec
        prev, last_tick = rec.hash, rec.tick


def _file_lines(f):
    """Each line of binary file f, read from its start, as strict UTF-8 text without its LF."""
    if f.seekable() and f.seek(0, io.SEEK_END):  # read the last byte; count LFs only to report it missing
        f.seek(-1, io.SEEK_END)
        last = f.read(1)
        f.seek(0)
        if last != b"\n":
            raise ChainBroken(sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 16), b"")), _NO_FINAL_LF)
    for seq, raw in enumerate(f):
        if raw[-1:] != b"\n":  # only on a pipe: a seekable file was checked above
            raise ChainBroken(seq, _NO_FINAL_LF)
        try:
            yield raw[:-1].decode("utf-8")  # cheaper than a memoryview, which the GC tracks
        except UnicodeDecodeError as exc:
            raise MalformedEvent(f"malformed event at seq {seq}: log is not UTF-8: {exc}") from exc
