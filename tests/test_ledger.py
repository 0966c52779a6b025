"""Ledger: gas charges, hash chain, log codec, beacon, ticks."""

import contextlib
import functools
import hashlib
import io
import json
import random
import re
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrm import AttackScenario, GasSchedule, RandomBeacon, ether, format_ether, run_scenario
from ddrm import ledger as ledger_mod
from ddrm.adversary import ALL_KINDS, KIND_FALSE_REFUND
from ddrm.errors import (
    ChainBroken, ConfigError, InsufficientFunds, MalformedEvent, PoolTooSmall, UnknownAccount, ValidationError,
)
from ddrm.ledger import (
    EVENTS,
    INT,
    OP_ADD_SERVICE,
    OP_ENDORSE_REVIEW,
    OP_REQUEST_SERVICE,
    MAX_WEI,
    QUALITIES,
    STR,
    STR_OR_NULL,
    WEI_PER_GWEI,
    ZERO_DIGEST,
    GAS_SINK,
    EventRecord,
    Ledger,
    canonical_payload,
    iter_log_lines,
    record_hash,
)

from conftest import (
    assert_payloads_fit_events, canonical_scenarios, consumer_with_purchase, exported_log, forged_log, make_sim,
    provider_and_service,
)

# The two forms iter_log_lines takes: an exported log's bytes, whole, and a binary file.
LOG_SOURCES = pytest.mark.parametrize(
    "source", [lambda data: data, lambda data: io.BytesIO(data)], ids=["text", "file"]
)


def fresh_ledger(seed=1) -> Ledger:
    ledger = Ledger(GasSchedule(), seed)
    ledger.open_account("alice", ether(10))
    ledger.open_account("bob")
    return ledger


def award_payload(count: int) -> dict:
    return {"provider": "alice", "service": "SVC-0001", "new_count": count}


def award(ledger: Ledger, count: int) -> EventRecord:
    """Append a record of a real kind, told apart from others by `count`."""
    return ledger.append_event("DretAwarded", award_payload(count))


class TestGasCharges:
    # Published cost table: gas_used * 2.9 Gwei, exact Wei.
    @pytest.mark.parametrize(
        "op,expected_wei",
        [
            (OP_ADD_SERVICE, 528_681_600_000_000),       # 182304 units
            (OP_REQUEST_SERVICE, 184_988_100_000_000),   # 63789 units
            (OP_ENDORSE_REVIEW, 250_942_800_000_000),    # 86532 units
        ],
    )
    def test_table_values(self, op, expected_wei):
        ledger = fresh_ledger()
        charged = ledger.charge_gas("alice", op)
        assert charged == expected_wei
        assert ledger.balance("alice") == ether(10) - expected_wei
        assert ledger.balance(GAS_SINK) == expected_wei

    def test_charge_appends_event(self):
        ledger = fresh_ledger()
        ledger.charge_gas("alice", OP_ADD_SERVICE)
        rec = ledger.log[-1]
        assert rec.kind == "GasCharged"
        assert rec.payload["payer"] == "alice"
        assert rec.payload["amount_wei"] == 528_681_600_000_000

    def test_empty_account_rejected_without_state_change(self):
        ledger = fresh_ledger()
        before = (ledger.balance("bob"), ledger.balance(GAS_SINK), len(ledger.log))
        with pytest.raises(InsufficientFunds):
            ledger.charge_gas("bob", OP_ADD_SERVICE)
        assert (ledger.balance("bob"), ledger.balance(GAS_SINK), len(ledger.log)) == before

    @pytest.mark.parametrize(
        "src, dst, amount, error, message",
        [
            ("alice", "bob", -1, ValidationError, "negative transfer"),
            ("alice", "carol", 1, UnknownAccount, "carol"),
            ("carol", "bob", 0, UnknownAccount, "carol"),
            ("bob", "alice", 1, InsufficientFunds, "bob holds 0 Wei, needs 1"),
        ],
        ids=["negative", "unknown-dst", "unknown-src", "short"],
    )
    def test_refused_transfer_moves_nothing(self, src, dst, amount, error, message):
        ledger = fresh_ledger()
        before = (dict(ledger.accounts), dict(ledger.spent))
        with pytest.raises(error, match=message):
            ledger.transfer(src, dst, amount)
        assert (ledger.accounts, ledger.spent) == before

    def test_schedule_rejects_used_above_limit(self):
        from ddrm import GasRow

        rows = dict(GasSchedule().rows)
        rows[OP_ADD_SERVICE] = GasRow(gas_limit=100, gas_used=200)
        with pytest.raises(ConfigError):
            GasSchedule(rows=rows).validate()


class TestEtherAndWei:
    """ether and format_ether are exact both ways, at any size up to a uint256."""

    def test_29_digit_ether_converts_exactly(self):
        assert ether("12345678901234567890123456789") == 12345678901234567890123456789 * 10**18

    def test_trailing_zeros_and_units(self):
        assert ether("1." + "0" * 1000) == 10**18
        assert ether("2.9", WEI_PER_GWEI) == 2_900_000_000
        assert ether("-0.5") == -(10**17) * 5

    @pytest.mark.parametrize("amount", ["1.0000000000000000000000000001", "1e-19", "1e-9999999"])
    def test_fraction_of_a_wei_refused(self, amount):
        with pytest.raises(ValidationError, match="not a whole number of Wei"):
            ether(amount)

    def test_uint256_bound(self):
        assert ether(MAX_WEI, unit=1) == 2**256 - 1
        for amount in (MAX_WEI + 1, -MAX_WEI - 1, "1e5000", "1e999999"):
            with pytest.raises(ValidationError, match=r"more than 2\*\*256 - 1 Wei"):
                ether(amount, unit=1)

    @pytest.mark.parametrize("amount", ["nan", float("inf"), "abc", True, None])
    def test_non_number_refused(self, amount):
        with pytest.raises(ValidationError):
            ether(amount)

    @pytest.mark.parametrize(
        "wei, text",
        [
            (10**38 + 499_999_999_999, "100000000000000000000.000000"),
            (10**38 + 500_000_000_000, "100000000000000000000.000001"),
            (10**45, "1000000000000000000000000000.000000"),
            (528_681_600_000_000, "0.000529"),
            (-500_000_000_000, "-0.000001"),
        ],
    )
    def test_format_ether_rounds_exactly_half_up(self, wei, text):
        assert format_ether(wei) == text


class TestEventChain:
    def test_genesis_prev_hash_is_zero(self):
        ledger = fresh_ledger()
        rec = award(ledger, 1)
        assert rec.seq == 0
        assert rec.prev_hash == ZERO_DIGEST

    def test_known_digest_vector(self):
        # sha256('0|0|Registered|{"a":1}|' + 64 zeros), computed with sha256sum.
        digest = record_hash(0, 0, "Registered", canonical_payload({"a": 1}), ZERO_DIGEST)
        assert digest == "7dbfe2a0d7cb2fa3c3436fa0e3686cdc0f1499d969ba3b95c4a7f13a7f80b4ac"

    def test_empty_log_verifies(self):
        assert list(iter_log_lines(exported_log(fresh_ledger()))) == []

    def test_untouched_log_verifies(self):
        ledger = fresh_ledger()
        for i in range(10):
            award(ledger, i)
        assert [rec.hash for rec in iter_log_lines(exported_log(ledger))] == [rec.hash for rec in ledger.log]

    def test_tampered_payload_detected_at_seq(self):
        ledger = fresh_ledger()
        for i in range(10):
            award(ledger, i)
        pristine = ledger.log[7]
        ledger.log[7] = EventRecord(
            seq=7,
            tick=pristine.tick,
            kind=pristine.kind,
            payload_json=canonical_payload(award_payload(999)),
            prev_hash=pristine.prev_hash,
            hash=pristine.hash,
        )
        with pytest.raises(ChainBroken) as broken:
            list(iter_log_lines(exported_log(ledger)))
        assert broken.value.seq == 7
        assert broken.value.reason.startswith("hash mismatch")

        # Each of the other link checks names itself.
        for tampered, reason in (
            (replace(pristine, seq=8), "seq gap"),
            (replace(pristine, prev_hash="f" * 64), "prev-hash mismatch"),
            (replace(pristine, tick=pristine.tick - 1), "tick regression"),
        ):
            ledger.log[7] = tampered
            with pytest.raises(ChainBroken, match=reason) as broken:
                list(iter_log_lines(exported_log(ledger)))
            assert broken.value.seq == tampered.seq
            assert broken.value.reason.startswith(reason)

    def test_identical_runs_identical_final_hash(self):
        def build():
            sim = make_sim(seed=99)
            provider, service = provider_and_service(sim)
            consumer_with_purchase(sim, service)
            sim.advance_tick()
            return sim.ledger.final_hash()

        assert build() == build()

    def test_export_roundtrip_and_verify(self):
        sim = make_sim(seed=5)
        provider, service = provider_and_service(sim)
        consumer_with_purchase(sim, service)
        records = list(iter_log_lines(exported_log(sim.ledger)))
        assert [r.hash for r in records] == [r.hash for r in sim.ledger.log]

    def test_reordered_lines_break_chain(self):
        sim = make_sim(seed=5)
        provider_and_service(sim)
        lines = exported_log(sim.ledger).splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        with pytest.raises(ChainBroken, match="seq gap") as broken:
            list(iter_log_lines(b"\n".join(lines) + b"\n"))
        assert broken.value.seq == 1

    def test_malformed_line_raises(self):
        with pytest.raises(MalformedEvent):
            list(iter_log_lines(b'{"seq": 0, "oops"\n'))

    @LOG_SOURCES
    def test_records_before_a_bad_line_are_yielded_first(self, source):
        sim = make_sim(seed=5)
        provider_and_service(sim)
        lines = exported_log(sim.ledger).splitlines(keepends=True)
        lines[2] = b"not json\n"
        reader = iter_log_lines(source(b"".join(lines)))
        assert [next(reader).seq, next(reader).seq] == [0, 1]
        with pytest.raises(MalformedEvent, match="malformed event at seq 2"):
            next(reader)

    @LOG_SOURCES
    @pytest.mark.parametrize("seq", [0, 2])
    def test_lone_surrogate_kind_is_malformed(self, source, seq):
        sim = make_sim(seed=5)
        provider_and_service(sim)
        lines = exported_log(sim.ledger).splitlines(keepends=True)
        kind = json.dumps(sim.ledger.log[seq].kind).encode()
        lines[seq] = lines[seq].replace(b'"kind":' + kind, b'"kind":"\\ud800"', 1)
        reader = iter_log_lines(source(b"".join(lines)))
        assert [next(reader).seq for _ in range(seq)] == list(range(seq))
        # No kind in EVENTS has one, so it is refused before any hashing, which could not encode it.
        with pytest.raises(MalformedEvent, match=rf"malformed event at seq {seq}: unknown kind '\\ud800'"):
            next(reader)

    @LOG_SOURCES
    def test_missing_final_lf_is_refused_at_the_last_line(self, source):
        sim = make_sim(seed=5)
        provider_and_service(sim)
        data = exported_log(sim.ledger)[:-1]
        reader = iter_log_lines(source(data))
        last = data.count(b"\n")
        assert [next(reader).seq for _ in range(last)] == list(range(last))
        with pytest.raises(ChainBroken, match="does not end in LF") as broken:
            next(reader)
        assert broken.value.seq == last

    @LOG_SOURCES
    def test_first_fault_in_log_order_is_reported(self, source):
        # A malformed line 1 comes before the missing final LF, whatever the source.
        sim = make_sim(seed=5)
        provider_and_service(sim)
        lines = exported_log(sim.ledger)[:-1].split(b"\n")
        assert len(lines) > 2
        lines[1] = b"not json"
        reader = iter_log_lines(source(b"\n".join(lines)))
        assert next(reader).seq == 0
        with pytest.raises(MalformedEvent, match="malformed event at seq 1"):
            next(reader)


# JSON-native values: what a log line can carry and json.loads gives back equal.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


def values_of(spec, text=st.text(), ints=st.integers(min_value=0, max_value=2**200)):
    """A Hypothesis strategy for the values of one ledger.EVENTS payload type, its strings and ints drawn as given."""
    if type(spec) is list:
        return st.lists(values_of(spec[0], text, ints), max_size=4)
    if type(spec) is dict:
        return st.fixed_dictionaries({name: values_of(field_spec, text, ints) for name, field_spec in spec.items()})
    qualities = st.dictionaries(text, st.sampled_from(["Good", "Bad"]))
    return {STR: text, INT: ints, STR_OR_NULL: st.none() | text, QUALITIES: qualities}[spec]


# (kind, payload): a kind of the log's format and a payload that fits its row.
RECORDS = st.sampled_from(sorted(EVENTS)).flatmap(lambda kind: st.tuples(st.just(kind), values_of(EVENTS[kind])))


def reference_line(rec: EventRecord, payload: dict) -> str:
    fields = {name: getattr(rec, name) for name in ("seq", "tick", "kind", "prev_hash", "hash")}
    return json.dumps({**fields, "payload": payload}, sort_keys=True, separators=(",", ":"))


class TestLogCodec:
    @given(record=RECORDS, tick=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_line_equals_json_dumps_and_round_trips(self, record, tick):
        kind, payload = record
        ledger = fresh_ledger()
        ledger.tick = tick
        award(ledger, 0)
        appended = ledger.append_event(kind, payload)
        assert appended.payload_json == canonical_payload(payload) and appended.payload == payload
        line = appended.to_json_line()
        assert line == reference_line(appended, payload)
        # A read record holds the same bytes and the dict it decoded them from.
        read = EventRecord.from_json_line(line)
        assert read == appended and read.payload == payload and read.to_json_line() == line
        assert [rec.to_json_line() for rec in iter_log_lines(exported_log(ledger))][1] == line

    @given(value=JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_canonical_payload_equals_json_dumps(self, value):
        assert canonical_payload(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))

    def test_shared_encoder_unchanged_after_a_failed_encode(self):
        payload = {"b": [1, {"c": None}], "a": "\u00e9", "f": 0.5}
        before = canonical_payload(payload)
        # The encode fails inside payload's own containers, which are encoded again below.
        payload["b"].append({1, 2})
        with pytest.raises(TypeError):
            canonical_payload(payload)
        payload["b"].pop()
        assert canonical_payload(payload) == before

    @pytest.mark.parametrize(
        "prefix, suffix",
        [(" ", ""), ("\t", ""), ("\n", ""), ("", " "), ("", "\r"), ("", "\n"), ("", "\x1c"), ("", "{}"), ("", "0")],
        ids=["leading-space", "leading-tab", "leading-lf", "trailing-space", "trailing-cr", "trailing-lf",
             "trailing-fs", "trailing-object", "trailing-digit"],
    )
    def test_from_json_line_refuses_data_around_the_object(self, prefix, suffix):
        line = award(fresh_ledger(), 1).to_json_line()
        EventRecord.from_json_line(line)
        with pytest.raises(MalformedEvent):
            EventRecord.from_json_line(prefix + line + suffix)

    def test_replace_drops_the_committed_bytes(self):
        # A record's payload is its bytes: a copy with other bytes reads and writes
        # those, not the dict the original was read into.
        read = EventRecord.from_json_line(award(fresh_ledger(), 1).to_json_line())
        assert read.payload == award_payload(1)
        edited = replace(read, payload_json=canonical_payload(award_payload(2)))
        assert edited.payload == award_payload(2) and '"new_count":2,' in edited.to_json_line()
        with pytest.raises(AttributeError):
            read.payload = award_payload(2)
        assert "_decoded" not in repr(read) and "'new_count': 1" not in repr(read)


def single_byte_edits(data: bytes):
    """Each byte replaced by space, CR, \\x1c or a digit, deleted, case-flipped, or preceded by a space."""
    for pos in range(len(data)):
        ch = data[pos:pos + 1]
        for new in dict.fromkeys((b" ", b"\r", b"\x1c", b"8" if ch == b"7" else b"7", b"", ch.swapcase(), b" " + ch)):
            if new != ch:
                yield pos, data[:pos] + new + data[pos + 1:]


class TestByteExactness:
    @LOG_SOURCES
    def test_every_single_byte_edit_is_refused(self, source):
        sim = make_sim(seed=5)
        provider, service = provider_and_service(sim)
        consumer_with_purchase(sim, service)
        data = exported_log(sim.ledger)
        assert [r.hash for r in iter_log_lines(source(data))] == [r.hash for r in sim.ledger.log]
        accepted, edits = [], 0
        for pos, edited in single_byte_edits(data):
            edits += 1
            try:
                list(iter_log_lines(source(edited)))
            except (ChainBroken, MalformedEvent):
                continue
            accepted.append((pos, edited[max(pos - 8, 0):pos + 8]))
        assert accepted == []
        assert edits > 5 * len(data)


def small_run(kind: str, seed: int = 7):
    return run_scenario(AttackScenario(name=kind, kind=kind, seed=seed, rounds=3, honest_count=6, attacker_count=2))


def small_log(kind: str, seed: int = 7) -> bytes:
    return small_run(kind, seed).log_text()


def verdict(log: bytes):
    """What iter_log_lines makes of a log: each record it yields, with its payload, then the error it raises."""
    records = []
    try:
        for rec in iter_log_lines(log):
            records.append((rec, rec.payload))
    except (ChainBroken, MalformedEvent) as exc:
        return records, (type(exc), getattr(exc, "seq", None), str(exc))
    return records, None


# The record the forgeries below edit: its payload has several keys and it follows a record at tick >= 1.
T = 29


def edit_at(log: bytes, edit) -> bytes:
    """log with line T replaced by edit(line), LF kept; its hash and the other lines are untouched."""
    lines = log.splitlines(keepends=True)
    lines[T] = edit(lines[T][:-1]) + b"\n"
    return b"".join(lines)


def forge_at(log: bytes, change) -> bytes:
    """forged_log with change(record) applied to the record at T only."""
    return forged_log(log, lambda rec: change(rec) if rec.seq == T else None)


def forge_fields(log: bytes, **fields) -> bytes:
    def change(rec):
        for name, value in fields.items():
            setattr(rec, name, value)

    return forge_at(log, change)


def forge_first(log: bytes, kind: str, change) -> bytes:
    """forged_log with change(record) applied to the first record of `kind` for which it returns no False."""
    done = []

    def edit(rec):
        if rec.kind == kind and not done and change(rec) is not False:
            done.append(rec.seq)

    forged = forged_log(log, edit)
    assert done, f"no {kind} record to forge"
    return forged


def forge_all(log: bytes, encode) -> bytes:
    """forged_log with every payload written, and hashed, as encode writes it."""
    return forged_log(log, lambda rec: None, encode)


def reversed_keys(payload: dict) -> str:
    return json.dumps(dict(reversed(payload.items())), separators=(",", ":"))


def unsorted_payload(line: bytes) -> bytes:
    payload = json.loads(line)["payload"]
    return line.replace(canonical_payload(payload).encode(), reversed_keys(payload).encode())


def envelope_tail(rec):
    rec.payload.update(prev_hash=rec.prev_hash, seq=rec.seq, tick=rec.tick, zz=f',"prev_hash":"{rec.prev_hash}"')


def unknown_kind_without_fields(rec):
    rec.kind = "Ping"
    rec.payload.clear()


def set_field(name, value):
    return lambda rec: rec.payload.update({name: value})


def first_badged(rec):
    if not rec.payload["badged"]:
        return False
    rec.payload["badged"][0]["rating"] = "5"


def duplicate_quality(payload: dict) -> str:
    """The canonical text of `payload`, but with the first key of a non-empty ground_truth written twice."""
    text, truth = canonical_payload(payload), payload.get("ground_truth")
    if not truth:
        return text
    first = canonical_payload({min(truth): truth[min(truth)]})[1:-1]
    return text.replace('"ground_truth":{', f'"ground_truth":{{{first},', 1)


# name -> (build(log) -> edited log, what the reader makes of it: None to accept, else part of its error)
FORGERIES = {
    "envelope-whitespace": (lambda log: edit_at(log, lambda b: b.replace(b'","kind":', b'", "kind":')),
                            "not canonical"),
    "payload-whitespace": (lambda log: edit_at(log, lambda b: b.replace(b'"payload":{', b'"payload":{ ')),
                           "not canonical"),
    "payload-whitespace-hashed": (lambda log: forge_all(log, lambda p: json.dumps(p, sort_keys=True)), "not canonical"),
    "unsorted-keys": (lambda log: edit_at(log, unsorted_payload), "not canonical"),
    "unsorted-keys-hashed": (lambda log: forge_all(log, reversed_keys), "not canonical"),
    "duplicate-quality-hashed": (lambda log: forge_all(log, duplicate_quality), "not canonical"),
    "list-payload": (lambda log: forge_all(log, lambda p: canonical_payload([p])),
                     "payload must be a JSON object, not list"),
    "escaped-kind": (lambda log: forge_fields(log, kind="Café"), f"seq {T}: unknown kind 'Café'"),
    "control-character-kind": (lambda log: forge_fields(log, kind="Tab\tKind"), f"seq {T}: unknown kind 'Tab\\tKind'"),
    "unescaped-kind": (lambda log: forge_fields(log, kind="Café").replace(b"Caf\\u00e9", "Café".encode()),
                       f"seq {T}: unknown kind 'Café'"),
    "kind-hashed-over-its-escape": (
        lambda log: forge_fields(log, kind="Caf\\u00e9").replace(b"Caf\\\\u00e9", b"Caf\\u00e9"),
        f"seq {T}: unknown kind 'Café'"),
    "unknown-kind-without-fields": (lambda log: forge_at(log, unknown_kind_without_fields),
                                    f"seq {T}: unknown kind 'Ping'"),
    "leading-zero-tick": (lambda log: edit_at(log, lambda b: b.replace(b',"tick":', b',"tick":0')), "not valid JSON"),
    "negative-tick": (lambda log: forge_fields(log, tick=-1), "tick regression"),
    "tick-regression": (lambda log: forge_at(log, lambda rec: setattr(rec, "tick", rec.tick - 1)), "tick regression"),
    "5000-digit-tick": (lambda log: edit_at(log, lambda b: b[:b.rindex(b":") + 1] + b"1" * 5000 + b"}"),
                        "not valid JSON"),
    "4300-digit-tick": (lambda log: forged_log(log, lambda rec: rec.seq >= T and setattr(rec, "tick", 10**4299)), None),
    "tick-in-payload": (lambda log: forge_at(log, lambda rec: rec.payload.update(tick=1, zz=',"tick":2}')),
                        f"seq {T}, kind ReviewSubmitted: unknown field 'tick'"),
    "envelope-tail-in-payload": (lambda log: forge_at(log, envelope_tail),
                                 "kind ReviewSubmitted: unknown field 'prev_hash'"),
    "tick-in-text-digest": (lambda log: forge_first(log, "ReviewSubmitted", set_field("text_digest", ',"tick":2}')),
                            None),
    "envelope-tail-in-text-digest": (
        lambda log: forge_first(log, "ReviewSubmitted", lambda rec: rec.payload.update(
            text_digest=f',"prev_hash":"{rec.prev_hash}","seq":{rec.seq},"tick":{rec.tick}}}')), None),
    "extra-key-on-registered": (lambda log: forge_first(log, "Registered", set_field("note", "x")),
                                "kind Registered: unknown field 'note'"),
    "missing-key": (lambda log: forge_first(log, "ServicePurchased", lambda rec: rec.payload.pop("srat_token")),
                    "kind ServicePurchased: missing field 'srat_token'"),
    "negative-amount": (lambda log: forge_first(log, "GasCharged", set_field("amount_wei", -5)),
                        "kind GasCharged: mistyped field 'amount_wei'"),
    "bool-amount": (lambda log: forge_first(log, "GasCharged", set_field("amount_wei", True)),
                    "kind GasCharged: mistyped field 'amount_wei'"),
    "float-amount": (lambda log: forge_first(log, "GasCharged", set_field("amount_wei", 5.0)),
                     "kind GasCharged: mistyped field 'amount_wei'"),
    "null-payer": (lambda log: forge_first(log, "GasCharged", set_field("payer", None)),
                   "kind GasCharged: mistyped field 'payer'"),
    "srdt-token-as-string": (lambda log: forge_first(log, "ServicePurchased", set_field("srdt_token", "SRDT-00001")),
                             None),
    "srdt-token-as-number": (lambda log: forge_first(log, "ServicePurchased", set_field("srdt_token", 1)),
                             "kind ServicePurchased: mistyped field 'srdt_token'"),
    "role-not-a-string": (lambda log: forge_first(log, "Registered", set_field("roles", ["consumer", 1])),
                          "kind Registered: mistyped field 'roles'"),
    "nested-field-mistyped": (lambda log: forge_first(log, "SelectionRun", first_badged),
                              "kind SelectionRun: mistyped field 'badged'"),
    "nested-row-extra-key": (
        lambda log: forge_first(log, "EndorsersBootstrapped", lambda rec: rec.payload["srdt_minted"][0].update(x=1)),
        "kind EndorsersBootstrapped: mistyped field 'srdt_minted'"),
    "unknown-quality": (
        lambda log: forge_first(log, "ScenarioSetup", lambda rec: rec.payload["ground_truth"].update(x="Mediocre")),
        "kind ScenarioSetup: mistyped field 'ground_truth'"),
    "prev-hash-text-replaced": (
        lambda log: edit_at(log, lambda b: b.replace(json.loads(b)["prev_hash"].encode(), b"f" * 64)),
        "prev-hash mismatch"),
    "seq-text-replaced": (lambda log: edit_at(log, lambda b: b.replace(b'"seq":%d,' % T, b'"seq":%d,' % (T + 1))),
                          "seq gap"),
}

# What a refusal names: the line's own seq on a malformed event, else the chain check that failed.
NAMED_REASON = re.compile(
    r"malformed event at seq (\d+)[:,] .+|chain broken at seq -?\d+: "
    r"(seq gap|prev-hash mismatch|tick regression|hash mismatch|not canonical): .+",
    re.DOTALL,
)


@pytest.fixture(scope="module")
def refund_log() -> bytes:
    return small_log(KIND_FALSE_REFUND)


class TestExactForm:
    """The exact-form test is the reader's only accepting path; a line it refuses has the first failing check named."""

    @pytest.mark.parametrize("seed", [7, 2407])
    def test_every_exported_line_takes_the_exact_form(self, seed):
        for kind in ALL_KINDS:
            result = small_run(kind, seed)
            prev, last_tick = ZERO_DIGEST, 0
            for live, raw in zip(result.sim.ledger.log, result.log_text().splitlines(), strict=True):
                exact = ledger_mod._exact_record(raw.decode("utf-8"), live.seq, prev, last_tick)
                assert exact == live and exact.payload == live.payload, (kind, live.seq)
                prev, last_tick = exact.hash, exact.tick

    @pytest.mark.parametrize("name", FORGERIES)
    def test_forgery_verdict(self, name, refund_log):
        records = list(iter_log_lines(refund_log))
        assert records[T - 1].tick >= 1 and len(records[T].payload) >= 2
        build, expected = FORGERIES[name]
        log = build(refund_log)
        assert log != refund_log
        got, error = verdict(log)
        if expected is None:
            assert error is None and len(got) == len(records)
        else:
            assert error is not None and expected in error[2], error

    def test_forgery_is_refused_with_every_public_function_wrapped(self, refund_log, monkeypatch):
        # A profiler replaces each public function of the module with a pass-through wrapper before the first
        # read; no verdict may depend on which object a module-level name is bound to.
        log = FORGERIES["duplicate-quality-hashed"][0](refund_log)
        untraced = verdict(log)[1]
        assert untraced[:2] == (ChainBroken, 11)
        monkeypatch.setattr(ledger_mod, "_ROW_PATTERNS", {})
        wrapped = []
        for name, value in list(vars(ledger_mod).items()):
            if isinstance(value, types.FunctionType) and not name.startswith("_") \
                    and value.__module__ == ledger_mod.__name__:
                monkeypatch.setattr(ledger_mod, name, functools.wraps(value)(lambda *a, _fn=value, **k: _fn(*a, **k)))
                wrapped.append(name)
        assert {"canonical_payload", "iter_log_lines", "record_hash"} <= set(wrapped)
        with pytest.raises(ChainBroken) as broken:
            list(ledger_mod.iter_log_lines(log))
        assert (ChainBroken, broken.value.seq, str(broken.value)) == untraced

    def test_lines_that_hold_an_envelope_tail_take_the_exact_form(self, refund_log, monkeypatch):
        # The tail sits in a string field, escaped, or a tick runs to 4300 digits: the envelope match still holds.
        refusals = []
        refuse = ledger_mod._refuse
        monkeypatch.setattr(ledger_mod, "_refuse", lambda *args: refusals.append(args) or refuse(*args))
        for name in ("tick-in-text-digest", "envelope-tail-in-text-digest", "4300-digit-tick"):
            log = FORGERIES[name][0](refund_log)
            assert len(list(iter_log_lines(log))) == log.count(b"\n")
        assert refusals == []

    def test_single_byte_edits_are_refused_with_a_named_reason(self):
        logs = {kind: small_log(kind) for kind in ALL_KINDS}
        first = {}  # event kind -> (its log, the seq of its first record)
        for log in logs.values():
            for rec in iter_log_lines(log):
                first.setdefault(rec.kind, (log, rec.seq))
        assert len(first) >= 13
        edits = 0
        for log, seq in first.values():
            lines = log.splitlines(keepends=True)[:seq + 1]
            line = lines[-1]
            for pos in range(0, len(line) - 1, 11):
                for new in (b'"', b"\\", b"0", b" "):
                    if line[pos:pos + 1] != new:
                        records, error = verdict(b"".join(lines[:-1]) + line[:pos] + new + line[pos + 1:])
                        assert len(records) == seq and error is not None, (seq, pos, new)
                        named = NAMED_REASON.fullmatch(error[2])
                        assert named and named.group(1) in (None, str(seq)), error
                        edits += 1
        assert edits > 1000


def old_exact_rule(kind: str, text: str) -> bool:
    """The rule the row patterns replace, kept as their oracle: the text decodes, fits the row, re-encodes to itself."""
    try:
        payload, end = json.JSONDecoder().raw_decode(text)
    except (ValueError, RecursionError):
        return False
    return end == len(text) and ledger_mod._misfit(EVENTS[kind], payload) is None and canonical_payload(payload) == text


def takes_exact_form(kind: str, text: str) -> bool:
    """Whether _exact_record accepts `text` as the payload of record 0, of `kind`, at tick 0."""
    preimage = f"0|0|{kind}|{text}|{ZERO_DIGEST}"  # surrogatepass: any text gets a hash; the reader refuses it
    digest = hashlib.sha256(preimage.encode("utf-8", "surrogatepass")).hexdigest()
    line = f'{{"hash":"{digest}","kind":"{kind}","payload":{text},"prev_hash":"{ZERO_DIGEST}","seq":0,"tick":0}}'
    return ledger_mod._exact_record(line, 0, ZERO_DIGEST, 0) is not None


@contextlib.contextmanager
def int_digits_unlimited():
    """Let json.dumps write an int of more than 4300 digits, as no reader reads it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Strings with control characters, DEL, "/", "A", non-BMP characters and lone surrogates;
# ints up to 4301 digits, one past what int() reads.
ODD_CHARACTERS = "\x00\b\n\x0b\x1f\x7f\"\\/A\xe9\U0001f600\ud800"
ODD_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(ODD_CHARACTERS))
ODD_INTS = st.integers(min_value=0, max_value=2**64) | st.integers(10**4299 - 2, 10**4300 + 1)
ODD_RECORDS = st.sampled_from(sorted(EVENTS)).flatmap(
    lambda kind: st.tuples(st.just(kind), values_of(EVENTS[kind], ODD_TEXT, ODD_INTS))
)

# A value in an object or a list, as the first match in a text: an int, then any string (a key is followed by ":").
FIRST_INT = re.compile(r"(?<=[:\[,])(0|[1-9][0-9]*)(?=[,\]}])")
FIRST_STRING = re.compile(r'(?<=[:\[,])"(?:[^"\\]|\\.)*"(?=[,\]}])')


def noncanonical_texts(payload: dict) -> dict:
    """Texts of `payload`, or of a payload near it, that the encoder would not write, by what makes them so."""
    with int_digits_unlimited():
        text = canonical_payload(payload)
        first = min(payload)
        return {
            "blanks": json.dumps(payload, sort_keys=True),
            "table-order": json.dumps(payload, separators=(",", ":")),
            "reversed-keys": reversed_keys(payload),
            "duplicate-key": "{" + canonical_payload({first: payload[first]})[1:-1] + "," + text[1:],
            "ensure-ascii-false": json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False),
            "escaped-slash": text.replace("/", "\\/"),
            "escaped-letter": text.replace("A", "\\u0041"),
            "uppercase-hex": re.sub(r"\\u([0-9a-f]{4})", lambda m: "\\u" + m[1].upper(), text),
            "long-lf-escape": text.replace("\\n", "\\u000a"),
            "minus-zero": FIRST_INT.sub("-0", text, count=1),
            "float": FIRST_INT.sub(r"\g<1>.0", text, count=1),
            "true-for-int": FIRST_INT.sub("true", text, count=1),
            "null-for-string": FIRST_STRING.sub("null", text, count=1),
        }


GAS = '{"amount_wei":%s,"op":"add_service","payer":%s}'
SETUP = '{"attackers":[],"ground_truth":%s,"kind":"collusion","scenario":"s","target_providers":[]}'
PURCHASE = ('{"consumer":"c","list_price_wei":1,"price_paid_wei":1,"provider":"p","purchase":"u","service":"v",'
            '"srat_token":"t","srdt_token":%s}')
# SHA-256 of each row's pattern text (_text_pattern), as the patterns were first compiled from EVENTS.
PATTERN_DIGESTS = {
    "Registered": "76952387ee51529f154b13f9eb896062f02410fbd1b86b508d533b28d61651ea",
    "AddressBound": "007cfcd84347d7c322a147cf33cb6f3e11563293eb474fcef60b30132cbb514b",
    "GasCharged": "54d8e7fb112ce2dcfb24f2063351695220ab91c28b0e912abe74b81081c0ab62",
    "ServiceAdded": "930ab549bf04fb80e392b63067eb5acdcead7d557ded8aa65624bd818cb7785a",
    "ServicePurchased": "5bf369b67e5051bacb4263f28cedf54c1d821a3b50b4a3eb7fd9b2a04cca9517",
    "ServiceModified": "21add034040362360c1dc3c6e3f777c9d4dd29b8266af5113f1ba91c3f44310d",
    "ServiceWithdrawn": "869dca42398c83c6b564fe0dcd17c5c7ff87bf7c0f9f9a005fb1bd635b48e008",
    "FundReplenished": "91f2390eb82ef412bf2e63de65037a79d47f1d4fcd9613e8d89ddfbabb7979f9",
    "ReviewSubmitted": "6f0a023fe9cf67fa498afe01c512eed420a11792f483c8b68139c140be8516bf",
    "EndorsementCast": "1b53bdbcea679e071d3579e0f494294736420a490364d96361dc411c94a2df07",
    "SelectionRun": "b3c40e4d0e32f959187d1bbaa483bfce01d4545de2af84487a5613c3c3a44a89",
    "EndorsersBootstrapped": "41716aefc2e595b817337b4db8b753bec6f31dbd48748484dbc6f0a1a82d6c90",
    "Excluded": "019cf653112dfed6b458b5b55f51f20d8478f2ce354022daffac566552d3100d",
    "DretAwarded": "fd8537648bff90bdcf1cf59985a05f2af59f3b7040a8a0a034d4407938ac0ae8",
    "TokensExpired": "e35dc7bef5a6bb930e77debd5e03cc52f3b70d08c6c5bba3a8d539b1b9ac0e9e",
    "RefundClaimFiled": "9c619bec1f6ee50974df4b1c1b70fa2bfe06732cd53edef20872ed4937fa4937",
    "RefundVoteCast": "d01e6f8cad9a44242e97c0b2b241cf153f30d18775d6d26a763a2c3adbdfcbe8",
    "RefundSettled": "01675a7d6d17f2dc88c9b3db7e92bd46627c964f57fcd83fc69ba1868e121829",
    "ScenarioSetup": "dc8c873e9156188dc01335b473cd12e45c027509e533fa1e549ed938dd3cd99a",
}

# (kind, payload text, whether it is the canonical text of a payload that fits the kind's row)
NAMED_TEXTS = {
    "plain": ("GasCharged", GAS % (5, '"P0001"'), True),
    "table-order": ("GasCharged", '{"payer":"P0001","op":"add_service","amount_wei":5}', False),
    "blank": ("GasCharged", GAS % (5, ' "P0001"'), False),
    "escaped-letter": ("GasCharged", GAS % (5, '"\\u0041"'), False),
    "escaped-e-acute": ("GasCharged", GAS % (5, '"\\u00e9"'), True),
    "uppercase-hex": ("GasCharged", GAS % (5, '"\\u00E9"'), False),
    "raw-e-acute": ("GasCharged", GAS % (5, '"\xe9"'), False),
    "escaped-del": ("GasCharged", GAS % (5, '"\\u007f"'), True),
    "raw-del": ("GasCharged", GAS % (5, '"\x7f"'), False),
    # A pattern that can split a run of characters more than one way would take ~2^64 steps to refuse this.
    "long-run-then-raw-e-acute": ("GasCharged", GAS % (5, '"' + "a" * 64 + '\xe9"'), False),
    "short-lf-escape": ("GasCharged", GAS % (5, '"\\n"'), True),
    "long-lf-escape": ("GasCharged", GAS % (5, '"\\u000a"'), False),
    "vertical-tab": ("GasCharged", GAS % (5, '"\\u000b"'), True),
    "raw-slash": ("GasCharged", GAS % (5, '"a/b"'), True),
    "escaped-slash": ("GasCharged", GAS % (5, '"a\\/b"'), False),
    "escaped-backslash-then-u": ("GasCharged", GAS % (5, '"\\\\u0041"'), True),
    "lone-surrogate": ("GasCharged", GAS % (5, '"\\ud800"'), True),
    "surrogate-pair": ("GasCharged", GAS % (5, '"\\ud83d\\ude00"'), True),
    "4300-digit-int": ("GasCharged", GAS % ("9" * 4300, '"P0001"'), True),
    "4301-digit-int": ("GasCharged", GAS % ("1" + "0" * 4300, '"P0001"'), False),
    "leading-zero-int": ("GasCharged", GAS % ("05", '"P0001"'), False),
    "minus-zero": ("GasCharged", GAS % ("-0", '"P0001"'), False),
    "float": ("GasCharged", GAS % ("5.0", '"P0001"'), False),
    "true-for-int": ("GasCharged", GAS % ("true", '"P0001"'), False),
    "null-for-string": ("GasCharged", GAS % (5, "null"), False),
    "null-for-str-or-null": ("ServicePurchased", PURCHASE % "null", True),
    "string-for-str-or-null": ("ServicePurchased", PURCHASE % '"SRDT-00001"', True),
    "empty-list": ("TokensExpired", '{"tokens":[]}', True),
    "blank-list": ("TokensExpired", '{"tokens":[ ]}', False),
    "list-with-trailing-comma": ("TokensExpired", '{"tokens":["a",]}', False),
    "list-without-comma": ("TokensExpired", '{"tokens":["a""b"]}', False),
    "list-of-two": ("TokensExpired", '{"tokens":["a","b"]}', True),
    "ground-truth-sorted": ("ScenarioSetup", SETUP % '{"SVC-1":"Good","SVC-2":"Bad"}', True),
    "ground-truth-unsorted": ("ScenarioSetup", SETUP % '{"SVC-2":"Bad","SVC-1":"Good"}', False),
    "ground-truth-duplicate": ("ScenarioSetup", SETUP % '{"SVC-1":"Good","SVC-1":"Good"}', False),
    "ground-truth-other-quality": ("ScenarioSetup", SETUP % '{"SVC-1":"Fair"}', False),
}


class TestRowPatterns:
    """_exact_record accepts a payload text exactly when the rule it replaced, decode, fit and re-encode, does."""

    @pytest.mark.parametrize("name", NAMED_TEXTS)
    def test_named_text(self, name):
        kind, text, canonical = NAMED_TEXTS[name]
        assert old_exact_rule(kind, text) is canonical
        assert takes_exact_form(kind, text) is canonical

    @given(record=ODD_RECORDS)
    @settings(max_examples=150, deadline=None)
    def test_drawn_payloads_get_the_old_verdict(self, record):
        kind, payload = record
        with int_digits_unlimited():
            text = canonical_payload(payload)
        assert takes_exact_form(kind, text) is old_exact_rule(kind, text)

    @given(record=ODD_RECORDS)
    @settings(max_examples=100, deadline=None)
    def test_noncanonical_texts_get_the_old_verdict(self, record):
        kind, payload = record
        for name, text in noncanonical_texts(payload).items():
            assert takes_exact_form(kind, text) is old_exact_rule(kind, text), name

    def test_patterns_need_nothing_newer_than_python_3_10(self):
        parser = pytest.importorskip("re._parser")  # 3.11 and on, which parse possessive and atomic forms
        newer = {parser.POSSESSIVE_REPEAT, parser.ATOMIC_GROUP}

        def opcodes(node):
            if isinstance(node, parser.SubPattern):
                for op, arg in node:
                    yield op
                    yield from opcodes(arg)
            elif isinstance(node, (list, tuple)):
                for item in node:
                    yield from opcodes(item)

        for pattern in [ledger_mod._ESCAPES.pattern, *map(ledger_mod._text_pattern, EVENTS.values())]:
            assert newer.isdisjoint(opcodes(parser.parse(pattern))), pattern

    def test_row_patterns_are_pinned(self):
        # SHA-256 of each row's pattern text: a change to a leaf or to how rows are written shows here.
        assert {kind: hashlib.sha256(ledger_mod._text_pattern(row).encode()).hexdigest()
                for kind, row in EVENTS.items()} == PATTERN_DIGESTS

    def test_reencode_flag_is_found_at_depth(self, monkeypatch):
        assert [kind for kind, row in EVENTS.items() if ledger_mod._reencodes(row)] == ["ScenarioSetup"]
        # A leaf that asks for a re-encode, in an object in a list: its row's texts must re-encode to themselves.
        monkeypatch.setitem(EVENTS, "Nested", {"x": [{"q": QUALITIES}]})
        monkeypatch.setattr(ledger_mod, "_ROW_PATTERNS", {})
        nested = '{"x":[{"q":{%s}}]}'
        assert takes_exact_form("Nested", nested % '"a":"Good","b":"Bad"')
        assert not takes_exact_form("Nested", nested % '"b":"Bad","a":"Good"')
        assert not takes_exact_form("Nested", nested % '"a":"Good","a":"Good"')
        assert ledger_mod._ROW_PATTERNS["Nested"][1] is True

    def test_a_read_record_is_accepted_undecoded_and_keeps_its_first_decode(self, refund_log):
        read = next(iter_log_lines(refund_log))
        assert read._decoded is None
        read.payload["x"] = 1
        assert read.payload["x"] == 1 and "x" not in json.loads(read.payload_json)


class TestEventsTable:
    """ledger.EVENTS, the table of the log's format, holds what the writers write: a test ties them together."""

    @pytest.mark.parametrize("seed", [7, 2407])
    def test_every_canonical_payload_fits_its_row(self, seed):
        for scenario in canonical_scenarios():
            assert_payloads_fit_events(run_scenario(replace(scenario, seed=seed)).sim.ledger)

    def test_every_row_is_written(self):
        # The random walks of test_properties check their own payloads; here they, the canonical
        # scenarios and the facade calls no harness makes write every kind in the table.
        from test_properties import random_protocol_walk

        kinds = set()
        for scenario in canonical_scenarios():
            kinds |= assert_payloads_fit_events(run_scenario(scenario).sim.ledger)
        for seed in range(4):
            # A quorum and an interval of 1 award DRETs; a short SRAT lifetime lets tokens expire.
            sim = make_sim(seed=seed, endorsement_quorum=1, dret_interval=1, srat_lifetime=3)
            random_protocol_walk(sim, random.Random(seed), steps=120)
            kinds |= assert_payloads_fit_events(sim.ledger)
        sim = make_sim()
        provider, service = provider_and_service(sim)
        sim.bind_address(provider)
        sim.withdraw_service(provider, service)
        kinds |= assert_payloads_fit_events(sim.ledger)
        assert kinds == set(EVENTS)

    def test_every_kind_is_its_own_json_string_form(self):
        # The exact-form test compares a line's raw kind text with these keys.
        assert all(kind.isascii() and kind.isalpha() and json.dumps(kind) == f'"{kind}"' for kind in EVENTS)

    def test_readme_lists_every_row(self):
        def written(spec) -> str:
            if type(spec) is list:
                return f"[{written(spec[0])}]"
            if type(spec) is dict:
                return "{" + fields(spec) + "}"
            return {STR: "str", INT: "int", STR_OR_NULL: "str\\|null", QUALITIES: "Good\\|Bad"}[spec]

        def fields(row: dict) -> str:
            return ", ".join(f"`{name}` {written(spec)}" for name, spec in row.items())

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        rows = [line for line in readme if line.startswith("| `") and line.split("`")[1] in EVENTS]
        assert rows == [f"| `{kind}` | {fields(row)} |" for kind, row in EVENTS.items()]


class TestCommittedBytes:
    """A live record holds the bytes its hash covers and export writes, and no dict.

    That an untouched export replays to the live metrics is checked for
    every scenario kind by test_adversary's test_replay_metrics_equal_live_metrics.
    """

    def test_payload_edited_after_append_breaks_live_chain(self):
        ledger = fresh_ledger()
        for i in range(10):
            ledger.append_event("TokensExpired", {"tokens": [f"SRAT-{i:05d}"]})
        ledger.log[4].payload_json = canonical_payload({"tokens": ["SRAT-00004", "SRAT-00005"]})
        with pytest.raises(ChainBroken) as broken:
            list(iter_log_lines(exported_log(ledger)))
        assert broken.value.seq == 4
        assert broken.value.reason.startswith("hash mismatch")

    def test_payload_dicts_do_not_reach_the_record(self):
        ledger = fresh_ledger()
        payload = {"tokens": ["a"]}
        rec = ledger.append_event("TokensExpired", payload)
        award(ledger, 2)
        head, export = ledger.final_hash(), exported_log(ledger)
        payload["tokens"].append("b")
        rec.payload["tokens"].append("c")
        assert rec.payload == {"tokens": ["a"]}
        assert ledger.final_hash() == head and exported_log(ledger) == export
        assert len(list(iter_log_lines(export))) == 2

    def test_no_live_record_holds_a_dict(self):
        sim = make_sim(seed=5)
        provider, service = provider_and_service(sim)
        consumer_with_purchase(sim, service)
        assert len(sim.ledger.log) > 3
        for rec in sim.ledger.log:
            assert not any(isinstance(getattr(rec, name), dict) for name in EventRecord.__slots__)


class TestBeacon:
    def test_exhaustive_draw_returns_whole_pool(self):
        beacon = RandomBeacon(3)
        assert sorted(beacon.draw(["a", "b", "c", "d", "e"], 5)) == ["a", "b", "c", "d", "e"]

    def test_same_seed_same_draws(self):
        pool = [f"id{i:03d}" for i in range(100)]
        first = RandomBeacon(77).draw(pool, 5)
        second = RandomBeacon(77).draw(pool, 5)
        assert first == second
        assert len(set(first)) == 5

    def test_draw_sequence_advances_counter(self):
        beacon = RandomBeacon(1)
        beacon.draw([1, 2, 3], 2)
        beacon.draw([1, 2, 3], 2)
        assert beacon.counter == 2

    def test_pool_too_small(self):
        with pytest.raises(PoolTooSmall):
            RandomBeacon(1).draw([], 1)

    def test_distinct_seeds_usually_differ(self):
        pool = [f"id{i:03d}" for i in range(100)]
        assert RandomBeacon(1).draw(pool, 5) != RandomBeacon(2).draw(pool, 5)


class TestTicks:
    def test_tick_increments(self):
        ledger = fresh_ledger()
        assert ledger.advance_tick() == 1

    def test_hundred_advances(self):
        ledger = fresh_ledger()
        for _ in range(100):
            ledger.advance_tick()
        assert ledger.tick == 100

    def test_events_carry_tick_non_decreasing(self):
        sim = make_sim()
        provider, service = provider_and_service(sim)
        sim.advance_tick()
        consumer_with_purchase(sim, service)
        ticks = [rec.tick for rec in sim.ledger.log]
        assert ticks == sorted(ticks)


class TestConservation:
    def test_total_constant_across_operations(self):
        sim = make_sim(seed=8)
        genesis = sim.conservation_total()
        provider, service = provider_and_service(sim)
        consumer, purchase = consumer_with_purchase(sim, service)
        from ddrm import text_digest

        sim.submit_review(consumer, purchase, 5, text_digest("x"))
        sim.advance_tick()
        assert sim.conservation_total() == genesis
