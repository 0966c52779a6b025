"""Ledger: gas charges, hash chain, log codec, beacon, ticks."""

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrm import GasSchedule, RandomBeacon, ether
from ddrm.errors import ChainBroken, InsufficientFunds, MalformedEvent, PoolTooSmall, ConfigError
from ddrm.ledger import (
    OP_ADD_SERVICE,
    OP_ENDORSE_REVIEW,
    OP_REQUEST_SERVICE,
    ZERO_DIGEST,
    EventRecord,
    Ledger,
    canonical_payload,
    iter_log_lines,
    record_hash,
    verify_records,
)

from conftest import consumer_with_purchase, exported_log, make_sim, provider_and_service

# The two forms iter_log_lines takes: an exported log's bytes, whole, and a binary file.
LOG_SOURCES = pytest.mark.parametrize(
    "source", [lambda data: data, lambda data: io.BytesIO(data)], ids=["text", "file"]
)


def fresh_ledger(seed=1) -> Ledger:
    ledger = Ledger(GasSchedule(), seed)
    ledger.open_account("alice", ether(10))
    ledger.open_account("bob")
    return ledger


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
        assert ledger.gas_sink == expected_wei

    def test_charge_appends_event(self):
        ledger = fresh_ledger()
        ledger.charge_gas("alice", OP_ADD_SERVICE)
        rec = ledger.log[-1]
        assert rec.kind == "GasCharged"
        assert rec.payload["payer"] == "alice"
        assert rec.payload["amount_wei"] == 528_681_600_000_000

    def test_empty_account_rejected_without_state_change(self):
        ledger = fresh_ledger()
        before = (ledger.balance("bob"), ledger.gas_sink, len(ledger.log))
        with pytest.raises(InsufficientFunds):
            ledger.charge_gas("bob", OP_ADD_SERVICE)
        assert (ledger.balance("bob"), ledger.gas_sink, len(ledger.log)) == before

    def test_schedule_rejects_used_above_limit(self):
        from ddrm import GasRow

        rows = dict(GasSchedule().rows)
        rows[OP_ADD_SERVICE] = GasRow(gas_limit=100, gas_used=200)
        with pytest.raises(ConfigError):
            GasSchedule(rows=rows).validate()


class TestEventChain:
    def test_genesis_prev_hash_is_zero(self):
        ledger = fresh_ledger()
        rec = ledger.append_event("Ping", {"a": 1})
        assert rec.seq == 0
        assert rec.prev_hash == ZERO_DIGEST

    def test_known_digest_vector(self):
        # sha256('0|0|Registered|{"a":1}|' + 64 zeros), computed with sha256sum.
        digest = record_hash(0, 0, "Registered", canonical_payload({"a": 1}), ZERO_DIGEST)
        assert digest == "7dbfe2a0d7cb2fa3c3436fa0e3686cdc0f1499d969ba3b95c4a7f13a7f80b4ac"

    def test_empty_log_verifies(self):
        fresh_ledger().verify_chain()

    def test_untouched_log_verifies(self):
        ledger = fresh_ledger()
        for i in range(10):
            ledger.append_event("Ping", {"i": i})
        ledger.verify_chain()

    def test_tampered_payload_detected_at_seq(self):
        ledger = fresh_ledger()
        for i in range(10):
            ledger.append_event("Ping", {"i": i})
        pristine = ledger.log[7]
        ledger.log[7] = EventRecord(
            seq=7,
            tick=pristine.tick,
            kind=pristine.kind,
            payload={"i": 999},
            prev_hash=pristine.prev_hash,
            hash=pristine.hash,
        )
        with pytest.raises(ChainBroken) as broken:
            ledger.verify_chain()
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
                ledger.verify_chain()
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
        verify_records(records)

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
    def test_missing_final_lf_is_refused_before_any_line(self, source):
        sim = make_sim(seed=5)
        provider_and_service(sim)
        data = b"not json\n" + exported_log(sim.ledger)[:-1]
        with pytest.raises(ChainBroken, match="does not end in LF") as broken:
            next(iter_log_lines(source(data)))
        assert broken.value.seq == data.count(b"\n")


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


def reference_line(rec: EventRecord) -> str:
    fields = {name: getattr(rec, name) for name in ("seq", "tick", "kind", "payload", "prev_hash", "hash")}
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


class TestLogCodec:
    @given(kind=st.text(), payload=st.dictionaries(st.text(), JSON_VALUES, max_size=6), tick=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_line_equals_json_dumps_and_round_trips(self, kind, payload, tick):
        ledger = fresh_ledger()
        ledger.tick = tick
        ledger.append_event("Ping", {})
        appended = ledger.append_event(kind, payload)
        built = EventRecord(appended.seq, tick, kind, payload, appended.prev_hash, appended.hash)
        # Both paths are taken: the appended record writes the bytes it was
        # hashed over, the directly built one encodes its payload.
        assert appended._payload_json is not None and built._payload_json is None
        for rec in (appended, built):
            line = rec.to_json_line()
            assert line == reference_line(rec)
            assert EventRecord.from_json_line(line) == rec
        verify_records(list(iter_log_lines(exported_log(ledger))))

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
        line = fresh_ledger().append_event("Ping", {"i": 1}).to_json_line()
        EventRecord.from_json_line(line)
        with pytest.raises(MalformedEvent):
            EventRecord.from_json_line(prefix + line + suffix)

    def test_replace_drops_the_committed_bytes(self):
        rec = fresh_ledger().append_event("Ping", {"i": 1})
        assert replace(rec, payload={"i": 2})._payload_json is None
        assert "_payload_json" not in repr(rec)


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


class TestCommittedBytes:
    """Export writes the hashed bytes; the live check still re-encodes each payload.

    That an untouched export replays to the live metrics is checked for
    every scenario kind by test_adversary's test_replay_metrics_equal_live_metrics.
    """

    def test_payload_edited_after_append_breaks_live_chain(self):
        ledger = fresh_ledger()
        for i in range(10):
            ledger.append_event("Ping", {"i": i, "tags": ["a"]})
        ledger.log[4].payload["tags"].append("b")
        with pytest.raises(ChainBroken) as broken:
            ledger.verify_chain()
        assert broken.value.seq == 4
        assert broken.value.reason.startswith("hash mismatch")


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
