"""Record and message codecs: round trips and strict decoding."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from pufzk.ledger import Block
from pufzk.pairing import DecodeError
from pufzk.wire import (
    AuthDecision,
    AuthRequest,
    DeviceRecord,
    SubsetRecord,
    TransactionRecord,
    TxDecision,
    TxSubmit,
    WireError,
    decode_message,
)


def _sample_tx():
    return TransactionRecord(
        payload=b"payload-bytes",
        device_id=bytes(32),
        signature=b"\x01" * 48,
        proof=b"\x02" * 257,
        chaincode="submit",
        nonce=b"\x03" * 16,
    )


class TestRecords:
    def test_device_record_round_trip(self):
        record = DeviceRecord(bytes(32), b"p" * 96, b"c" * 48, bytes(32), b"ch" * 1024, 42, b"s" * 64)
        assert DeviceRecord.from_bytes(record.to_bytes()) == record

    def test_device_record_signs_all_but_its_signature(self):
        # the CA signs the encoding up to the signature field: a prefix
        # that every other field, the serial included, changes
        record = DeviceRecord(bytes(32), b"p" * 96, b"c" * 48, bytes(32), b"ch" * 4, 42, b"s" * 64)
        raw = record.to_bytes()
        assert raw.startswith(record.signed_bytes())
        assert raw[len(record.signed_bytes()):] == (64).to_bytes(2, "big") + b"s" * 64
        assert dataclasses.replace(record, sig_bytes=b"t" * 64).signed_bytes() == record.signed_bytes()
        for field, value in (("device_id", b"\x01" * 32), ("pk_bytes", b"q" * 96),
                             ("commitment_bytes", b"d" * 48), ("fingerprint", b"\x01" * 32),
                             ("challenge_bytes", b"ch" * 5), ("serial", 43)):
            other = dataclasses.replace(record, **{field: value})
            assert other.signed_bytes() != record.signed_bytes(), field

    def test_device_record_bad_magic(self):
        with pytest.raises(WireError):
            DeviceRecord.from_bytes(b"XXXX" + bytes(64))

    def test_subset_record_round_trip(self):
        record = SubsetRecord(epoch=7)
        assert record.to_bytes() == (7).to_bytes(8, "big")
        assert SubsetRecord.from_bytes(record.to_bytes()) == record

    def test_subset_record_strict_decoding(self):
        raw = SubsetRecord(epoch=7).to_bytes()
        with pytest.raises(WireError):
            SubsetRecord.from_bytes(raw[:-1])
        with pytest.raises(WireError):
            SubsetRecord.from_bytes(raw + b"\x00")

    def test_transaction_round_trip(self):
        tx = _sample_tx()
        assert TransactionRecord.from_bytes(tx.to_bytes()) == tx

    def test_trailing_bytes_rejected(self):
        tx = _sample_tx()
        with pytest.raises(WireError):
            TransactionRecord.from_bytes(tx.to_bytes() + b"\x00")

    def test_truncation_rejected(self):
        tx = _sample_tx()
        with pytest.raises(WireError):
            TransactionRecord.from_bytes(tx.to_bytes()[:-1])


class TestMessages:
    def test_all_message_round_trips(self):
        messages = [
            AuthRequest(bytes(32), b"\x09" * 257, b"\x0A" * 16),
            AuthDecision(True, "ok"),
            AuthDecision(False, "stale nonce"),
            TxSubmit(_sample_tx()),
            TxDecision(False, "proof invalid"),
        ]
        for msg in messages:
            assert decode_message(msg.to_bytes()) == msg

    @pytest.mark.parametrize("decision", [AuthDecision(True, "ok"), TxDecision(False, "x")])
    @pytest.mark.parametrize("flag", [0x02, 0x03, 0x80, 0xFF])
    def test_decision_flag_is_strict(self, decision, flag):
        raw = bytearray(decision.to_bytes())
        raw[1] = flag
        with pytest.raises(WireError):
            decode_message(bytes(raw))

    def test_unknown_tag(self):
        with pytest.raises(WireError):
            decode_message(b"\xEE\x00")

    def test_empty(self):
        with pytest.raises(WireError):
            decode_message(b"")

    @given(st.sampled_from([b"", b"PZDR\x01", b"PZDR\x02", b"\x01", b"\x02", b"\x03", b"\x04"]),
           st.binary(min_size=0, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decode_never_crashes_unhandled(self, prefix, body):
        """Messages, records and blocks: any bytes give a value or a
        typed rejection."""
        for decode in (decode_message, DeviceRecord.from_bytes,
                       SubsetRecord.from_bytes, TransactionRecord.from_bytes, Block.from_bytes):
            try:
                decode(prefix + body)
            except (WireError, DecodeError):
                pass

    @given(st.binary(max_size=128), st.binary(max_size=32), st.binary(max_size=16))
    @settings(max_examples=100)
    def test_auth_request_round_trip_property(self, proof, device_id, nonce):
        msg = AuthRequest(device_id, proof, nonce)
        assert decode_message(msg.to_bytes()) == msg
