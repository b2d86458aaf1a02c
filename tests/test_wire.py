"""Record and message codecs: round trips and strict decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from pufzk.wire import (
    AuthDecision,
    AuthRequest,
    Certificate,
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
    def test_certificate_round_trip(self):
        cert = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x06" * 48)
        assert Certificate.from_bytes(cert.to_bytes()) == cert

    def test_certificate_signing_payload_excludes_signature(self):
        a = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x06" * 48)
        b = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x07" * 48)
        assert a.signing_payload() == b.signing_payload()

    def test_device_record_round_trip(self):
        record = DeviceRecord(bytes(32), b"p" * 96, b"c" * 48, bytes(32), b"cert", b"ch" * 1024)
        assert DeviceRecord.from_bytes(record.to_bytes()) == record

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

    def test_unknown_tag(self):
        with pytest.raises(WireError):
            decode_message(b"\xEE\x00")

    def test_empty(self):
        with pytest.raises(WireError):
            decode_message(b"")

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200)
    def test_decode_never_crashes_unhandled(self, raw):
        try:
            decode_message(raw)
        except WireError:
            pass

    @given(st.binary(max_size=128), st.binary(max_size=32), st.binary(max_size=16))
    @settings(max_examples=100)
    def test_auth_request_round_trip_property(self, proof, device_id, nonce):
        msg = AuthRequest(device_id, proof, nonce)
        assert decode_message(msg.to_bytes()) == msg
