"""Record and message codecs: round trips and strict decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from pufzk.ledger import Block
from pufzk.pairing import DecodeError
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
    registration_binding,
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
        cert = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x08" * 32, b"\x06" * 64)
        assert Certificate.from_bytes(cert.to_bytes()) == cert

    def test_certificate_signing_payload_excludes_signature(self):
        a = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x08" * 32, b"\x06" * 64)
        b = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x08" * 32, b"\x07" * 64)
        assert a.signing_payload() == b.signing_payload()

    def test_certificate_signing_payload_covers_binding(self):
        a = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x08" * 32, b"\x06" * 64)
        b = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x09" * 32, b"\x06" * 64)
        assert a.signing_payload() != b.signing_payload()

    def test_certificate_binding_is_32_bytes(self):
        cert = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x08" * 31, b"\x06" * 64)
        with pytest.raises(WireError):
            cert.to_bytes()
        raw = Certificate(bytes(32), b"\x05" * 96, "device", 42, b"\x08" * 32, b"").to_bytes()
        with pytest.raises(WireError):
            Certificate.from_bytes(raw[:-3] + raw[-2:])

    def test_registration_binding_frames_its_fields(self):
        assert registration_binding(b"ab", b"c", b"") != registration_binding(b"a", b"bc", b"")
        assert registration_binding(b"", b"ab", b"c") != registration_binding(b"", b"a", b"bc")
        assert len(registration_binding(b"", b"", b"")) == 32

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

    @given(st.sampled_from([b"", b"PZDR\x01", b"\x01", b"\x02", b"\x03", b"\x04"]),
           st.binary(min_size=0, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decode_never_crashes_unhandled(self, prefix, body):
        """Messages, records and blocks: any bytes give a value or a
        typed rejection."""
        for decode in (decode_message, Certificate.from_bytes, DeviceRecord.from_bytes,
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
