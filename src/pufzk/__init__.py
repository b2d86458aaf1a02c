"""PUF-anchored device identity and zero-knowledge authentication over a
simulated permissioned ledger.

Layering, bottom up:

``pufzk.pairing``   bilinear groups, hashing, canonical encodings
``pufzk.puf``       simulated delay-based arbiter devices
``pufzk.zkp``       literal and corrected proof modes, signatures
``pufzk.wire``      record and message codecs
``pufzk.ledger``    hash-chained ledger with chaincode dispatch
``pufzk.identity``  enrollment and the certificate authority
``pufzk.protocol``  authentication/transaction drivers and adversaries
``pufzk.bench``     staged benchmark harness
``pufzk.scenarios`` attack suite, demo, transcript audit
``pufzk.cli``       the ``pufzk`` command
"""

from .identity import (
    CertificateAuthority,
    DeviceIdentity,
    KeyPair,
    RegistrationError,
    compute_device_id,
    register_device,
)
from .ledger import Ledger, bootstrap, ledger_new, rotate_challenges
from .pairing import (
    DecodeError,
    G1Element,
    G2Element,
    GtElement,
    Scalar,
    hash_to_g1,
    hash_to_scalar,
    multi_pair,
    pair,
)
from .params import PRESETS, ParamSet, resolve_params
from .protocol import Device, Session, Verifier, run_authentication, run_transaction
from .puf import PufDevice, generate_challenges, puf_eval_raw, puf_new, puf_respond
from .zkp import (
    MODE_CORRECTED,
    MODE_LITERAL,
    AuthStatement,
    AuthWitness,
    CorrectedAuthProof,
    SigmaProof,
    Signature,
    TrustSetup,
    auth_prove_corrected,
    auth_prove_literal,
    auth_verify_corrected,
    auth_verify_literal,
    sign,
    trust_setup,
    verify_sig,
)

__version__ = "0.1.0"
