"""Portable solvability certificates with an independent checker.

FACT's content is a biconditional, so every ``solve`` verdict has a
finite witness.  ``repro.certify`` makes those witnesses first-class:

* :mod:`~repro.certify.witness` — the canonical, versioned certificate
  format (``solvable`` / ``unsolvable`` / ``budget`` stubs)
  as plain JSON documents, byte-for-byte deterministic;
* :mod:`~repro.certify.checker` — the **trusted base**: a stdlib-only
  validator that re-derives colors, carriers, closures, domains and
  even the statement's content digests from the certificate body alone
  (it imports nothing from the rest of the library — test-enforced);
* :mod:`~repro.certify.extract` — certificates as a near-zero-cost
  by-product of one :class:`~repro.tasks.solvability.MapSearch` run.

Wired through the stack: engine job kinds ``certify`` / ``check``
(content-addressed-cached like ``solve``), service queries of the same
kinds with typed client helpers, and ``repro certify`` /
``repro check`` on the CLI.  See ``docs/certificates.md``.
"""

from .checker import CheckReport, check, check_bytes
from .extract import certificate_for, certified_search
from .witness import (
    CERT_FORMAT,
    CERT_VERSION,
    budget_stub,
    cert_to_bytes,
    mapping_of,
    read_cert,
    solvable_cert,
    statement_for,
    unsolvable_cert,
    write_cert,
)

__all__ = [
    "CERT_FORMAT",
    "CERT_VERSION",
    "CheckReport",
    "budget_stub",
    "cert_to_bytes",
    "certificate_for",
    "certified_search",
    "check",
    "check_bytes",
    "mapping_of",
    "read_cert",
    "solvable_cert",
    "statement_for",
    "unsolvable_cert",
    "write_cert",
]
