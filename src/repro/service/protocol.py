"""The lifting service's wire protocol and request identity.

Transport: a TCP byte stream of **line-delimited JSON** — every message
is one JSON object on one ``\\n``-terminated UTF-8 line, in both
directions.  NDJSON needs no framing code on either side, is writable
from a shell (``printf ... | nc``), and keeps the server's read loop a
single ``readline``.

Client → server operations (the ``op`` field):

``{"op": "ping"}``
    Liveness probe; answered with ``{"event": "pong", ...}``.
``{"op": "stats"}``
    Server counters; answered with one ``stats`` event.
``{"op": "lift", "source": <fortran>, "driver": <proc>,
   "options": {...}, "name": <label>}``
    Submit a program.  ``driver`` names the entry procedure;
    ``options`` (optional) carries synthesis-relevant
    :class:`~repro.pipeline.stng.PipelineOptions` overrides from
    :data:`OPTION_FIELDS`; ``name`` (optional) labels the run.

Server → client events (the ``event`` field) for one ``lift``:

``accepted``
    Echoes the request ``fingerprint`` and whether it ``deduped`` onto
    an in-flight identical request.
``phase``
    One pipeline phase completed: ``scan``, ``lift``, ``prove``,
    ``translate`` (in order), each with a JSON ``detail`` payload.
``done``
    Terminal success: the bundle ``manifest``, cache hit/miss counts
    and wall-clock ``seconds``.
``error``
    Terminal failure with a ``message``; the connection stays usable.

Request identity: :func:`request_fingerprint` — the SHA-256 of the
canonical JSON of (source text, driver, whitelisted options,
:data:`~repro.cache.fingerprint.CODE_VERSION`).  Two submissions agree
on their fingerprint iff a lift for one is a valid answer for the
other, which is exactly the dedup and run-log key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from repro.cache.fingerprint import CODE_VERSION
from repro.pipeline.stng import PipelineOptions

PROTOCOL_VERSION = "lift-service-1"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8571

# PipelineOptions fields a request may override: the synthesis-relevant
# subset (they change what is lifted or proved, and they are all part of
# the synthesis fingerprint's options signature).  Execution-side knobs
# (measure backends, the schedule directory, thread counts) stay
# server-controlled — a client must not repoint server storage.
OPTION_FIELDS = frozenset(
    {
        "seed",
        "trials",
        "autotune_budget",
        "max_candidates",
        "verifier_environments",
        "inductive",
    }
)

# The one option that is a JSON boolean; every other option is a JSON
# integer, and a boolean is not taken for one.
BOOLEAN_OPTIONS = frozenset({"inductive"})

TERMINAL_EVENTS = frozenset({"done", "error"})

PHASES = ("scan", "lift", "prove", "translate")


class ServiceError(ValueError):
    """A malformed or unserviceable request (reported, never fatal)."""


def encode_line(message: Mapping[str, Any]) -> bytes:
    """One protocol message as a newline-terminated UTF-8 JSON line."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises :class:`ServiceError` on junk."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError(f"undecodable protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError("protocol message is not a JSON object")
    return message


def normalize_options(options: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Validate a request's options dict against the whitelist and types.

    A value of the wrong JSON type is refused rather than coerced, so a
    request that lifts is one that any equivalent request fingerprints
    alike.
    """
    if options is None:
        return {}
    if not isinstance(options, Mapping):
        raise ServiceError("options must be a JSON object")
    unknown = sorted(set(options) - OPTION_FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown options {unknown}; allowed: {sorted(OPTION_FIELDS)}"
        )
    for name, value in options.items():
        expected = bool if name in BOOLEAN_OPTIONS else int
        if type(value) is not expected:
            kind = "boolean" if expected is bool else "integer"
            raise ServiceError(f"option {name} must be a JSON {kind}, not {value!r}")
    return {name: options[name] for name in sorted(options)}


def options_from_request(
    options: Optional[Mapping[str, Any]],
    base: Optional[PipelineOptions] = None,
) -> PipelineOptions:
    """Build the job's :class:`PipelineOptions`: server base + overrides."""
    fields = normalize_options(options)
    try:
        return dataclasses.replace(base or PipelineOptions(), **fields)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"invalid options: {exc}") from None


def request_fingerprint(
    source: str,
    driver: str,
    options: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content address of one lift request (the dedup and run-log key)."""
    identity = {
        "protocol": PROTOCOL_VERSION,
        "code_version": CODE_VERSION,
        "source": source,
        "driver": driver,
        "options": normalize_options(options),
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
