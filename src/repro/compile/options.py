"""The switch between compiled and interpreted evaluation.

:class:`CompileOptions` travels from :class:`~repro.pipeline.stng.PipelineOptions`
through :func:`~repro.synthesis.cegis.synthesize_kernel` down to the
bounded verifier, and is part of the synthesis cache fingerprint (so a
summary recorded under one evaluation mode is never replayed as if it
had been produced under another, even though the two modes are required
to agree bit-for-bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Union


@dataclass(frozen=True)
class CompileOptions:
    """How the CEGIS inner loop evaluates kernels and candidate formulas.

    ``enabled``
        ``True`` (the default) runs every check through generated code
        (:mod:`repro.compile.codegen`).  ``False`` routes every check
        through the original tree-walking interpreters, the oracle the
        generated code must match bit for bit.
    """

    enabled: bool = True

    def config(self) -> Dict[str, Any]:
        """Cache-fingerprint encoding (see :mod:`repro.cache.fingerprint`)."""
        return {"enabled": self.enabled}

    @classmethod
    def coerce(
        cls, value: Union["CompileOptions", Mapping[str, Any], None]
    ) -> "CompileOptions":
        """Normalise ``None``/mapping payloads (``dataclasses.asdict``
        round-trips through the process-pool scheduler) to options."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(**dict(value))


INTERPRETED = CompileOptions(enabled=False)
