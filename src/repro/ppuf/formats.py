"""On-disk schema versioning for every PPUF persistence surface.

Every serialised artifact — the public device JSON
(:func:`repro.ppuf.io.ppuf_to_dict`), the CRP dataset wire format
(:meth:`repro.ppuf.crp.CRPDataset.to_json`) and the compiled evaluation
artifact header (:meth:`repro.ppuf.compiled.CompiledDevice.header`) —
stamps the same ``"format"`` field.  Readers check it *first* and fail
with one clear message instead of erroring deep inside reconstruction
when a future format changes shape.

The packed fleet container (:mod:`repro.ppuf.pack`) is a *different*
on-disk surface with its own version line: ``format: 2`` identifies the
pack container, while the per-device headers embedded in its records stay
on the compiled-artifact schema (version 1) and rebuild through
:meth:`CompiledDevice.from_arrays
<repro.ppuf.compiled.CompiledDevice.from_arrays>`.

This lives in its own module because :mod:`repro.ppuf.io` imports the
container modules (a constant shared the other way would be a cycle).
"""

from __future__ import annotations

from typing import Optional

#: Current schema version stamped into every saved per-device artifact.
FORMAT_VERSION = 1

#: Schema version of the packed fleet container (:mod:`repro.ppuf.pack`).
PACK_FORMAT_VERSION = 2


def format_mismatch(
    what: str, found, *, path: Optional[str] = None, expected: int = FORMAT_VERSION
) -> str:
    """The one wording for a version mismatch (names the path when known)."""
    where = f" file {path!r}" if path is not None else ""
    return (
        f"{what}{where} has format {found!r}; this build reads "
        f"format {expected}"
    )


def check_format(
    what: str,
    data: dict,
    *,
    path: Optional[str] = None,
    expected: int = FORMAT_VERSION,
) -> None:
    """Raise ``ValueError`` unless ``data``'s ``format`` field is readable.

    A missing field is accepted as the legacy (pre-versioning) form of
    ``expected``; an explicit mismatching value is not.  Callers that know
    the file path catch the ``ValueError`` and re-raise their own error
    type with the path woven in (or pass ``path`` here directly).
    """
    found = data.get("format", expected)
    if found != expected:
        raise ValueError(format_mismatch(what, found, path=path, expected=expected))
