"""Scalar text functions — the reference's normalization library rebuilt.

Reference parity (cited file:line are under /root/reference/):

- ``normalize_alnum_lower``: alnum-lowercase normalization used by every
  keyword classifier (document_classification_updated/documentClassifier.py:404,
  645, 727, 806).
- ``collapse_ws``: the canonical whitespace policy of the extraction tier —
  runs of whitespace become one space, leading/trailing stripped.
- ``tokenize`` / ``word_re``: ``\\w+`` tokenization used by the token-set
  classifier (documentClassifier.py:512-574), the NB featurizer and quality
  checks. The reference cleans text before ML scoring (whitespace collapse
  + punctuation strip, documentClassifier.py:344-355); the ``\\w+`` tokens
  of cleaned and raw text are the same, except where a stripped character
  decides Greek final-sigma lowercasing.
- ``numeric_clean``: ``replace(',','')`` numeric cleanup used by validators
  (microservices/rule-engine-service/validation_engine.py:64).

All functions are pure and deterministic; they are called inside
``map_batches`` UDFs (vectorized over a batch with a tight Python loop only
where a regex per string is inherently per-row).
"""

from __future__ import annotations

import math
import re

word_re = re.compile(r"\w+", re.UNICODE)
_alnum_re = re.compile(r"[^0-9a-z]+")


def collapse_ws(s: str) -> str:
    """Collapse whitespace runs to single spaces and strip ends.

    Equal to ``re.sub(r"\\s+", " ", s).strip()``: ``str.split()`` splits on
    exactly the code points ``\\s`` matches in a str pattern (those with
    ``str.isspace()``), and is about 4× faster on page-sized text."""
    return " ".join(s.split())


def normalize_alnum_lower(s: str) -> str:
    """Lowercase and drop every non-alphanumeric character.

    Mirrors ``''.join(c.lower() for c in text if c.isalnum())``
    (documentClassifier.py:404) but vectorized as a regex substitution.
    Note: the reference keeps unicode alnum; so does ``str.isalnum`` — we
    lowercase first then drop ASCII non-alnum only for ASCII text, falling
    back to the exact per-char filter when non-ASCII is present.
    """
    low = s.lower()
    if low.isascii():
        return _alnum_re.sub("", low)
    return "".join(filter(str.isalnum, low))


def tokenize(s: str) -> list[str]:
    """``\\w+`` tokens, lowercased."""
    return word_re.findall(s.lower())


def numeric_clean(s: str) -> str:
    """Strip thousands separators before numeric parse (validation_engine.py:64)."""
    return s.replace(",", "").strip()


def try_parse_number(s: str) -> float | None:
    try:
        v = float(numeric_clean(s))
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def r6(x: float) -> float:
    """Deterministic 6-decimal truncation: ``floor(x * 1e6) / 1e6``.

    Used for every ratio/score column that is cross-checked against a DuckDB
    oracle — ``floor`` after a mirrored sequence of double ops is
    engine-independent, unlike round-half-even vs round-half-away.
    """
    return math.floor(x * 1e6) / 1e6
