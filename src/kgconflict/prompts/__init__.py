"""Prompt templates shipped as package data.

Templates use ``{name}`` placeholders, substituted in one pass over the
template (not str.format), so braces inside user content are inert.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

EXTRACT_TRIPLES = "extract_triples.txt"
KEY_ELEMENTS = "key_elements.txt"
ANSWER_PARAMETRIC = "answer_parametric.txt"
ANSWER_AUGMENTED = "answer_augmented.txt"

# Appended to the extraction prompt on the single repair retry.
REPAIR_NOTE = (
    "Your previous reply was not valid JSON of the required shape. "
    "Return ONLY the JSON array described above."
)


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return (resources.files(__package__) / name).read_text(encoding="utf-8")


def render(name: str, **slots: str) -> str:
    """The template with each ``{slot}`` filled; a placeholder with no slot stays."""
    return re.sub(r"\{(\w+)\}", lambda m: slots.get(m[1], m[0]), load_template(name))
