"""Golden-table store: the quantitative claims of the acceptance suite,
serialized as fixture files, one JSON record each.

This module only reads the records; ``superproj.checkers`` recomputes each
claim with the engine.
"""

from __future__ import annotations

import json
from importlib import resources

from .records import FrozenRecord, set_field


class GoldenRecord(FrozenRecord):
    __slots__ = ("id", "anchor", "inputs", "expected", "provenance")

    def __init__(self, id: str, anchor: str, inputs: dict, expected: dict,
                 provenance: str):
        set_field(self, "id", id)
        set_field(self, "anchor", anchor)  # plain-language statement of the claim
        set_field(self, "inputs", inputs)
        set_field(self, "expected", expected)
        set_field(self, "provenance", provenance)  # "reference" | "derived" | "trivial"


def _fixture_dir():
    return resources.files("superproj") / "fixtures"


def load_records() -> list:
    records = []
    for entry in sorted(_fixture_dir().iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        data = json.loads(entry.read_text())
        records.append(GoldenRecord(**data))
    return records
