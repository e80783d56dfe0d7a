"""The decision log: one record shape for every adaptive choice.

Each adaptive mechanism — DRS resolve and probe, elastic recovery, the
serve ladder, its breaker, hot reload — appends one :class:`Decision` per
choice to one list: ``TrainResult.decisions`` (checkpointed) or
``ServeStats.decisions``.  ``docs/architecture.md`` (§ Decision log)
tables what each records.  No record holds a wall-clock value: a log is a
pure function of (seed, plan), and the determinism tests byte-compare it.
"""

from __future__ import annotations

from dataclasses import dataclass

MECHANISMS = ("drs.resolve", "drs.probe", "elastic", "ladder", "breaker",
              "reload")


@dataclass(frozen=True)
class Decision:
    """One adaptive choice: which mechanism, when, what it took over what,
    and on what evidence."""

    mechanism: str
    at: int
    choice: str
    alternative: str
    inputs: dict

    def __post_init__(self) -> None:
        # A record read back as ``Decision(**saved)`` raises TypeError on a
        # missing or extra field, ValueError on a mistyped one.
        if (self.mechanism not in MECHANISMS or type(self.at) is not int
                or not isinstance(self.choice, str)
                or not isinstance(self.alternative, str)
                or not isinstance(self.inputs, dict)):
            raise ValueError(f"malformed decision record {self!r}")

    def as_dict(self) -> dict:
        """The JSON object a log holds: ``inputs`` in canonical form (JSON
        types, sorted keys), so a record read back from a checkpoint equals
        the one written, byte for byte."""
        return {"mechanism": self.mechanism, "at": self.at,
                "choice": self.choice, "alternative": self.alternative,
                "inputs": _json(self.inputs)}


def _json(value):
    """``value`` as JSON reads it back: lists for tuples, keys sorted."""
    if isinstance(value, dict):
        return {key: _json(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value
