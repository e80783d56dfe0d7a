"""The ``key=value`` mini-language behind ``--faults``, ``--net`` and
``--serve-faults``.

Grammar (shared by all three flags; each flag only supplies its keys)::

    spec   := entry ("," entry)*
    entry  := key "=" value            # blanks around either side ignored
    value  := part (":" part)*         # as many parts as the key declares

* Empty entries (``a=1,,b=2`` or a trailing comma) are skipped.
* Every key appears at most once, except keys declared repeatable
  (``straggler``, ``rankloss``, ``burst``), whose values accumulate in
  input order.
* A shorthand key that sets what other keys set (``jitter`` for
  ``alpha_jitter``/``beta_jitter``, ``intra`` for
  ``intra_alpha``/``intra_beta``) collides with each of them; the keys it
  stands for may still appear together.

Malformed input never passes silently.  Each of these raises
:class:`ValueError` naming the flag and the offending key or entry: a
missing ``=``, an unknown key, a duplicate or colliding key, a value with
the wrong number of ``:`` parts, and a part its converter rejects.

The keys themselves are documented where they are declared:
:meth:`repro.comm.faults.FaultPlan.parse` (``--faults``),
:meth:`repro.comm.network.NetworkModel.parse` (``--net``) and
:meth:`repro.serve.resilience.ServeFaultPlan.parse` (``--serve-faults``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence


@dataclass(frozen=True)
class Key:
    """How one key's value is read.

    ``convert`` receives the value's ``:``-separated parts as positional
    strings (one string when ``form`` is empty) and raises
    :class:`ValueError` on a bad one.  ``form`` names the parts of a
    multi-part value (``"rank:factor"``); it fixes their count and is
    quoted in the wrong-count error.
    """

    convert: Callable[..., Any]
    form: str = ""
    repeat: bool = False


def each(*converters: Callable[[str], Any]) -> Callable[..., tuple]:
    """A :attr:`Key.convert` applying one converter per part."""
    def convert(*parts: str) -> tuple:
        return tuple(c(p) for c, p in zip(converters, parts))
    return convert


def parse_spec(flag: str, spec: str, keys: Mapping[str, Key],
               aliases: Mapping[str, Sequence[str]] | None = None,
               duplicate_hint: str = "") -> dict[str, Any]:
    """Parse ``spec`` against ``keys``; see the module docstring.

    ``aliases`` maps each shorthand key to the keys it stands for.
    ``duplicate_hint`` finishes the duplicate-key message with what *may*
    repeat or collide under this flag.  Returns ``{key: converted value}``
    for the keys present, with a list of values for repeatable keys.
    """
    clashes: dict[str, set[str]] = {}
    for shorthand, members in (aliases or {}).items():
        for member in members:
            clashes.setdefault(shorthand, set()).add(member)
            clashes.setdefault(member, set()).add(shorthand)
    entries: dict[str, Any] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad {flag} entry {item!r}; expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise ValueError(
                f"unknown {flag} key {key!r}; valid keys are "
                f"{', '.join(keys)}")
        rule = keys[key]
        if not rule.repeat and (
                key in entries or clashes.get(key, set()) & entries.keys()):
            raise ValueError(
                f"duplicate {flag} key {key!r} (each key may appear once; "
                f"{duplicate_hint})")
        parts = value.split(":") if rule.form else [value]
        if len(parts) != rule.form.count(":") + 1:
            raise ValueError(
                f"bad {flag} {key} spec {value!r}; expected "
                f"{rule.form}")
        try:
            parsed = rule.convert(*parts)
        except ValueError as exc:
            raise ValueError(
                f"bad {flag} value in {item!r}: {exc}") from exc
        if rule.repeat:
            entries.setdefault(key, []).append(parsed)
        else:
            entries[key] = parsed
    return entries


def build(flag: str, spec: str, make: Callable[..., Any], **kwargs) -> Any:
    """``make(**kwargs)`` for a parsed ``spec``; a :class:`ValueError` the
    constructor raises (a value out of range, say) is re-raised naming the
    flag."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ValueError(f"bad {flag} spec {spec!r}: {exc}") from None
