"""Prometheus text-format exposition (version 0.0.4), stdlib only.

:func:`render_prometheus` turns snapshot sample rows (the flat dicts
:meth:`~repro.metrics.registry.MetricsRegistry.snapshot` and the store's
``metrics`` table both speak) into the text format every Prometheus-
compatible scraper ingests; :func:`parse_exposition` /
:func:`validate_exposition` close the loop so CI can assert the output
is well-formed, finite and carries HELP/TYPE comments for every family.

Rendering is deterministic: families sort by name, children by label
values, and numbers format through one canonical formatter — identical
snapshots expose byte-identically.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

from repro.metrics.registry import MetricsRegistry

def _fmt(value: float) -> str:
    """Canonical number formatting: integers bare, floats via ``repr``."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite sample value {value!r}")
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labelstr(labels: dict, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = [(k, str(v)) for k, v in labels.items()] + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def render_prometheus(
    source: Union[MetricsRegistry, Iterable[dict]],
    *,
    include_volatile: bool = False,
) -> str:
    """The exposition document for a registry or snapshot sample rows.

    Histogram rows expand into cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``; scalar rows emit one line.  Ends with a trailing
    newline per the format spec.
    """
    if isinstance(source, MetricsRegistry):
        rows = source.snapshot(include_volatile=include_volatile)
    else:
        rows = list(source)
    by_name: dict[str, list[dict]] = {}
    for row in rows:
        by_name.setdefault(row["name"], []).append(row)

    lines: list[str] = []
    for name in sorted(by_name):
        group = by_name[name]
        kind = group[0]["kind"]
        help_text = group[0].get("help") or name
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for row in group:
            labels = row.get("labels") or {}
            if kind == "histogram":
                doc = row["doc"]
                cum = 0
                for le, count in doc["buckets"]:
                    cum += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_labelstr(labels, (('le', _fmt(le)),))} {cum}"
                    )
                cum += doc["inf"]
                lines.append(
                    f"{name}_bucket{_labelstr(labels, (('le', '+Inf'),))} {cum}"
                )
                lines.append(f"{name}_sum{_labelstr(labels)} {_fmt(doc['sum'])}")
                lines.append(f"{name}_count{_labelstr(labels)} {doc['count']}")
            else:
                lines.append(f"{name}{_labelstr(labels)} {_fmt(row['value'])}")
    return "\n".join(lines) + "\n"


# ======================================================================
# parsing / validation (the CI gate)
# ======================================================================
def _parse_labels(text: str) -> dict:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {text!r}")
        j = eq + 2
        out: list[str] = []
        while text[j] != '"':
            if text[j] == "\\":
                esc = text[j + 1]
                out.append({"\\": "\\", '"': '"', "n": "\n"}[esc])
                j += 2
            else:
                out.append(text[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
    return labels


def parse_exposition(text: str) -> dict:
    """Parse an exposition document into ``name -> family`` dicts.

    Every family dict has ``type``, ``help`` and ``samples`` — a list of
    ``(sample_name, labels, value)`` tuples.  Raises :class:`ValueError`
    on any malformed line (that is the point: CI feeds the rendered
    document back through this).
    """
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        return families.setdefault(
            name, {"type": None, "help": None, "samples": []}
        )

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            family(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"line {lineno}: unknown TYPE {kind!r}")
            family(name)["type"] = kind
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        # sample line: name[{labels}] value
        brace = line.find("{")
        if brace >= 0:
            close = line.rindex("}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        if not sample_name or not value_text:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        value = float(value_text)  # raises on garbage
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
                base = sample_name[: -len(suffix)]
                break
        family(base)["samples"].append((sample_name, labels, value))
    return families


def validate_exposition(text: str) -> dict:
    """Strict validation: parse + finiteness + HELP/TYPE completeness.

    Returns the parsed families.  ``+Inf`` is legal only as a histogram
    ``le`` label, never as a sample value.
    """
    families = parse_exposition(text)
    if not families:
        raise ValueError("empty exposition")
    for name, fam in families.items():
        if fam["type"] is None:
            raise ValueError(f"family {name}: missing # TYPE comment")
        if fam["help"] is None:
            raise ValueError(f"family {name}: missing # HELP comment")
        if not fam["samples"]:
            raise ValueError(f"family {name}: no samples")
        for sample_name, labels, value in fam["samples"]:
            if math.isnan(value) or math.isinf(value):
                raise ValueError(
                    f"family {name}: non-finite value {value} in "
                    f"{sample_name}{labels}"
                )
    return families
