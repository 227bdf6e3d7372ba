"""Prometheus text-format (0.0.4) exposition: encoder and parser.

The encoder turns a :class:`~repro.obs.metrics.MetricsRegistry` and the
live windows of :mod:`repro.obs.live.telemetry` into the plain-text
format every metrics scraper understands::

    # HELP repro_io_blocks_read_total Counter repro_io_blocks_read_total.
    # TYPE repro_io_blocks_read_total counter
    repro_io_blocks_read_total 8

Determinism is a contract here, not a nicety: families are emitted in
sorted name order, labels in construction order, and values through one
canonical formatter, so the same service state renders to the same
bytes — the golden tests pin the output and the live-vs-offline
agreement check diffs two independently produced expositions.

The parser is deliberately small but honest: it validates ``# TYPE``
placement, parses every sample line (quoted label values with escapes),
and **round-trips** each one — re-rendering the parsed sample must
reproduce the input line byte-for-byte, else the exposition (or the
parser) is lying and :class:`~repro.common.errors.ExecutionError` says
which line.  CI scrapes the live service and feeds the body through
this parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ...common.errors import ExecutionError
from ..metrics import Counter, Gauge, Histogram, MetricsRegistry
from .telemetry import ServiceTelemetry
from .window import RollingCounter, SlidingQuantiles, WindowStats

#: Default prefix for every exported metric family.
DEFAULT_PREFIX = "repro_"

#: Valid exposition metric names (label names drop the colon).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram", "summary", "untyped")

Labels = tuple[tuple[str, str], ...]


def sanitize_metric_name(name: str) -> str:
    """Map an internal dotted metric name onto the exposition charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def format_value(value: float) -> str:
    """Canonical sample-value rendering (stable under parse→render)."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: Labels
    value: float

    def render(self) -> str:
        if not _NAME_RE.match(self.name):
            raise ExecutionError(f"invalid sample name {self.name!r}")
        for key, _ in self.labels:
            if not _LABEL_RE.match(key):
                raise ExecutionError(f"invalid label name {key!r}")
        body = ",".join(f'{key}="{_escape_label(val)}"'
                        for key, val in self.labels)
        labels = "{" + body + "}" if body else ""
        return f"{self.name}{labels} {format_value(self.value)}"


@dataclass(frozen=True)
class MetricFamily:
    """A ``# HELP``/``# TYPE`` header plus its sample lines."""

    name: str
    kind: str
    help: str
    samples: tuple[Sample, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExecutionError(
                f"family {self.name!r} kind must be one of {_KINDS}, "
                f"got {self.kind!r}")
        if not _NAME_RE.match(self.name):
            raise ExecutionError(f"invalid family name {self.name!r}")

    def render(self) -> str:
        lines = [f"# HELP {self.name} {_escape_help(self.help)}",
                 f"# TYPE {self.name} {self.kind}"]
        lines.extend(sample.render() for sample in self.samples)
        return "\n".join(lines)


def render_families(families: Iterable[MetricFamily]) -> str:
    """Full exposition body: families sorted by name, trailing newline."""
    ordered = sorted(families, key=lambda f: f.name)
    names = [family.name for family in ordered]
    for first, second in zip(names, names[1:]):
        if first == second:
            raise ExecutionError(f"duplicate metric family {first!r}")
    return "\n".join(family.render() for family in ordered) + "\n"


# --------------------------------------------------------------- encoders

def _counter_family(name: str, value: float, *, help_text: str | None = None,
                    labels: Labels = ()) -> MetricFamily:
    family = name if name.endswith("_total") else name + "_total"
    return MetricFamily(
        name=family, kind="counter",
        help=help_text or f"Counter {family}.",
        samples=(Sample(family, labels, value),))


def _histogram_family(name: str, histogram: Histogram,
                      help_text: str | None = None) -> MetricFamily:
    samples = []
    cumulative = 0
    for bound, count in zip(histogram.buckets, histogram.counts):
        cumulative += count
        samples.append(Sample(name + "_bucket",
                              (("le", format_value(bound)),), cumulative))
    cumulative += histogram.counts[-1]
    samples.append(Sample(name + "_bucket", (("le", "+Inf"),), cumulative))
    samples.append(Sample(name + "_sum", (), histogram.total))
    samples.append(Sample(name + "_count", (), histogram.count))
    return MetricFamily(name=name, kind="histogram",
                        help=help_text or f"Histogram {name}.",
                        samples=tuple(samples))


def registry_families(registry: MetricsRegistry, *,
                      prefix: str = DEFAULT_PREFIX) -> list[MetricFamily]:
    """One family per registry instrument, kinds preserved."""
    families: list[MetricFamily] = []
    for name, instrument in registry.instruments().items():
        exposed = sanitize_metric_name(prefix + name)
        if isinstance(instrument, Counter):
            families.append(_counter_family(exposed, instrument.value))
        elif isinstance(instrument, Gauge):
            families.append(MetricFamily(
                name=exposed, kind="gauge", help=f"Gauge {exposed}.",
                samples=(Sample(exposed, (), instrument.value),)))
        else:
            families.append(_histogram_family(exposed, instrument))
    return families


def _summary_samples(name: str, labels: Labels,
                     stats: WindowStats) -> list[Sample]:
    samples = [Sample(name, labels + (("quantile", format_value(q / 100.0)),),
                      value)
               for q, value in stats.quantiles]
    samples.append(Sample(name + "_sum", labels, stats.total))
    samples.append(Sample(name + "_count", labels, stats.count))
    return samples


def _window_summary(name: str,
                    scoped: Mapping[str, SlidingQuantiles],
                    help_text: str) -> MetricFamily:
    samples: list[Sample] = []
    for tenant, window in scoped.items():
        labels: Labels = (("tenant", tenant),) if tenant else ()
        samples.extend(_summary_samples(name, labels, window.snapshot()))
    return MetricFamily(name=name, kind="summary", help=help_text,
                        samples=tuple(samples))


def telemetry_families(telemetry: ServiceTelemetry, *,
                       prefix: str = DEFAULT_PREFIX) -> list[MetricFamily]:
    """Families for the live windows: edge rates, latency summaries, SLO.

    Global series carry no ``tenant`` label; per-tenant series carry
    ``tenant="..."``.  Edge totals are all-time counters; ``window_``
    series are gauges over the telemetry horizon.
    """
    tenants = telemetry.tenants()

    def scoped(pick: Any) -> dict[str, Any]:
        out = {"": pick(telemetry)}
        for tenant, record in tenants.items():
            out[tenant] = pick(record)
        return out

    families: list[MetricFamily] = []
    for edge, _ in sorted(telemetry.edges.items()):
        counters: dict[str, RollingCounter] = scoped(
            lambda rec, edge=edge: rec.edges[edge])
        total = prefix + f"service_{edge}_total"
        families.append(MetricFamily(
            name=total, kind="counter",
            help=f"All-time {edge} jobs.",
            samples=tuple(
                Sample(total, (("tenant", t),) if t else (), c.total())
                for t, c in counters.items())))
        window = prefix + f"service_window_{edge}"
        families.append(MetricFamily(
            name=window, kind="gauge",
            help=f"Jobs {edge} inside the telemetry horizon.",
            samples=tuple(
                Sample(window, (("tenant", t),) if t else (), c.count())
                for t, c in counters.items())))
    families.append(_window_summary(
        prefix + "service_wait_seconds",
        scoped(lambda rec: rec.wait_s),
        "Windowed submit-to-admit wait (exact quantiles)."))
    families.append(_window_summary(
        prefix + "service_response_seconds",
        scoped(lambda rec: rec.response_s),
        "Windowed submit-to-finish response (exact quantiles)."))

    slo_series = (
        ("slo_compliance", "All-time fraction of jobs within the objective.",
         lambda s: s.compliance),
        ("slo_budget_burn", "All-time error-budget burn (1.0 = spent).",
         lambda s: s.budget_burn),
        ("slo_window_burn", "Error-budget burn over the telemetry horizon.",
         lambda s: s.window_burn),
    )
    statuses = telemetry.slo_statuses()
    for suffix, help_text, pick in slo_series:
        name = prefix + suffix
        families.append(MetricFamily(
            name=name, kind="gauge", help=help_text,
            samples=tuple(Sample(name, (("tenant", s.tenant),), pick(s))
                          for s in statuses)))
    return families


# ----------------------------------------------------------------- parser

@dataclass(frozen=True)
class ParsedFamily:
    """Parser-side family: declared type plus parsed samples."""

    name: str
    kind: str
    help: str
    samples: tuple[Sample, ...]


def _parse_labels(text: str, line: str) -> Labels:
    labels: list[tuple[str, str]] = []
    index = 0
    while index < len(text):
        match = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", text[index:])
        if not match:
            raise ExecutionError(f"bad label name in line {line!r}")
        key = match.group(0)
        index += len(key)
        if text[index:index + 2] != '="':
            raise ExecutionError(f"expected '=\"' after label in {line!r}")
        index += 2
        value = []
        while index < len(text):
            char = text[index]
            if char == "\\":
                escape = text[index + 1:index + 2]
                if escape == "n":
                    value.append("\n")
                elif escape in ("\\", '"'):
                    value.append(escape)
                else:
                    raise ExecutionError(
                        f"bad escape \\{escape} in line {line!r}")
                index += 2
                continue
            if char == '"':
                index += 1
                break
            value.append(char)
            index += 1
        else:
            raise ExecutionError(f"unterminated label value in {line!r}")
        labels.append((key, "".join(value)))
        if index < len(text) and text[index] == ",":
            index += 1
    return tuple(labels)


def _parse_value(text: str, line: str) -> float:
    if text == "NaN":
        return math.nan
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise ExecutionError(f"bad sample value in line {line!r}") from exc


def _parse_sample(line: str) -> Sample:
    match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
    if not match:
        raise ExecutionError(f"bad sample line {line!r}")
    name = match.group(1)
    rest = line[len(name):]
    labels: Labels = ()
    if rest.startswith("{"):
        closing = rest.rfind("} ")
        if closing < 0:
            raise ExecutionError(f"unterminated label set in {line!r}")
        labels = _parse_labels(rest[1:closing], line)
        rest = rest[closing + 1:]
    if not rest.startswith(" "):
        raise ExecutionError(f"missing value separator in {line!r}")
    return Sample(name, labels, _parse_value(rest[1:], line))


def _base_name(sample_name: str, kind: str) -> str:
    suffixes = {"histogram": ("_bucket", "_sum", "_count"),
                "summary": ("_sum", "_count")}.get(kind, ())
    for suffix in suffixes:
        if sample_name.endswith(suffix):
            return sample_name[:-len(suffix)]
    return sample_name


def parse_exposition(text: str) -> list[ParsedFamily]:
    """Parse an exposition body, round-tripping every sample line.

    Each parsed sample is re-rendered through :meth:`Sample.render` and
    compared byte-for-byte against the input line — the strongest cheap
    check that both the encoder and this parser agree on the format.
    Samples must follow their family's ``# TYPE`` line; values of
    ``NaN``/``+Inf``/``-Inf`` are tolerated (NaN round-trips by name).
    """
    families: dict[str, dict[str, Any]] = {}
    current: str | None = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            families.setdefault(
                name, {"help": "", "kind": "untyped", "samples": []})
            families[name]["help"] = parts[1] if len(parts) > 1 else ""
            current = name
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2 or parts[1] not in _KINDS:
                raise ExecutionError(f"bad TYPE line {line!r}")
            name, kind = parts
            families.setdefault(
                name, {"help": "", "kind": "untyped", "samples": []})
            families[name]["kind"] = kind
            current = name
            continue
        if line.startswith("#"):
            continue  # comment
        sample = _parse_sample(line)
        rendered = sample.render()
        if rendered != line:
            raise ExecutionError(
                f"sample line does not round-trip:\n"
                f"  input:      {line!r}\n  re-render: {rendered!r}")
        if current is None:
            raise ExecutionError(
                f"sample before any # TYPE header: {line!r}")
        owner = _base_name(sample.name, families[current]["kind"])
        if owner != current:
            raise ExecutionError(
                f"sample {sample.name!r} under family {current!r}")
        families[current]["samples"].append(sample)
    return [ParsedFamily(name=name, kind=info["kind"], help=info["help"],
                         samples=tuple(info["samples"]))
            for name, info in families.items()]


def samples_by_name(families: Iterable[ParsedFamily]) -> dict[str, list[Sample]]:
    """Flatten parsed families into ``sample name -> samples`` (dashboard)."""
    out: dict[str, list[Sample]] = {}
    for family in families:
        for sample in family.samples:
            out.setdefault(sample.name, []).append(sample)
    return out
