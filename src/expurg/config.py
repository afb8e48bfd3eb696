"""Flat sectioned config format for instances, and the run configuration.

A config file is a sequence of ``[section]`` headers followed by data lines;
``#`` starts a comment.  Matrix sections hold one row of whitespace-separated
reals per line; ``[metric]`` may instead hold the single word ``ml`` to alias
the metric to the channel.  Example::

    [channel]
    0.9 0.1
    0.1 0.9

    [metric]
    ml

    [q]
    uniform

Optional sections: ``[cost]`` (one row) with ``[budget]`` (one value),
``[ensemble]`` (iid | cc | cost), ``[aux_costs]`` (one row per auxiliary
cost) with ``[shell_width]`` (one value).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import EnsembleSpec
from .errors import UsageError
from .model import AuxiliaryCostSet, ChannelModel, DecodingMetric, InputDistribution
from .presets import load_preset

LN2 = math.log(2.0)


@dataclass
class InstanceConfig:
    channel: ChannelModel
    metric: DecodingMetric
    q_in: InputDistribution
    ensemble: EnsembleSpec
    digest: str

    def triple(self):
        return self.channel, self.metric, self.q_in


def _sections(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in out:
                raise UsageError(f"duplicate section [{current}]")
            out[current] = []
        elif current is None:
            raise UsageError(f"data line before any section: {raw!r}")
        else:
            out[current].append(line)
    return out


def _matrix(lines: list[str], section: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in line.split()] for line in lines]
    except ValueError as exc:
        raise UsageError(f"non-numeric entry in [{section}]: {exc}") from None
    widths = {len(r) for r in rows}
    if not rows or len(widths) != 1:
        raise UsageError(f"[{section}] must hold equal-length rows")
    return np.array(rows)


def _scalar(lines: list[str], section: str) -> float:
    if len(lines) != 1 or len(lines[0].split()) != 1:
        raise UsageError(f"[{section}] must hold a single value")
    return float(lines[0])


def parse_instance(text: str) -> InstanceConfig:
    sec = _sections(text)
    if "channel" not in sec:
        raise UsageError("missing [channel] section")
    w = _matrix(sec["channel"], "channel")

    cost = budget = None
    if "cost" in sec:
        if "budget" not in sec:
            raise UsageError("[cost] requires [budget]")
        cost = _matrix(sec["cost"], "cost").ravel()
        budget = _scalar(sec["budget"], "budget")
    elif "budget" in sec:
        raise UsageError("[budget] requires [cost]")
    channel = ChannelModel(w, cost=cost, budget=budget)

    mlines = sec.get("metric", ["ml"])
    if len(mlines) == 1 and mlines[0].strip().lower() == "ml":
        metric = DecodingMetric.ml(channel)
    else:
        metric = DecodingMetric(_matrix(mlines, "metric"))

    qlines = sec.get("q", ["uniform"])
    if len(qlines) == 1 and qlines[0].strip().lower() == "uniform":
        q_in = InputDistribution.uniform(channel.input_size)
    else:
        q_in = InputDistribution(_matrix(qlines, "q").ravel())

    aux = None
    if "aux_costs" in sec:
        shell = _scalar(sec["shell_width"], "shell_width") if "shell_width" in sec else 1.0
        aux = AuxiliaryCostSet.from_q(_matrix(sec["aux_costs"], "aux_costs"), q_in, shell)

    kind = sec.get("ensemble", ["iid"])[0].strip().lower()
    if kind == "cost" and aux is None:
        raise UsageError("cost ensemble requires an [aux_costs] section")
    ensemble = EnsembleSpec(kind, q_in, aux)

    return InstanceConfig(channel, metric, q_in, ensemble, _digest(channel, metric, q_in))


def _digest(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution) -> str:
    h = hashlib.sha256()
    for arr in (channel.w, metric.q, q_in.q_vec):
        h.update(np.ascontiguousarray(arr).tobytes())
    if channel.cost is not None:
        h.update(np.ascontiguousarray(channel.cost).tobytes())
        h.update(repr(channel.budget).encode())
    return h.hexdigest()[:16]


def load_instance(config_path: str | None, preset: str | None) -> InstanceConfig:
    if (config_path is None) == (preset is None):
        raise UsageError("exactly one of --config and --preset is required")
    if preset is not None:
        channel, metric, q_in = load_preset(preset)
        return InstanceConfig(channel, metric, q_in,
                              EnsembleSpec("iid", q_in), _digest(channel, metric, q_in))
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None


@dataclass
class RateGrid:
    start: float          # nats
    stop: float           # nats
    step: float           # nats

    def values(self) -> np.ndarray:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        if count < 1:
            raise UsageError("empty rate grid")
        return self.start + self.step * np.arange(count)


def parse_grid(spec: str, unit: str) -> RateGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError("grid must be START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError("grid entries must be numbers") from None
    if step <= 0 or stop < start or start < 0:
        raise UsageError("grid requires 0 <= start <= stop and step > 0")
    scale = LN2 if unit == "bits" else 1.0
    return RateGrid(start * scale, stop * scale, step * scale)


@dataclass
class RunConfig:
    """Everything one CLI invocation needs: instance plus run options."""

    instance: InstanceConfig
    grid: RateGrid | None = None
    unit: str = "nats"
    seed: int = 0
    out: str | None = None
    n_list: list[int] = field(default_factory=list)
    M: float | None = None
    rate: float | None = None          # nats
    rho: float | None = None
    s: float | None = None
    samples: int = 0


def to_unit(value_nats: float, unit: str) -> float:
    return value_nats / LN2 if unit == "bits" else value_nats
