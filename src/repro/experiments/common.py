"""Shared infrastructure for the per-figure experiment drivers.

Every experiment driver consumes a :class:`ExperimentContext` (the
workload plus sizing knobs) and produces an :class:`ExperimentResult`
holding the rows/series the corresponding paper figure or table reports.
The benchmarks and the CLI print those rows; EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.simulation.engine import RunnerOptions
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.schema import Workload

MINUTES_PER_DAY = 1440.0


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing of the synthetic workload used to drive the experiments.

    The paper simulates the full production trace over one week; the
    defaults here are sized so that the complete experiment suite runs on a
    laptop in minutes while preserving every distributional property the
    policies are sensitive to.  Scale up ``num_apps``/``duration_days`` for
    higher-fidelity runs.
    """

    num_apps: int = 300
    duration_days: float = 7.0
    seed: int = 2020
    max_daily_rate: float = 4000.0

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(
            num_apps=self.num_apps,
            duration_minutes=self.duration_days * MINUTES_PER_DAY,
            seed=self.seed,
            max_daily_rate=self.max_daily_rate,
        )


@dataclass
class ExperimentContext:
    """A workload shared by experiment drivers, built lazily and cached.

    Attributes:
        scale: Sizing of the synthetic workload.
        runner_options: Simulation-engine options forwarded to every sweep
            a driver runs (``execution=auto|serial`` plus the worker
            count); ``None`` uses the engine defaults (``auto``: each
            policy family's fast pass, closed form for the fixed family
            and one recording pass for the hybrid policy, in process).
    """

    scale: ExperimentScale = field(default_factory=ExperimentScale)
    runner_options: RunnerOptions | None = None
    _workload: Workload | None = None

    @property
    def workload(self) -> Workload:
        if self._workload is None:
            self._workload = WorkloadGenerator(self.scale.generator_config()).generate()
        return self._workload

    @classmethod
    def small(cls, seed: int = 2020) -> "ExperimentContext":
        """A deliberately small context for tests and CI-style runs."""
        return cls(
            scale=ExperimentScale(
                num_apps=80, duration_days=2.0, seed=seed, max_daily_rate=1500.0
            )
        )


@dataclass
class ExperimentResult:
    """Output of one experiment driver.

    Attributes:
        experiment_id: Paper artifact id, e.g. ``"fig14"``.
        title: Human-readable title.
        rows: Tabular result (list of flat dictionaries).
        series: Optional named series (e.g. CDF arrays) for plotting.
        notes: Free-form observations (e.g. the headline comparison).
    """

    experiment_id: str
    title: str
    rows: list[dict[str, Any]]
    series: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def as_text(self) -> str:
        """Plain-text rendering of the rows (benchmarks print this)."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        if self.rows:
            columns = list(self.rows[0].keys())
            header = " | ".join(f"{column:>24}" for column in columns)
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append(
                    " | ".join(f"{_format_cell(row.get(column)):>24}" for column in columns)
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


ExperimentFn = Callable[[ExperimentContext], ExperimentResult]

_REGISTRY: dict[str, ExperimentFn] = {}


def register_experiment(experiment_id: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator registering an experiment driver under its figure id."""

    def decorator(fn: ExperimentFn) -> ExperimentFn:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id: {experiment_id}")
        _REGISTRY[experiment_id] = fn
        return fn

    return decorator


def experiment_ids() -> list[str]:
    """All registered experiment ids, in registration order."""
    return list(_REGISTRY)


def get_experiment(experiment_id: str) -> ExperimentFn:
    if experiment_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[experiment_id]


def run_experiment(experiment_id: str, context: ExperimentContext | None = None) -> ExperimentResult:
    """Run one registered experiment."""
    fn = get_experiment(experiment_id)
    return fn(context or ExperimentContext())


def run_all_experiments(
    context: ExperimentContext | None = None,
    *,
    ids: Sequence[str] | None = None,
) -> dict[str, ExperimentResult]:
    """Run every (or a subset of) registered experiment over one context."""
    context = context or ExperimentContext()
    selected = list(ids) if ids is not None else experiment_ids()
    return {experiment_id: run_experiment(experiment_id, context) for experiment_id in selected}
