"""Synthetic Azure-Functions-like workload generator.

The production trace used in the paper cannot be redistributed here, so
this generator synthesizes a workload whose *marginal distributions* match
every published characteristic of Section 3:

* the number of functions per application (Figure 1);
* the trigger mix by functions, invocations and applications (Figures 2, 3);
* the daily invocation rates, spanning many orders of magnitude with the
  published quantile anchors (Figure 5);
* the IAT variability mix — periodic timers, Poisson-like HTTP traffic,
  bursty queue/event consumers and sparse heavy-tailed applications
  (Figure 6);
* log-normal execution times (Figure 7) and Burr-distributed allocated
  memory (Figure 8);
* diurnal and weekly load modulation (Figure 4).

The generator is deterministic for a given seed.  Its draws are
counter-keyed: the population arrays come from one dedicated stream and
every application's draws from its own, so any application range is a
pure function of ``(seed, range)``
(:meth:`WorkloadGenerator.generate_app_range`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.trace.arrival import (
    ArrivalProcess,
    BurstArrival,
    CompositeArrival,
    DiurnalPoissonArrival,
    OnOffArrival,
    PoissonArrival,
    SparseArrival,
    TimerArrival,
)
from repro.trace.distributions import (
    EXECUTION_MODEL,
    MEMORY_MODEL,
    TRIGGER_FUNCTION_SHARES,
    normalized_trigger_weights,
    sample_daily_rates,
    sample_functions_per_app,
    sample_trigger_combinations,
)
from repro.trace.schema import (
    AppSpec,
    ExecutionProfile,
    FunctionSpec,
    MemoryProfile,
    TriggerType,
    Workload,
)
from repro.trace.store import InvocationStore

MINUTES_PER_DAY = 1440.0

#: Timer periods (minutes) commonly seen in practice; 95% of timer-triggered
#: functions fire at most once per minute on average.
STANDARD_TIMER_PERIODS: tuple[float, ...] = (1, 5, 10, 15, 30, 60, 120, 360, 720, 1440)
#: Their natural logs, the scale on which a target period is snapped.
_LOG_TIMER_PERIODS: tuple[float, ...] = tuple(
    np.log(np.asarray(STANDARD_TIMER_PERIODS, dtype=float)).tolist()
)

#: Sub-stream tags of the counter-keyed RNG scheme (the same
#: ``default_rng([seed, tag, ...])`` derivation the fault layer uses per
#: invoker): one stream for the vectorized population sampling, and one
#: per-application stream keyed by application index for everything
#: dynamic.  Chosen outside any plausible user seed range.
_V2_POPULATION_STREAM = 0x7FFF_AB01
_V2_APP_STREAM = 0x7FFF_AB02


def _weighted_choice(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(p.size, size, p=p)`` without checking ``p`` again.

    The same uniforms and the same indices: ``Generator.choice`` checks
    that ``p`` is a distribution, which costs several times the draw
    itself, then searches its normalized cumulative sum exactly so.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic workload generator.

    Attributes:
        num_apps: Number of applications to synthesize.
        duration_minutes: Trace horizon (the paper's simulations use the
            first week of the two-week trace: 10 080 minutes).
        seed: Seed of the ``numpy.random.Generator`` driving all sampling.
        max_daily_rate: Cap on the per-application average invocations per
            day.  The real trace has applications invoked millions of times
            a day; capping keeps synthetic traces tractable while
            preserving the skew that matters for keep-alive policies
            (rare-vs-frequent applications).
        max_invocations_per_app: Hard cap on generated timestamps per app.
        max_functions_per_app: Cap on functions per application.
        start_weekday: Weekday index (0=Monday) of the first trace day; the
            paper's trace starts on Monday, July 15th 2019.
        timer_only_single_fraction: Among timer-only applications, the
            fraction driven by a single timer (CV ≈ 0); the paper observes
            that only ~50% of timer-only applications have CV 0.
        bursty_fraction: Fraction of queue/event-driven applications that
            use a bursty ON/OFF arrival process (CV > 1).
        diurnal_fraction: Fraction of HTTP-driven applications whose load
            follows the diurnal/weekly pattern.
        target_rps: Rescale the sampled per-app daily rates so the
            workload's *aggregate* average arrival rate is this many
            invocations per second (the Helix-style arrival-rate
            resampling knob: load scales independently of app count while
            the relative rate skew across applications is preserved).
            ``None`` keeps the sampled rates.  The per-app
            ``max_invocations_per_app`` cap still applies after
            rescaling, so extreme targets on tiny populations saturate.
        rng_scheme: Name of the random-number derivation scheme; its
            only legal value is ``"v2"``.  The population arrays come
            from a dedicated ``default_rng([seed, tag])`` stream and
            every application's dynamic draws from its own
            ``default_rng([seed, tag, app_index])`` stream, so any app
            range is a **pure function of (seed, range)**: byte-identical
            output for any chunk size and any worker count
            (:func:`repro.trace.stream.stream_workload_to_store`).  The
            field stays so that configs spelling ``rng_scheme="v2"``
            keep working; the sequential ``v1`` scheme was removed.
    """

    num_apps: int = 500
    duration_minutes: float = 7 * MINUTES_PER_DAY
    seed: int = 2020
    max_daily_rate: float = 8000.0
    max_invocations_per_app: int = 60_000
    max_functions_per_app: int = 60
    start_weekday: int = 0
    timer_only_single_fraction: float = 0.5
    bursty_fraction: float = 0.55
    diurnal_fraction: float = 0.6
    target_rps: float | None = None
    rng_scheme: str = "v2"

    def __post_init__(self) -> None:
        if self.rng_scheme != "v2":
            raise ValueError(
                f"unsupported rng_scheme {self.rng_scheme!r}: the sequential 'v1' "
                "scheme was removed and 'v2' is the only scheme"
            )
        if self.num_apps < 1:
            raise ValueError("num_apps must be at least 1")
        if self.duration_minutes <= 0:
            raise ValueError("duration must be positive")
        if self.max_daily_rate <= 0:
            raise ValueError("max_daily_rate must be positive")
        if self.max_invocations_per_app < 1:
            raise ValueError("max_invocations_per_app must be at least 1")
        if self.max_functions_per_app < 1:
            raise ValueError("max_functions_per_app must be at least 1")
        if not 0 <= self.start_weekday <= 6:
            raise ValueError("start_weekday must be in [0, 6]")
        for name in ("timer_only_single_fraction", "bursty_fraction", "diurnal_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.target_rps is not None and self.target_rps <= 0:
            raise ValueError("target_rps must be positive")


@dataclass(frozen=True)
class WorkloadChunk:
    """One contiguous run of generated applications (streaming unit).

    Holds the per-app column triples
    :meth:`~repro.trace.store.InvocationStore.from_app_columns` (and the
    incremental :class:`~repro.trace.store_writer.InvocationStoreWriter`)
    consume, plus the full :class:`~repro.trace.schema.AppSpec` records
    for consumers that keep population metadata.
    """

    start_index: int
    apps: tuple[AppSpec, ...]
    app_times: tuple[np.ndarray, ...]
    app_positions: tuple[np.ndarray, ...]

    def app_functions(self) -> list[tuple[str, list[str]]]:
        """The chunk's population layout in the store-builder format."""
        return [(app.app_id, app.function_ids()) for app in self.apps]


@dataclass(frozen=True)
class _Population:
    """The vectorized per-app sampling arrays (``O(num_apps)`` scalars)."""

    combos: Sequence[str]
    function_counts: np.ndarray
    daily_rates: np.ndarray
    memory_mb: np.ndarray


class WorkloadGenerator:
    """Generates a :class:`~repro.trace.schema.Workload` from a config."""

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self.config = config or GeneratorConfig()
        # Population arrays, computed once per generator (a pure function
        # of the seed, so caching never changes output).
        self._population: _Population | None = None

    # ------------------------------------------------------------------ #
    def generate(self) -> Workload:
        """Synthesize the full workload (materialized in memory).

        The whole app range in one :meth:`generate_app_range` call, so the
        in-memory and streaming paths are one code path and bit-identical
        per seed.
        """
        config = self.config
        chunk = self.generate_app_range(0, config.num_apps)
        # Emit columns straight into the CSR store: no per-function dicts,
        # one stable per-app time sort instead of a sort per function.
        store = InvocationStore.from_app_columns(
            chunk.app_functions(),
            chunk.app_times,
            chunk.app_positions,
            config.duration_minutes,
        )
        return Workload.from_store(chunk.apps, store)

    def generate_app_range(self, start_app: int, stop_app: int) -> WorkloadChunk:
        """Synthesize applications ``[start_app, stop_app)``.

        The one generation primitive: :meth:`generate`, the streamed
        store and the fused pipeline are all built from its ranges.  A
        **pure function of ``(seed, start_app, stop_app)``**: every
        application's dynamic draws come from its own counter-keyed
        stream (``default_rng([seed, tag, app_index])``) and the
        population arrays from a dedicated stream, so the result is
        independent of what was generated before, of chunk boundaries,
        and of which process evaluates it — the property the parallel
        generation fan-out and the fused generate→simulate pipeline are
        built on.
        """
        config = self.config
        if not 0 <= start_app <= stop_app <= config.num_apps:
            raise ValueError(
                f"app range [{start_app}, {stop_app}) outside [0, {config.num_apps})"
            )
        population = self.ensure_population()
        apps: list[AppSpec] = []
        app_times: list[np.ndarray] = []
        app_positions: list[np.ndarray] = []
        for index in range(start_app, stop_app):
            rng = self.app_rng(index)
            app, times, positions = self._generate_app(rng, index, population)
            apps.append(app)
            app_times.append(times)
            app_positions.append(positions)
        return WorkloadChunk(
            start_app, tuple(apps), tuple(app_times), tuple(app_positions)
        )

    def app_rng(self, app_index: int) -> np.random.Generator:
        """The per-application random stream (counter-keyed)."""
        return np.random.default_rng(
            [self.config.seed, _V2_APP_STREAM, int(app_index)]
        )

    def ensure_population(self) -> _Population:
        """Sample (and cache) the vectorized population arrays.

        Called eagerly by the chunk stream *before* forking workers so the
        ``O(num_apps)`` arrays are shared copy-on-write instead of
        re-sampled per worker.
        """
        if self._population is None:
            self._population = self._sample_population()
        return self._population

    def _sample_population(self) -> _Population:
        """Vectorized population sampling from its dedicated stream."""
        config = self.config
        rng = np.random.default_rng([config.seed, _V2_POPULATION_STREAM])
        combos = sample_trigger_combinations(rng, config.num_apps)
        function_counts = np.minimum(
            sample_functions_per_app(rng, config.num_apps), config.max_functions_per_app
        )
        daily_rates = np.minimum(sample_daily_rates(rng, config.num_apps), config.max_daily_rate)
        if config.target_rps is not None:
            # Helix-style arrival-rate resampling: rescale the whole rate
            # series so the aggregate average throughput hits the target,
            # preserving the relative skew across applications.
            total_per_day = float(daily_rates.sum())
            if total_per_day > 0:
                daily_rates = daily_rates * (
                    config.target_rps * 86400.0 / total_per_day
                )
        memory_mb = MEMORY_MODEL.sample_mb(rng, config.num_apps)
        return _Population(combos, function_counts, daily_rates, memory_mb)

    def _generate_app(
        self, rng: np.random.Generator, index: int, population: _Population
    ) -> tuple[AppSpec, np.ndarray, np.ndarray]:
        """Synthesize one application from its own stream."""
        config = self.config
        app_id = f"app{index:05d}"
        owner_id = f"owner{index % max(config.num_apps // 3, 1):05d}"
        triggers = self._app_triggers(population.combos[index])
        functions = self._build_functions(
            rng,
            app_id=app_id,
            owner_id=owner_id,
            triggers=triggers,
            num_functions=max(int(population.function_counts[index]), len(triggers)),
        )
        memory = self._memory_profile(rng, float(population.memory_mb[index]))
        app = AppSpec(
            app_id=app_id, owner_id=owner_id, functions=tuple(functions), memory=memory
        )
        times, positions = self._generate_app_invocations(
            rng, app, daily_rate=float(population.daily_rates[index])
        )
        return app, times, positions

    # ------------------------------------------------------------------ #
    # Static population
    # ------------------------------------------------------------------ #
    @staticmethod
    def _app_triggers(combination: str) -> list[TriggerType]:
        return [TriggerType.from_short_code(code) for code in combination]

    def _build_functions(
        self,
        rng: np.random.Generator,
        *,
        app_id: str,
        owner_id: str,
        triggers: Sequence[TriggerType],
        num_functions: int,
    ) -> list[FunctionSpec]:
        """Assign triggers and execution profiles to an app's functions."""
        assigned: list[TriggerType] = list(triggers)
        if num_functions > len(assigned):
            choices, weights = normalized_trigger_weights(
                {t: TRIGGER_FUNCTION_SHARES[t] for t in triggers}
            )
            extra = _weighted_choice(rng, weights, num_functions - len(assigned))
            assigned.extend(choices[i] for i in extra)
        rng.shuffle(assigned)  # type: ignore[arg-type]
        functions = []
        for position, trigger in enumerate(assigned):
            execution = self._execution_profile(rng, trigger)
            functions.append(
                FunctionSpec(
                    function_id=f"{app_id}-fn{position:03d}",
                    app_id=app_id,
                    owner_id=owner_id,
                    trigger=trigger,
                    execution=execution,
                )
            )
        return functions

    @staticmethod
    def _execution_profile(rng: np.random.Generator, trigger: TriggerType) -> ExecutionProfile:
        """Per-function execution-time profile.

        Average times follow the Figure 7 log-normal; orchestration
        functions are an order of magnitude faster (the paper notes a
        ~30 ms median for dispatch/coordination functions) and event/queue
        batch processors skew somewhat slower.
        """
        average = EXECUTION_MODEL.sample_average_seconds(rng, None)
        if trigger is TriggerType.ORCHESTRATION:
            average *= 0.08
        elif trigger in (TriggerType.QUEUE, TriggerType.EVENT):
            average *= 1.5
        average = min(max(average, 1e-3), 3600.0)
        spread = rng.uniform(1.5, 6.0)
        minimum = average / spread
        maximum = average * spread
        sigma = min(0.9, math.log(spread))
        mu = math.log(average) - sigma**2 / 2.0
        return ExecutionProfile(
            average_seconds=average,
            minimum_seconds=minimum,
            maximum_seconds=maximum,
            lognormal_mu=mu,
            lognormal_sigma=max(sigma, 0.05),
        )

    @staticmethod
    def _memory_profile(rng: np.random.Generator, average_mb: float) -> MemoryProfile:
        average_mb = min(max(average_mb, 16.0), 4096.0)
        first_percentile = average_mb * rng.uniform(0.5, 0.9)
        maximum = average_mb * rng.uniform(1.2, 2.5)
        return MemoryProfile(
            average_mb=average_mb,
            first_percentile_mb=first_percentile,
            maximum_mb=maximum,
        )

    # ------------------------------------------------------------------ #
    # Dynamic invocations
    # ------------------------------------------------------------------ #
    def _generate_app_invocations(
        self, rng: np.random.Generator, app: AppSpec, *, daily_rate: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate one app's timestamps and their function assignments.

        Returns the raw timestamp column plus the aligned local function
        position of every invocation — the store's per-app input format.
        """
        config = self.config
        process = self.build_arrival_process(rng, app, daily_rate=daily_rate)
        timestamps = process.generate(rng, config.duration_minutes)
        if timestamps.size > config.max_invocations_per_app:
            keep = np.sort(
                rng.choice(timestamps.size, size=config.max_invocations_per_app, replace=False)
            )
            timestamps = timestamps[keep]
        return timestamps, self._assign_functions(rng, app, timestamps)

    def build_arrival_process(
        self, rng: np.random.Generator, app: AppSpec, *, daily_rate: float
    ) -> ArrivalProcess:
        """Choose an arrival process matching the app's triggers and rate.

        Exposed publicly so tests and examples can inspect the mapping from
        application class to arrival behaviour.
        """
        rate_per_minute = daily_rate / MINUTES_PER_DAY
        triggers = app.trigger_types
        timer_only = triggers == {TriggerType.TIMER}
        has_timer = TriggerType.TIMER in triggers
        bursty_triggers = bool(triggers & {TriggerType.QUEUE, TriggerType.EVENT})
        http_like = bool(
            triggers & {TriggerType.HTTP, TriggerType.STORAGE, TriggerType.OTHERS}
        )

        if timer_only:
            return self._timer_process(rng, rate_per_minute, single_timer_ok=True)

        components: list[ArrivalProcess] = []
        remaining_rate = rate_per_minute
        if has_timer:
            # Timers contribute a modest share of a mixed app's invocations.
            timer_rate = min(rate_per_minute * 0.3, 1.0)
            timer_rate = max(timer_rate, 1.0 / MINUTES_PER_DAY)
            components.append(self._timer_process(rng, timer_rate, single_timer_ok=False))
            remaining_rate = max(rate_per_minute - timer_rate, rate_per_minute * 0.1)

        daily_remaining = remaining_rate * MINUTES_PER_DAY
        if daily_remaining < 3.0:
            components.append(self._rare_process(rng, remaining_rate))
        elif daily_remaining < 200.0:
            components.append(
                self._moderate_process(
                    rng,
                    remaining_rate,
                    bursty_triggers=bursty_triggers,
                    http_like=http_like,
                )
            )
        else:
            components.append(
                self._frequent_process(
                    rng,
                    remaining_rate,
                    bursty_triggers=bursty_triggers,
                    http_like=http_like,
                )
            )

        if len(components) == 1:
            return components[0]
        return CompositeArrival(tuple(components))

    def _rare_process(self, rng: np.random.Generator, rate_per_minute: float) -> ArrivalProcess:
        """Arrival process for applications with a handful of invocations.

        About half of them are *clumped* (bursts of a few invocations
        separated by long silences), which produces the short idle times
        that fixed keep-alive policies still catch; the rest are genuinely
        irregular singleton arrivals.
        """
        mean_iat = 1.0 / max(rate_per_minute, 1e-6)
        if rng.random() < 0.6:
            burst_size = rng.uniform(2.0, 5.0)
            return BurstArrival(
                mean_gap_minutes=mean_iat * burst_size,
                burst_size_mean=burst_size,
                intra_burst_gap_minutes=rng.uniform(0.3, 3.0),
            )
        return SparseArrival(mean_iat_minutes=mean_iat, iat_cv=rng.uniform(0.8, 4.0))

    def _moderate_process(
        self,
        rng: np.random.Generator,
        rate_per_minute: float,
        *,
        bursty_triggers: bool,
        http_like: bool,
    ) -> ArrivalProcess:
        """Arrival process for applications invoked a few times per hour.

        This band (mean IATs of roughly 5 minutes to a few hours) is the
        one for which the keep-alive length matters most (Figure 14's large
        gains between the 10-minute and 1-hour policies).  The mix contains
        periodic external callers (IoT/sensor traffic with CV ≈ 0 despite
        having no timer trigger), clumped bursts, diurnal human traffic and
        plain Poisson arrivals.
        """
        roll = rng.random()
        if roll < 0.2:
            period = self._nearest_standard_period(1.0 / max(rate_per_minute, 1e-6))
            return TimerArrival(
                period_minutes=period,
                phase_minutes=rng.uniform(0.0, period),
                jitter_minutes=period * rng.uniform(0.0, 0.05),
            )
        if roll < 0.7 or (bursty_triggers and rng.random() < self.config.bursty_fraction):
            burst_size = rng.uniform(2.0, 8.0)
            mean_gap = burst_size / max(rate_per_minute, 1e-6)
            return BurstArrival(
                mean_gap_minutes=mean_gap,
                burst_size_mean=burst_size,
                intra_burst_gap_minutes=rng.uniform(0.2, 2.0),
            )
        if http_like and rng.random() < self.config.diurnal_fraction:
            return DiurnalPoissonArrival(
                mean_rate_per_minute=rate_per_minute,
                daily_amplitude=rng.uniform(0.2, 0.6),
                weekend_dip=rng.uniform(0.1, 0.5),
                trace_start_weekday=self.config.start_weekday,
            )
        return PoissonArrival(rate_per_minute=rate_per_minute)

    def _frequent_process(
        self,
        rng: np.random.Generator,
        rate_per_minute: float,
        *,
        bursty_triggers: bool,
        http_like: bool,
    ) -> ArrivalProcess:
        """Arrival process for frequently invoked applications."""
        if bursty_triggers and rng.random() < self.config.bursty_fraction:
            mean_on = rng.uniform(2.0, 30.0)
            mean_off = rng.uniform(10.0, 120.0)
            duty_cycle = mean_on / (mean_on + mean_off)
            return OnOffArrival(
                on_rate_per_minute=rate_per_minute / duty_cycle,
                mean_on_minutes=mean_on,
                mean_off_minutes=mean_off,
            )
        if http_like and rng.random() < self.config.diurnal_fraction:
            return DiurnalPoissonArrival(
                mean_rate_per_minute=rate_per_minute,
                daily_amplitude=rng.uniform(0.2, 0.6),
                weekend_dip=rng.uniform(0.1, 0.5),
                trace_start_weekday=self.config.start_weekday,
            )
        return PoissonArrival(rate_per_minute=rate_per_minute)

    def _timer_process(
        self, rng: np.random.Generator, rate_per_minute: float, *, single_timer_ok: bool
    ) -> ArrivalProcess:
        """Periodic process whose aggregate rate approximates the target."""
        config = self.config
        target_period = 1.0 / max(rate_per_minute, 1e-6)
        period = self._nearest_standard_period(target_period)
        single = single_timer_ok and rng.random() < config.timer_only_single_fraction
        if single:
            phase = rng.uniform(0.0, period)
            return TimerArrival(period_minutes=period, phase_minutes=phase)
        # Multiple timers with different periods/phases: raises the IAT CV
        # above zero, as observed for half of the timer-only applications.
        num_timers = int(rng.integers(2, 4))
        timers = []
        for _ in range(num_timers):
            this_period = self._nearest_standard_period(
                target_period * num_timers * rng.uniform(0.5, 2.0)
            )
            timers.append(
                TimerArrival(
                    period_minutes=this_period,
                    phase_minutes=rng.uniform(0.0, this_period),
                )
            )
        return CompositeArrival(tuple(timers))

    @staticmethod
    def _nearest_standard_period(target_period_minutes: float) -> float:
        """Snap a period to the closest standard cron-style period."""
        target = math.log(max(target_period_minutes, 0.5))
        distances = [abs(log_period - target) for log_period in _LOG_TIMER_PERIODS]
        return float(STANDARD_TIMER_PERIODS[distances.index(min(distances))])

    def _assign_functions(
        self, rng: np.random.Generator, app: AppSpec, timestamps: np.ndarray
    ) -> np.ndarray:
        """Assign each app-level invocation to one of the app's functions.

        Function popularity within an application is skewed (Zipf-like
        weights): a few functions receive most of the application's
        invocations, matching the weak correlation the paper reports
        between function count and per-function rates.  Returns local
        function positions aligned with ``timestamps``.
        """
        num_functions = app.num_functions
        if num_functions == 1 or timestamps.size == 0:
            # A single-function app's draw would be the last from its
            # own stream, so skipping it changes no other value.
            return np.zeros(timestamps.size, dtype=np.int64)
        ranks = np.arange(1, num_functions + 1, dtype=float)
        weights = 1.0 / ranks
        weights = weights / weights.sum()
        rng.shuffle(weights)
        return _weighted_choice(rng, weights, timestamps.size)


def generate_workload(
    num_apps: int = 500,
    duration_days: float = 7.0,
    seed: int = 2020,
    **overrides: float,
) -> Workload:
    """Convenience one-call workload generation.

    Args:
        num_apps: Number of applications.
        duration_days: Trace horizon in days.
        seed: RNG seed.
        **overrides: Any other :class:`GeneratorConfig` field.
    """
    config = GeneratorConfig(
        num_apps=num_apps,
        duration_minutes=duration_days * MINUTES_PER_DAY,
        seed=seed,
        **overrides,  # type: ignore[arg-type]
    )
    return WorkloadGenerator(config).generate()
