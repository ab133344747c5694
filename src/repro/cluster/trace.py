"""Synthetic workload-trace generation (the ITP-trace substitute).

The paper models job arrivals by sampling N consecutive arrival points
from Microsoft's internal ITP cluster traces; those traces are not
available offline, so this module synthesises arrival processes with the
same character — bursty, heavy-tailed inter-arrival gaps inside a fixed
submission window — deterministically from a trace id (README.md,
"Substitutions").

Per the paper's methodology:

* every trace's jobs arrive within a fixed time period, so traces with
  more jobs stress the cluster harder (Figure 12's 64- vs 128-job
  comparison);
* each job draws one of the three Table III model configurations;
* iteration counts (and hence durations) are drawn per job;
* deadline traces set each deadline to ``lambda * duration`` after
  arrival with lambda ~ U[0.5, 1.5];
* makespan traces submit every job at time zero (Figure 14).
"""

from __future__ import annotations

from repro.cluster.job import JobSpec
from repro.cluster.throughput import ThroughputProfile
from repro.config.presets import TABLE_III_MODELS
from repro.errors import ConfigError
from repro.testbed import noise

HOURS = 3600.0

#: Submission window for arrival traces (the paper models clusters
#: operating for 400 hours; arrivals land inside the first part of it).
#: 60 hours puts a 64-job trace at ~90 % average GPU demand on the
#: 1,024-GPU cluster and a 128-job trace well past saturation — the
#: regime Figure 12 evaluates.
DEFAULT_SUBMISSION_WINDOW = 60 * HOURS

#: Iteration-count range per job. Combined with the Table III model
#: rates this yields standalone runtimes from a few hours to over a day,
#: the regime where 64-128 jobs saturate a 1,024-GPU cluster.
MIN_ITERATIONS = 400
MAX_ITERATIONS = 4000

#: Allocation at which a job's "duration" is quoted when deriving
#: deadlines (the user's expectation of service, system-independent).
REFERENCE_GPUS = 128


def _pick_model(key: str) -> str:
    """Weighted model choice: smaller models are more common (ITP-like)."""
    draw = noise.unit(key)
    if draw < 0.45:
        return TABLE_III_MODELS[0].model.name
    if draw < 0.80:
        return TABLE_III_MODELS[1].model.name
    return TABLE_III_MODELS[2].model.name


def _iterations(key: str) -> int:
    """Heavy-tailed iteration count (squared-uniform skews small)."""
    draw = noise.unit(key) ** 2
    return int(MIN_ITERATIONS + draw * (MAX_ITERATIONS - MIN_ITERATIONS))


def synthesize_trace(trace_id: int, num_jobs: int,
                     reference_profiles: dict[str, ThroughputProfile], *,
                     with_deadlines: bool = True,
                     submission_window: float = DEFAULT_SUBMISSION_WINDOW,
                     seed: str = "itp") -> list[JobSpec]:
    """Generate one workload trace.

    Args:
        trace_id: Trace index (the paper evaluates traces 1-9).
        num_jobs: Jobs in the trace (16-128 across the case studies).
        reference_profiles: Throughput curves used solely to quote each
            job's standalone duration for deadline derivation; pass the
            same profiles to both systems so deadlines are identical.
        with_deadlines: Attach ``lambda * duration`` deadlines.
        submission_window: Width of the arrival window in seconds.
        seed: Namespace for the deterministic noise stream.
    """
    if num_jobs <= 0:
        raise ConfigError("num_jobs must be positive")
    prefix = f"{seed}/trace{trace_id}"
    # Bursty arrivals: exponential-ish gaps with occasional long lulls,
    # normalised to the submission window.
    gaps = []
    for index in range(num_jobs):
        base = -_log_unit(f"{prefix}/gap/{index}")
        if noise.unit(f"{prefix}/burst/{index}") < 0.15:
            base *= 4.0  # lull between bursts
        gaps.append(base)
    scale = submission_window / max(sum(gaps), 1e-9)
    jobs: list[JobSpec] = []
    clock = 0.0
    for index, gap in enumerate(gaps):
        clock += gap * scale
        key = f"{prefix}/job/{index}"
        model_name = _pick_model(key + "/model")
        iterations = _iterations(key + "/iters")
        profile = reference_profiles[model_name]
        rate = profile.rate(REFERENCE_GPUS)
        if rate <= 0:
            rate = profile.rate(profile.max_gpus)
        duration = iterations / rate
        deadline = None
        if with_deadlines:
            slack = 0.5 + noise.unit(key + "/lambda")  # U[0.5, 1.5]
            deadline = clock + slack * duration
        jobs.append(JobSpec(job_id=index, model_name=model_name,
                            num_iterations=iterations, arrival_time=clock,
                            deadline=deadline,
                            standalone_duration=duration))
    return jobs


def makespan_trace(num_jobs: int,
                   reference_profiles: dict[str, ThroughputProfile], *,
                   trace_id: int = 0,
                   seed: str = "itp-makespan") -> list[JobSpec]:
    """All jobs submitted at time zero, no deadlines (Figure 14)."""
    jobs = synthesize_trace(trace_id, num_jobs, reference_profiles,
                            with_deadlines=False, seed=seed)
    return [JobSpec(job_id=job.job_id, model_name=job.model_name,
                    num_iterations=job.num_iterations, arrival_time=0.0,
                    deadline=None,
                    standalone_duration=job.standalone_duration)
            for job in jobs]


def _log_unit(key: str) -> float:
    """ln of a hash-uniform, guarded away from zero."""
    import math
    return math.log(max(noise.unit(key), 1e-12))
