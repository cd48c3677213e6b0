"""Declarative fleet-scenario engine (the vm5k-style control plane).

One spec — a YAML/JSON/py document parsed into :class:`ScenarioSpec` —
drives the full pipeline: topology build, session/cascade construction,
arrival-scheduled workload phases (clone storms, trace replays,
live-migration waves, golden-image rollouts), composed fault plans, and
a uniform report/gate stage emitting one ``BENCH_*.json`` envelope.

* :mod:`repro.scenario.spec` — the dataclass schema + quick profiles;
* :mod:`repro.scenario.loader` — file formats and the ``scenarios/``
  library directory;
* :mod:`repro.scenario.arrivals` — seeded arrival processes (fixed
  stagger, uniform window, Poisson, diurnal curve);
* :mod:`repro.scenario.gates` — the named-assertion vocabulary;
* :mod:`repro.scenario.runner` — the fleet runner and its report
  envelope;
* :mod:`repro.scenario.schema` — the shared report JSON schema and the
  dependency-free validator the tier-1 suite checks archives with.
"""

from repro.scenario.spec import (
    ArrivalSpec,
    FaultSpec,
    GateSpec,
    ImageSpec,
    PhaseSpec,
    ScenarioSpec,
    SessionSpec,
    SpecError,
    TopologySpec,
)

__all__ = [
    "ArrivalSpec",
    "FaultSpec",
    "GateSpec",
    "ImageSpec",
    "PhaseSpec",
    "ScenarioSpec",
    "SessionSpec",
    "SpecError",
    "TopologySpec",
]
