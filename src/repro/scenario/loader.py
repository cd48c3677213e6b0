"""Load scenario documents from disk.

Three formats, chosen by suffix:

``.yaml`` / ``.yml``
    The usual form (needs PyYAML; a clear :class:`SpecError` is raised
    when it is missing rather than an ImportError mid-run).
``.json``
    Always available.
``.py``
    Executed in an empty namespace; the module must bind ``SPEC`` to a
    plain dict.  For specs that want comments-with-code (computed
    sweeps, shared constants).

Bare names resolve against the repository's ``scenarios/`` library:
``load_spec("fault_smoke")`` finds ``scenarios/fault_smoke.yaml``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from repro.scenario.gates import validate_gates
from repro.scenario.spec import ScenarioSpec, SpecError

__all__ = ["SCENARIO_DIR", "list_specs", "load_spec"]

#: repo_root/scenarios — the spec library the CLI matrix runs from.
SCENARIO_DIR = Path(__file__).resolve().parents[3] / "scenarios"

_SUFFIXES = (".yaml", ".yml", ".json", ".py")


def _parse_yaml(text: str, where: str) -> dict:
    try:
        import yaml
    except ImportError:
        raise SpecError(
            f"{where}: PyYAML is not installed — use a .json or .py "
            "spec, or install PyYAML") from None
    return yaml.safe_load(text)


def _parse_py(text: str, where: str) -> dict:
    namespace: dict = {}
    exec(compile(text, where, "exec"), namespace)
    if "SPEC" not in namespace:
        raise SpecError(f"{where}: .py specs must define SPEC (a dict)")
    return namespace["SPEC"]


def _resolve(name_or_path: str) -> Path:
    path = Path(name_or_path)
    if path.suffix in _SUFFIXES and path.exists():
        return path
    for suffix in _SUFFIXES:
        candidate = SCENARIO_DIR / f"{name_or_path}{suffix}"
        if candidate.exists():
            return candidate
    raise SpecError(
        f"no scenario {name_or_path!r}: not a spec file and not found "
        f"in {SCENARIO_DIR} (known: {[s.name for s in list_specs()]})")


def load_spec(name_or_path: str) -> ScenarioSpec:
    """Parse + validate one spec (quick profile NOT applied — callers
    opt in via ``spec.quicked()``)."""
    path = _resolve(name_or_path)
    text = path.read_text()
    where = str(path)
    if path.suffix in (".yaml", ".yml"):
        data = _parse_yaml(text, where)
    elif path.suffix == ".json":
        data = json.loads(text)
    else:
        data = _parse_py(text, where)
    spec = ScenarioSpec.from_dict(data, where=where)
    # Gate names and params are part of load-time validation: a typo'd
    # gate must fail `scenario check`, not the end of a long run.
    validate_gates(spec.gates)
    if spec.quick:
        validate_gates(spec.quicked().gates)
    return spec


def list_specs() -> List[ScenarioSpec]:
    """Every spec in the library directory, sorted by name."""
    specs = []
    if SCENARIO_DIR.is_dir():
        for path in sorted(SCENARIO_DIR.iterdir()):
            if path.suffix in _SUFFIXES and not path.name.startswith("_"):
                specs.append(load_spec(str(path)))
    return sorted(specs, key=lambda spec: spec.name)
