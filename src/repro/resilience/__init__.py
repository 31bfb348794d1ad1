"""Fault tolerance for the profiling system: durability, degradation, chaos.

Three concerns live here, consumed across every other layer:

* :mod:`~repro.resilience.wal` — the checksummed write-ahead event log the
  streaming ingestor writes before applying micro-batches;
* :mod:`~repro.resilience.recovery` — snapshot generations with retention
  (:class:`SnapshotCatalog`) and :func:`recover`, which opens the newest
  valid generation and replays the WAL tail from its stream cursor;
* :mod:`~repro.resilience.faults` — the seeded, deterministic
  fault-injection plan the WAL, the shard router and the parallel runner
  consult at named points, so chaos tests replay exactly.
"""

import importlib

#: public names by the submodule that defines them; each submodule is
#: imported on the first access to one of its names (PEP 562), so the
#: fault hook of an artifact save or load (``from ..resilience import
#: faults``) loads neither the WAL nor the recovery layer (DESIGN.md §14)
_EXPORTS = {
    "faults": ("FaultPlan", "FaultSpec", "InjectedFault", "active_plan", "inject"),
    "recovery": ("RecoveryError", "RecoveryReport", "SnapshotCatalog", "recover"),
    "wal": (
        "WalCorruptError", "WalStatus", "WriteAheadLog", "decode_event", "encode_event",
        "replay_wal", "scan_wal",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
