"""Simulated storage substrate.

The paper assumes objects live in "an arbitrarily large array (address
space)" on some physical medium (RAM, rotating disk, SSD) and, in the
database setting of Section 3, behind a block translation layer with
checkpoint-based durability.  This package provides those substrates:

* :mod:`repro.storage.extent` / :mod:`repro.storage.address_space` — extent
  arithmetic and an address space that detects overlapping placements via a
  bisect-maintained address-ordered index,
* :mod:`repro.storage.gap_index` — the free-gap set behind the classical
  free-list allocators, kept in bucketed sorted lists by address and by size,
* :mod:`repro.storage.devices` — timing models for RAM, disk and SSD that
  can both drive a simulation and derive a cost function,
* :mod:`repro.storage.checkpoint` — the checkpoint manager that enforces the
  "never write to space freed since the last checkpoint" rule,
* :mod:`repro.storage.translation` — a TokuDB-style block translation layer
  with crash/recovery semantics.
"""

from repro.storage.extent import Extent, coalesce, total_length
from repro.storage.address_space import AddressSpace, OverlapError
from repro.storage.gap_index import GapIndex
from repro.storage.checkpoint import CheckpointManager, FreedSpaceViolation
from repro.storage.devices import (
    DeviceModel,
    MainMemoryDevice,
    RotatingDiskDevice,
    SolidStateDevice,
    DeviceStats,
)
from repro.storage.translation import BlockTranslationLayer, RecoveryError

__all__ = [
    "Extent",
    "coalesce",
    "total_length",
    "AddressSpace",
    "OverlapError",
    "GapIndex",
    "CheckpointManager",
    "FreedSpaceViolation",
    "DeviceModel",
    "MainMemoryDevice",
    "RotatingDiskDevice",
    "SolidStateDevice",
    "DeviceStats",
    "BlockTranslationLayer",
    "RecoveryError",
]
