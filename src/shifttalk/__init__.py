"""shifttalk: speaking-pattern analytics for wearable audio and Bluetooth
proximity data collected over 12-hour work shifts."""

__version__ = "0.1.0"

from .model import (
    Cohort,
    FrameBlock,
    HubCategory,
    HubRecord,
    LocationCategory,
    ParticipantProfile,
    PhysiologyTable,
    RecordingSegment,
    RecordingTable,
    RssiTable,
    ShiftType,
    UnitType,
)

__all__ = [
    "Cohort",
    "FrameBlock",
    "HubCategory",
    "HubRecord",
    "LocationCategory",
    "ParticipantProfile",
    "PhysiologyTable",
    "RecordingSegment",
    "RecordingTable",
    "RssiTable",
    "ShiftType",
    "UnitType",
    "__version__",
]
