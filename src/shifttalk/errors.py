"""Exception types raised by the pipeline's contract violations."""

from __future__ import annotations


class ShiftTalkError(Exception):
    """Base class for all package-specific errors."""


class MalformedRow(ShiftTalkError):
    def __init__(self, file: str, line: int, reason: str):
        self.file = file
        self.line = line
        self.reason = reason
        super().__init__(f"{file}:{line}: {reason}")


class UnknownHub(ShiftTalkError):
    def __init__(self, hub_id: str):
        self.hub_id = hub_id
        super().__init__(f"rssi row references unknown hub_id {hub_id!r}")


class DuplicateParticipant(ShiftTalkError):
    def __init__(self, participant_id: str):
        self.participant_id = participant_id
        super().__init__(f"duplicate participant_id {participant_id!r}")


class EmptyInput(ShiftTalkError, ValueError):
    pass


class InsufficientData(ShiftTalkError, ValueError):
    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"no usable frames for feature {feature!r}")


class EmptyPool(ShiftTalkError, ValueError):
    pass


class ConstantInput(ShiftTalkError, ValueError):
    pass


class EmptyGroup(ShiftTalkError, ValueError):
    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"a comparison group is empty for feature {feature!r}")


class DegenerateLabel(ShiftTalkError, ValueError):
    pass


class SingleClassInput(ShiftTalkError, ValueError):
    pass


class TooFewSamples(ShiftTalkError, ValueError):
    pass


class LengthMismatch(ShiftTalkError, ValueError):
    pass


class InvalidSpec(ShiftTalkError, ValueError):
    pass
