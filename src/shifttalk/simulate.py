"""Synthetic cohort generator with planted, recoverable group effects.

Stands in for the private hospital dataset: emits the five canonical input
files plus a ground-truth record of every planted quantity. Speech minutes
follow a per-participant renewal process (session length geometric on the
>1min knob, inter-session gap near-symmetric around the group median, so
the extracted mean tracks the planted median). Room occupancy is a sticky
per-minute Markov chain whose stationary distribution equals the
occurrence-rate knobs. Frame features are per-speaker Gaussians shifted by
a per-recording arousal state; self-report labels couple to the
participant-level arousal and sleep latents.

All randomness flows from one seed through numpy SeedSequence spawning in
sorted participant order, so identical specs produce identical bytes. Each
shift's frames go to disk as they are drawn (ingest.FrameWriter), so the
frames held at once are one shift's; the cohort that generate returns holds
the written frames.bin's frames as views of a read-only map of it, which
nothing reads back here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, MalformedRow
from .ingest import FrameWriter, write_cohort
from .model import (
    Cohort,
    FrameBlock,
    HubCategory,
    HubRecord,
    ParticipantProfile,
    PhysiologyTable,
    RSSI_MAX,
    RSSI_MIN,
    RecordingTable,
    RssiTable,
    ShiftType,
    UnitType,
    SHIFT_MINUTES,
    median,
    read_json,
)

GROUND_TRUTH_FILE = "ground_truth.json"
# Frame and physiology values are rounded to this many decimals. No file
# format needs the rounding; it stays because a seed's simulated values, and
# so every out/ file, depend on it.
GRID_DECIMALS = 4

# per-speaker frame model: (mean of speaker means, sd of speaker means, frame sd)
_FRAME_MODEL = {
    "log_pitch": (4.7, 0.15, 0.30),
    "intensity": (60.0, 3.0, 6.0),
    "hf_lf_ratio": (0.8, 0.10, 0.25),
}


@dataclass
class CohortSpec:
    """Flat knob set controlling one synthetic cohort."""

    n_per_cell: int = 2  # participants per (shift x unit) cell
    n_shifts: int = 5
    seed: int = 0
    frames_per_recording: int = 2000  # 20 s capture at 10 ms hop
    foreground_fraction: float = 0.5
    voiced_fraction: float = 0.75

    inter_session_median_day: float = 6.0
    inter_session_median_night: float = 9.0
    inter_session_sd: float = 2.0
    gt1min_ratio_day: float = 0.38
    gt1min_ratio_night: float = 0.31

    occ_icu_ns: float = 0.29
    occ_icu_pat: float = 0.52
    occ_icu_lounge_med: float = 0.08
    occ_icu_outside: float = 0.11
    occ_non_icu_ns: float = 0.34
    occ_non_icu_pat: float = 0.40
    occ_non_icu_lounge_med: float = 0.14
    occ_non_icu_outside: float = 0.12
    room_stickiness: float = 0.8

    pos_arousal_day: float = 0.25
    pos_arousal_night: float = 0.25
    neg_arousal_day: float = 0.26
    neg_arousal_night: float = 0.30
    # additive offsets to the positive/negative arousal probability in one
    # third of the shift (blocks 0-3 / 4-7 / 8-11)
    pos_delta_day_start: float = 0.0
    pos_delta_day_middle: float = 0.0
    pos_delta_day_end: float = 0.0
    pos_delta_night_start: float = 0.0
    pos_delta_night_middle: float = 0.0
    pos_delta_night_end: float = 0.0
    neg_delta_day_start: float = 0.0
    neg_delta_day_middle: float = 0.0
    neg_delta_day_end: float = 0.0
    neg_delta_night_start: float = 0.0
    neg_delta_night_middle: float = 0.0
    neg_delta_night_end: float = 0.0

    arousal_effect_size: float = 1.2  # frame-feature shift, in frame-sd units
    arousal_between_sd: float = 0.03  # participant spread of the arousal probabilities

    rssi_mean: float = 172.0
    rssi_sd: float = 5.0

    walk_mean: float = 0.35
    walk_within_sd: float = 0.08
    walk_between_sd: float = 0.05
    sleep_mean: float = 7.0
    sleep_within_sd: float = 0.7
    sleep_between_sd: float = 0.6

    label_coupling_pos: float = 4.0
    label_coupling_neg: float = 4.0
    label_coupling_swls: float = 0.8
    label_noise_affect: float = 4.0
    label_noise_swls: float = 0.8

    def validate(self) -> None:
        if self.n_per_cell < 1 or self.n_shifts < 1 or self.frames_per_recording < 1:
            raise InvalidSpec("n_per_cell, n_shifts and frames_per_recording must be >= 1")
        for f in fields(self):  # values that no draw can use
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise InvalidSpec(f"{f.name}={value} must be finite")
            if (f.name == "seed" or f.name.endswith("_sd") or f.name.startswith("label_noise_")) and value < 0:
                raise InvalidSpec(f"{f.name}={value} must be >= 0")
        for name in ("foreground_fraction", "voiced_fraction", "room_stickiness",
                     "gt1min_ratio_day", "gt1min_ratio_night",
                     "pos_arousal_day", "pos_arousal_night",
                     "neg_arousal_day", "neg_arousal_night"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidSpec(f"{name}={value} outside [0, 1]")
        for unit in ("icu", "non_icu"):
            for loc in _ROOM_STATES:  # each a probability, as each sum is one
                value = getattr(self, f"occ_{unit}_{loc}")
                if not 0.0 <= value <= 1.0:
                    raise InvalidSpec(f"occ_{unit}_{loc}={value} outside [0, 1]")
            total = sum(getattr(self, f"occ_{unit}_{loc}") for loc in _ROOM_STATES)
            if abs(total - 1.0) > 1e-9:
                raise InvalidSpec(f"occupancy profile for {unit} sums to {total}, expected 1")
        if self.inter_session_median_day < 1 or self.inter_session_median_night < 1:
            raise InvalidSpec("inter-session medians must be >= 1 minute")


def load_spec(path: str | Path) -> CohortSpec:
    """Read a flat key = value config file (toml-style scalars, # comments)."""
    known = {f.name: f.type for f in fields(CohortSpec)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSpec(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip('"')
        if key not in known:
            raise InvalidSpec(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = int(value) if known[key] == "int" else float(value)
        except ValueError:
            raise InvalidSpec(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    spec = CohortSpec(**values)  # type: ignore[arg-type]
    spec.validate()
    return spec


@dataclass
class ParticipantTruth:
    participant_id: str
    shift_type: str
    unit_type: str
    inter_session_median: float
    gt1min_ratio: float
    q_pos: float
    q_neg: float
    z_pos: float
    z_neg: float
    z_sleep: float
    occupancy: dict[str, float]


_TRUTH_KEYS = {f.name for f in fields(ParticipantTruth)}


@dataclass
class GroundTruth:
    seed: int
    knobs: dict
    participants: dict[str, ParticipantTruth]
    informative_features: dict[str, list[str]]

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "knobs": self.knobs,
            "participants": {pid: asdict(t) for pid, t in self.participants.items()},
            "informative_features": self.informative_features,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def read(cls, path: str | Path) -> "GroundTruth":
        """The ground truth that to_json wrote to a file (model.read_json)."""
        path = Path(path)
        payload = read_json(path, ("seed", "knobs", "participants", "informative_features"))
        if type(payload["participants"]) is not dict:
            raise MalformedRow(path.name, 1, "participants is not an object")
        for pid, t in payload["participants"].items():
            if type(t) is not dict or t.keys() != _TRUTH_KEYS:
                raise MalformedRow(path.name, 1, f"participant {pid!r} is not an object with the keys "
                                                 f"{', '.join(sorted(_TRUTH_KEYS))}")
        participants = {pid: ParticipantTruth(**t) for pid, t in payload["participants"].items()}
        return cls(payload["seed"], payload["knobs"], participants, payload["informative_features"])


_HUBS = [
    HubRecord("hub_ns_1", HubCategory.NURSING_STATION),
    HubRecord("hub_pat_1", HubCategory.PATIENT_ROOM),
    HubRecord("hub_pat_2", HubCategory.PATIENT_ROOM),
    HubRecord("hub_lounge_1", HubCategory.LOUNGE),
    HubRecord("hub_med_1", HubCategory.MEDICINE_ROOM),
]

_ROOM_STATES = ("ns", "pat", "lounge_med", "outside")
# code of the hub heard in each in-unit room state, by the minute's alt draw (False, True)
_ROOM_HUBS = np.searchsorted(sorted(h.hub_id for h in _HUBS), [
    ["hub_ns_1", "hub_ns_1"],
    ["hub_pat_2", "hub_pat_1"],
    ["hub_med_1", "hub_lounge_1"],
])


def _room_chain(rng: np.random.Generator, stationary: np.ndarray, stickiness: float) -> np.ndarray:
    """720 room states: stay with prob `stickiness`, else redraw from stationary."""
    redraw = rng.random(SHIFT_MINUTES) >= stickiness
    redraw[0] = True
    iid = rng.choice(len(_ROOM_STATES), size=SHIFT_MINUTES, p=stationary)
    source = np.where(redraw, np.arange(SHIFT_MINUTES), -1)
    last = np.maximum.accumulate(source)
    return iid[last]


def _session_minutes(rng: np.random.Generator, gap_median: float, gap_sd: float, gt1min: float) -> list[list[int]]:
    """Session minute runs for one shift, truncated at the shift end."""
    runs: list[list[int]] = []
    t = int(rng.integers(0, max(2, int(round(gap_median)))))
    while t < SHIFT_MINUTES:
        length = int(rng.geometric(1.0 - gt1min)) if gt1min > 0 else 1
        run = [m for m in range(t, min(t + length, SHIFT_MINUTES))]
        runs.append(run)
        gap = max(1, int(round(rng.normal(gap_median, gap_sd))))
        t = t + length + gap
    return runs


def _to_grid(values: np.ndarray) -> np.ndarray:
    return np.round(values, GRID_DECIMALS)


def generate(spec: CohortSpec, out_dir: str | Path) -> tuple[Cohort, GroundTruth]:
    """Write the canonical input directory plus ground_truth.json, and return
    the cohort written and its ground truth.

    Deterministic for a given spec: identical spec -> identical bytes.
    """
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells = [
        (ShiftType.DAY, UnitType.ICU),
        (ShiftType.DAY, UnitType.NON_ICU),
        (ShiftType.NIGHT, UnitType.ICU),
        (ShiftType.NIGHT, UnitType.NON_ICU),
    ]
    participants = [
        (f"p{idx:03d}", shift, unit)
        for idx, (shift, unit) in enumerate(
            (cell for cell in cells for _ in range(spec.n_per_cell)), start=1
        )
    ]
    seeds = np.random.SeedSequence(spec.seed).spawn(len(participants))
    ids = sorted(pid for pid, _, _ in participants)
    codes = {pid: i for i, pid in enumerate(ids)}

    cohort = Cohort(hubs={h.hub_id: h for h in _HUBS})
    rssi: list[RssiTable] = []
    recordings: list[RecordingTable] = []  # one per shift with a recording
    physiology: list[tuple] = []  # one row per shift
    truth_participants: dict[str, ParticipantTruth] = {}
    start_date = date(2022, 3, 1)

    with FrameWriter(out, ids) as frames:  # each shift's frames go to disk as they are drawn
        for (pid, shift, unit), seq in zip(participants, seeds):
            rng = np.random.default_rng(seq)
            day = shift is ShiftType.DAY
            gap_median = spec.inter_session_median_day if day else spec.inter_session_median_night
            gt1min = spec.gt1min_ratio_day if day else spec.gt1min_ratio_night
            q_pos_base = spec.pos_arousal_day if day else spec.pos_arousal_night
            q_neg_base = spec.neg_arousal_day if day else spec.neg_arousal_night
            group = "day" if day else "night"
            occupancy = {
                loc: getattr(spec, f"occ_{unit.value}_{loc}") for loc in _ROOM_STATES
            }
            stationary = np.array([occupancy[loc] for loc in _ROOM_STATES])

            z_pos, z_neg, z_sleep, z_walk = rng.normal(size=4)
            q_pos = float(np.clip(q_pos_base + spec.arousal_between_sd * z_pos, 0.0, 0.45))
            q_neg = float(np.clip(q_neg_base + spec.arousal_between_sd * z_neg, 0.0, 0.45))
            sleep_center = spec.sleep_mean + spec.sleep_between_sd * z_sleep
            walk_center = spec.walk_mean + spec.walk_between_sd * z_walk

            pos_affect = int(np.clip(round(30 + spec.label_coupling_pos * z_pos
                                           + rng.normal(0, spec.label_noise_affect)), 10, 50))
            neg_affect = int(np.clip(round(30 + spec.label_coupling_neg * z_neg
                                           + rng.normal(0, spec.label_noise_affect)), 10, 50))
            swls = float(np.clip(round(4.0 + spec.label_coupling_swls * z_sleep
                                       + rng.normal(0, spec.label_noise_swls), 1), 1.0, 7.0))
            cohort.profiles[pid] = ParticipantProfile(pid, shift, unit, pos_affect, neg_affect, swls)

            mu = {name: m + s * rng.normal() for name, (m, s, _) in _FRAME_MODEL.items()}
            deltas = {
                "pos": {w: getattr(spec, f"pos_delta_{group}_{w}") for w in ("start", "middle", "end")},
                "neg": {w: getattr(spec, f"neg_delta_{group}_{w}") for w in ("start", "middle", "end")},
            }

            for s in range(spec.n_shifts):
                shift_date = start_date + timedelta(days=s)
                rooms = _room_chain(rng, stationary, spec.room_stickiness)
                rssi.append(_emit_rssi(rng, spec, codes[pid], shift_date, rooms))
                minutes = [m for run in _session_minutes(rng, gap_median, spec.inter_session_sd, gt1min) for m in run]
                if minutes:
                    states = _draw_states(rng, minutes, q_pos, q_neg, deltas)
                    n = len(minutes)
                    table = RecordingTable(np.full(n, codes[pid]), np.full(n, shift_date, dtype="datetime64[D]"),
                                           minutes, np.full(n, spec.frames_per_recording), np.zeros(n, bool))
                    recordings.append(table)
                    frames.append(table, _emit_frames(rng, spec, mu, states))
                walk = float(np.clip(round(rng.normal(walk_center, spec.walk_within_sd), GRID_DECIMALS), 0.0, 1.0))
                sleep = float(np.clip(round(rng.normal(sleep_center, spec.sleep_within_sd), GRID_DECIMALS), 0.0, 24.0))
                physiology.append((codes[pid], shift_date, walk, sleep))

            truth_participants[pid] = ParticipantTruth(
                participant_id=pid,
                shift_type=shift.value,
                unit_type=unit.value,
                inter_session_median=gap_median,
                gt1min_ratio=gt1min,
                q_pos=q_pos,
                q_neg=q_neg,
                z_pos=float(z_pos),
                z_neg=float(z_neg),
                z_sleep=float(z_sleep),
                occupancy=occupancy,
            )

        cohort.recordings = RecordingTable.concat(recordings)
        cohort.rssi = RssiTable.concat(rssi)
        cohort.physiology = PhysiologyTable(*zip(*physiology))
        cohort.frames = write_cohort(cohort, out, frames)
    truth = GroundTruth(
        seed=spec.seed,
        knobs={f.name: getattr(spec, f.name) for f in fields(CohortSpec)},
        participants=truth_participants,
        informative_features=_informative_features(spec),
    )
    (out / GROUND_TRUTH_FILE).write_text(truth.to_json() + "\n", encoding="utf-8")
    return cohort, truth


def _informative_features(spec: CohortSpec) -> dict[str, list[str]]:
    """Feature families planted to carry signal for each label."""
    out: dict[str, list[str]] = {"pos_affect": [], "neg_affect": [], "life_satisfaction": []}
    for polarity in ("pos", "neg"):
        if getattr(spec, f"label_coupling_{polarity}") != 0 and spec.arousal_between_sd > 0:
            out[f"{polarity}_affect"] = [f"{polarity}_ratio_{part}" for part in (
                "all_mean", "ns_mean", "pat_mean", "start", "middle", "end")]
    if spec.label_coupling_swls != 0 and spec.sleep_between_sd > 0:
        out["life_satisfaction"] = ["sleep_hours_mean"]
    return out


def _emit_rssi(
    rng: np.random.Generator,
    spec: CohortSpec,
    participant: int,
    shift_date: date,
    rooms: np.ndarray,
) -> RssiTable:
    """One row per in-unit minute of the participant (a code), from a hub of the current room."""
    values = np.clip(np.round(rng.normal(spec.rssi_mean, spec.rssi_sd, SHIFT_MINUTES)), RSSI_MIN, RSSI_MAX).astype(int)
    alt = rng.random(SHIFT_MINUTES) < 0.5  # picks between same-category hubs
    minutes = np.flatnonzero(rooms != _ROOM_STATES.index("outside"))
    n = len(minutes)
    return RssiTable(np.full(n, participant), np.full(n, shift_date, dtype="datetime64[D]"), minutes,
                     _ROOM_HUBS[rooms[minutes], alt[minutes].astype(int)], values[minutes])


def verify_against_truth(
    features_path: str | Path,
    truth: GroundTruth,
    comparisons_path: str | Path | None = None,
    report_path: str | Path | None = None,
) -> dict:
    """Compare pipeline outputs against the planted quantities.

    Reports relative recovery error of the group inter-session and >1min
    knobs, absolute error of the arousal-ratio knobs, and (when the extra
    artifacts are supplied) whether planted group differences were flagged
    and whether a planted-informative feature reached the top importances.
    """
    from .reports import read_comparisons_csv, read_features_csv, read_report_json

    ids, _, X, names = read_features_csv(features_path)
    col = {name: i for i, name in enumerate(names)}
    by_pid = {pid: X[i] for i, pid in enumerate(ids)}
    knobs = truth.knobs

    report: dict = {"groups": {}, "participants": len(ids)}
    for group in ("day", "night"):
        rows = np.array([
            by_pid[pid] for pid, t in truth.participants.items()
            if t.shift_type == group and pid in by_pid
        ])
        if len(rows) == 0:
            continue
        inter_knob = knobs[f"inter_session_median_{group}"]
        gt1_knob = knobs[f"gt1min_ratio_{group}"]
        pos_knob = knobs[f"pos_arousal_{group}"]
        neg_knob = knobs[f"neg_arousal_{group}"]
        inter = median(rows[:, col["inter_session_time_mean"]])
        gt1 = median(rows[:, col["gt1min_ratio_all_mean"]])
        pos = median(rows[:, col["pos_ratio_all_mean"]])
        neg = median(rows[:, col["neg_ratio_all_mean"]])
        report["groups"][group] = {
            "n": int(len(rows)),
            "inter_session_median": inter,
            "inter_session_rel_error": abs(inter - inter_knob) / inter_knob,
            "gt1min_ratio_median": gt1,
            "gt1min_rel_error": abs(gt1 - gt1_knob) / gt1_knob if gt1_knob else None,
            "pos_ratio_median": pos,
            "pos_ratio_abs_error": abs(pos - pos_knob),
            "neg_ratio_median": neg,
            "neg_ratio_abs_error": abs(neg - neg_knob),
        }

    for unit in ("icu", "non_icu"):
        rows = np.array([
            by_pid[pid] for pid, t in truth.participants.items()
            if t.unit_type == unit and pid in by_pid
        ])
        if len(rows) == 0:
            continue
        report.setdefault("units", {})[unit] = {
            "n": int(len(rows)),
            **{
                f"occurrence_{loc}": {
                    "median": median(rows[:, col[f"occurrence_{loc}_mean"]]),
                    "knob": knobs[f"occ_{unit}_{loc}"],
                }
                for loc in ("ns", "pat", "lounge_med", "outside")
            },
        }

    if comparisons_path is not None:
        comp = read_comparisons_csv(comparisons_path)
        report["flagged_features"] = sorted(set(comp.feature[comp.significant].tolist()))

    if report_path is not None:
        ml = read_report_json(report_path)
        planted = set(truth.informative_features.get(ml["label"], []))
        top = [imp["feature"] for imp in ml["importances"]]
        hit_rank = next((rank + 1 for rank, name in enumerate(top) if name in planted), None)
        report["ml"] = {
            "label": ml["label"],
            "cv_micro_f1": ml["cv_micro_f1"],
            "planted_features": sorted(planted),
            "best_planted_rank": hit_rank,
            "planted_in_top3": hit_rank is not None and hit_rank <= 3,
            "planted_in_top10": hit_rank is not None and hit_rank <= 10,
        }
    return report


def _draw_states(
    rng: np.random.Generator,
    minutes: list[int],
    q_pos: float,
    q_neg: float,
    deltas: dict[str, dict[str, float]],
) -> np.ndarray:
    """Per-recording arousal state (+1 excited / -1 becalmed / 0 neutral)."""
    windows = ("start", "middle", "end")
    pos_by_window = np.clip([q_pos + deltas["pos"][w] for w in windows], 0.0, 1.0)
    neg_by_window = np.clip([q_neg + deltas["neg"][w] for w in windows], 0.0, 1.0)
    idx = np.asarray(minutes) // 240  # 4-block thirds of the shift
    p_pos = pos_by_window[idx]
    p_neg = neg_by_window[idx]
    u = rng.random(len(minutes))
    return np.where(u < p_pos, 1, np.where(u < p_pos + p_neg, -1, 0))


def _emit_frames(
    rng: np.random.Generator,
    spec: CohortSpec,
    mu: dict[str, float],
    states: np.ndarray,
) -> FrameBlock:
    """Frames for all of one shift's recordings, drawn in one batch, the
    recordings end to end; none is labelled."""
    n_rec = len(states)
    n = spec.frames_per_recording
    fg = rng.random((n_rec, n)) < spec.foreground_fraction
    prob = _to_grid(np.where(fg, 0.5 + 0.5 * rng.random((n_rec, n)), 0.49 * rng.random((n_rec, n))))
    voiced = rng.random((n_rec, n)) < spec.voiced_fraction
    shift = spec.arousal_effect_size * states[:, None]
    cols = {}
    for name, (_, _, frame_sd) in _FRAME_MODEL.items():
        cols[name] = mu[name] + frame_sd * (shift + rng.normal(size=(n_rec, n)))
    log_pitch = _to_grid(np.where(voiced, cols["log_pitch"], np.nan))
    intensity = _to_grid(cols["intensity"])
    hf_lf = _to_grid(np.maximum(cols["hf_lf_ratio"], 0.0))
    return FrameBlock(log_pitch.ravel(), intensity.ravel(), hf_lf.ravel(), prob.ravel(), np.zeros(n_rec * n, bool))
