"""The NVIDIA XID error taxonomy as observed on Summit in 2020 (Table 4).

Each :class:`XidType` carries the paper's annual count, whether the type is
associated with user applications (Table 4's double ruler), how concentrated
the type was on its worst node (``max_node_share``), the defect-pool group
that generates Figure 13's co-occurrence structure, the skew-normal
parameters of its thermal extremity (Figure 15), and relative GPU-slot
propensities (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class XidType:
    """One failure type and its generative parameters."""

    code: int
    name: str
    annual_count: int
    user_associated: bool
    #: fraction of this type's failures produced by chip-defect nodes
    defect_share: float
    #: number of defect nodes carrying that share
    defect_nodes: int
    #: share of the *whole type* on the single worst node (Table 4 col. 3)
    max_node_share: float
    #: defect-pool group: types sharing a group draw defect nodes from the
    #: same pool, producing the node-level Pearson co-occurrence of Fig. 13
    defect_group: str | None
    #: skew-normal shape for the temperature z-score at failure (positive =
    #: right-skewed = failures on not-yet-warm GPUs; 0 = symmetric)
    z_skew: float
    #: location/scale of the z-score draw
    z_loc: float = 0.0
    z_scale: float = 1.0
    #: hard cap on the absolute core temperature at failure (degC); NaN = none
    temp_cap_c: float = float("nan")
    #: relative propensity per GPU slot 0..5 (on top of slot exposure)
    slot_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


#: Table 4, ordered as in the paper.  Annual counts sum to 251,859.
XID_TYPES: tuple[XidType, ...] = (
    XidType(13, "Memory page fault", 186_496, True, 0.02, 5, 0.006, None,
            0.0, slot_weights=(1.15, 1.0, 0.95, 0.9, 0.9, 0.85)),
    XidType(31, "Graphics engine exception", 32_339, True, 0.03, 4, 0.008, None,
            0.0, slot_weights=(1.15, 1.0, 0.95, 0.9, 0.9, 0.85)),
    XidType(43, "Stopped processing", 22_649, True, 0.02, 4, 0.005, None,
            0.0, slot_weights=(1.1, 1.0, 1.0, 0.9, 0.9, 0.9)),
    XidType(74, "NVLINK error", 8_736, True, 0.975, 3, 0.969, "nvlink",
            0.8, z_loc=-0.3),
    XidType(63, "Page retirement event", 851, False, 0.40, 6, 0.043, "retire",
            0.6, z_loc=-0.2,
            slot_weights=(2.2, 1.0, 0.8, 0.6, 1.9, 0.5)),
    XidType(64, "Page retirement failure", 210, False, 0.70, 3, 0.424, "retire",
            1.2, z_loc=-0.4),
    XidType(48, "Double-bit error", 179, False, 0.45, 4, 0.184, "retire",
            1.5, z_loc=-0.6, temp_cap_c=46.1,
            slot_weights=(1.3, 0.8, 0.7, 0.7, 2.4, 0.6)),
    XidType(45, "Preemptive cleanup", 162, False, 0.45, 4, 0.201, "retire",
            0.4, z_loc=-0.2),
    XidType(62, "Internal microcontroller warning", 74, False, 0.75, 2, 0.446,
            "driver", 1.1, z_loc=-0.4,
            slot_weights=(2.0, 1.1, 0.9, 0.7, 0.8, 0.6)),
    XidType(69, "Graphics engine fault", 44, False, 0.30, 3, 0.114, None,
            -0.5, z_loc=0.3),
    XidType(79, "Fallen off the bus", 31, False, 0.40, 3, 0.258, None,
            1.3, z_loc=-0.5,
            slot_weights=(0.8, 0.8, 0.9, 1.4, 1.5, 1.4)),
    XidType(61, "Internal microcontroller halt", 29, False, 0.45, 2, 0.138,
            "driver", 0.3),
    XidType(32, "Driver firmware error", 26, False, 0.25, 2, 0.077, None, 0.0),
    XidType(68, "Driver error handling exception", 21, False, 1.00, 1, 1.000,
            "driver", 0.5),
    XidType(25, "Corrupted push buffer stream", 11, False, 0.90, 1, 0.818,
            None, 0.0),
    XidType(38, "Graphics engine class error", 1, False, 1.00, 1, 1.000,
            None, 0.0),
)

#: total failures in 2020 (Section 6.1)
TOTAL_ANNUAL_FAILURES = sum(t.annual_count for t in XID_TYPES)

