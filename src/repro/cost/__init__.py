"""Implementation cost models of Sections 4-5: process technology, SRAM
blocks, crossbar ICN, pad counting, chip floorplans, the pixstats-style
load-latency sensitivity model, and the cost/performance combination."""

from .._lazy import lazy_exports

__all__ = [
    "ComparisonCell", "ComparisonTable", "MissingSurfacePointError",
    "NORMALIZATION_CONFIG", "compare_configurations",
    "cost_performance_gain", "mcm_table", "single_chip_table",
    "surface_from_results",
    "CLUSTER_IMPLEMENTATIONS", "ClusterImplementation",
    "candidate_cluster_area_mm2", "implementation_for",
    "DEFAULT_PITCH_UM", "WIRES_PER_PORT", "crossbar_area_mm2",
    "PAPER_LATENCY_MODELS", "PAPER_TABLE5", "LoadLatencyModel",
    "latency_factor",
    "LINES_PER_PROCESSOR", "PackagingChoice", "choose_packaging",
    "perimeter_pad_capacity", "signal_pads",
    "DATA_CACHE_BLOCK", "SCC_BANK_BLOCK", "SramBlock", "access_time_fo4",
    "cache_area_mm2", "max_direct_mapped_bytes",
    "ALPHA_21064", "BANK_ARBITRATION_FO4", "CYCLE_TIME_FO4",
    "PAPER_PROCESS", "ProcessNode", "ScaledProcessor",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".costperf": ("ComparisonCell", "ComparisonTable",
                  "MissingSurfacePointError", "NORMALIZATION_CONFIG",
                  "compare_configurations", "cost_performance_gain",
                  "mcm_table", "single_chip_table", "surface_from_results"),
    ".floorplan": ("CLUSTER_IMPLEMENTATIONS", "ClusterImplementation",
                   "candidate_cluster_area_mm2", "implementation_for"),
    ".icn": ("DEFAULT_PITCH_UM", "WIRES_PER_PORT", "crossbar_area_mm2"),
    ".latency": ("PAPER_LATENCY_MODELS", "PAPER_TABLE5", "LoadLatencyModel",
                 "latency_factor"),
    ".pins": ("LINES_PER_PROCESSOR", "PackagingChoice", "choose_packaging",
              "perimeter_pad_capacity", "signal_pads"),
    ".sram": ("DATA_CACHE_BLOCK", "SCC_BANK_BLOCK", "SramBlock",
              "access_time_fo4", "cache_area_mm2", "max_direct_mapped_bytes"),
    ".technology": ("ALPHA_21064", "BANK_ARBITRATION_FO4", "CYCLE_TIME_FO4",
                    "PAPER_PROCESS", "ProcessNode", "ScaledProcessor"),
})
