"""PowerAPI core: the paper's contribution.

Model learning (Figure 1): :class:`SamplingCampaign`,
:func:`learn_power_model`, :func:`calibrate_idle_power`,
:mod:`~repro.core.regression`, :mod:`~repro.core.selection`.

Runtime estimation (Figure 2): :class:`PowerAPI` facade wiring Sensor →
Formula → Aggregator → Reporter actors over the event bus.
"""

from repro.core.aggregators import (FlushAggregates, PidAggregator,
                                    PidEnergyReport, TimestampAggregator)
from repro.core.calibration import calibrate_idle_power
from repro.core.cgroup_monitor import (CgroupAggregator, CgroupPowerReport,
                                       InMemoryCgroupReporter)
from repro.core.codelevel import (EnergyBudget, EnergyBudgetExceeded,
                                  EnergyMeasurement, RegionProfiler,
                                  assert_energy_within, measure_energy)
from repro.core.components import (BuildContext, Component,
                                   ComponentRegistry, Param,
                                   default_registry)
from repro.core.formula import CpuLoadFormula, HpcFormula
from repro.core.messages import (AggregatedPowerReport, HpcReport,
                                 PowerMeterReport, PowerReport, ProcFsReport,
                                 SensorReport)
from repro.core.metrics import (absolute_percentage_errors, error_summary,
                                max_ape, mean_ape, median_ape, r_squared,
                                rmse)
from repro.core.model import (FrequencyFormula, PowerModel,
                              published_i3_2120_model)
from repro.core.monitor import MonitorBuilder, MonitorHandle, PowerAPI
from repro.core.pipeline import (BuiltPipeline, DegradationSpec,
                                 PipelineBuilder, PipelineSpec, StageSpec,
                                 TelemetrySpec)
from repro.core.stage import PipelineStage
from repro.core.offline import (CounterLogWriter, estimate_from_csv,
                                estimate_from_log)
from repro.core.registry import ModelRegistry, machine_signature
from repro.core.regression import (METHODS, RegressionResult, fit, fit_nnls,
                                   fit_ols, fit_ridge)
from repro.core.reporters import (CallbackReporter, ConsoleReporter,
                                  CsvReporter, InMemoryReporter,
                                  JsonlReporter, PrometheusReporter)
from repro.core.sampling import (LearningReport, SamplePoint,
                                 SamplingCampaign, SamplingDataset,
                                 learn_power_model)
from repro.core.parallel import (chunk_tasks, default_worker_count,
                                 pool_available, resolve_workers, run_tasks)
from repro.core.selection import CounterRanking, rank_counters, select_counters
from repro.core.validation import (CrossValidationReport, FoldResult,
                                   cross_validate)
from repro.core.sensors import (HpcSensor, MachineHpcSensor,
                                PowerMeterSensor, ProcFsSensor)

__all__ = [
    "AggregatedPowerReport", "BuildContext", "BuiltPipeline",
    "CallbackReporter", "CgroupAggregator", "CgroupPowerReport", "Component",
    "ComponentRegistry", "ConsoleReporter", "CounterLogWriter",
    "CounterRanking", "CpuLoadFormula", "CrossValidationReport",
    "CsvReporter", "DegradationSpec", "EnergyBudget", "EnergyBudgetExceeded",
    "EnergyMeasurement", "FlushAggregates", "FoldResult", "FrequencyFormula",
    "HpcFormula", "HpcReport", "HpcSensor", "InMemoryCgroupReporter",
    "InMemoryReporter", "JsonlReporter", "LearningReport", "METHODS",
    "MachineHpcSensor", "ModelRegistry", "MonitorBuilder", "MonitorHandle",
    "Param", "PidAggregator", "PidEnergyReport", "PipelineBuilder",
    "PipelineSpec", "PipelineStage", "PowerAPI", "PowerMeterReport",
    "PowerMeterSensor", "PowerModel", "PowerReport", "ProcFsReport",
    "ProcFsSensor", "PrometheusReporter", "RegionProfiler",
    "RegressionResult", "SamplePoint", "SamplingCampaign", "SamplingDataset",
    "SensorReport", "StageSpec", "TelemetrySpec", "TimestampAggregator",
    "absolute_percentage_errors", "assert_energy_within",
    "calibrate_idle_power", "chunk_tasks", "cross_validate",
    "default_registry", "default_worker_count", "error_summary",
    "estimate_from_csv", "estimate_from_log", "fit", "fit_nnls", "fit_ols",
    "fit_ridge", "learn_power_model", "machine_signature", "max_ape",
    "mean_ape", "measure_energy", "median_ape", "pool_available",
    "published_i3_2120_model", "r_squared", "rank_counters",
    "resolve_workers", "rmse", "run_tasks", "select_counters",
]
