"""Monte-Carlo fault-injection campaigns.

Ties the fault model, the parallel executor and the reliability analytics
into one subsystem: a :class:`CampaignSpec` describes a (fault map x
design x load) grid, :func:`run_campaign` drives it through the process
pool with cache-backed crash-safe resume, and the resulting
:class:`~repro.analysis.reliability.ReliabilityReport` answers the
paper's scaled-up question — how gracefully does each architecture
degrade over the *distribution* of fault maps, and which routers are
critical.  See ``docs/reliability.md``.
"""

from ..runner.rundir import MANIFEST_NAME, SCHEMA_VERSION
from .driver import (
    REPORT_NAME,
    CampaignError,
    CampaignResult,
    campaign_progress,
    campaign_report,
    load_manifest,
    run_campaign,
    write_manifest,
)
from .sampler import WEIGHTINGS, FaultMapSampler, resolve_weights
from .spec import MANIFEST_PHASES, CampaignJob, CampaignSpec

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_PHASES",
    "REPORT_NAME",
    "SCHEMA_VERSION",
    "WEIGHTINGS",
    "CampaignError",
    "CampaignJob",
    "CampaignResult",
    "CampaignSpec",
    "FaultMapSampler",
    "campaign_progress",
    "campaign_report",
    "load_manifest",
    "resolve_weights",
    "run_campaign",
    "write_manifest",
]
