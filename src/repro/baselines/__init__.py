"""Baselines and ablations the paper compares against (Sects. 6.1-6.2)."""

from .ablations import (
    VARIANTS,
    CPDVariant,
    fit_no_joint,
    fit_variant,
    variant_config,
)
from .aggregation import (
    AggregationBaseline,
    COLDAgg,
    CRMAgg,
    aggregate_content_profile,
    aggregate_diffusion_profile,
)
from .base import BaselineModel, MethodProfiles
from .cold import COLD
from .crm import CRM
from .pmtlm import PMTLM
from .wtm import WTM

__all__ = [
    "AggregationBaseline",
    "BaselineModel",
    "COLD",
    "COLDAgg",
    "CPDVariant",
    "CRM",
    "CRMAgg",
    "MethodProfiles",
    "PMTLM",
    "VARIANTS",
    "WTM",
    "aggregate_content_profile",
    "aggregate_diffusion_profile",
    "fit_no_joint",
    "fit_variant",
    "variant_config",
]
