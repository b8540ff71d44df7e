"""Exact q-expansion arithmetic and structure verification for graded rings of modular forms."""

from .catalog import Catalog, load_catalog
from .cyclo import CycloNum, FieldCtx, cyclo_context, root_of_unity
from .qseries import QSeries
from .verify import VerificationReport, full_report

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "CycloNum",
    "FieldCtx",
    "QSeries",
    "VerificationReport",
    "cyclo_context",
    "full_report",
    "load_catalog",
    "root_of_unity",
]
