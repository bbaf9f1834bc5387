"""Two-stage disaster impact measurement from social-media posts.

Stage one classifies posts for relevance and into eleven impact
categories; stage two turns weekly category counts into smoothed,
intensity-weighted impact indices on a (0, pi) scale, with agreement
statistics, lead-lag validation against external weekly signals, and
state-month spatial aggregation on top.
"""

import types as _types

from .agreement import (
    AgreementTable,
    ConsensusItem,
    KappaDetail,
    agreement_report,
    cohen_kappa,
    consistency,
    fleiss_kappa,
    human_consensus,
    load_annotations_csv,
)
from .annotation import (
    AnnotationError,
    AnnotationReport,
    Backend,
    ClassifierRequest,
    CleanReport,
    ClientPolicy,
    MockBackend,
    RemoteBackend,
    Task,
    annotate_dataset,
    clean_dataset,
    load_prompt,
    parse_judgment,
)
from .chart import chart_csv_to_svg, read_chart_csv, render_chart
from .core import (
    ASST,
    BIAS,
    CATEGORIES,
    CINJ,
    EMOT,
    ENVD,
    EVAC,
    INFR,
    OTHER,
    PHYSICAL_CATEGORIES,
    PUBH,
    RSRC,
    SECO,
    SOCIAL_CATEGORIES,
    DisasterTag,
    Domain,
    ImpactCategory,
    IndexConfig,
    Label,
    Platform,
    Post,
    WeeklySeries,
    category_from_code,
    category_from_short_name,
)
from .errors import (
    AllLagsUndefined,
    BeforeAnchor,
    ConstantInput,
    DegenerateExpected,
    DisimpactError,
    EmptyInput,
    EmptyTable,
    EvenRaterCount,
    InputChanged,
    InvalidCounts,
    LengthMismatch,
    MalformedCsv,
    MalformedInput,
    MalformedResponse,
    MisalignedGrids,
    MisalignedRange,
    NegativeValue,
    OutOfRange,
    TransportError,
    UnknownColumn,
    UnknownPostId,
)
from .impact import (
    ImpactSeries,
    SeriesStats,
    compute_impact_series,
    compute_iqr,
    impact_index,
    intensity_weight,
    smoothed_proportion,
    write_domain_csv,
    write_index_csv,
)
from .ingestion import (
    LoadReport,
    iter_posts,
    join_labels,
    load_ground_truth,
    load_labels,
    post_line,
    scrub_handles,
    write_labels_csv,
)
from .reference import ReferenceRow, counts_by_category, load_reference_distribution
from .spatial import (
    Gazetteer,
    GazetteerEntry,
    Located,
    LocationSource,
    SourceFilter,
    SpatialReport,
    StateMonthIndex,
    aggregate_state_month,
    load_gazetteer,
    locate_posts,
    resolve_location,
    write_spatial_csv,
)
from .validation import (
    LagCorrelationProfile,
    interpret_profile,
    lead_lag_profile,
    read_domain_csv,
    spearman_rho,
    write_leadlag_csv,
)
from .windowing import (
    build_count_series,
    monday_on_or_before,
    read_counts_csv,
    write_counts_csv,
)

__version__ = "0.1.0"

# Every public name imported above, and the version: listed once, here.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
