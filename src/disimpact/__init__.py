"""Two-stage disaster impact measurement from social-media posts.

Stage one classifies posts for relevance and into eleven impact
categories; stage two turns weekly category counts into smoothed,
intensity-weighted impact indices on a (0, pi) scale, with agreement
statistics, lead-lag validation against external weekly signals, and
state-month spatial aggregation on top.
"""

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
    classify_impact,
    classify_relevance,
    clean_dataset,
    load_prompt,
    parse_judgment,
)
from .chart import ChartData, chart_csv_to_svg, read_chart_csv, render_chart
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
    AnnotatedPost,
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
    domain_of,
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
    IndexPoint,
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
    Dataset,
    LoadReport,
    LoadResult,
    PostFields,
    iter_posts,
    join_labels,
    load_ground_truth,
    load_labels,
    load_posts,
    scrub_handles,
    write_labels_csv,
    write_posts_jsonl,
)
from .reference import (
    ReferenceRow,
    counts_by_category,
    load_reference_distribution,
)
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
    domain_weekly_series,
    interpret_profile,
    lead_lag_profile,
    read_domain_csv,
    spearman_rho,
    write_leadlag_csv,
)
from .windowing import (
    CountSeries,
    WindowCounts,
    WindowingReport,
    build_count_series,
    monday_on_or_before,
    read_counts_csv,
    write_counts_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core vocabulary
    "Domain", "Platform", "DisasterTag", "ImpactCategory",
    "CINJ", "EVAC", "INFR", "ENVD", "RSRC",
    "PUBH", "EMOT", "BIAS", "ASST", "SECO", "OTHER",
    "CATEGORIES", "PHYSICAL_CATEGORIES", "SOCIAL_CATEGORIES",
    "category_from_code", "category_from_short_name", "domain_of",
    "Post", "AnnotatedPost", "Label", "IndexConfig", "WeeklySeries",
    # ingestion
    "Dataset", "LoadReport", "LoadResult", "load_posts", "write_posts_jsonl",
    "PostFields", "iter_posts", "scrub_handles", "load_ground_truth",
    "load_labels", "join_labels", "write_labels_csv",
    # annotation
    "Task", "ClassifierRequest", "ClientPolicy",
    "Backend", "MockBackend", "RemoteBackend", "load_prompt", "parse_judgment",
    "classify_relevance", "classify_impact",
    "AnnotationError", "AnnotationReport", "annotate_dataset",
    "CleanReport", "clean_dataset",
    # windowing
    "monday_on_or_before", "WindowCounts", "CountSeries", "WindowingReport",
    "build_count_series", "write_counts_csv", "read_counts_csv",
    # impact index
    "smoothed_proportion", "compute_iqr", "SeriesStats", "intensity_weight",
    "impact_index", "IndexPoint", "ImpactSeries", "compute_impact_series",
    "write_index_csv", "write_domain_csv",
    # agreement
    "AgreementTable", "consistency", "KappaDetail", "fleiss_kappa",
    "cohen_kappa", "ConsensusItem", "human_consensus",
    "load_annotations_csv", "agreement_report",
    # validation
    "domain_weekly_series", "read_domain_csv", "spearman_rho",
    "LagCorrelationProfile", "lead_lag_profile", "interpret_profile",
    "write_leadlag_csv",
    # spatial
    "GazetteerEntry", "Gazetteer", "load_gazetteer", "LocationSource",
    "SourceFilter", "resolve_location", "Located", "locate_posts",
    "StateMonthIndex", "SpatialReport", "aggregate_state_month",
    "write_spatial_csv",
    # chart
    "ChartData", "read_chart_csv", "render_chart", "chart_csv_to_svg",
    # bundled reference distributions
    "ReferenceRow", "load_reference_distribution", "counts_by_category",
    # errors
    "DisimpactError", "OutOfRange", "MalformedInput", "MalformedCsv",
    "NegativeValue", "UnknownPostId", "TransportError",
    "MalformedResponse", "BeforeAnchor", "MisalignedRange", "InvalidCounts",
    "EmptyInput", "EmptyTable", "DegenerateExpected", "LengthMismatch",
    "EvenRaterCount", "ConstantInput", "MisalignedGrids", "AllLagsUndefined",
    "UnknownColumn",
]
