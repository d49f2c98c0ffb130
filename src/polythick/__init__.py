"""Discrete thickness of equilateral polygons and its smooth-curve limit."""

from .geom import circumradius, exterior_angle, segment_min_distance, sphere_distance
from .polygon import (
    PolyArc,
    Polygon,
    max_curv,
    max_curv2,
    min_rad,
    random_equilateral_polygon,
    read_polygon,
    regular_ngon,
    total_curvature,
    write_polygon,
)
from .thickness import (
    CriticalPair,
    ThicknessReport,
    arc_total_curvature,
    critical_pairs,
    dcsd,
    delta_n,
    is_simple,
    scsd,
)
from .smooth import (
    ArcLengthCurve,
    arc_length_reparam,
    inscribe_equilateral,
    preset_curve,
    read_curve,
    rescale_unit,
    smooth_thickness_proxy,
    w1inf_distance,
    write_curve,
)
from .schur import (
    SchurCase,
    SphereExclusionReport,
    circle_chord,
    random_bounded_arc,
    schur_check,
    sphere_exclusion_check,
)
from .anneal import (
    AnnealConfig,
    AnnealTrace,
    anneal,
    crankshaft_move,
    is_near_regular,
    move_is_admissible,
)
from .experiments import (
    GammaRow,
    SchurCampaignResult,
    gamma_csv,
    gamma_series,
    ngon_csv,
    ngon_table,
    schur_campaign,
    sphere_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "circumradius", "exterior_angle", "segment_min_distance", "sphere_distance",
    "Polygon", "PolyArc", "regular_ngon",
    "random_equilateral_polygon", "read_polygon", "write_polygon",
    "min_rad", "max_curv", "max_curv2", "total_curvature",
    "CriticalPair", "ThicknessReport", "critical_pairs", "dcsd", "scsd",
    "is_simple", "delta_n", "arc_total_curvature",
    "ArcLengthCurve", "arc_length_reparam", "preset_curve",
    "inscribe_equilateral", "rescale_unit", "smooth_thickness_proxy",
    "w1inf_distance", "read_curve", "write_curve",
    "SchurCase", "SphereExclusionReport", "circle_chord", "schur_check",
    "sphere_exclusion_check", "random_bounded_arc",
    "AnnealConfig", "AnnealTrace", "anneal", "crankshaft_move",
    "move_is_admissible", "is_near_regular",
    "GammaRow", "SchurCampaignResult", "gamma_series", "gamma_csv",
    "ngon_table", "ngon_csv", "schur_campaign", "sphere_campaign",
    "__version__",
]
