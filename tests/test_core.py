"""Taxonomy invariants: the 11-category bijection and domain partition."""

import types

import pytest

import disimpact
from disimpact.core import (
    CATEGORIES,
    OTHER,
    PHYSICAL_CATEGORIES,
    SOCIAL_CATEGORIES,
    Domain,
    ImpactCategory,
    IndexConfig,
    Platform,
    category_from_code,
    category_from_short_name,
)
from disimpact.errors import OutOfRange


def test_exactly_eleven_categories():
    assert len(CATEGORIES) == 11
    assert [c.code for c in CATEGORIES] == list(range(1, 12))


def test_code_partition():
    assert [c.domain for c in CATEGORIES[:5]] == [Domain.PHYSICAL] * 5
    assert [c.domain for c in CATEGORIES[5:10]] == [Domain.SOCIAL] * 5
    assert CATEGORIES[10].domain is Domain.NONE
    assert set(PHYSICAL_CATEGORIES) | set(SOCIAL_CATEGORIES) | {OTHER} == set(
        CATEGORIES
    )
    assert not set(PHYSICAL_CATEGORIES) & set(SOCIAL_CATEGORIES)


def test_short_names_fixed():
    assert [c.short_name for c in CATEGORIES] == [
        "CINJ", "EVAC", "INFR", "ENVD", "RSRC",
        "PUBH", "EMOT", "BIAS", "ASST", "SECO", "OTHER",
    ]


def test_category_from_code_examples():
    infr = category_from_code(3)
    assert infr.short_name == "INFR"
    assert infr.domain is Domain.PHYSICAL
    other = category_from_code(11)
    assert other.short_name == "OTHER"
    assert other.domain is Domain.NONE
    with pytest.raises(OutOfRange):
        category_from_code(12)
    with pytest.raises(OutOfRange):
        category_from_code(0)
    with pytest.raises(OutOfRange):
        category_from_code(True)


def test_round_trip_all_codes():
    for cat in CATEGORIES:
        assert category_from_code(cat.code) is cat
        assert category_from_short_name(cat.short_name) is cat
        assert category_from_short_name(cat.short_name.lower()) is cat


def test_domain_of_examples():
    assert category_from_short_name("ENVD").domain is Domain.PHYSICAL
    assert category_from_short_name("ASST").domain is Domain.SOCIAL
    assert OTHER.domain is Domain.NONE


def test_platform_parse_open_enum():
    assert Platform.parse("Reddit") is Platform.REDDIT
    assert Platform.parse("TIKTOK") is Platform.TIKTOK
    assert Platform.parse("mastodon") is Platform.OTHER


def test_index_config_validation():
    config = IndexConfig()
    assert config.alpha == 0.5
    assert config.window_anchor is None
    assert config.quantile_method == "linear"
    assert config.composite_operator == "sum"
    for alpha in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            IndexConfig(alpha=alpha)
    with pytest.raises(OutOfRange, match="composite_operator must be one of"):
        IndexConfig(composite_operator="median")
    with pytest.raises(OutOfRange, match="quantile_method must be one of"):
        IndexConfig(quantile_method="bogus")


def test_categories_immutable():
    with pytest.raises(Exception):
        CATEGORIES[0].code = 99  # type: ignore[misc]
    assert isinstance(CATEGORIES[0], ImpactCategory)


def test_all_lists_exactly_the_public_names():
    for name in disimpact.__all__:
        assert hasattr(disimpact, name), name
    public = {
        name
        for name, value in vars(disimpact).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(disimpact.__all__) - {"__version__"}
