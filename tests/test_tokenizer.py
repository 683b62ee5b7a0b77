"""Unit tests for the shared tokenizer/normalizer."""
from __future__ import annotations

import pytest

from repro.embed_model.tokenizer import (
    char_ngrams,
    normalize,
    numeric_bin,
    tokenize,
    tokenize_column,
)


@pytest.mark.parametrize(
    "value,expected",
    [
        ("Acme Corp", ["acme", "corp"]),
        ("ACME CORP", ["acme", "corp"]),
        ("acme-corp", ["acme", "corp"]),
        ("acme_corp", ["acme", "corp"]),
        ("ref/acme/corp", ["ref", "acme", "corp"]),
        ("  spaced   out ", ["spaced", "out"]),
        ("", []),
        (None, []),
        ("Acme#123", ["acme", "<num:2>"]),
        ("A.B.C", ["a", "b", "c"]),
        ("ümlaut", ["mlaut"]),  # non-ascii folded to separators
    ],
)
def test_tokenize_strings(value, expected):
    assert tokenize(value) == expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (42, ["<num:1>"]),
        (0, ["<num:0>"]),
        (0.5, ["<num:-1>"]),
        (1234.5, ["<num:3>"]),
        (-17, ["<num:1>"]),
        ("3.14", ["<num:0>"]),
        ("1000000", ["<num:6>"]),
    ],
)
def test_tokenize_numbers(value, expected):
    assert tokenize(value) == expected


@pytest.mark.parametrize(
    "tok,expected",
    [
        ("42", "<num:1>"),
        ("0", "<num:0>"),
        ("0.05", "<num:-2>"),
        ("999", "<num:2>"),
        ("1000", "<num:3>"),
        ("abc", None),
        ("12ab", None),
        ("", None),
    ],
)
def test_numeric_bin(tok, expected):
    assert numeric_bin(tok) == expected


@pytest.mark.parametrize(
    "a,b",
    [
        ("Acme Corp", "ACME-CORP"),
        ("Acme Corp", "acme_corp"),
        ("one two three", "One  Two  THREE"),
    ],
)
def test_normalize_format_invariance(a, b):
    assert normalize(a) == normalize(b)


def test_normalize_prefixed_format_is_suffix():
    """The 'prefixed' rendering adds a prefix token but keeps the
    entity's normalized form as a suffix."""
    assert normalize("ref/acme/corp").endswith(normalize("Acme Corp"))


@pytest.mark.parametrize(
    "a,b",
    [
        ("Acme Corp", "Acme Inc"),
        ("alpha", "beta"),
        ("x 1", "x 100"),  # different magnitude bins
    ],
)
def test_normalize_distinguishes(a, b):
    assert normalize(a) != normalize(b)


def test_tokenize_column_flattens_in_order():
    assert tokenize_column(["a b", None, "c"]) == ["a", "b", "c"]


def test_tokenize_column_empty():
    assert tokenize_column([]) == []


def test_nan_string_dropped():
    assert tokenize("nan") == []
    assert tokenize("None") == []


@pytest.mark.parametrize(
    "tok,n,expected",
    [
        ("ab", 3, ["^ab", "ab$"]),
        ("abc", 3, ["^ab", "abc", "bc$"]),
        ("a", 3, ["^a$"]),
    ],
)
def test_char_ngrams(tok, n, expected):
    assert char_ngrams(tok, n) == expected


def test_char_ngrams_cover_token():
    grams = char_ngrams("warpgate")
    assert grams[0].startswith("^")
    assert grams[-1].endswith("$")
    assert all(len(g) == 3 for g in grams)


def test_normalize_idempotent_on_word_values():
    v = "Acme Corp Holdings"
    assert normalize(normalize(v)) == normalize(v)


# (Python value, Spark's ``cast(double as string)`` of it,
# the token both must yield). The build path embeds Spark's string, the
# query path Python's ``str`` of the collected value.
ODD_NUMERICS = [
    (1e5, "100000.0", ["<num:5>"]),
    (-0.0, "-0.0", ["<num:0>"]),
    (1e20, "1.0E20", ["<num:20>"]),
    (1e-4, "1.0E-4", ["<num:-4>"]),
    (1.5e7, "1.5E7", ["<num:7>"]),
    (float("inf"), "Infinity", ["<num:inf>"]),
    (float("-inf"), "-Infinity", ["<num:inf>"]),
    (float("nan"), "NaN", []),
]


@pytest.mark.parametrize(
    "value,spark_str,expected", ODD_NUMERICS, ids=[s for _, s, _ in ODD_NUMERICS]
)
def test_odd_numerics_tokenize_alike_on_build_and_query_path(
    value, spark_str, expected
):
    assert tokenize(value) == tokenize(str(value)) == expected
    assert tokenize(spark_str) == expected


def test_spark_cast_strings_of_odd_numerics(spark):
    values = [v for v, _, _ in ODD_NUMERICS]
    df = spark.createDataFrame([(v,) for v in values], "x double")
    got = [r[0] for r in df.selectExpr("cast(x as string)").collect()]
    assert got == [s for _, s, _ in ODD_NUMERICS]


@pytest.mark.parametrize(
    "value,expected",
    [
        ("1234e567", ["1234e567"]),  # hex-like id: no '.', unsigned exponent
        ("1e5", ["1e5"]),
        ("1e+20", ["<num:20>"]),
        ("1.e5", ["<num:5>"]),
        ("INF", ["<num:inf>"]),
        ("infinity", ["<num:inf>"]),
        ("NAN", []),
        ("foo inf", ["foo", "inf"]),  # only a whole value folds
        ("1" * 400, ["<num:inf>"]),  # beyond float range
    ],
)
def test_exponent_and_nonfinite_forms(value, expected):
    assert tokenize(value) == expected
