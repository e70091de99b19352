"""One contract for every reader of outside input: ``load_partition_json``,
``load_design_csv``, ``read_data_csv``, ``load_study_json``,
``TestOptions.validate`` and ``ScenarioConfig.validate``.

Each property writes a valid input, puts a drawn value in one place
(fractional, negative, boolean, NaN or infinite, huge, empty, of the
wrong kind, a choice in another case, a key given twice, an unknown key,
a d that does not match),
and reads it back.  The input must either be read exactly as written, or
be refused with a ValueError that names the file or the field.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstruct.cli import load_study_json, read_data_csv
from kstruct.indexing import load_design_csv, load_partition_json
from kstruct.simulation import ScenarioConfig
from kstruct.testing import TestOptions

# a value for one field: every kind of number JSON and the API can give,
# and a few values that are not numbers at all
VALUES = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([10**12, 10**30, -(10**30), 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 4.0, 200.0, -2.5, 1e300, 5e-324]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "4", "x", [], [2, 2], {}]),
)


def _real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the value a field stores for a drawn value, None where its rule refuses it
WHOLE = {int: lambda v: int(v) if _real(v) and math.isfinite(v) and v == int(v) else None,
         float: lambda v: float(v) if _real(v) and math.isfinite(v) else None,
         bool: lambda v: v if isinstance(v, bool) else None}


def _names(field, message):
    """Whether ``message`` names ``field`` as a word of its own."""
    return re.search(r"(^|[^a-z_])%s([^a-z_]|$)" % field, message) is not None


@pytest.fixture(scope="module")
def folder():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


# ---------------------------------------------------------------------------
# options and scenarios built through the API


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("replicates", int), ("seed", int), ("tie_seed", int),
                        ("plus_one", bool)]), VALUES)
def test_options_read_a_field_exactly_or_refuse_it_by_name(field, value):
    name, kind = field
    opts = TestOptions(**{"statistic": "max", "seed": 1, name: value})
    try:
        opts.validate()
    except ValueError as exc:
        assert _names(name, str(exc)), str(exc)
        return
    got = getattr(opts, name)
    assert type(got) is kind and got == WHOLE[kind](value)


# the values each choice field declares, the default first
OPTION_CHOICES = {"statistic": ("euclidean", "max"), "weighting": ("sigma", "identity"),
                  "estimator": ("structured", "jackknife"), "ties": ("error", "jitter"),
                  "null_draws": ("auto", "gaussian", "bootstrap")}
SCENARIO_CHOICES = {"structure": ("equicorrelated", "block", "custom"),
                    "departure": ("single", "column")}


def _choice_values(choices, others=VALUES):
    """A value for a choice field: one it declares, one in another case
    or with a space, or one of ``others``."""
    declared = st.sampled_from(choices)
    return st.one_of(declared, declared.map(str.upper), declared.map(str.title),
                     declared.map(" {}".format), others)


def _chosen(name, value, choices):
    """Whether a choice field takes ``value``: one of its strings, or
    None for the one whose default is None."""
    return isinstance(value, str) and value in choices or value is None and name == "departure"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(OPTION_CHOICES)), st.data())
def test_options_read_a_choice_exactly_or_refuse_it_by_name(name, data):
    # max/identity takes every null_draws, so each declared value runs
    value = data.draw(_choice_values(OPTION_CHOICES[name]))
    opts = TestOptions(**{"statistic": "max", "weighting": "identity", "seed": 1, name: value})
    try:
        opts.validate()
    except ValueError as exc:
        assert _names(name, str(exc)), str(exc)
        assert not _chosen(name, value, OPTION_CHOICES[name]), str(exc)
        return
    assert _chosen(name, value, OPTION_CHOICES[name])
    assert type(getattr(opts, name)) is str and getattr(opts, name) == value


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCENARIO_CHOICES)), st.data())
def test_scenarios_read_a_choice_exactly_or_refuse_it_by_name(name, data):
    # each structure gets what it needs, and only that, since a field
    # that a structure does not read is refused
    value = data.draw(_choice_values(SCENARIO_CHOICES[name]))
    structure = value if name == "structure" and isinstance(value, str) else "equicorrelated"
    needs = {"equicorrelated": {"tau": 0.2}, "block": {"sizes": (2, 2)},
             "custom": {"matrix": np.full((4, 4), 0.2)}}.get(structure, {})
    scenario = ScenarioConfig(**{"n": 20, "d": 4, "repetitions": 2,
                                 "tests": (TestOptions(),), **needs, name: value})
    try:
        scenario.validate()
    except ValueError as exc:
        assert _names(name, str(exc)), str(exc)
        assert not _chosen(name, value, SCENARIO_CHOICES[name]), str(exc)
        return
    assert _chosen(name, value, SCENARIO_CHOICES[name])
    assert getattr(scenario, name) == value


# d builds a d x d matrix, so a drawn d stays small
SMALL_D = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 4.0, 4.5, True, None, "4", math.nan, math.inf])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("n", int), ("d", int), ("tau", float), ("alpha", float),
                        ("repetitions", int), ("sizes", tuple)]), VALUES, SMALL_D)
def test_scenarios_read_a_field_exactly_or_refuse_it_by_name(field, value, d):
    name, kind = field
    base = {"n": 20, "d": 4, "tau": 0.2, "repetitions": 2, "tests": (TestOptions(),)}
    if name == "sizes":  # a block structure, which does not read tau
        del base["tau"]
        base.update(structure="block", sizes=value)
    else:
        base[name] = d if name == "d" else value
    scenario = ScenarioConfig(**base)
    try:
        scenario.validate()
    except ValueError as exc:
        assert _names(name, str(exc)), str(exc)
        return
    got = getattr(scenario, name)
    drawn = base[name]
    if kind is tuple:
        assert type(got) is tuple and all(type(v) is int for v in got)
        assert list(got) == [WHOLE[int](v) for v in drawn]
    else:
        assert type(got) is kind and got == WHOLE[kind](drawn)


# ---------------------------------------------------------------------------
# files: a valid file is read exactly, any other refused by its name


def _cell(value):
    return repr(value) if isinstance(value, float) else str(value)


def _numbers(cells, lines):
    """The rows of ``cells`` with each number a float and any other cell
    as it is, the rows written as blank lines left out, as every CSV
    reader skips them."""
    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return cell
    return [[number(c) for c in row] for row, line in zip(cells, lines) if line.strip()]


def _finite_table(rows):
    """Whether ``rows`` is a non-empty table of finite floats."""
    return (bool(rows) and len({len(r) for r in rows}) == 1
            and all(isinstance(c, float) and math.isfinite(c) for r in rows for c in r))


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),
    st.integers(-(10**20), 10**20),
    st.sampled_from(["x", "", "1e400", "NaN", " 2.5 "]),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(1, 4), data=st.data(),
       header=st.sampled_from([None, "a,b", "level", "1,2"]),
       blank=st.sampled_from(["", "\n", "  \n", "# note\n"]), ragged=st.booleans())
def test_data_csv_reads_its_numbers_exactly_or_refuses_the_file(folder, rows, cols, data,
                                                                 header, blank, ragged):
    cells = [[data.draw(CELLS) for _ in range(cols)] for _ in range(rows)]
    if ragged and rows > 1:
        cells[-1].append(1.0)
    if header is not None:
        cells.insert(0, header.split(","))
    lines = [",".join(map(_cell, row)) for row in cells]
    path = folder / "data.csv"
    path.write_text(blank + "".join(line + "\n" + blank for line in lines))
    numbers = _numbers(cells, lines)
    if numbers and any(isinstance(c, str) for c in numbers[0]):  # a header
        del numbers[0]
    try:
        X = read_data_csv(str(path))
    except ValueError as exc:
        assert str(path) in str(exc) and not _finite_table(numbers), str(exc)
        return
    assert _finite_table(numbers) and np.array_equal(X, np.array(numbers))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([1, 3, 6, 10, 5]), L=st.integers(1, 7), data=st.data(),
       header=st.booleans(), blank=st.sampled_from(["", "\n", "# note\n"]))
def test_design_csv_reads_its_matrix_exactly_or_refuses_it(folder, p, L, data, header,
                                                           blank):
    cells = [[data.draw(CELLS) for _ in range(L)] for _ in range(p)]
    if header:
        cells.insert(0, ["b1", "b2"])
    lines = [",".join(map(_cell, row)) for row in cells]
    path = folder / "design.csv"
    path.write_text(blank + "\n".join(lines) + "\n")
    numbers = _numbers(cells, lines)
    # a general design needs a pair count of rows and fewer columns
    valid = (_finite_table(numbers) and len(numbers) in (1, 3, 6, 10)
             and len(numbers[0]) < len(numbers))
    try:
        design = load_design_csv(path)
    except ValueError as exc:
        assert str(path) in str(exc) or _names("design", str(exc)), str(exc)
        assert not valid
        return
    assert valid and design.kind == "general"
    assert np.array_equal(design.matrix, np.array(numbers))


# a partition JSON of d = 5 in two groups, one value drawn, then one edit
PARTITION_EDITS = st.sampled_from([None, None, "empty", "twice", "unknown", "nan", "missing"])


@settings(max_examples=200, deadline=None)
@given(d=st.one_of(VALUES, st.sampled_from([5, 5.0, 10**12])), cut=st.integers(1, 4),
       member=st.one_of(st.just("as drawn"), VALUES), edit=PARTITION_EDITS)
def test_partition_json_reads_its_partition_exactly_or_refuses_it(folder, d, cut, member,
                                                                  edit):
    groups = [list(range(1, cut + 1)), list(range(cut + 1, 6))]
    if member != "as drawn":
        groups[1][-1] = member
    text = json.dumps({"d": d, "groups": groups})
    if edit == "empty":
        text = ""
    elif edit == "twice":
        text = text[:-1] + ', "d": 5}'
    elif edit == "unknown":
        text = text[:-1] + ', "group": [[1]]}'
    elif edit == "nan":
        text = text.replace('"d": ', '"d": NaN, "dd": ', 1)
    elif edit == "missing":
        text = json.dumps({"groups": groups})
    path = folder / "part.json"
    path.write_text(text)
    members = [WHOLE[int](v) for g in groups for v in g]
    valid = (edit is None and WHOLE[int](d) == 5 and None not in members
             and sorted(members) == [1, 2, 3, 4, 5])
    try:
        part = load_partition_json(path)
    except ValueError as exc:
        assert str(path) in str(exc) or _names("partition", str(exc)), str(exc)
        assert not valid
        return
    assert valid and part.d == 5 and type(part.d) is int
    assert part.groups == tuple(tuple(sorted(WHOLE[int](v) for v in g)) for g in groups)


# one field of a study config, at the top, scenario or test level
STUDY_FIELDS = st.sampled_from([
    ("scenario", "n", int), ("scenario", "d", int), ("scenario", "tau", float),
    ("scenario", "alpha", float), ("scenario", "repetitions", int), ("scenario", "sizes", tuple),
    ("scenario", "tests", tuple), ("test", "replicates", int), ("test", "tie_seed", int),
    ("test", "plus_one", bool), ("top", "seed", int),
])
STUDY_EDITS = st.sampled_from([None, None, None, "empty", "twice", "unknown", "list"])


def _fits(name, kind, value):
    """Whether a config value is one its field takes as it is."""
    if value is None:
        return name in ("seed", "sizes")
    if kind is tuple:
        entries = {"sizes": lambda v: WHOLE[int](v) is not None,
                   "tests": lambda v: isinstance(v, dict)}[name]
        return isinstance(value, list) and all(map(entries, value))
    return WHOLE[kind](value) is not None


@settings(max_examples=200, deadline=None)
@given(field=STUDY_FIELDS, value=VALUES, edit=STUDY_EDITS)
def test_study_json_reads_a_field_exactly_or_refuses_it_by_file(folder, field, value, edit):
    where, name, kind = field
    test = {"statistic": "max", "replicates": 200}
    scenario = {"n": 30, "d": 4, "tau": 0.3, "repetitions": 3, "tests": [test]}
    cfg = {"seed": 9, "scenarios": [scenario]}
    {"top": cfg, "scenario": scenario, "test": test}[where][name] = value
    text = json.dumps(cfg)
    if edit == "empty":
        text = ""
    elif edit == "twice":
        text = text[:-1] + ', "seed": 10}'
    elif edit == "unknown":
        text = text[:-1] + ', "seeds": [9]}'
    elif edit == "list":  # the scenarios alone, without the seed
        text = json.dumps(cfg["scenarios"])
    path = folder / "study.json"
    path.write_text(text)
    read = where == "top" and edit == "list" or _fits(name, kind, value)
    valid = edit in (None, "list") and read
    try:
        scenarios, seed = load_study_json(str(path))
    except ValueError as exc:
        assert str(path) in str(exc) and not valid, str(exc)
        return
    assert valid
    if where == "top" and edit == "list":
        assert seed is None
        return
    got = seed if where == "top" else getattr(
        scenarios[0] if where == "scenario" else scenarios[0].tests[0], name)
    if value is None:
        assert got is None
    elif kind is tuple:
        assert type(got) is tuple and len(got) == len(value)
        if name == "sizes":
            assert got == tuple(WHOLE[int](v) for v in value)
            assert all(type(v) is int for v in got)
    else:
        assert type(got) is kind and got == WHOLE[kind](value)


# a value JSON holds: the file's reader refuses NaN and infinity by the file
JSON_VALUES = VALUES.filter(lambda v: not (isinstance(v, float) and not math.isfinite(v)))


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from([("test", name, choices) for name, choices in OPTION_CHOICES.items()]
                             + [("scenario", name, choices)
                                for name, choices in SCENARIO_CHOICES.items()]),
       data=st.data())
def test_study_json_reads_a_choice_exactly_or_refuses_it_by_file_and_name(folder, field, data):
    where, name, choices = field
    value = data.draw(_choice_values(choices, JSON_VALUES))
    test = {"statistic": "max", "weighting": "identity", "replicates": 200}
    scenario = {"n": 30, "d": 4, "tau": 0.3, "repetitions": 3, "tests": [test]}
    {"scenario": scenario, "test": test}[where][name] = value
    path = folder / "choice.json"
    path.write_text(json.dumps({"seed": 9, "scenarios": [scenario]}))
    try:
        scenarios, _ = load_study_json(str(path))
    except ValueError as exc:
        assert str(path) in str(exc) and _names(name, str(exc)), str(exc)
        assert not _chosen(name, value, choices), str(exc)
        return
    assert _chosen(name, value, choices)
    got = getattr(scenarios[0] if where == "scenario" else scenarios[0].tests[0], name)
    assert got == value and type(got) is type(value)
