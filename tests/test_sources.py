import itertools
import math
import random

import numpy as np
import pytest

from markovext import sources
from markovext.bitfield import BitString
from markovext.errors import (
    ConstructionError,
    DomainError,
    InvalidArgumentError,
    ResourceBudgetError,
)
from markovext.extractors import (
    ExtractorDescriptor,
    ExtractorFamily,
    compose,
    deor_descriptor,
    inner_product_descriptor,
    parity_seeded_descriptor,
)
from markovext.sources import (
    ENUMERATION_BUDGET_BITS,
    OUTPUT_TABLE_CACHE_SIZE,
    FlatSource,
    MarkovSourceTable,
    build_markov_table,
    conditional_distance_given_guess,
    distinguishing_event_statistic,
    extractor_output_table,
    hmin_conditional,
    random_flat_source,
    random_joint,
    statistical_distance_from_uniform,
)


class _ConstantExtractor(ExtractorDescriptor):
    """DEOR's fields, but every input maps to 0^m."""

    def evaluate(self, x1, x2):
        return (x1 ^ x2) & 0


def _constant_extractor(n: int, m: int) -> ExtractorDescriptor:
    return _ConstantExtractor(ExtractorFamily.DEOR, {"n": n, "m": m})


# ---------------------------------------------------------------------------
# FlatSource / MarkovSourceTable
# ---------------------------------------------------------------------------

def test_flat_source_basics():
    s = FlatSource(3, (0, 5, 6))
    p = s.distribution()
    assert -math.log2(p.max()) == pytest.approx(math.log2(3))
    assert p.sum() == pytest.approx(1.0)
    assert p[5] == pytest.approx(1 / 3) and p[1] == 0
    with pytest.raises(InvalidArgumentError):
        FlatSource(3, ())
    with pytest.raises(InvalidArgumentError):
        FlatSource(3, (1, 1))
    with pytest.raises(InvalidArgumentError):
        FlatSource(3, (8,))
    with pytest.raises(InvalidArgumentError):
        FlatSource(2, (0, 1.5))
    with pytest.raises(InvalidArgumentError):
        FlatSource(2, (0.0, 1.0))


def test_flat_source_holds_its_support_as_a_tuple():
    as_list, as_tuple = FlatSource(3, [0, 5]), FlatSource(3, (0, 5))
    assert as_list.support == (0, 5) and as_list == as_tuple
    assert hash(as_list) == hash(as_tuple)


def test_markov_table_validation():
    with pytest.raises(InvalidArgumentError):
        MarkovSourceTable(np.array([0.5, 0.5]), np.ones((2, 4)) / 4, np.ones((1, 4)) / 4)
    with pytest.raises(InvalidArgumentError):
        MarkovSourceTable(np.array([1.0]), np.ones((1, 4)) / 3, np.ones((1, 4)) / 4)
    with pytest.raises(InvalidArgumentError):
        MarkovSourceTable(np.array([1.0]), np.ones((1, 3)) / 3, np.ones((1, 4)) / 4)


@pytest.mark.parametrize("name", ["pz", "px1_given_z"])
def test_markov_table_checks_the_row_sums_it_embeds(name):
    # each entry lies within ROW_SUM_TOL of 0 and the raw rows sum to 1, but
    # with the negatives clipped to 0, as qsim.from_markov_table embeds them,
    # a row sums to 1 + 2e-12
    arrays = {"pz": np.full(3, 1 / 3), "px1_given_z": np.full((3, 2), 0.5),
              "px2_given_z": np.full((3, 2), 0.5)}
    if name == "pz":
        arrays["pz"] = np.array([-1e-12, -1e-12, 1 + 2e-12])
    else:
        arrays["px1_given_z"] = np.full((3, 4), 0.25)
        arrays["px1_given_z"][1] = [-1e-12, -1e-12, 0.5 + 1e-12, 0.5 + 1e-12]
    with pytest.raises(InvalidArgumentError):
        MarkovSourceTable(arrays["pz"], arrays["px1_given_z"], arrays["px2_given_z"])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["pz", "px1_given_z", "px2_given_z"])
def test_markov_table_refuses_non_finite_entries(name, value):
    arrays = {"pz": np.array([0.5, 0.5]), "px1_given_z": np.ones((2, 4)) / 4,
              "px2_given_z": np.ones((2, 4)) / 4}
    arrays[name].flat[-1] = value  # a NaN row sum passes the row-sum check
    with pytest.raises(InvalidArgumentError):
        MarkovSourceTable(arrays["pz"], arrays["px1_given_z"], arrays["px2_given_z"])


_TABLE_FAULTS = {
    "nan": (math.nan, "has non-finite entries"),
    "inf": (math.inf, "has non-finite entries"),
    "negative": (-1e-9, "has negative entries"),
    "row_sum": (0.75, "rows must sum to 1"),
}


def _uniform_table_arrays():
    return {"pz": np.array([0.5, 0.5]), "px1_given_z": np.ones((2, 4)) / 4,
            "px2_given_z": np.ones((2, 4)) / 4}


@pytest.mark.parametrize("fault", _TABLE_FAULTS)
@pytest.mark.parametrize("name", ["pz", "px1_given_z", "px2_given_z"])
def test_markov_table_names_the_array_and_the_fault(name, fault):
    arrays = _uniform_table_arrays()
    value, reason = _TABLE_FAULTS[fault]
    arrays[name].flat[-1] = value
    with pytest.raises(InvalidArgumentError, match=f"^{name} {reason}"):
        MarkovSourceTable(*arrays.values())


@pytest.mark.parametrize("faults,named", [
    ({"pz": "row_sum", "px1_given_z": "nan"}, "pz rows must sum to 1"),
    ({"pz": "row_sum", "px2_given_z": "negative"}, "pz rows must sum to 1"),
    ({"px1_given_z": "row_sum", "px2_given_z": "inf"}, "px1_given_z rows must sum to 1"),
    ({"px1_given_z": "negative", "px2_given_z": "nan"}, "px1_given_z has negative entries"),
    ({"pz": "nan", "px1_given_z": "row_sum"}, "pz has non-finite entries"),
    ({"px2_given_z": "row_sum", "pz": "negative"}, "pz has negative entries"),
], ids=["pz_sum_px1_nan", "pz_sum_px2_negative", "px1_sum_px2_inf", "px1_negative_px2_nan",
        "pz_nan_px1_sum", "px2_sum_pz_negative"])
def test_markov_table_names_the_first_faulty_array_in_order(faults, named):
    # the array-by-array order: every check of pz, then of px1_given_z, then of px2_given_z
    arrays = _uniform_table_arrays()
    for name, fault in faults.items():
        arrays[name].flat[-1] = _TABLE_FAULTS[fault][0]
    with pytest.raises(InvalidArgumentError, match=f"^{named}"):
        MarkovSourceTable(*arrays.values())


def test_markov_table_from_dict_refuses_nan():
    # the plain nested lists a table's dict held, with one NaN entry
    t = build_markov_table(2, 2, 1, 1, 1, seed=0)
    px2 = t.px2_given_z.tolist()
    px2[0][0] = math.nan
    with pytest.raises(InvalidArgumentError):
        MarkovSourceTable(t.pz.tolist(), t.px1_given_z.tolist(), px2)


_UNIFORM_JOINT = np.full((2, 2, 2, 2), 1 / 16)
_POINT_JOINT = np.zeros((2, 2, 2, 2), dtype=bool)
_POINT_JOINT[0, 0, 0, 0] = True
_BOOL_AMONG_FLOATS = np.zeros((2, 2, 2, 2)).tolist()
_BOOL_AMONG_FLOATS[0][0][0][0] = True


@pytest.mark.parametrize("oracle", [distinguishing_event_statistic,
                                    conditional_distance_given_guess])
@pytest.mark.parametrize("joint", [
    _UNIFORM_JOINT.astype(str).tolist(),
    _UNIFORM_JOINT.astype(str),
    _POINT_JOINT,
    _POINT_JOINT.tolist(),
    _BOOL_AMONG_FLOATS,
    [[[[0.5, 0.5], [0.0]]] * 2] * 2,
], ids=["numeric_strings", "string_array", "bool_array", "bools", "bool_among_floats",
        "ragged"])
def test_joint_must_hold_numbers_only(oracle, joint):
    with pytest.raises(InvalidArgumentError, match="joint"):
        oracle(inner_product_descriptor(1), joint)


def test_float_joint_is_used_without_a_copy():
    ext = inner_product_descriptor(1)
    assert sources._checked_joint(ext, _UNIFORM_JOINT) is _UNIFORM_JOINT
    as_list = sources._checked_joint(ext, _UNIFORM_JOINT.tolist())
    assert as_list.dtype == float and np.array_equal(as_list, _UNIFORM_JOINT)


def test_markov_table_keeps_read_only_copies_of_the_rows_it_checked():
    pz, px1 = np.array([0.5, 0.5]), np.array([[0.5, 0.5, 0, 0], [0.25, 0.25, 0.25, 0.25]])
    px2 = np.array([[-1e-13, 1 + 1e-13, 0, 0], [0.25, 0.25, 0.25, 0.25]])
    t = MarkovSourceTable(pz, px1, px2)
    ext = deor_descriptor(2, 1)
    before = (statistical_distance_from_uniform(ext, t), hmin_conditional(t, 1))
    pz[0], px1[0, 0] = 7.0, -3.0
    assert (statistical_distance_from_uniform(ext, t), hmin_conditional(t, 1)) == before
    assert t.px2_given_z[0, 0] == 0.0  # admitted within ROW_SUM_TOL, stored as 0.0
    buf = t.pz.base  # the one checked buffer the three arrays are views of
    assert t.px1_given_z.base is buf and t.px2_given_z.base is buf
    for arr in (t.pz, t.px1_given_z, t.px2_given_z, buf):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("build,error", [
    (lambda: MarkovSourceTable(np.ones(0), np.ones((0, 2)), np.ones((0, 2))),
     InvalidArgumentError),
    (lambda: hmin_conditional(build_markov_table(2, 2, 1, 1, 1, seed=0), 3),
     InvalidArgumentError),
    (lambda: hmin_conditional(build_markov_table(2, 2, 1, 1, 1, seed=0), True),
     InvalidArgumentError),
    (lambda: hmin_conditional(build_markov_table(2, 2, 1, 1, 1, seed=0), 1.0),
     InvalidArgumentError),
    *[(lambda c=c: statistical_distance_from_uniform(
        deor_descriptor(2, 1), build_markov_table(2, 2, 1, 1, 1, seed=0), c),
       InvalidArgumentError) for c in ("Z", "X1", None, 5, [["Z"]])],
    (lambda: extractor_output_table(deor_descriptor(4, 2), 4, 3), InvalidArgumentError),
    (lambda: extractor_output_table(inner_product_descriptor(14), 14, 14), ResourceBudgetError),
    (lambda: distinguishing_event_statistic(deor_descriptor(3, 2), np.full((8, 8, 64), 1 / 4096)),
     InvalidArgumentError),
    (lambda: FlatSource(-1, (0,)), InvalidArgumentError),
    (lambda: FlatSource(True, (0, 1)), InvalidArgumentError),
    *[(lambda pz=pz: MarkovSourceTable(pz, [[0.5, 0.5]] * len(pz), [[0.5, 0.5]] * len(pz)),
       InvalidArgumentError) for pz in (["1.0"], [True], [True, 0.0])],
    (lambda: build_markov_table(3, 3, 2, math.nan, 2.0, 0), DomainError),
    (lambda: build_markov_table(3, 3, 2, 2.0, -math.inf, 0), DomainError),
    (lambda: build_markov_table(3, 3, 2, "2", 2.0, 0), DomainError),
    (lambda: build_markov_table(3.0, 3, 2, 2.0, 2.0, 0), InvalidArgumentError),
    (lambda: build_markov_table(3, 3, True, 2.0, 2.0, 0), InvalidArgumentError),
    (lambda: build_markov_table(3, 3, 2, 10 ** 400, 2.0, 0), DomainError),
    *[(lambda seed=seed: build_markov_table(3, 3, 2, 2.0, 2.0, seed), InvalidArgumentError)
      for seed in (-1, 1.5, "3", True)],
    (lambda: random_flat_source(3, True, np.random.default_rng(0)), InvalidArgumentError),
    (lambda: random_flat_source(3.0, 2, np.random.default_rng(0)), InvalidArgumentError),
    (lambda: FlatSource(1, (True,)), InvalidArgumentError),
    (lambda: random_joint(1, 1.0, np.random.default_rng(0)), InvalidArgumentError),
    (lambda: random_joint(-1, 2, np.random.default_rng(0)), InvalidArgumentError),
    (lambda: random_flat_source(63, 1, np.random.default_rng(0)), ResourceBudgetError),
], ids=["empty_table", "hmin_source_3", "hmin_source_bool", "hmin_source_float",
        "distance_conditioned_on_str_Z", "distance_conditioned_on_str_X1",
        "distance_conditioned_on_none", "distance_conditioned_on_int",
        "distance_conditioned_on_nested_list", "output_table_n",
        "output_table_28_bits", "joint_shape", "flat_negative_n", "flat_bool_n",
        "table_pz_numeric_string", "table_pz_bool", "table_pz_bool_among_floats", "markov_nan_target",
        "markov_infinite_target", "markov_string_target", "markov_float_n1", "markov_bool_z_card",
        "markov_huge_target", "markov_seed_negative", "markov_seed_float", "markov_seed_string",
        "markov_seed_bool",
        "flat_bool_k", "random_flat_float_n", "flat_bool_element", "joint_float_n2",
        "joint_negative_n1", "random_flat_63_bits"])
def test_sources_refuse_malformed_input(build, error):
    with pytest.raises(error):
        build()


class _NoDraws:
    """An rng whose draws fail: a generator that reaches them would allocate the joint."""

    def exponential(self, size):
        raise AssertionError(f"drew {size}")


def test_random_joint_refuses_an_over_budget_joint_before_drawing_it():
    with pytest.raises(ResourceBudgetError):
        random_joint(7, 7, _NoDraws())  # 2^28 entries, 2 GiB
    with pytest.raises(AssertionError):  # 2 * (6 + 7) bits: in budget, as for the oracles
        random_joint(6, 7, _NoDraws())


@pytest.mark.parametrize("rows", [
    [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]],
    ["ab", "cd"],
    [["0.5", "half"]],
    [[10 ** 400, 0]],
    [{"a": 1}],
    [["1.0", "0"]],
    [[True, False]],
    [[True, 0.0]],
    np.array([[True, False]]),
    [[1j, 0.0]],
], ids=["ragged", "strings", "non_numeric_entry", "huge_int", "object_row", "numeric_strings",
        "bools", "bool_among_floats", "bool_array", "complex_entry"])
def test_markov_table_refuses_rows_that_are_not_reals(rows):
    with pytest.raises(InvalidArgumentError):
        MarkovSourceTable(np.ones(len(rows)), rows, np.ones((len(rows), 2)) / 2)


# ---------------------------------------------------------------------------
# hmin_conditional
# ---------------------------------------------------------------------------

def test_hmin_uniform_is_n():
    t = build_markov_table(4, 4, 3, 4, 4, seed=0)
    assert hmin_conditional(t, 1) == pytest.approx(4.0, abs=1e-12)
    assert hmin_conditional(t, 2) == pytest.approx(4.0, abs=1e-12)
    assert hmin_conditional(t, np.int64(1)) == hmin_conditional(t, 1)


def test_hmin_point_mass_is_zero():
    rows = np.zeros((1, 4))
    rows[0, 2] = 1.0
    t = MarkovSourceTable(np.array([1.0]), rows, np.ones((1, 4)) / 4)
    assert hmin_conditional(t, 1) == pytest.approx(0.0, abs=1e-12)


def test_hmin_averaging_identity_example():
    # p(z)=1/2 each; X|z=0 uniform on 4 values, X|z=1 a point mass
    r1 = np.zeros((2, 8))
    r1[0, :4] = 0.25
    r1[1, 7] = 1.0
    t = MarkovSourceTable(np.array([0.5, 0.5]), r1, np.ones((2, 8)) / 8)
    assert hmin_conditional(t, 1) == pytest.approx(math.log2(8 / 5), rel=1e-12)


def test_hmin_bounded_by_best_z():
    rng = np.random.default_rng(3)
    for seed in range(20):
        t = build_markov_table(4, 4, 3, rng.uniform(1, 4), rng.uniform(1, 4), seed)
        per_z = -np.log2(t.px1_given_z.max(axis=1))
        assert hmin_conditional(t, 1) <= per_z.max() + 1e-12


# ---------------------------------------------------------------------------
# Exact distance oracle
# ---------------------------------------------------------------------------

def test_uniform_pair_deor_distance_exact():
    # uniform sources: the only deviation is the x2=0 column mapping to 0^m,
    # giving exactly 2^-n (1 - 2^-m)
    for n, m in [(4, 1), (4, 2), (4, 4), (6, 2)]:
        ext = deor_descriptor(n, m)
        t = build_markov_table(n, n, 1, n, n, seed=0)
        d = statistical_distance_from_uniform(ext, t, conditioned_on=())
        assert d == pytest.approx(2.0 ** -n * (1 - 2.0 ** -m), abs=1e-12)


def test_constant_extractor_distance():
    ext = _constant_extractor(4, 2)
    t = build_markov_table(4, 4, 1, 4, 4, seed=0)
    d = statistical_distance_from_uniform(ext, t, conditioned_on=())
    assert d == pytest.approx(1 - 2.0 ** -2, abs=1e-12)


def test_point_mass_identity_factor_distance_zero():
    # X2 fixed at the field identity, m=n: output is X1, uniform
    n = 4
    ext = deor_descriptor(n, n)
    rows2 = np.zeros((1, 1 << n))
    rows2[0, 1] = 1.0
    t = MarkovSourceTable(np.array([1.0]), np.ones((1, 1 << n)) / (1 << n), rows2)
    d = statistical_distance_from_uniform(ext, t, conditioned_on=())
    assert d == pytest.approx(0.0, abs=1e-12)


def test_distance_conditioning_args():
    ext = deor_descriptor(4, 2)
    t = build_markov_table(4, 4, 2, 3, 3, seed=5)
    d_plain = statistical_distance_from_uniform(ext, t, conditioned_on=())
    d_z = statistical_distance_from_uniform(ext, t, conditioned_on=("Z",))
    d_zx1 = statistical_distance_from_uniform(ext, t, conditioned_on=("Z", "X1"))
    assert 0 <= d_plain <= d_z <= d_zx1 <= 1 + 1e-12
    with pytest.raises(InvalidArgumentError):
        statistical_distance_from_uniform(ext, t, conditioned_on=("Q",))


def _distance_repeat_tile(ext, table, conditioned_on) -> float:
    """The distance over every cell (x1, x2), keyed by repeat/tile index arrays."""
    cond = set(conditioned_on)
    n1, n2 = table.n1, table.n2
    T = extractor_output_table(ext, n1, n2)
    M = 1 << ext.m
    x1_idx = np.repeat(np.arange(1 << n1), 1 << n2)
    x2_idx = np.tile(np.arange(1 << n2), 1 << n1)
    y_idx = T.ravel()
    per_z = "Z" in cond
    kdims = []
    if "X1" in cond:
        kdims.append((x1_idx, 1 << n1))
    if "X2" in cond:
        kdims.append((x2_idx, 1 << n2))
    key = np.zeros_like(y_idx)
    ksize = 1
    for idx, size in kdims:
        key = key * size + idx
        ksize *= size
    total = 0.0
    acc = np.zeros((ksize, M))
    for z in range(table.z_card):
        w = table.pz[z] * np.outer(table.px1_given_z[z], table.px2_given_z[z]).ravel()
        hist = np.bincount(key * M + y_idx, weights=w, minlength=ksize * M).reshape(ksize, M)
        if per_z:
            total += 0.5 * np.abs(hist - hist.sum(axis=1, keepdims=True) / M).sum()
        else:
            acc += hist
    if not per_z:
        total = 0.5 * np.abs(acc - acc.sum(axis=1, keepdims=True) / M).sum()
    return float(total)


def _reference_tables(n: int, rng: np.random.Generator):
    """Flat pairs with k < n, generated Markov tables with |Z| = 1..5 and 8, and
    Dirichlet tables with zero columns and entries of -5e-13 and -0.0."""
    for _ in range(2):
        k1, k2 = rng.integers(0, n, size=2)
        yield MarkovSourceTable.from_flat_pair(
            random_flat_source(n, int(k1), rng), random_flat_source(n, int(k2), rng))
    for z_card in (1, 2, 3, 4, 5, 8):
        yield build_markov_table(n, n, z_card, rng.uniform(0, n), rng.uniform(0, n),
                                 seed=int(rng.integers(1 << 16)))
    for z_card in (2, 4):
        pz = rng.dirichlet(np.ones(z_card))
        p1, p2 = rng.dirichlet(np.ones(1 << n), size=(2, z_card))
        for p in (p1, p2):
            p[:, rng.random(1 << n) < 0.5] = 0.0
        p1[:, -1] = -5e-13
        p2[p2 == 0.0] = -0.0
        for p in (p1, p2):
            p[:, 0] = 1.0 - p[:, 1:].sum(axis=1)
        yield MarkovSourceTable(pz, p1, p2)


@pytest.mark.parametrize("ext", [
    # not m = 8 at n = 8: given X1 and X2 that is 2^24 bins, ~13 s a table
    *[deor_descriptor(n, m) for n in (2, 3, 4, 6, 8) for m in sorted({1, 2, n}) if m < 8],
    *[inner_product_descriptor(n) for n in (2, 3, 4, 6, 8)],
    compose(parity_seeded_descriptor(8, 3), deor_descriptor(8, 3)),
], ids=lambda e: f"{e.family.value}-n{e.n1}-m{e.m}")
def test_distance_matches_the_repeat_tile_reference(ext):
    rng = np.random.default_rng(ext.n1 * 8 + ext.m)
    subsets = [c for r in range(4) for c in itertools.combinations(("Z", "X1", "X2"), r)]
    for table in _reference_tables(ext.n1, rng):
        for cond in subsets:
            assert (statistical_distance_from_uniform(ext, table, cond)
                    == _distance_repeat_tile(ext, table, cond)), cond


def test_enumeration_budget_enforced():
    ext = deor_descriptor(16, 2)
    t = build_markov_table(16, 16, 2, 4, 4, seed=0)
    with pytest.raises(ResourceBudgetError):
        statistical_distance_from_uniform(ext, t)


def test_histogram_is_counted_against_the_enumeration_budget(monkeypatch):
    """13 + 13 input bits fit the budget, but given both inputs the histogram adds the
    output bit: refused before the 2^26-cell output table and the histogram are built."""
    def fail(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(sources, "extractor_output_table", fail)
    monkeypatch.setattr(np, "bincount", fail)
    uniform = np.full((1, 1 << 13), 2.0 ** -13)
    table = MarkovSourceTable(np.ones(1), uniform, uniform)
    ext = inner_product_descriptor(13)
    for cond in (("X1", "X2"), ("Z", "X1", "X2")):
        with pytest.raises(ResourceBudgetError, match="histogram"):
            statistical_distance_from_uniform(ext, table, cond)


def test_histogram_of_every_z_is_counted_against_the_enumeration_budget(monkeypatch):
    """Every z's histogram is binned at once: given X1 and X2 at n = m = 2 one z has
    2^6 cells, so at a 10-bit budget 16 values of z run and 17 are refused before
    the output table and the histogram are built."""
    ext = deor_descriptor(2, 2)
    rng = np.random.default_rng(4)
    tables = [MarkovSourceTable(rng.dirichlet(np.ones(zc)), *rng.dirichlet(np.ones(4), (2, zc)))
              for zc in (16, 17)]
    cond = ("Z", "X1", "X2")
    want = _distance_repeat_tile(ext, tables[0], cond)
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET_BITS", 10)
    assert statistical_distance_from_uniform(ext, tables[0], cond) == want

    def fail(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(sources, "extractor_output_table", fail)
    monkeypatch.setattr(np, "bincount", fail)
    for c in (cond, ("X1", "X2")):
        with pytest.raises(ResourceBudgetError, match="histogram"):
            statistical_distance_from_uniform(ext, tables[1], c)


def test_equal_descriptors_share_one_read_only_table():
    a, b = deor_descriptor(4, 2), deor_descriptor(4, 2)
    assert a is not b
    T = extractor_output_table(a, 4, 4)
    assert extractor_output_table(b, 4, 4) is T
    assert not T.flags.writeable
    assert T[3, 5] == a.extract(BitString(3, 4), BitString(5, 4)).value


def test_output_table_cache_is_bounded():
    descs = [deor_descriptor(n, m) for n in (2, 3, 4) for m in range(1, n + 1)]
    descs += [inner_product_descriptor(n) for n in range(1, 7)]
    descs += [parity_seeded_descriptor(n, d) for n in range(1, 7) for d in range(1, min(n, 4) + 1)]
    assert len(descs) > OUTPUT_TABLE_CACHE_SIZE
    for d in descs:
        extractor_output_table(d, d.n1, d.n2)
        assert extractor_output_table.cache_info().currsize <= OUTPUT_TABLE_CACHE_SIZE


def _budget_descriptors():
    """Every family at every size whose table fits the enumeration budget; the
    Trevisan seed has at least 256 bits, so it has none."""
    for n in (2, 3, 4, 6, 8):
        for m in range(1, n + 1):
            yield deor_descriptor(n, m)
        for d in range(1, min(n, 4) + 1):
            yield compose(parity_seeded_descriptor(n, d), deor_descriptor(n, d))
    for n in range(1, ENUMERATION_BUDGET_BITS // 2 + 1):
        yield inner_product_descriptor(n)
    for d in range(1, 5):
        for n in range(d, ENUMERATION_BUDGET_BITS - d + 1):
            yield parity_seeded_descriptor(n, d)


def _scalar_table(ext: ExtractorDescriptor) -> np.ndarray:
    """The reference: the table as a loop over the scalar `extract` builds it."""
    T = np.empty((1 << ext.n1, 1 << ext.n2), dtype=np.int64)
    for x1 in range(1 << ext.n1):
        for x2 in range(1 << ext.n2):
            T[x1, x2] = ext.extract(BitString(x1, ext.n1), BitString(x2, ext.n2)).value
    return T


def test_output_table_matches_the_scalar_extract_loop():
    # Tables up to 12 bits are compared cell by cell. Larger ones are sampled:
    # built up to 16 bits, and through `evaluate` on index arrays beyond that,
    # where one table takes up to 512 MB.
    rnd = random.Random(5)
    for ext in _budget_descriptors():
        bits = ext.n1 + ext.n2
        if bits <= 12:
            T = extractor_output_table(ext, ext.n1, ext.n2)
            assert T.dtype == np.int64 and np.array_equal(T, _scalar_table(ext)), ext
            continue
        x1s = [rnd.randrange(1 << ext.n1) for _ in range(64)]
        x2s = [rnd.randrange(1 << ext.n2) for _ in range(64)]
        want = [ext.extract(BitString(a, ext.n1), BitString(b, ext.n2)).value
                for a, b in zip(x1s, x2s)]
        assert ext.evaluate(np.array(x1s), np.array(x2s)).tolist() == want, ext
        if bits <= 16:
            assert extractor_output_table(ext, ext.n1, ext.n2)[x1s, x2s].tolist() == want, ext


def test_output_table_makes_no_extract_call(monkeypatch):
    def refuse(self, x1, x2):
        raise AssertionError("extract called")

    monkeypatch.setattr(ExtractorDescriptor, "extract", refuse)
    extractor_output_table.cache_clear()
    for ext in (deor_descriptor(4, 2), inner_product_descriptor(3),
                parity_seeded_descriptor(5, 2),
                compose(parity_seeded_descriptor(4, 2), deor_descriptor(4, 2))):
        assert extractor_output_table(ext, ext.n1, ext.n2).shape == (1 << ext.n1, 1 << ext.n2)


def test_subclass_with_deor_fields_gets_its_own_table():
    real = deor_descriptor(4, 2)
    const = _constant_extractor(4, 2)
    assert const != real and real != const
    T_real = extractor_output_table(real, 4, 4)
    T_const = extractor_output_table(const, 4, 4)
    assert T_const is not T_real
    assert not T_const.any() and T_real.any()
    assert extractor_output_table(deor_descriptor(4, 2), 4, 4) is T_real


# ---------------------------------------------------------------------------
# Distinguishing-event statistic (and its bounding distance)
# ---------------------------------------------------------------------------

def test_distinguishing_statistic_independent_uniform():
    n, m = 3, 3
    ext = deor_descriptor(n, m)
    # make Ext(X1,X2) exactly uniform by removing the x2=0 defect:
    # X2 uniform on nonzero elements, X1 uniform
    p1 = np.ones(8) / 8
    p2 = np.zeros(8)
    p2[1:] = 1 / 7
    joint = np.einsum("a,b,c,d->abcd", p1, p2, p1, p2)
    stat = distinguishing_event_statistic(ext, joint)
    assert stat == pytest.approx(0.0, abs=1e-12)


def test_distinguishing_statistic_perfect_copy():
    n, m = 3, 2
    ext = deor_descriptor(n, m)
    joint = np.zeros((8, 8, 8, 8))
    for a in range(8):
        for b in range(8):
            joint[a, b, a, b] = 1 / 64
    stat = distinguishing_event_statistic(ext, joint)
    assert stat == pytest.approx(1 - 2.0 ** -m, abs=1e-12)


def test_joint_oracles_enforce_the_enumeration_budget():
    ext = deor_descriptor(8, 2)  # the joint would span 2 * (8 + 8) = 32 bits
    for oracle in (distinguishing_event_statistic, conditional_distance_given_guess):
        with pytest.raises(ResourceBudgetError):
            oracle(ext, np.zeros(1))


@pytest.mark.parametrize("case", ["sums_to_2", "negative_entry"])
def test_joint_oracles_refuse_a_joint_that_is_not_a_distribution(case):
    ext = deor_descriptor(3, 2)
    joint = random_joint(3, 3, np.random.default_rng(5))
    if case == "sums_to_2":
        joint = 2 * joint
    else:
        joint[0, 0, 0, 0] += joint[1, 1, 1, 1] + 0.01
        joint[1, 1, 1, 1] = -0.01
    for oracle in (distinguishing_event_statistic, conditional_distance_given_guess):
        with pytest.raises(InvalidArgumentError):
            oracle(ext, joint)


def _guess_distance_loop(ext, joint) -> float:
    """The conditional distance given a guess, accumulated cell by cell in (x1, x2) order."""
    n1, n2 = ext.n1, ext.n2
    T = extractor_output_table(ext, n1, n2)
    M = 1 << ext.m
    p_yz = np.zeros((M, 1 << n1, 1 << n2))
    for x1 in range(1 << n1):
        for x2 in range(1 << n2):
            p_yz[T[x1, x2]] += joint[x1, x2]
    p_z = p_yz.sum(axis=0)
    return float(0.5 * np.abs(p_yz - p_z[None, :, :] / M).sum())


@pytest.mark.parametrize("ext", [
    *[deor_descriptor(n, m) for n in (2, 3, 4) for m in range(1, n + 1)],
    inner_product_descriptor(3),
    compose(parity_seeded_descriptor(3, 2), deor_descriptor(3, 2)),
], ids=lambda e: f"{e.family.value}-n{e.n1}-m{e.m}")
def test_conditional_distance_given_guess_matches_the_loop(ext):
    rng = np.random.default_rng(ext.n1 * 8 + ext.m)
    for _ in range(10):
        joint = random_joint(ext.n1, ext.n2, rng)
        assert conditional_distance_given_guess(ext, joint) == _guess_distance_loop(ext, joint)


def test_distinguishing_statistic_bounded_by_conditional_distance():
    ext = deor_descriptor(3, 2)
    rng = np.random.default_rng(17)
    for _ in range(50):
        joint = random_joint(3, 3, rng)
        stat = distinguishing_event_statistic(ext, joint)
        dist = conditional_distance_given_guess(ext, joint)
        assert stat <= dist + 1e-12


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_build_markov_table_exact_entropy():
    t = build_markov_table(4, 4, 2, 3, 3, seed=42)
    assert hmin_conditional(t, 1) == pytest.approx(3.0, abs=1e-12)
    assert hmin_conditional(t, 2) == pytest.approx(3.0, abs=1e-12)


def test_build_markov_table_z1_is_flat_pair():
    t = build_markov_table(4, 4, 1, 2, 2, seed=7)
    assert t.z_card == 1
    assert np.count_nonzero(t.px1_given_z[0]) == 4


def test_build_markov_table_errors():
    with pytest.raises(ConstructionError):
        build_markov_table(4, 4, 2, 5, 3, seed=0)
    with pytest.raises(ConstructionError):
        build_markov_table(4, 4, 0, 2, 2, seed=0)


def test_random_flat_source_support_size():
    rng = np.random.default_rng(0)
    s = random_flat_source(6, 4, rng)
    assert len(s.support) == 16
    with pytest.raises(InvalidArgumentError):
        random_flat_source(4, 5, rng)


def test_random_joint_normalized():
    rng = np.random.default_rng(1)
    j = random_joint(2, 2, rng)
    assert j.shape == (4, 4, 4, 4)
    assert j.sum() == pytest.approx(1.0, abs=1e-12)
