import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovext.bitfield import BitString
from markovext.errors import CertificationError, InvalidArgumentError, ResourceBudgetError
from markovext.extractors import (
    ExtractorDescriptor,
    ExtractorFamily,
    deor_descriptor,
    inner_product_descriptor,
)
from markovext.qsim import (
    CcqBlock,
    CcqMarkovState,
    DensityOperator,
    apply_extractor_channel,
    assemble,
    certify_hmin,
    channel_monotonicity_check,
    conditional_mutual_information,
    from_markov_table,
    hmin_cq,
    markov_cmi,
    partial_trace,
    random_ccq_markov_state,
    random_channel,
    random_density,
    state_from_dict,
    state_to_dict,
    tensor,
    trace_distance,
    verify_quantum_bound,
)
from markovext.sources import (
    MarkovSourceTable,
    build_markov_table,
    statistical_distance_from_uniform,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _ket(dim, i):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, i] = 1.0
    return m


# ---------------------------------------------------------------------------
# DensityOperator, tensor, partial trace, distance
# ---------------------------------------------------------------------------

def test_density_operator_validation():
    with pytest.raises(InvalidArgumentError):
        DensityOperator(np.array([[0, 1], [0, 0]], dtype=complex))  # not Hermitian
    with pytest.raises(InvalidArgumentError):
        DensityOperator(np.diag([1.0, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidArgumentError):
        DensityOperator(np.diag([1.0, 0.5]))  # trace > 1
    with pytest.raises(InvalidArgumentError):
        DensityOperator(np.zeros((2, 2)))  # trace 0


def test_tensor_examples():
    rho = DensityOperator(np.diag([0.5, 0.5]))
    one = DensityOperator(np.ones((1, 1)))
    assert np.allclose(tensor(rho, one).matrix, rho.matrix)
    t = tensor(DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0])))
    assert np.allclose(t.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))
    rng = np.random.default_rng(0)
    a = DensityOperator(0.7 * random_density(2, rng))
    b = DensityOperator(0.5 * random_density(3, rng))
    assert tensor(a, b).trace == pytest.approx(a.trace * b.trace, rel=1e-12)


def test_partial_trace_product_and_entangled():
    rng = np.random.default_rng(2)
    a = DensityOperator(random_density(2, rng))
    b = DensityOperator(random_density(3, rng))
    ab = tensor(a, b)
    assert np.allclose(partial_trace(ab, [2, 3], 1).matrix, a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(ab, [2, 3], 0).matrix, b.matrix, atol=1e-12)
    # maximally entangled qubit pair
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    bell = DensityOperator(np.outer(psi, psi.conj()))
    assert np.allclose(partial_trace(bell, [2, 2], 0).matrix, np.eye(2) / 2, atol=1e-12)
    # trivial subsystem
    triv = tensor(a, DensityOperator(np.ones((1, 1))))
    assert np.allclose(partial_trace(triv, [2, 1], 1).matrix, a.matrix)
    with pytest.raises(InvalidArgumentError):
        partial_trace(ab, [2, 2], 0)


def test_trace_distance_examples():
    rho = DensityOperator(np.diag([0.75, 0.25]))
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(rho, DensityOperator(np.eye(2) / 2)) == pytest.approx(0.25)
    p0 = DensityOperator(_ket(2, 0))
    p1 = DensityOperator(_ket(2, 1))
    assert trace_distance(p0, p1) == pytest.approx(1.0)
    with pytest.raises(InvalidArgumentError):
        trace_distance(p0, DensityOperator(np.eye(3) / 3))


# ---------------------------------------------------------------------------
# Conditional mutual information
# ---------------------------------------------------------------------------

def test_cmi_product_state_is_zero():
    rng = np.random.default_rng(4)
    rho = tensor(
        tensor(DensityOperator(random_density(2, rng)), DensityOperator(random_density(2, rng))),
        DensityOperator(random_density(2, rng)),
    )
    assert conditional_mutual_information(rho, (2, 2, 2)) == pytest.approx(0.0, abs=1e-10)


def test_cmi_ghz_is_zero():
    rho = 0.5 * (np.kron(np.kron(_ket(2, 0), _ket(2, 0)), _ket(2, 0))
                 + np.kron(np.kron(_ket(2, 1), _ket(2, 1)), _ket(2, 1)))
    assert conditional_mutual_information(DensityOperator(rho), (2, 2, 2)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_cmi_classical_correlation_trivial_c():
    rho = 0.5 * (np.kron(_ket(2, 0), _ket(2, 0)) + np.kron(_ket(2, 1), _ket(2, 1)))
    rho = np.kron(rho, np.ones((1, 1)))
    assert conditional_mutual_information(DensityOperator(rho), (2, 2, 1)) == pytest.approx(
        1.0, abs=1e-10
    )


# ---------------------------------------------------------------------------
# CcqMarkovState
# ---------------------------------------------------------------------------

def test_state_validation():
    one = np.ones((1, 1), dtype=complex)
    good = CcqBlock(1.0, (0.5 * one, 0.5 * one), (one, 0.0 * one))
    CcqMarkovState(1, 1, (good,))
    with pytest.raises(InvalidArgumentError):
        CcqMarkovState(1, 1, (CcqBlock(0.5, (0.5 * one, 0.5 * one), (one, 0 * one)),))
    with pytest.raises(InvalidArgumentError):
        CcqMarkovState(1, 1, (CcqBlock(1.0, (one, one), (one, 0 * one)),))
    with pytest.raises(InvalidArgumentError):
        CcqMarkovState(2, 1, (good,))


def test_assemble_invariants_and_cmi():
    rng = np.random.default_rng(9)
    for seed in range(5):
        state = random_ccq_markov_state(2, 2, 2, 2, np.random.default_rng(seed))
        rho = assemble(state)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        dims = (4, 4, state.c_dim)
        assert conditional_mutual_information(rho, dims) <= 1e-8
        # block-structured CMI agrees with the dense computation
        assert markov_cmi(state) == pytest.approx(
            conditional_mutual_information(rho, dims), abs=1e-9
        )


def test_assemble_refuses_a_state_beyond_the_enumeration_budget():
    # 2^16 rows: the dense matrix would hold 2^32 complex entries (64 GiB)
    state = random_ccq_markov_state(8, 8, 1, 1, np.random.default_rng(0))
    with pytest.raises(ResourceBudgetError):
        assemble(state)


def test_classical_embedding_matches_sources_distance():
    table = build_markov_table(3, 3, 2, 2, 2, seed=13)
    state = from_markov_table(table)
    ext = deor_descriptor(3, 2)
    chk = verify_quantum_bound(state, ext, *state.certified_k)
    # conditioning on classical Z equals the trace distance of the Y (x) C state
    d_classical = statistical_distance_from_uniform(ext, table, conditioned_on=("Z",))
    assert chk.distance == pytest.approx(d_classical, abs=1e-10)


def test_state_serialization_roundtrip():
    state = random_ccq_markov_state(2, 2, 2, 2, np.random.default_rng(5))
    again = state_from_dict(state_to_dict(state))
    assert again.n1 == state.n1 and again.certified_k == state.certified_k
    for b1, b2 in zip(state.blocks, again.blocks):
        assert b1.weight == pytest.approx(b2.weight)
        for a, b in zip(b1.comp1, b2.comp1):
            assert np.allclose(a, b)


def _state_json(state):
    return json.dumps(state_to_dict(state), indent=2, sort_keys=True) + "\n"


def test_state_format_matches_golden_file():
    state = random_ccq_markov_state(2, 2, 3, 3, np.random.default_rng(5))
    with open(os.path.join(DATA_DIR, "golden_state.json")) as fh:
        golden = fh.read()
    assert _state_json(state) == golden
    again = state_from_dict(json.loads(golden))
    assert _state_json(again) == golden
    for b1, b2 in zip(state.blocks, again.blocks):
        assert b1.weight == b2.weight
        assert b1.comp1.tobytes() == b2.comp1.tobytes()  # signed zeros included
        assert b1.comp2.tobytes() == b2.comp2.tobytes()


_ONE = np.ones((1, 1))
_HALF_I2 = [0.25 * np.eye(2), 0.25 * np.eye(2)]


def _valid_state_dict():
    return state_to_dict(CcqMarkovState(1, 1, (CcqBlock(1.0, _HALF_I2, [_ONE, 0 * _ONE]),)))


def _edited(edit):
    d = _valid_state_dict()
    edit(d["blocks"][0])
    return d


@pytest.mark.parametrize("build", [
    lambda: CcqBlock(1.0, [[[-0.5]], [[1.5]]], [_ONE, 0 * _ONE]),
    lambda: CcqBlock(1.0, [[[0.25, 1.0], [0.0, 0.25]], 0.25 * np.eye(2)], [_ONE, 0 * _ONE]),
    lambda: CcqMarkovState(1, 1, (CcqBlock(1.5, _HALF_I2, [_ONE, 0 * _ONE]),
                                  CcqBlock(-0.5, _HALF_I2, [_ONE, 0 * _ONE]))),
    lambda: CcqBlock(1.0, [[[math.nan]], [[1.0]]], [_ONE, 0 * _ONE]),
    lambda: CcqBlock(math.inf, [_ONE, 0 * _ONE], [_ONE, 0 * _ONE]),
    lambda: CcqBlock(1.0, [0.5 * _ONE, 0.25 * np.eye(2)], [_ONE, 0 * _ONE]),
    lambda: state_from_dict(_edited(lambda b: [m.pop() for m in b["comp1"]])),
    lambda: state_from_dict(_edited(lambda b: b.pop("comp2"))),
    lambda: state_from_dict(_edited(lambda b: b.update(weight="one"))),
    lambda: state_from_dict({**_valid_state_dict(), "n1": -1}),
    lambda: state_from_dict({**_valid_state_dict(), "certified_k": [1.0]}),
    lambda: hmin_cq([0.5 * np.eye(1), 0.25 * np.eye(2)]),
    lambda: partial_trace(DensityOperator(np.eye(4) / 4), [2, 2], 2),
    lambda: conditional_mutual_information(DensityOperator(np.eye(4) / 4), (2, 2, 2)),
    lambda: apply_extractor_channel(DensityOperator(np.eye(16) / 16), deor_descriptor(2, 1),
                                    (2, 8, 1)),
    lambda: hmin_cq([0.3 * _ONE, 0.3 * _ONE]),
], ids=["negative_component", "not_hermitian", "weights_1.5_-0.5", "nan_entry", "inf_weight",
        "ragged_source", "dict_non_square", "dict_missing_comp2", "dict_string_weight",
        "dict_negative_n", "dict_certified_k_not_pair", "hmin_cq_ragged",
        "partial_trace_index_2_of_2", "cmi_dims", "channel_dims", "hmin_cq_traces_0.6"])
def test_malformed_state_refused_when_built(build):
    with pytest.raises(InvalidArgumentError):
        build()


def test_components_are_read_only_stacks():
    state = random_ccq_markov_state(2, 2, 2, 3, np.random.default_rng(1))
    b = state.blocks[0]
    assert b.comp1.shape == (4, b.c1_dim, b.c1_dim) and b.comp1.dtype == complex
    with pytest.raises(ValueError):
        b.comp1[0, 0, 0] = 1.0
    source = np.zeros((2, 1, 1))
    source[0] = 1.0
    block = CcqBlock(1.0, source, source)
    source[0] = 0.5  # the block keeps its own copy
    assert block.comp1[0, 0, 0] == 1.0


# Values around the edge of the valid domain: inside the 1e-10 tolerances,
# outside them, and not numbers at all.
_ODD = st.sampled_from([-0.5, -1e-9, -1e-11, 1e-11, 0.3, 1.5, math.nan, math.inf, "x"])


@st.composite
def _malformed_state_dicts(draw):
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    d = state_to_dict(random_ccq_markov_state(n, n, draw(st.integers(1, 3)), 2, rng))
    block = draw(st.sampled_from(d["blocks"]))
    comp = block[draw(st.sampled_from(["comp1", "comp2"]))]
    x = draw(st.integers(0, len(comp) - 1))
    i, j = draw(st.integers(0, len(comp[x]) - 1)), draw(st.integers(0, len(comp[x]) - 1))
    kind = draw(st.sampled_from(
        ["none", "entry", "asymmetric", "ragged", "row", "weight", "shift", "missing", "n"]))
    if kind == "entry":
        comp[x][i][j][draw(st.integers(0, 1))] = draw(_ODD)
    elif kind == "asymmetric":
        comp[x][i][j][1] += draw(st.sampled_from([1e-12, 1e-3, 0.5]))
    elif kind == "ragged":
        comp[x] = np.eye(len(comp[x]) % 2 + 1)[..., None].repeat(2, axis=-1).tolist()
    elif kind == "row":
        for m in comp:
            m.pop()
    elif kind == "weight":
        block["weight"] = draw(_ODD)
    elif kind == "shift":  # weights that still sum to 1, e.g. 1.5 and -0.5
        delta = draw(st.sampled_from([0.5, 1.0, -2.0]))
        d["blocks"][0]["weight"] += delta
        d["blocks"][-1]["weight"] -= delta
    elif kind == "missing":
        del block[draw(st.sampled_from(["weight", "comp1", "comp2"]))]
    elif kind == "n":
        d["n1"] = d["n2"] = draw(st.sampled_from([-1, 0, n + 1, "two"]))
    return d


@st.composite
def _malformed_table_dicts(draw):
    n, z_card = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    d = {"pz": rng.dirichlet(np.ones(z_card)).tolist(),
         "px1_given_z": rng.dirichlet(np.ones(1 << n), size=z_card).tolist(),
         "px2_given_z": rng.dirichlet(np.ones(1 << n), size=z_card).tolist()}
    name = draw(st.sampled_from(["px1_given_z", "px2_given_z"]))
    row = draw(st.sampled_from(d[name]))
    kind = draw(st.sampled_from(
        ["none", "entry", "tiny", "ragged", "shift", "missing", "nested"]))
    if kind == "entry":
        row[draw(st.integers(0, len(row) - 1))] = draw(_ODD)
    elif kind == "tiny":  # -1e-13, inside the table's tolerance, moved between two entries
        vec = d["pz"] if z_card > 1 and draw(st.booleans()) else row
        i = draw(st.integers(0, len(vec) - 1))
        j = (i + draw(st.integers(1, len(vec) - 1))) % len(vec)
        vec[j] += vec[i] + 1e-13
        vec[i] = -1e-13
    elif kind == "ragged":
        row.append(0.0)
    elif kind == "shift":
        delta = draw(st.sampled_from([0.5, 1.0]))
        d["pz"][0] += delta
        d["pz"][-1] -= delta
    elif kind == "missing":
        del d[draw(st.sampled_from(sorted(d)))]
    elif kind == "nested":
        d["pz"] = [d["pz"]]
    return d


def _one_bit_extractor(n):
    return inner_product_descriptor(1) if n == 1 else deor_descriptor(n, 1)


def _runs_to_finite_values(state):
    n = state.n1
    ext = _one_bit_extractor(n)
    assert math.isfinite(markov_cmi(state))
    chk = channel_monotonicity_check(state, ext, [np.eye(state.c_dim)])
    assert math.isfinite(chk.before) and math.isfinite(chk.after)
    if n == 1:
        plain = dataclasses.replace(state, certified_k=None)
        assert math.isfinite(certify_hmin(plain, 1)) and math.isfinite(certify_hmin(plain, 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_malformed_state_dicts())
def test_state_dict_that_builds_also_runs(d):
    try:
        state = state_from_dict(d)
    except InvalidArgumentError:
        return
    _runs_to_finite_values(state)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_malformed_table_dicts())
def test_table_dict_that_builds_also_runs(d):
    # only the table may refuse the dict: a table that builds embeds and runs
    try:
        table = MarkovSourceTable.from_dict(d)
    except InvalidArgumentError:
        return
    assert math.isfinite(statistical_distance_from_uniform(_one_bit_extractor(table.n1), table))
    _runs_to_finite_values(from_markov_table(table))


# ---------------------------------------------------------------------------
# Extractor channel
# ---------------------------------------------------------------------------

def test_apply_extractor_channel_trace_preserving_and_block_structure():
    state = random_ccq_markov_state(2, 2, 2, 2, np.random.default_rng(11))
    rho = assemble(state)
    ext = deor_descriptor(2, 1)
    out = apply_extractor_channel(rho, ext, (4, 4, state.c_dim))
    assert out.trace == pytest.approx(1.0, abs=1e-10)
    assert out.dim == 2 * state.c_dim


def test_apply_extractor_channel_rejects_coherences():
    # pure superposition across the X1 X2 computational basis
    coherent = np.zeros((16, 16), dtype=complex)
    coherent[0, 0] = coherent[15, 15] = 0.5
    coherent[0, 15] = coherent[15, 0] = 0.5
    with pytest.raises(InvalidArgumentError):
        apply_extractor_channel(DensityOperator(coherent), deor_descriptor(2, 1), (4, 4, 1))
    # classical but wrong dims
    with pytest.raises(InvalidArgumentError):
        apply_extractor_channel(DensityOperator(np.eye(8) / 8), deor_descriptor(2, 1), (4, 4, 2))


def test_apply_extractor_channel_constant_extractor():
    class Constant(ExtractorDescriptor):
        def evaluate(self, x1, x2):
            return (x1 ^ x2) & 0

    const = Constant(family=ExtractorFamily.DEOR, n1=2, n2=2, m=1)
    rho = DensityOperator(np.eye(16) / 16)
    out = apply_extractor_channel(rho, const, (4, 4, 1))
    assert out.matrix[0, 0] == pytest.approx(1.0)
    assert out.matrix[1, 1] == pytest.approx(0.0)


def test_extractor_channel_commutes_with_c_channel():
    state = random_ccq_markov_state(2, 2, 1, 2, np.random.default_rng(21))
    rho = assemble(state)
    ext = deor_descriptor(2, 1)
    dc = state.c_dim
    rng = np.random.default_rng(22)
    kraus = random_channel(dc, 2, rng)

    def on_c(mat, d_cl):
        t = mat.reshape(d_cl, dc, d_cl, dc)
        out = np.zeros_like(t)
        for K in kraus:
            out += np.einsum("ab,ibjc,dc->iajd", K, t, K.conj())
        return out.reshape(d_cl * dc, d_cl * dc)

    first_channel = apply_extractor_channel(DensityOperator(on_c(rho.matrix, 16)), ext, (4, 4, dc))
    first_extract = on_c(apply_extractor_channel(rho, ext, (4, 4, dc)).matrix, 2)
    assert np.allclose(first_channel.matrix, first_extract, atol=1e-10)


# ---------------------------------------------------------------------------
# Min-entropy certification
# ---------------------------------------------------------------------------

def test_hmin_cq_indistinguishable():
    rho = np.eye(2, dtype=complex) / 4
    assert hmin_cq([rho, rho]) == pytest.approx(1.0, abs=1e-12)


def test_hmin_cq_orthogonal():
    assert hmin_cq([0.5 * _ket(2, 0), 0.5 * _ket(2, 1)]) == pytest.approx(0.0, abs=1e-12)


def test_hmin_cq_helstrom_example():
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    val = hmin_cq([0.5 * _ket(2, 0), 0.5 * plus])
    assert val == pytest.approx(-math.log2(0.5 + math.sqrt(2) / 4), rel=1e-12)


def test_hmin_cq_classical_c_averaging():
    # 4 values of X, diagonal C: p_guess = sum_c max_x p(x, c)
    comps = [np.diag([0.1, 0.05]), np.diag([0.2, 0.05]), np.diag([0.3, 0.05]), np.diag([0.2, 0.05])]
    assert hmin_cq(comps) == pytest.approx(-math.log2(0.3 + 0.05), rel=1e-12)


def test_hmin_cq_unsupported_case():
    rng = np.random.default_rng(30)
    comps = [random_density(2, rng) / 3 for _ in range(3)]
    with pytest.raises(CertificationError):
        hmin_cq(comps)


def test_generated_states_have_correct_certified_entropy():
    for seed in range(10):
        state = random_ccq_markov_state(2, 2, 2, 2, np.random.default_rng(seed))
        # the X-marginal with C traced out has classical-C structure only when
        # C is 1-dimensional; instead cross-check via the defining guess sum
        k1, k2 = state.certified_k
        guess1 = sum(
            b.weight / sum(1 for a in b.comp1 if np.trace(a).real > 0) for b in state.blocks
        )
        assert k1 == pytest.approx(-math.log2(guess1), rel=1e-12)
        assert 0 <= k1 <= 2 and 0 <= k2 <= 2


# ---------------------------------------------------------------------------
# Bound verification and monotonicity
# ---------------------------------------------------------------------------

def test_verify_quantum_bound_uniform_trivial_c():
    table = build_markov_table(3, 3, 1, 3, 3, seed=0)
    state = from_markov_table(table)
    ext = deor_descriptor(3, 2)
    chk = verify_quantum_bound(state, ext, 3.0, 3.0)
    d_classical = statistical_distance_from_uniform(ext, table, conditioned_on=())
    assert chk.distance == pytest.approx(d_classical, abs=1e-10)
    assert chk.holds and chk.bound >= chk.distance


def test_verify_quantum_bound_rejects_uncertified_claim():
    state = random_ccq_markov_state(3, 3, 2, 2, np.random.default_rng(2))
    ext = deor_descriptor(3, 2)
    with pytest.raises(CertificationError):
        verify_quantum_bound(state, ext, state.certified_k[0] + 0.5, state.certified_k[1])


def test_monotonicity_identity_channel():
    state = random_ccq_markov_state(2, 2, 2, 2, np.random.default_rng(8))
    ext = deor_descriptor(2, 1)
    chk = channel_monotonicity_check(state, ext, [np.eye(state.c_dim)])
    assert chk.after == pytest.approx(chk.before, abs=1e-12)
    assert chk.holds


def test_monotonicity_depolarizing_closed_form():
    state = random_ccq_markov_state(2, 2, 2, 2, np.random.default_rng(15))
    ext = deor_descriptor(2, 2)
    dc = state.c_dim
    kraus = [
        np.sqrt(1.0 / dc) * np.outer(np.eye(dc)[i], np.eye(dc)[j])
        for i in range(dc)
        for j in range(dc)
    ]
    chk = channel_monotonicity_check(state, ext, kraus)
    # full depolarizing leaves only the classical Y deviation
    p_y = np.zeros(4)
    for x1 in range(4):
        for x2 in range(4):
            y = ext.extract(BitString(x1, 2), BitString(x2, 2)).value
            p_y[y] += np.trace(state.conditional_side_information(x1, x2)).real
    closed_form = 0.5 * np.abs(p_y - 0.25).sum()
    assert chk.after == pytest.approx(closed_form, abs=1e-10)
    assert chk.holds


def test_block_oracle_matches_dense_path():
    # the per-block distance and CMI against the dense assemble/trace_distance path
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, n + 1))
        blocks, max_c_dim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        state = random_ccq_markov_state(n, n, blocks, max_c_dim, rng)
        ext = deor_descriptor(n, m)
        rho = assemble(state)
        dims = (1 << n, 1 << n, state.c_dim)
        uniform = DensityOperator(np.eye(1 << m) / (1 << m))
        ideal = tensor(uniform, DensityOperator(state.side_information()))
        dense = trace_distance(apply_extractor_channel(rho, ext, dims), ideal)
        chk = verify_quantum_bound(state, ext, *state.certified_k)
        assert chk.distance == pytest.approx(dense, abs=1e-12)
        assert markov_cmi(state) == pytest.approx(
            conditional_mutual_information(rho, dims), abs=1e-9
        )


def test_block_oracle_eigensolves_at_block_dimension(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    state = random_ccq_markov_state(4, 4, 16, 3, np.random.default_rng(3))
    largest = max(b.c1_dim * b.c2_dim for b in state.blocks)
    assert state.c_dim > largest
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    verify_quantum_bound(state, deor_descriptor(4, 2), *state.certified_k)
    assert shapes and max(s[-1] for s in shapes) <= largest


def test_monotonicity_before_equals_verified_distance():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = random_ccq_markov_state(2, 2, int(rng.integers(1, 4)), 2, rng)
        ext = deor_descriptor(2, 1 + seed % 2)
        kraus = random_channel(state.c_dim, 2, rng)
        chk = channel_monotonicity_check(state, ext, kraus)
        assert chk.before == pytest.approx(
            verify_quantum_bound(state, ext, *state.certified_k).distance, abs=1e-12
        )


def test_monotonicity_rejects_incomplete_kraus():
    state = random_ccq_markov_state(2, 2, 1, 2, np.random.default_rng(1))
    ext = deor_descriptor(2, 1)
    with pytest.raises(InvalidArgumentError):
        channel_monotonicity_check(state, ext, [0.5 * np.eye(state.c_dim)])
