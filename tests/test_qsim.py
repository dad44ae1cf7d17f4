import dataclasses
import hashlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovext import qsim
from markovext.bitfield import BitString
from markovext.errors import (
    CertificationError,
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
from markovext.paramcalc import SecurityModel, assessment
from markovext.qsim import (
    TRACE_TOL,
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
    tensor,
    trace_distance,
    verify_quantum_bound,
)
from markovext import sources
from markovext.sources import (
    FlatSource,
    MarkovSourceTable,
    build_markov_table,
    distinguishing_event_statistic,
    extractor_output_table,
    random_flat_source,
    random_joint,
    statistical_distance_from_uniform,
)


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


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("a_stack,b_stack", [((), ()), ((5,), (3,)), ((4,), ()), ((), (6,))],
                         ids=["2d_2d", "3d_3d", "3d_2d", "2d_3d"])
def test_kron_is_numpys_kron_bit_for_bit(a_stack, b_stack):
    rng = np.random.default_rng(len(a_stack) + 2 * len(b_stack))
    for c, d in [(1, 1), (1, 3), (2, 1), (3, 4)]:
        empty_a, empty_b = (0,) * len(a_stack), (0,) * len(b_stack)
        for sa, sb in {(a_stack, b_stack), (empty_a, b_stack), (a_stack, empty_b)}:
            a, b = _complex_normal(rng, *sa, c, c), _complex_normal(rng, *sb, d, d)
            got, want = qsim._kron(a, b), np.kron(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


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


def _assemble_by_pairs(state):
    """The dense state built one (x1, x2) pair and one block at a time with np.kron."""
    dense = np.zeros(((1 << (state.n1 + state.n2)) * state.c_dim,) * 2, dtype=complex)
    off = 0
    for x1 in range(1 << state.n1):
        for x2 in range(1 << state.n2):
            for b in state.blocks:
                d = b.c1_dim * b.c2_dim
                dense[off : off + d, off : off + d] = b.weight * np.kron(b.comp1[x1], b.comp2[x2])
                off += d
    return dense


def _on_c_by_kron(state, source):
    """rho_C (source None) or the stack over x_source of the operators on C, built one block
    and one x at a time with np.kron; the other source is summed out in order."""
    xs = [None] if source is None else range(1 << (state.n1, state.n2)[source - 1])
    out = np.zeros((len(xs), state.c_dim, state.c_dim), dtype=complex)
    for i, x in enumerate(xs):
        off = 0
        for b in state.blocks:
            a1 = b.comp1[x] if source == 1 else sum(b.comp1)
            a2 = b.comp2[x] if source == 2 else sum(b.comp2)
            d = b.c1_dim * b.c2_dim
            out[i, off : off + d, off : off + d] = b.weight * np.kron(a1, a2)
            off += d
    return out[0] if source is None else out


@pytest.mark.parametrize("n1,n2,blocks,max_c_dim", [
    (2, 2, 2, 2), (1, 3, 3, 3), (3, 1, 4, 3), (0, 2, 2, 2), (2, 3, 1, 3), (3, 3, 3, 2),
])
def test_assemble_matches_the_pairwise_kron_loop(n1, n2, blocks, max_c_dim, monkeypatch):
    # certify_hmin hands its stack to hmin_cq, which refuses |X| > 2 with quantum C
    stacks = []
    monkeypatch.setattr(qsim, "hmin_cq", lambda comps: stacks.append(comps) or 0.0)
    dims_seen = set()
    for seed in range(8):
        state = random_ccq_markov_state(n1, n2, blocks, max_c_dim, np.random.default_rng(seed))
        dims_seen.update(b.c1_dim * b.c2_dim for b in state.blocks)
        assert assemble(state).matrix.tobytes() == _assemble_by_pairs(state).tobytes()
        rho_c = _on_c_by_kron(state, None)
        assert state.side_information().tobytes() == rho_c.tobytes()
        uniform = np.eye(2) / 2
        assert tensor(DensityOperator(uniform), DensityOperator(rho_c)).matrix.tobytes() == \
            np.kron(uniform, rho_c).tobytes()
        uncertified = dataclasses.replace(state, certified_k=None)
        for source in (1, 2):
            stacks.clear()
            certify_hmin(uncertified, source)
            assert stacks[0].tobytes() == _on_c_by_kron(state, source).tobytes()
    assert len(dims_seen) > 1  # blocks of different C dimensions


def test_assemble_of_a_classical_table_matches_the_pairwise_kron_loop():
    for seed, (n1, n2, z) in enumerate([(1, 1, 1), (2, 3, 2), (3, 2, 4), (3, 3, 3)]):
        state = from_markov_table(build_markov_table(n1, n2, z, 1, 1, seed=seed))
        assert assemble(state).matrix.tobytes() == _assemble_by_pairs(state).tobytes()


def _counting_eigvalsh(monkeypatch):
    """Replace np.linalg.eigvalsh by a wrapper; the returned list grows by one per call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_derived_operators_skip_the_check_and_are_read_only(monkeypatch):
    rng = np.random.default_rng(4)
    a, b = DensityOperator(random_density(2, rng)), DensityOperator(random_density(3, rng))
    state = random_ccq_markov_state(2, 2, 2, 2, rng)
    calls = _counting_eigvalsh(monkeypatch)
    ab = tensor(a, b)
    rho = assemble(state)
    derived = [ab, partial_trace(ab, [2, 3], 0), rho,
               apply_extractor_channel(rho, deor_descriptor(2, 1), (4, 4, state.c_dim))]
    assert calls == []
    for op in derived:
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0


def test_state_at_the_trace_tolerance_runs_its_dense_path():
    # component traces sum to 1 + 0.9e-10, inside TRACE_TOL; the dense state and a tensor
    # of two such operators have trace 1 + 1.8e-10, beyond what DensityOperator admits
    comp = np.stack([(0.5 + 4.5e-11) * np.eye(2) / 2] * 2)
    state = CcqMarkovState(1, 1, (CcqBlock(1.0, comp, comp),))
    rho = assemble(state)
    assert rho.trace > 1.0 + TRACE_TOL
    out = apply_extractor_channel(rho, inner_product_descriptor(1), (2, 2, 4))
    assert out.trace == pytest.approx(rho.trace, abs=1e-15)
    assert conditional_mutual_information(rho, (2, 2, 4)) == pytest.approx(0.0, abs=1e-9)
    edge = DensityOperator(np.diag([0.5 + 4.5e-11] * 2))
    assert tensor(edge, edge).trace > 1.0 + TRACE_TOL
    _runs_to_finite_values(state)


def test_assemble_refuses_a_state_beyond_the_enumeration_budget():
    # 2^16 rows: the dense matrix would hold 2^32 complex entries (64 GiB)
    state = random_ccq_markov_state(8, 8, 1, 1, np.random.default_rng(0))
    with pytest.raises(ResourceBudgetError):
        assemble(state)


class _NoDraws:
    """An rng whose draws fail: a generator that reaches them would allocate its state."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from rng.{name}")


def test_random_state_refuses_an_over_budget_state_before_drawing_it():
    for args in [(26, 0, 1, 4),  # up to 16 GiB of components per block
                 (21, 21, 2, 4),  # log2(2 * 2^22 * 16) = 27 bits
                 (10 ** 9, 2, 1, 1)]:  # refused without building 2^n1
        with pytest.raises(ResourceBudgetError):
            random_ccq_markov_state(*args, _NoDraws())
    with pytest.raises(AssertionError):  # 26 bits: in budget, so it goes on to draw
        random_ccq_markov_state(20, 20, 2, 4, _NoDraws())


def test_classical_embedding_matches_sources_distance():
    table = build_markov_table(3, 3, 2, 2, 2, seed=13)
    state = from_markov_table(table)
    ext = deor_descriptor(3, 2)
    chk = verify_quantum_bound(state, ext, *state.certified_k)
    # conditioning on classical Z equals the trace distance of the Y (x) C state
    d_classical = statistical_distance_from_uniform(ext, table, conditioned_on=("Z",))
    assert chk.distance == pytest.approx(d_classical, abs=1e-10)


def test_generated_state_matches_its_digest():
    # pins random_ccq_markov_state bit for bit: signed zeros and the last ulp included
    state = random_ccq_markov_state(2, 2, 3, 3, np.random.default_rng(5))
    h = hashlib.sha256(np.array([state.n1, state.n2]).tobytes())
    h.update(np.array(state.certified_k).tobytes())
    for b in state.blocks:
        h.update(np.float64(b.weight).tobytes() + b.comp1.tobytes() + b.comp2.tobytes())
    assert h.hexdigest() == "c8c909fc829b8d3f268a476c86ef7ba10088243948b6ffa22ca533796fce8a2c"


def test_generated_blocks_are_checked_in_one_eigensolve(monkeypatch):
    calls = _counting_eigvalsh(monkeypatch)
    for n_blocks in (1, 2, 5, 16):
        calls.clear()
        random_ccq_markov_state(2, 3, n_blocks, 4, np.random.default_rng(n_blocks))
        assert len(calls) == 1
    calls.clear()
    from_markov_table(build_markov_table(3, 2, 4, 1, 1, seed=0))
    assert len(calls) == 1


def test_generated_blocks_pass_the_public_check():
    """The one padded eigensolve admits only what CcqBlock(...) admits stack by stack."""
    for seed in range(12):
        for shape in [(0, 1, 1, 1), (1, 1, 3, 3), (2, 3, 2, 4), (3, 2, 4, 2), (3, 3, 3, 4)]:
            state = random_ccq_markov_state(*shape, np.random.default_rng(seed))
            for b in state.blocks:
                rebuilt = CcqBlock(b.weight, b.comp1, b.comp2)
                assert rebuilt.weight == b.weight
                for got, want in [(b.comp1, rebuilt.comp1), (b.comp2, rebuilt.comp2)]:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    assert not got.flags.writeable


@pytest.mark.parametrize("bad", [
    np.diag([1.2, -0.2]),
    np.array([[0.5, 0.3], [0.0, 0.5]]),
    np.array([[0.5, 0.3j], [0.3j, 0.5]]),
    np.eye(2) / 4,
    np.array([[math.nan, 0.0], [0.0, 1.0]]),
], ids=["eigenvalue_-0.2", "not_hermitian", "not_hermitian_imaginary", "trace_0.5", "nan_entry"])
def test_batched_check_refuses_a_bad_draw(bad, monkeypatch):
    """Seed 4 draws one block with c1 = 3 and c2 = 2: the bad 2 x 2 matrix is checked padded
    to 3 x 3, and refused as CcqBlock(...) refuses it."""
    block = random_ccq_markov_state(1, 1, 1, 3, np.random.default_rng(4)).blocks[0]
    assert (block.c1_dim, block.c2_dim) == (3, 2)
    drawn = qsim.random_density

    def bad_draw(dim, rng):
        sigma = drawn(dim, rng)  # drawn all the same, so later draws are unchanged
        return bad if dim == 2 else sigma

    monkeypatch.setattr(qsim, "random_density", bad_draw)
    with pytest.raises(InvalidArgumentError):
        random_ccq_markov_state(1, 1, 1, 3, np.random.default_rng(4))
    with pytest.raises(InvalidArgumentError):
        CcqBlock(block.weight, block.comp1, [bad / 2, bad / 2])


def test_table_blocks_equal_the_per_block_checked_ones():
    for seed, (n1, n2, z) in enumerate([(1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 4, 3)]):
        table = build_markov_table(n1, n2, z, 1, 1, seed=seed)
        state = from_markov_table(table)
        for b, w, p1, p2 in zip(state.blocks, table.pz, table.px1_given_z, table.px2_given_z):
            want = CcqBlock(float(w), p1[:, None, None], p2[:, None, None])
            assert type(b.weight) is float and b.weight == want.weight
            for got, ref in [(b.comp1, want.comp1), (b.comp2, want.comp2)]:
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes() and not got.flags.writeable


def test_blocks_are_held_as_a_tuple():
    block = CcqBlock(1.0, _HALF_I2, [_ONE, 0 * _ONE])
    for blocks in ([block], iter([block]), (block,)):
        state = CcqMarkovState(1, 1, blocks)
        assert type(state.blocks) is tuple and len(state.blocks) == 1
        assert state.blocks[0] is block


_ONE = np.ones((1, 1))
_HALF_I2 = [0.25 * np.eye(2), 0.25 * np.eye(2)]


@pytest.mark.parametrize("build", [
    lambda: DensityOperator(np.eye(2) / 2),
    lambda: CcqBlock(1.0, _HALF_I2, [_ONE, 0 * _ONE]),
    lambda: CcqMarkovState(1, 1, (CcqBlock(1.0, _HALF_I2, [_ONE, 0 * _ONE]),)),
], ids=["density_operator", "block", "state"])
def test_equality_and_hash_go_by_identity(build):
    # a generated __eq__ over array fields raised ValueError, and __hash__ TypeError
    a, b = build(), build()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_block_weight_is_stored_as_a_float():
    block = CcqBlock(np.float32(0.5), _HALF_I2, [_ONE, 0 * _ONE])
    assert type(block.weight) is float and block.weight == 0.5


def _state(**changes):
    """The one-block state on one bit each, with `changes` to its constructor arguments."""
    args = {"n1": 1, "n2": 1, "weight": 1.0, "comp1": _HALF_I2, "comp2": [_ONE, 0 * _ONE],
            "certified_k": None, **changes}
    block = CcqBlock(args["weight"], args["comp1"], args["comp2"])
    return CcqMarkovState(args["n1"], args["n2"], (block,), certified_k=args["certified_k"])


@pytest.mark.parametrize("build", [
    lambda: CcqBlock(1.0, [[[-0.5]], [[1.5]]], [_ONE, 0 * _ONE]),
    lambda: CcqBlock(1.0, [[[0.25, 1.0], [0.0, 0.25]], 0.25 * np.eye(2)], [_ONE, 0 * _ONE]),
    lambda: CcqMarkovState(1, 1, (CcqBlock(1.5, _HALF_I2, [_ONE, 0 * _ONE]),
                                  CcqBlock(-0.5, _HALF_I2, [_ONE, 0 * _ONE]))),
    lambda: CcqBlock(1.0, [[[math.nan]], [[1.0]]], [_ONE, 0 * _ONE]),
    lambda: CcqBlock(math.inf, [_ONE, 0 * _ONE], [_ONE, 0 * _ONE]),
    lambda: CcqBlock(1.0, [0.5 * _ONE, 0.25 * np.eye(2)], [_ONE, 0 * _ONE]),
    lambda: _state(comp1=[[[0.25, 0.0]], [[0.25, 0.0]]]),
    *[lambda n=n: _state(n1=n) for n in (-1, 1.7, "1", True)],
    lambda: CcqMarkovState(1.0, 1, (CcqBlock(1.0, _HALF_I2, [_ONE, 0 * _ONE]),)),
    lambda: hmin_cq([0.5 * np.eye(1), 0.25 * np.eye(2)]),
    lambda: partial_trace(DensityOperator(np.eye(4) / 4), [2, 2], 2),
    *[lambda dims=dims, traced=traced: partial_trace(DensityOperator(np.eye(4) / 4), dims,
                                                     traced)
      for dims, traced in [([2, 2], 1.0), ([2, 2], True), ([2.0, 2.0], 0), ([-2, -2], 0)]],
    lambda: partial_trace(DensityOperator(np.eye(4) / 4), [2 ** 62 + 1, 4], 0),
    lambda: conditional_mutual_information(DensityOperator(np.eye(4) / 4), (2, 2, 2)),
    *[lambda dims=dims: conditional_mutual_information(DensityOperator(np.eye(4) / 4), dims)
      for dims in [(2.0, 2, 1), (-2, -2, 1), (2, 2)]],
    lambda: apply_extractor_channel(DensityOperator(np.eye(16) / 16), deor_descriptor(2, 1),
                                    (2, 8, 1)),
    lambda: apply_extractor_channel(DensityOperator(np.eye(16) / 16), deor_descriptor(2, 1),
                                    (4.0, 4, 1)),
    lambda: apply_extractor_channel(DensityOperator(np.eye(16) / 16), deor_descriptor(2, 1),
                                    (4, 4)),
    lambda: hmin_cq([0.3 * _ONE, 0.3 * _ONE]),
    lambda: CcqBlock("x", _HALF_I2, [_ONE, 0 * _ONE]),
    lambda: CcqBlock(None, _HALF_I2, [_ONE, 0 * _ONE]),
    lambda: CcqBlock(10 ** 400, _HALF_I2, [_ONE, 0 * _ONE]),
    *[lambda ck=ck: _state(certified_k=ck)
      for ck in [("a", "b"), (math.nan, 5.0), (5.0, 0.5), (0.5, 1 + 2e-9), (-0.5, 0.5),
                 (True, 0.5), 0.5, (0.5, 0.5, 0.5), [1.0], [], 0]],
    *[lambda weight=weight: _state(weight=weight) for weight in ("1.0", True)],
    lambda: CcqBlock(1.0, [[["1.0"]], [["0"]]], [_ONE, 0 * _ONE]),
    lambda: CcqBlock(1.0, _HALF_I2, [[[True]], [[False]]]),
    lambda: CcqBlock(1.0, _HALF_I2, [[[True]], [[0.0]]]),
    lambda: CcqBlock(1.0, _HALF_I2, np.array([[[True]], [[False]]])),
    lambda: DensityOperator([["0.5", "0"], ["0", "0.5"]]),
    lambda: hmin_cq([[[True]], [[False]]]),
    lambda: _state(weight="one"),
    lambda: _state(n2=1.0),
    *[lambda ck=ck: _state(certified_k=ck) for ck in (["1.0", "1.0"], [True, True])],
    *[lambda args=args: random_ccq_markov_state(*args, np.random.default_rng(0))
      for args in [(2, 2, 0, 2), (2, 2, 1, 0), (2.0, 2, 1, 2), (2, 2, True, 2), (2, -1, 1, 2)]],
    *[lambda args=args: random_channel(*args, np.random.default_rng(0))
      for args in [(2, 0), (0, 1), (2.0, 1), (True, 1), (2, "1")]],
    *[lambda source=source: certify_hmin(_state(certified_k=None), source) for source in (0, 3)],
    *[lambda source=source: certify_hmin(_state(certified_k=None), source)
      for source in (True, 1.0)],
    *[lambda source=source: certify_hmin(
        from_markov_table(build_markov_table(2, 2, 1, 1, 1, seed=0)), source)
      for source in (True, 1.0)],
    lambda: CcqMarkovState(1, 1, ("x",)),
    lambda: CcqMarkovState(1, 1, CcqBlock(1.0, _HALF_I2, [_ONE, 0 * _ONE])),
    lambda: CcqMarkovState(1, 1, None),
], ids=["negative_component", "not_hermitian", "weights_1.5_-0.5", "nan_entry", "inf_weight",
        "ragged_source", "non_square", "negative_n", "n_1.7", "n_string", "n_bool",
        "state_float_n", "hmin_cq_ragged",
        "partial_trace_index_2_of_2", "partial_trace_float_index", "partial_trace_bool_index",
        "partial_trace_float_dims", "partial_trace_negative_dims",
        "partial_trace_dims_past_int64", "cmi_dims", "cmi_float_dims",
        "cmi_negative_dims", "cmi_two_dims", "channel_dims", "channel_dims_float", "channel_two_dims", "hmin_cq_traces_0.6",
        "string_weight", "null_weight", "huge_weight", "certified_k_strings", "certified_k_nan",
        "certified_k_above_n", "certified_k_past_tolerance", "certified_k_negative",
        "certified_k_bool", "certified_k_scalar", "certified_k_triple",
        "certified_k_not_pair", "certified_k_empty", "certified_k_zero",
        "weight_numeric_string", "weight_bool", "numeric_string_component", "bool_component",
        "bool_among_floats_component", "bool_array_component", "density_numeric_strings",
        "hmin_cq_bools", "dict_string_weight", "dict_n_1.0", "dict_certified_k_strings",
        "dict_certified_k_bools", "random_no_blocks", "random_c_dim_0", "random_float_n1",
        "random_bool_blocks", "random_negative_n2", "channel_no_kraus", "channel_dim_0",
        "channel_float_dim", "channel_bool_dim", "channel_string_kraus", "certify_source_0",
        "certify_source_3", "certify_source_bool", "certify_source_float",
        "certify_certified_source_bool", "certify_certified_source_float", "blocks_of_strings",
        "bare_block", "blocks_none"])
def test_malformed_state_refused_when_built(build):
    with pytest.raises(InvalidArgumentError):
        build()


def test_certified_k_may_pass_its_range_by_rounding():
    block = CcqBlock(1.0, _HALF_I2, [_ONE, 0 * _ONE])
    state = CcqMarkovState(1, 1, (block,), certified_k=[np.float64(1 + 5e-10), -5e-10])
    assert state.certified_k == (1 + 5e-10, -5e-10)
    assert all(type(k) is float for k in state.certified_k)
    # a full-support flat block: -log2 of the guess sum lands on n up to rounding
    for seed in range(200):
        rng = np.random.default_rng(seed)
        state = random_ccq_markov_state(3, 2, int(rng.integers(1, 4)), 2, rng)
        assert all(-1e-9 <= k <= n + 1e-9 for k, n in zip(state.certified_k, (3, 2)))


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
    """The arguments of a generated state's constructors, as nested lists, with one edit."""
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    state = random_ccq_markov_state(n, n, draw(st.integers(1, 3)), 2, rng)
    d = {"n1": n, "n2": n, "certified_k": state.certified_k,
         "blocks": [{"weight": b.weight, "comp1": b.comp1.tolist(), "comp2": b.comp2.tolist()}
                    for b in state.blocks]}
    block = draw(st.sampled_from(d["blocks"]))
    comp = block[draw(st.sampled_from(["comp1", "comp2"]))]
    x = draw(st.integers(0, len(comp) - 1))
    i, j = draw(st.integers(0, len(comp[x]) - 1)), draw(st.integers(0, len(comp[x]) - 1))
    kind = draw(st.sampled_from(
        ["none", "entry", "asymmetric", "ragged", "row", "weight", "shift", "n"]))
    if kind == "entry":  # the real part, or the imaginary part when the value is a number
        value, imag = draw(_ODD), draw(st.booleans())
        comp[x][i][j] = complex(comp[x][i][j].real, value) if imag and value != "x" else value
    elif kind == "asymmetric":
        comp[x][i][j] += 1j * draw(st.sampled_from([1e-12, 1e-3, 0.5]))
    elif kind == "ragged":
        comp[x] = np.eye(len(comp[x]) % 2 + 1).tolist()
    elif kind == "row":
        for m in comp:
            m.pop()
    elif kind == "weight":
        block["weight"] = draw(_ODD)
    elif kind == "shift":  # weights that still sum to 1, e.g. 1.5 and -0.5
        delta = draw(st.sampled_from([0.5, 1.0, -2.0]))
        d["blocks"][0]["weight"] += delta
        d["blocks"][-1]["weight"] -= delta
    elif kind == "n":
        d["n1"] = d["n2"] = draw(st.sampled_from([-1, 0, n + 1, "two"]))
    return d


@st.composite
def _malformed_table_dicts(draw):
    """The arguments of `MarkovSourceTable`, as nested lists, with one edit."""
    n, z_card = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    d = {"pz": rng.dirichlet(np.ones(z_card)).tolist(),
         "px1_given_z": rng.dirichlet(np.ones(1 << n), size=z_card).tolist(),
         "px2_given_z": rng.dirichlet(np.ones(1 << n), size=z_card).tolist()}
    name = draw(st.sampled_from(["px1_given_z", "px2_given_z"]))
    row = draw(st.sampled_from(d[name]))
    kind = draw(st.sampled_from(["none", "entry", "tiny", "ragged", "shift", "nested"]))
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
    # the dense path; every drawn state fits the enumeration budget
    rho = assemble(state)
    dims = (1 << n, 1 << n, state.c_dim)
    out = apply_extractor_channel(rho, ext, dims)
    ideal = tensor(DensityOperator(np.eye(2) / 2), partial_trace(out, [2, state.c_dim], 0))
    assert trace_distance(out, ideal) == pytest.approx(chk.before, abs=1e-9)
    assert math.isfinite(conditional_mutual_information(rho, dims))
    if n == 1:
        plain = dataclasses.replace(state, certified_k=None)
        assert math.isfinite(certify_hmin(plain, 1)) and math.isfinite(certify_hmin(plain, 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_malformed_state_dicts())
def test_state_dict_that_builds_also_runs(d):
    try:
        blocks = tuple(CcqBlock(**b) for b in d["blocks"])
        state = CcqMarkovState(d["n1"], d["n2"], blocks, certified_k=d["certified_k"])
    except InvalidArgumentError:
        return
    _runs_to_finite_values(state)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_malformed_table_dicts())
def test_table_dict_that_builds_also_runs(d):
    # only the table may refuse its arguments: a table that builds embeds and runs
    try:
        table = MarkovSourceTable(**d)
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


@pytest.mark.parametrize("scale,refused", [(1.01, True), (0.99, False)])
def test_apply_extractor_channel_classical_check_is_at_the_tolerance(scale, refused):
    # dims (4, 4, 2): entries 0 and 2 lie in the C blocks of (x1, x2) = (0, 0) and (0, 1)
    m = np.eye(32, dtype=complex) / 32
    m[0, 2], m[2, 0] = 1j * scale * qsim.HERMITIAN_TOL, -1j * scale * qsim.HERMITIAN_TOL
    rho = DensityOperator(m)
    if refused:
        with pytest.raises(InvalidArgumentError):
            apply_extractor_channel(rho, deor_descriptor(2, 1), (4, 4, 2))
    else:
        assert apply_extractor_channel(rho, deor_descriptor(2, 1), (4, 4, 2)).trace == \
            pytest.approx(1.0)


def test_apply_extractor_channel_keeps_coherence_inside_a_register_block():
    m = np.eye(32, dtype=complex) / 32
    m[0, 1], m[1, 0] = 1j / 32, -1j / 32  # C coherence inside (x1, x2) = (0, 0)
    out = apply_extractor_channel(DensityOperator(m), deor_descriptor(2, 1), (4, 4, 2))
    y = sources.extractor_output_table(deor_descriptor(2, 1), 2, 2)[0, 0]
    assert out.matrix[2 * y, 2 * y + 1] == 1j / 32
    assert out.trace == pytest.approx(1.0)


def test_apply_extractor_channel_constant_extractor():
    class Constant(ExtractorDescriptor):
        def evaluate(self, x1, x2):
            return (x1 ^ x2) & 0

    const = Constant(ExtractorFamily.DEOR, {"n": 2, "m": 1})
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


def test_verify_quantum_bound_runs_a_composed_descriptor():
    # the solver probes the parity law only at entropies >= 0, which it accepts
    state = from_markov_table(build_markov_table(3, 3, 1, 3, 3, seed=0))
    ext = compose(parity_seeded_descriptor(3, 2), deor_descriptor(3, 2))
    chk = verify_quantum_bound(state, ext, 3, 3)
    assert chk.bound == assessment(SecurityModel.QUANTUM_MARKOV, ext, (3, 3)).error
    assert chk.holds and ext.error_law(3, 3) == 0.625


def test_verify_quantum_bound_takes_an_entropy_below_0_by_rounding():
    # CcqMarkovState admits certified_k 1e-9 below 0; the generator gives -3.2e-16 for a
    # block whose source is a point
    comp = np.full((4, 1, 1), 0.25)
    state = CcqMarkovState(2, 2, (CcqBlock(1.0, comp, comp),), certified_k=(2.0, -5e-10))
    chk = verify_quantum_bound(state, deor_descriptor(2, 1), *state.certified_k)
    assert chk.bound == 1.0 and chk.holds


def test_verify_quantum_bound_rejects_uncertified_claim():
    state = random_ccq_markov_state(3, 3, 2, 2, np.random.default_rng(2))
    ext = deor_descriptor(3, 2)
    with pytest.raises(CertificationError):
        verify_quantum_bound(state, ext, state.certified_k[0] + 0.5, state.certified_k[1])


@pytest.mark.parametrize("k", ["1", None, True, math.nan, 10 ** 400],
                         ids=["str", "none", "bool", "nan", "huge"])
def test_verify_quantum_bound_refuses_an_entropy_that_is_not_a_finite_real(k):
    state = from_markov_table(build_markov_table(3, 3, 1, 3, 3, seed=0))
    for k1, k2 in ((k, 3.0), (3.0, k)):
        with pytest.raises(DomainError):
            verify_quantum_bound(state, deor_descriptor(3, 2), k1, k2)


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
    # p(x1, x2) = sum_t p(t) tr comp1[x1] tr comp2[x2]
    p_x = sum(b.weight * np.outer(np.trace(b.comp1, axis1=1, axis2=2).real,
                                  np.trace(b.comp2, axis1=1, axis2=2).real)
              for b in state.blocks)
    p_y = np.zeros(4)
    for x1 in range(4):
        for x2 in range(4):
            y = ext.extract(BitString(x1, 2), BitString(x2, 2)).value
            p_y[y] += p_x[x1, x2]
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


def test_one_hot_output_is_counted_against_the_enumeration_budget(monkeypatch):
    """13 + 13 input bits fit the budget, but the one-hot adds the output bit: refused before
    the 2^26-cell output table is built."""
    def table(*args):
        raise AssertionError("output table built")

    monkeypatch.setattr(sources, "extractor_output_table", table)
    uniform = np.full((1 << 13, 1, 1), 2.0 ** -13)
    state = CcqMarkovState(13, 13, (CcqBlock(1.0, uniform, uniform),), certified_k=(13, 13))
    ext = inner_product_descriptor(13)
    with pytest.raises(ResourceBudgetError, match="one-hot"):
        verify_quantum_bound(state, ext, 13, 13)
    with pytest.raises(ResourceBudgetError, match="one-hot"):
        channel_monotonicity_check(state, ext, [np.eye(1)])


def _refuse_operators_on_c(monkeypatch):
    def built(*args):
        raise AssertionError("an operator on C was built")

    monkeypatch.setattr(qsim, "_block_diagonal", built)
    monkeypatch.setattr(np, "kron", built)


def test_certification_refuses_an_over_budget_stack_before_building_it(monkeypatch):
    """16 blocks of c1 = c2 = 4 at n1 = 11 store 2^19 entries, but the (2^11, 256, 256) stack
    that certifies H_min(X1|C) would hold 2^27 (2 GiB): refused before any kron."""
    block = CcqBlock(1 / 16, np.broadcast_to(np.eye(4) / (4 << 11), (1 << 11, 4, 4)),
                     np.broadcast_to(np.eye(4) / 8, (2, 4, 4)))
    state = CcqMarkovState(11, 1, (block,) * 16)
    _refuse_operators_on_c(monkeypatch)
    with pytest.raises(ResourceBudgetError, match="operators on C of 27 bits"):
        certify_hmin(state, 1)
    with pytest.raises(ResourceBudgetError):
        verify_quantum_bound(state, parity_seeded_descriptor(11, 1), 1, 1)


def test_side_information_refuses_an_over_budget_matrix_before_building_it(monkeypatch):
    """4096 blocks of c1 = c2 = 2 at n1 = n2 = 1 store 2^16 entries, but rho_C has 2^28 and
    the stack that certifies H_min(X1|C) 2^29: both refused before any kron."""
    comp = np.stack([np.eye(2) / 4] * 2)
    state = CcqMarkovState(1, 1, (CcqBlock(2.0 ** -12, comp, comp),) * 4096)
    _refuse_operators_on_c(monkeypatch)
    with pytest.raises(ResourceBudgetError, match="of 28 bits"):
        state.side_information()
    with pytest.raises(ResourceBudgetError, match="of 29 bits"):
        certify_hmin(state, 2)


def _small_state(n, c1, c2, certified=True):
    """n1 = n2 = n, each X_i uniform and each C_i maximally mixed of dimension c_i."""
    comps = [np.stack([np.eye(c) / (c << n)] * (1 << n)) for c in (c1, c2)]
    return CcqMarkovState(n, n, (CcqBlock(1.0, *comps),),
                          certified_k=(n, n) if certified else None)


# Each site that asks `sources.check_budget`: a builder, run at the full budget, of the call
# that the site refuses at a budget of 4 bits.
BUDGET_SITES = {
    "output_table": lambda: partial(extractor_output_table, inner_product_descriptor(3), 3, 3),
    "joint_support": lambda: partial(statistical_distance_from_uniform, deor_descriptor(3, 1),
                                     build_markov_table(3, 3, 2, 1, 1, seed=0)),
    "histogram": lambda: partial(statistical_distance_from_uniform, deor_descriptor(2, 1),
                                 build_markov_table(2, 2, 1, 1, 1, seed=0), ("X1", "X2")),
    "checked_joint": lambda: partial(distinguishing_event_statistic, deor_descriptor(2, 1),
                                     random_joint(2, 2, np.random.default_rng(0))),
    "random_joint": lambda: partial(random_joint, 2, 1, _NoDraws()),
    "flat_distribution": lambda: FlatSource(5, (0,)).distribution,
    "from_flat_pair": lambda: partial(MarkovSourceTable.from_flat_pair,
                                      FlatSource(5, (0,)), FlatSource(5, (1,))),
    "build_markov_table": lambda: partial(build_markov_table, 4, 4, 2, 1, 1, 0),
    "random_flat_source": lambda: partial(random_flat_source, 5, 1, _NoDraws()),
    "assemble": lambda: partial(assemble, _small_state(1, 2, 1)),
    "side_information": lambda: _small_state(1, 3, 2).side_information,
    "certify_hmin": lambda: partial(certify_hmin, _small_state(1, 2, 2, certified=False), 1),
    "one_hot_verify": lambda: partial(verify_quantum_bound, _small_state(2, 1, 1),
                                      inner_product_descriptor(2), 1, 1),
    "one_hot_channel": lambda: partial(apply_extractor_channel, assemble(_small_state(2, 1, 1)),
                                       inner_product_descriptor(2), (4, 4, 1)),
    "random_state": lambda: partial(random_ccq_markov_state, 2, 2, 2, 2, _NoDraws()),
    "random_channel": lambda: partial(random_channel, 3, 2, _NoDraws()),
}


@pytest.mark.parametrize("site", BUDGET_SITES)
def test_every_budget_site_refuses_before_allocating(site, monkeypatch):
    attempt = BUDGET_SITES[site]()
    extractor_output_table.cache_clear()  # a cached table returns without a check
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET_BITS", 4)
    _refuse_operators_on_c(monkeypatch)

    def allocated(*args, **kwargs):
        raise AssertionError("allocated past the budget")

    for owner, name in [(np, "zeros"), (np, "eye"), (np.random, "default_rng"),
                        (ExtractorDescriptor, "evaluate")]:
        monkeypatch.setattr(owner, name, allocated)
    with pytest.raises(ResourceBudgetError):
        attempt()


def _four_block_state():
    """n1 = n2 = 2 and four blocks of c1 = c2 = 2, so D = c_dim = 16."""
    comp = np.stack([np.eye(2) / 8] * 4)
    return CcqMarkovState(2, 2, (CcqBlock(0.25, comp, comp),) * 4, certified_k=(2, 2))


# Each intermediate of the extractor-output oracles, with the bits it counts and a call that
# forms it: n1 + m + 2 log2 c2 (the partial sum over x2), m + log2 sum_t (c1 c2)^2 (the
# blocks) and m + 2 log2 D (the dense output of the monotonicity check). The one-hot output,
# n1 + n2 + m = 5 bits, fits every budget below.
OUTPUT_SITES = {
    "partial_sum": (7, lambda: verify_quantum_bound(_small_state(2, 1, 4),
                                                    inner_product_descriptor(2), 1, 1)),
    "output_block": (9, lambda: verify_quantum_bound(_small_state(2, 4, 4),
                                                     inner_product_descriptor(2), 1, 1)),
    "output_blocks": (7, lambda: verify_quantum_bound(_four_block_state(),  # 5 bits a block
                                                      inner_product_descriptor(2), 1, 1)),
    "dense_output": (9, lambda: channel_monotonicity_check(
        _four_block_state(), inner_product_descriptor(2), [np.eye(16)])),
}


@pytest.mark.parametrize("site", OUTPUT_SITES)
def test_output_intermediates_are_refused_before_they_are_allocated(site, monkeypatch):
    bits, attempt = OUTPUT_SITES[site]

    def allocated(*args, **kwargs):
        raise AssertionError("allocated past the budget")

    monkeypatch.setattr(np, "einsum", allocated)
    monkeypatch.setattr(qsim, "_block_diagonal", allocated)
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET_BITS", bits - 1)
    with pytest.raises(ResourceBudgetError, match=f"of {bits} bits"):
        attempt()
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET_BITS", bits)
    with pytest.raises(AssertionError):  # admitted, so it goes on to allocate
        attempt()


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


@pytest.mark.parametrize("kraus", [
    np.eye(1).astype(str).tolist(),
    [[True]],
    [[["1"]]],
    [np.eye(1).astype(str)],
    [np.eye(1, dtype=bool)],
    [[1.0]],
    [1.0],
    [np.eye(2) / 2] * 4,
    None,
    5,
], ids=["numeric_strings", "bools", "nested_numeric_string", "string_array", "bool_array",
        "vector", "scalar", "wrong_dimension", "none", "int"])
def test_monotonicity_refuses_malformed_kraus_operators(kraus):
    uniform = np.full((4, 1, 1), 0.25)
    state = CcqMarkovState(2, 2, (CcqBlock(1.0, uniform, uniform),), certified_k=(2, 2))
    ext = deor_descriptor(2, 1)
    assert channel_monotonicity_check(state, ext, [[[1.0]]]).holds
    with pytest.raises(InvalidArgumentError, match="Kraus"):
        channel_monotonicity_check(state, ext, kraus)
