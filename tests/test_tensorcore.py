"""Forward values, gradients against finite differences, and the container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from odflow import tensorcore as tc


def test_softmax_equal_values_row():
    out = tc.softmax_rows(tc.constant([[2.0, 2.0, 2.0, 2.0]]))
    assert np.allclose(out.data, [[0.25, 0.25, 0.25, 0.25]], atol=0)


def test_leaky_relu_piecewise():
    out = tc.leaky_relu(tc.constant([-1.0, 3.0]), slope=0.2)
    assert out.data[0] == pytest.approx(-0.2)
    assert out.data[1] == pytest.approx(3.0)


def test_softmax_hand_oracle():
    # direct exponentiation: e^0 = 1 and e^ln2 = 2, so weights are 1/3, 2/3
    out = tc.softmax_rows(tc.constant([[0.0, math.log(2.0)]]))
    assert np.allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_softmax_rows_sum_to_one_and_open_interval(rng):
    for _ in range(20):
        m = rng.normal(size=(5, 4)) * rng.uniform(0.1, 5)
        out = tc.softmax_rows(tc.constant(m))
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(out.data > 0) and np.all(out.data < 1)


def test_masked_softmax_empty_row_is_zero():
    mask = np.array([[True, True, False], [False, False, False]])
    out = tc.softmax_rows(tc.constant(np.ones((2, 3))), mask)
    assert np.allclose(out.data[0], [0.5, 0.5, 0.0])
    assert np.all(out.data[1] == 0.0)


def test_masked_softmax_ignores_large_masked_entries():
    # the masked-out 1000 must not reach exp (an overflow warning fails the suite)
    out = tc.softmax_rows(tc.constant([[1000.0, 0.0]]), np.array([[False, True]]))
    assert np.array_equal(out.data, [[0.0, 1.0]])


def test_sigmoid_exact_at_infinities():
    out = tc.sigmoid(tc.constant([-np.inf, 0.0, np.inf]))
    assert out.data[0] == 0.0
    assert out.data[1] == 0.5
    assert out.data[2] == 1.0


def test_backward_square():
    x = tc.parameter(3.0)
    with tc.Tape() as tape:
        loss = tc.mul(x, x)
    tape.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_backward_constant_loss_zero_grads():
    x = tc.parameter([1.0, -2.0])
    with tc.Tape() as tape:
        loss = tc.sum(tc.mul(x, 0.0))
    tape.backward(loss)
    assert np.all(x.grad == 0.0)


def test_backward_twice_errors():
    x = tc.parameter(2.0)
    with tc.Tape() as tape:
        loss = tc.mul(x, x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_requires_scalar_on_tape():
    x = tc.parameter([1.0, 2.0])
    with tc.Tape() as tape:
        out = tc.mul(x, 2.0)
    with pytest.raises(tc.ShapeError):
        tape.backward(out)
    y = tc.mul(tc.parameter(1.0), tc.parameter(1.0))   # built outside the tape
    with tc.Tape() as tape2:
        _ = tc.mul(tc.parameter(1.0), 1.0)
        with pytest.raises(RuntimeError):
            tape2.backward(y)


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(tc.ShapeError, match=r"\(2,\).*\(3,\)"):
        tc.add(tc.constant([1.0, 2.0]), tc.constant([1.0, 2.0, 3.0]))
    # a length-5 vector broadcasts along the last axis, not down the 5 rows
    with pytest.raises(tc.ShapeError, match=r"mul.*\(5, 4\).*\(5,\)"):
        tc.mul(tc.constant(np.ones((5, 4))), tc.constant(np.ones(5)))


def test_matmul_chain_matches_finite_differences(rng):
    a = tc.parameter(rng.normal(size=(4, 3)))
    b = tc.parameter(rng.normal(size=(3, 5)))
    c = tc.constant(rng.normal(size=(4, 5)))

    def loss_fn():
        return tc.smooth_l1(tc.matmul(a, b), c)

    errs = tc.gradcheck(loss_fn, {"a": a, "b": b})
    assert errs.max() < 1e-4


def test_forward_is_bitwise_deterministic(rng):
    m = rng.normal(size=(6, 6))
    v = rng.normal(size=6)

    def run():
        out = tc.softmax_rows(tc.add(tc.matmul(tc.constant(m), tc.constant(m)), v[:, None]))
        return tc.sum(out).data.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# finite-difference check for every primitive


def _away_from_kinks(x, margin=0.05):
    # keep leaky-relu inputs clear of the non-differentiable point
    return np.where(np.abs(x) < margin, x + 2 * margin, x)


def _primitive_cases(rng):
    m1 = rng.normal(size=(5, 4))
    m2 = rng.normal(size=(5, 4))
    sq = rng.normal(size=(4, 4))
    v4 = rng.normal(size=4)
    v5 = rng.normal(size=5)
    c5 = rng.normal(size=(5, 1))
    t3 = rng.normal(size=(5, 3, 4))
    c3 = rng.normal(size=(5, 3, 1))
    mask = rng.uniform(size=(5, 4)) < 0.5
    mask[2] = False   # one empty row
    return {
        "add": ([m1, m2], lambda a, b: tc.add(a, b)),
        "add_row": ([m1, v4], lambda a, b: tc.add(a, b)),
        "add_col": ([m1, c5], lambda a, b: tc.add(a, b)),
        "add_outer": ([c5, v4], lambda a, b: tc.add(a, b)),
        "mul": ([m1, m2], lambda a, b: tc.mul(a, b)),
        "mul_scalar": ([m1, np.array(0.8)], lambda a, s: tc.mul(a, s)),
        "mul_float": ([m1], lambda a: tc.mul(a, -1.7)),
        "mul_row": ([m1, v4], lambda a, b: tc.mul(a, b)),
        "mul_col": ([m1, c5], lambda a, b: tc.mul(a, b)),
        "mul_3d": ([t3, c3], lambda a, b: tc.mul(a, b)),
        "matmul": ([m1, sq.T[:4, :4]], lambda a, b: tc.matmul(a, b)),
        "matmul_vec": ([m1, v4], lambda a, b: tc.matmul(a, b)),
        "vec_matmul": ([v5, m1], lambda a, b: tc.matmul(a, b)),
        "transpose": ([m1], lambda a: tc.transpose(a)),
        "reshape": ([m1], lambda a: tc.reshape(a, (2, 10))),
        "concat0": ([m1, m2], lambda a, b: tc.concat([a, b], axis=0)),
        "concat1": ([m1, m2], lambda a, b: tc.concat([a, b], axis=1)),
        "rows": ([m1], lambda a: tc.rows(a, [0, 2, 2, 4])),
        "sum": ([m1], lambda a: tc.sum(a)),
        "sum_axis1": ([m1], lambda a: tc.sum(a, axis=1)),
        "sum_keepdims": ([m1], lambda a: tc.sum(a, axis=0, keepdims=True)),
        "leaky_relu": ([_away_from_kinks(m1)], lambda a: tc.leaky_relu(a, 0.2)),
        "sigmoid": ([m1], lambda a: tc.sigmoid(a)),
        "softplus": ([m1], lambda a: tc.softplus(a)),
        "softmax_rows": ([m1], lambda a: tc.softmax_rows(a)),
        "softmax_rows_masked": ([m1], lambda a: tc.softmax_rows(a, mask)),
        "smooth_l1": ([m1, m2], lambda a, b: tc.smooth_l1(a, b)),
    }


@pytest.mark.parametrize("name", sorted(_primitive_cases(np.random.Generator(np.random.PCG64(0)))))
def test_primitive_gradcheck(name, rng):
    inputs, build = _primitive_cases(rng)[name]
    params = {f"p{i}": tc.parameter(x) for i, x in enumerate(inputs)}
    cotangent = rng.normal(size=build(*params.values()).shape)

    def loss_fn():
        out = build(*params.values())
        if out.shape == ():
            return out
        flat = tc.reshape(out, (-1,)) if out.data.ndim != 1 else out
        return tc.matmul(flat, tc.constant(cotangent.reshape(-1)))

    errs = tc.gradcheck(loss_fn, params)
    assert errs.max() < 1e-4, f"{name}: max rel err {errs.max():.2e}"


def _projected_gradcheck(params, build, rng):
    # positive inputs and cotangent keep every gradient entry away from 0,
    # where a relative error says nothing
    cotangent = rng.uniform(0.5, 1.5, size=build(*params.values()).shape)

    def loss_fn():
        out = build(*params.values())
        return tc.sum(tc.mul(out, tc.constant(cotangent)))

    return tc.gradcheck(loss_fn, params)


@settings(max_examples=40, deadline=None)
@given(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3),
       st.sampled_from(["add", "mul"]), st.integers(0, 2 ** 32 - 1))
def test_broadcasting_add_mul_gradcheck_property(shapes, op, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    fn = tc.add if op == "add" else tc.mul
    params = {f"p{i}": tc.parameter(rng.uniform(0.5, 1.5, size=shape))
              for i, shape in enumerate(shapes.input_shapes)}
    errs = _projected_gradcheck(params, fn, rng)
    assert errs.max() < 1e-4, f"{op} {shapes.input_shapes}: max rel err {errs.max():.2e}"


@settings(max_examples=40, deadline=None)
@given(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3), st.data(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_sum_over_an_axis_gradcheck_property(shape, data, keepdims, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    axis = data.draw(st.sampled_from([None, *range(len(shape))]))
    params = {"p0": tc.parameter(rng.uniform(0.5, 1.5, size=shape))}
    errs = _projected_gradcheck(params, lambda a: tc.sum(a, axis=axis, keepdims=keepdims), rng)
    assert errs.max() < 1e-4, f"sum {shape} axis={axis}: max rel err {errs.max():.2e}"


# ---------------------------------------------------------------------------
# smooth L1


def test_smooth_l1_zero_when_equal(rng):
    x = rng.normal(size=(3, 3))
    assert tc.smooth_l1(tc.constant(x), tc.constant(x.copy())).data == 0.0


def test_smooth_l1_quadratic_branch():
    out = tc.smooth_l1(tc.constant([0.5]), tc.constant([0.0]))
    assert out.data == pytest.approx(0.125)   # 0.5 * 0.5^2


def test_smooth_l1_linear_branch():
    out = tc.smooth_l1(tc.constant([2.0]), tc.constant([0.0]))
    assert out.data == pytest.approx(1.5)     # |2| - 0.5


def test_smooth_l1_mean_reduction():
    out = tc.smooth_l1(tc.constant([[2.0, 0.0], [0.0, 0.0]]), tc.constant(np.zeros((2, 2))))
    assert out.data == pytest.approx(1.5 / 4)


def test_smooth_l1_one_sided_derivatives_at_kink():
    def f(e):
        return float(tc.smooth_l1(tc.constant([e]), tc.constant([0.0])).data)

    h = 1e-7
    left = (f(1.0) - f(1.0 - h)) / h
    right = (f(1.0 + h) - f(1.0)) / h
    assert left == pytest.approx(1.0, abs=1e-6)
    assert right == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# container


def test_container_bit_exact_round_trip(tmp_path, rng):
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=7),
        "gate": np.array(0.25),
    }
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    tc.save_tensors(first, tensors, meta={"epoch": 3, "note": "x"})
    loaded, meta = tc.load_tensors(first)
    assert meta == {"epoch": 3, "note": "x"}
    assert loaded["gate"].shape == ()
    for k in tensors:
        assert np.array_equal(loaded[k], np.asarray(tensors[k]))
    tc.save_tensors(second, loaded, meta=meta)
    assert first.read_bytes() == second.read_bytes()


def test_container_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b'{"format":"something-else"}\n')
    with pytest.raises(ValueError):
        tc.load_tensors(path)
