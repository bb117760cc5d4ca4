"""Reverse-mode automatic differentiation over dense float tensors.

A small numpy-backed engine. Every operation records its parent tensors
and a vector-Jacobian closure; :func:`backward` replays the recorded
graph once in reverse topological order. Gradients are themselves
tensors built from the same primitives, so a second backward pass (used
for exact Hessian-vector products) works when ``create_graph=True``.

Leaves and forward ops are checked to hold only finite values as they
are built, and the first op that produces NaN or Inf raises
:class:`NonFiniteError` naming it. A backward pass with
``create_graph=True`` checks every op it builds the same way. A
first-order backward builds its ops unchecked, with numpy's
floating-point warnings off, and checks each gradient it returns once:
every vector-Jacobian product is linear in its cotangent, so a NaN or Inf
in a cotangent reaches the returned gradients it feeds. If one is
non-finite, the sweep is replayed with every op checked, which raises
the error, naming the op and the op being differentiated, and numpy's
warnings that checking each op gives. So a value inside a
vector-Jacobian product that goes non-finite but leaves every returned
gradient finite (an overflowed denominator that only divides a gradient
to zero, say) is no error there.

A forward that records no graph need not pay a node per op.
:class:`bare` holds each op's forward arithmetic on plain arrays, under
the op's name, and each tape op computes its output with it.
:func:`run_forward` runs one forward body over either: the tape (this
module) when an op on its inputs records a graph, else bare arrays. The
bare pass checks only where an op could turn a NaN or Inf into a finite
value, and what it returns; a failed check replays the body on the tape,
which raises naming the op, as a first-order backward replays its sweep.

The check costs one BLAS dot product per tensor, the sum of its squares
(see :func:`all_finite`): a finite result proves every element finite.
Only a non-finite result, which finite values whose squares overflow can
also give, falls back to an elementwise test, so such tensors are still
accepted.

A vector-Jacobian closure returns one gradient per parent, or ``None``
for a parent that does not require grad; :func:`backward` skips those.
A closure that needs its own op's output (``exp``, ``sqrt``, ``softmax``)
holds it by weak reference, so a graph has no reference cycles and is
freed as soon as its last tensor is dropped, not by the cyclic collector.
Constants that only a gradient reads (the pass-through masks of ``relu``
and ``clip``, the support of ``sparsemax``) are built inside the closure,
so a forward that records no graph never builds them.
:func:`records_graph` is the one test of whether an op records a node.

Two primitives take numpy's faster form where it gives the same bits. A
softmax's or logsumexp's shift, a max over many short last-axis rows, is
taken over the leading axis of a transposed copy (:func:`_row_max`): a max
rounds nothing. :func:`scatter_rows`, the embedding gradient, calls
``np.add.at`` on flattened 1-D arrays: it adds in index order whatever the
shapes, so each element gets the same additions in the same order
(numpy 1.24, the declared floor, gives the same bits without the fast
loop of 1.25 and later). Sums keep numpy's own form, since another order
of additions rounds otherwise.

``matmul`` broadcasts over leading axes, ``transpose`` permutes any axes
and ``narrow``/``concat`` work along any axis, so a model can run a whole
padded batch as one graph.

Tensors hash and compare by identity (``Tensor`` defines no ``__eq__`` or
``__hash__``), and :func:`backward` relies on it: its visited set, reach
set and gradient table are keyed by the tensors themselves.

Storage is 32-bit by default. Finite-difference oracles in the test
suite instantiate the same operations in 64-bit, which the engine
supports via an explicit dtype.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import sys
import weakref
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_DTYPE = np.float32

T = TypeVar("T")

# Clamp floor inside KL divergences; keeps log() off exact zeros.
KL_EPS = 1e-8

# Step-size constants for central-difference Hessian-vector products.
HVP_EPS0 = 1e-2
HVP_DELTA = 1e-8


class NonFiniteError(ArithmeticError):
    """A tensor operation produced NaN or Inf values."""


class GradientError(RuntimeError):
    """The backward pass was asked for something the graph cannot give."""


_grad_enabled = True
# Off only inside a first-order backward sweep, which checks what it returns.
_check_ops = True


class _GradMode:
    """Sets graph recording to the subclass's ``enabled`` inside its body;
    restores the previous setting on exit, also on an exception."""

    def __enter__(self) -> "_GradMode":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = self.enabled
        return self

    def __exit__(self, *exc: object) -> bool:
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class no_grad(_GradMode):
    """Context manager that disables graph recording inside its body."""

    enabled = False


class enable_grad(_GradMode):
    """Context manager that re-enables graph recording inside its body."""

    enabled = True


def all_finite(arr: np.ndarray) -> bool:
    """True when every element of ``arr`` is finite.

    The proof is ``vdot(arr, arr)``, the sum of squares, which numpy hands
    to one BLAS ``sdot``/``ddot`` call. Every square is >= 0, so a NaN or
    +-Inf element makes the sum NaN or +Inf and no other term can cancel
    it: a finite sum proves every element finite. Finite values whose
    squares overflow (|x| above about 1.8e19 in float32, 1.3e154 in
    float64) also give +Inf; only then does the elementwise test run, and
    it accepts them. The sum is never returned or stored, so it changes no
    op's output.
    """
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _as_array(data: object, dtype: np.dtype | type | None) -> np.ndarray:
    """``data`` as the C-contiguous float array a tensor stores: ``dtype``
    if given, else its own float32/float64 dtype, else DEFAULT_DTYPE."""
    arr = np.asarray(data)
    # astype rather than ascontiguousarray: the latter promotes 0-d to 1-d.
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(DEFAULT_DTYPE)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """Dense float array plus an optional handle into the recorded graph."""

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp", "_op", "__weakref__")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        name: str | None = None,
        dtype: np.dtype | type | None = None,
    ) -> None:
        arr = _as_array(data, dtype)
        if not all_finite(arr):
            raise NonFiniteError(f"non-finite values produced by '{name or 'leaf'}'")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Tensor], tuple[Tensor | None, ...]] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = self.name or self._op
        return f"Tensor({tag}, shape={self.shape}, dtype={self.data.dtype})"


def constant(x: object, dtype: np.dtype | type | None = None) -> Tensor:
    """Wrap a value as a non-differentiable tensor."""
    return Tensor(x, requires_grad=False, dtype=dtype)


@functools.cache
def scalar(value: float, dtype: np.dtype | type) -> Tensor:
    """A read-only 0-d constant, built once per (value, dtype) and shared."""
    out = constant(np.asarray(value, dtype=dtype))
    out.data.setflags(write=False)
    return out


def records_graph(parents: Iterable[Tensor]) -> bool:
    """True when an op on ``parents`` records a graph node: grad is enabled
    and some parent requires grad."""
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return True
    return False


# bound once: _from_op runs for every node
_new_tensor = Tensor.__new__
_ndarray = np.ndarray


def _from_op(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    vjp: Callable[[Tensor], tuple[Tensor | None, ...]],
    op: str,
) -> Tensor:
    """An op's output node."""
    # numpy reductions over every axis return a scalar, not an array
    arr = data if type(data) is _ndarray else np.asarray(data)
    if _check_ops and not all_finite(arr):
        raise NonFiniteError(f"non-finite values produced by '{op}'")
    out = _new_tensor(Tensor)
    out.data = arr
    out.name = None
    out._op = op
    if records_graph(parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
        return out
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    return out


# ---------------------------------------------------------------------------
# forwards that record no graph: bare arrays


class _Unproved(Exception):
    """A bare pass met a value that may hide a NaN or Inf downstream."""


class bare:
    """Each op's forward arithmetic on plain arrays, under the op's name.

    Every tape op below computes its output with the function of its name
    here and wraps it in a node, so a pass over these functions gives the
    tape's bits with no node, closure or check per op. With ``constant``,
    ``scalar``, ``checked`` and ``result`` they are the names a forward body
    reads from its ``ops`` (see :func:`run_forward`); this module itself is
    the tape form of each.
    """

    add = np.add
    sub = np.subtract
    mul = np.multiply
    div = np.true_divide
    neg = np.negative
    exp = np.exp
    log = np.log
    sqrt = np.sqrt
    matmul = np.matmul
    reshape = np.ndarray.reshape

    @staticmethod
    def pow_const(x: np.ndarray, p: float) -> np.ndarray:
        return x**p

    @staticmethod
    def relu(x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0)

    @staticmethod
    def clip(x: np.ndarray, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        return np.clip(x, lo, hi)

    @staticmethod
    def transpose(x: np.ndarray, axes: Sequence[int] | None = None) -> np.ndarray:
        return np.ascontiguousarray(x.transpose(_swap_last_two(x.ndim) if axes is None else axes))

    @staticmethod
    def narrow(x: np.ndarray, axis: int, start: int, length: int) -> np.ndarray:
        return np.ascontiguousarray(x[_slice_along(x.ndim, axis, start, length)])

    @staticmethod
    def concat(xs: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
        return np.concatenate(xs, axis=axis)

    @staticmethod
    def tsum(x: np.ndarray, axis: int | None = None, keepdims: bool = False,
             lengths: LengthGroups | None = None) -> np.ndarray:
        if lengths is None:
            return x.sum(axis=axis, keepdims=keepdims)
        if axis is None or not keepdims:
            raise ValueError("a prefix sum needs one axis and keepdims=True")
        return _prefix_sum(x, axis, lengths)

    @staticmethod
    def tmean(x: np.ndarray, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
        return _tmean(bare, x, axis, keepdims)

    @staticmethod
    def broadcast_to(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        return x if x.shape == shape else np.ascontiguousarray(np.broadcast_to(x, shape))

    @staticmethod
    def gather_rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return table[ids]

    @staticmethod
    def softmax(x: np.ndarray, axis: int = -1, lengths: LengthGroups | None = None) -> np.ndarray:
        e = np.exp(x - _row_max(x, axis))
        if lengths is None:
            return e / e.sum(axis=axis, keepdims=True)
        return e / _prefix_sum(e, axis, lengths)

    @staticmethod
    def sparsemax(z: np.ndarray) -> np.ndarray:
        if z.ndim == 1:
            return sparsemax_project(z)
        # Rows are often copies of one vector (one per batch example).
        rows = [r.tobytes() for r in z.reshape(-1, z.shape[-1])]
        done = {key: sparsemax_project(np.frombuffer(key, dtype=z.dtype)) for key in set(rows)}
        return np.stack([done[key] for key in rows]).reshape(z.shape)

    @staticmethod
    def constant(x: object, dtype: np.dtype | type | None = None) -> np.ndarray:
        return _as_array(x, dtype)

    @staticmethod
    def scalar(value: float, dtype: np.dtype | type) -> np.ndarray:
        return scalar(value, dtype).data

    @staticmethod
    def checked(x: np.ndarray) -> np.ndarray:
        """``x``, proved finite; else the pass stops, to be replayed on the tape."""
        if not all_finite(x):
            raise _Unproved
        return x

    @staticmethod
    def result(x: np.ndarray) -> Tensor:
        """``x`` as it is, unchecked, in a tensor that records no graph, for
        the pass to return."""
        out = _new_tensor(Tensor)
        out.data = x
        out.name = None
        out._op = "bare"
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
        return out


def checked(x: Tensor) -> Tensor:
    """``x``: the tape checks each op's output as it builds it, so a forward
    body's ``ops.checked`` proves something only in :class:`bare`."""
    return x


# a forward body's ``ops.result``: on the tape its value is already a tensor
result = checked

_tape = sys.modules[__name__]


def _tensors(x: object) -> Iterable[Tensor]:
    if isinstance(x, Tensor):
        return (x,)
    if isinstance(x, dict):
        return x.values()
    return x or ()


def _arrays(x: object) -> object:
    """An input of :func:`run_forward` with each tensor replaced by its array."""
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, dict):
        return {key: t.data for key, t in x.items()}
    return None if x is None else [t.data for t in x]


def run_forward(body: Callable[..., T], *inputs: object, **static: object) -> T:
    """``body(ops, *inputs, **static)``, over the tape or over bare arrays.

    ``inputs`` are tensors, lists or dicts of tensors, or None. If an op on
    them records a graph, ``ops`` is this module and the body records one.
    Otherwise ``ops`` is :class:`bare` and the body runs on their arrays,
    with numpy's floating-point warnings off: no node, closure or check per
    op. It checks only where an op could turn a NaN or Inf into a finite
    value (``ops.checked``: a softmax or relu input, a variance that
    divides) and what it returns, and wraps what it returns as tensors
    (``ops.result``). A failed check replays the body on the tape under
    :class:`no_grad`, which raises the :class:`NonFiniteError` and numpy's
    warnings that checking each op gives, as :func:`backward` replays an
    unchecked sweep; if the replay raises nothing, its value is returned.
    """
    if records_graph(itertools.chain.from_iterable(map(_tensors, inputs))):
        return body(_tape, *inputs, **static)
    try:
        with np.errstate(all="ignore"):
            return body(bare, *map(_arrays, inputs), **static)
    except _Unproved:
        pass
    with no_grad():
        return body(_tape, *inputs, **static)


def _sum_to(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a gradient back to ``shape``, that of an operand numpy broadcast into it."""
    if g.shape == shape:
        return g
    out = g
    # Innermost leading axis first: a (B, L, D) gradient sums each example's
    # rows, then the examples in order, as separate per-example graphs would.
    while out.ndim > len(shape):
        out = tsum(out, axis=out.ndim - len(shape) - 1)
    for ax, (have, want) in enumerate(zip(out.shape, shape)):
        if want == 1 and have != 1:
            out = tsum(out, axis=ax, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g: Tensor) -> tuple[Tensor | None, Tensor | None]:
        return (
            _sum_to(g, a.shape) if a.requires_grad else None,
            _sum_to(g, b.shape) if b.requires_grad else None,
        )

    return _from_op(bare.add(a.data, b.data), (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g: Tensor) -> tuple[Tensor | None, Tensor | None]:
        return (
            _sum_to(g, a.shape) if a.requires_grad else None,
            _sum_to(neg(g), b.shape) if b.requires_grad else None,
        )

    return _from_op(bare.sub(a.data, b.data), (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g: Tensor) -> tuple[Tensor | None, Tensor | None]:
        return (
            _sum_to(mul(g, b), a.shape) if a.requires_grad else None,
            _sum_to(mul(g, a), b.shape) if b.requires_grad else None,
        )

    return _from_op(bare.mul(a.data, b.data), (a, b), vjp, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g: Tensor) -> tuple[Tensor | None, Tensor | None]:
        da = _sum_to(div(g, b), a.shape) if a.requires_grad else None
        db = None
        if b.requires_grad:
            db = _sum_to(neg(div(mul(g, a), mul(b, b))), b.shape)
        return da, db

    return _from_op(bare.div(a.data, b.data), (a, b), vjp, "div")


def neg(a: Tensor) -> Tensor:
    return _from_op(bare.neg(a.data), (a,), lambda g: (neg(g),), "neg")


def pow_const(a: Tensor, p: float) -> Tensor:
    def vjp(g: Tensor) -> tuple[Tensor]:
        return (mul(g, mul(scalar(p, a.dtype), pow_const(a, p - 1.0))),)

    return _from_op(bare.pow_const(a.data, p), (a,), vjp, "pow")


def exp(a: Tensor) -> Tensor:
    out = _from_op(bare.exp(a.data), (a,), lambda g: (mul(g, ref()),), "exp")
    ref = weakref.ref(out)
    return out


def log(a: Tensor) -> Tensor:
    return _from_op(bare.log(a.data), (a,), lambda g: (div(g, a),), "log")


def sqrt(a: Tensor) -> Tensor:
    out = _from_op(
        bare.sqrt(a.data),
        (a,),
        lambda g: (div(g, mul(scalar(2.0, a.dtype), ref())),),
        "sqrt",
    )
    ref = weakref.ref(out)
    return out


def relu(a: Tensor) -> Tensor:
    """max(a, 0); the gradient's pass-through mask is built only when a gradient is taken."""
    x = a.data
    return _from_op(bare.relu(x), (a,), lambda g: (mul(g, constant((x > 0).astype(x.dtype.type))),),
                    "relu")


def clip(a: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clamp values; gradient passes only where the input was untouched.

    The pass-through mask is built only when a gradient is taken.
    """
    x = a.data
    out = bare.clip(x, lo, hi)
    return _from_op(out, (a,), lambda g: (mul(g, constant((out == x).astype(x.dtype.type))),), "clip")


# ---------------------------------------------------------------------------
# shape and linear-algebra primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul expects operands with at least 2 axes, got {a.shape} @ {b.shape}")

    def vjp(g: Tensor) -> tuple[Tensor | None, Tensor | None]:
        return (
            _sum_to(matmul(g, transpose(b)), a.shape) if a.requires_grad else None,
            _sum_to(matmul(transpose(a), g), b.shape) if b.requires_grad else None,
        )

    return _from_op(bare.matmul(a.data, b.data), (a, b), vjp, "matmul")


@functools.cache
def _swap_last_two(ndim: int) -> tuple[int, ...]:
    """The permutation that swaps the last two of ``ndim`` axes."""
    return (*range(ndim - 2), ndim - 1, ndim - 2)


@functools.cache
def _inverse_permutation(axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(axes.index(i) for i in range(len(axes)))


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Swap the last two axes, or permute the axes in the order ``axes`` lists."""
    if axes is None:
        if a.ndim < 2:
            raise ValueError(f"transpose expects at least 2 axes, got {a.shape}")
        axes = _swap_last_two(a.ndim)
    else:
        axes = tuple(axes)
    inverse = _inverse_permutation(axes)
    return _from_op(bare.transpose(a.data, axes), (a,), lambda g: (transpose(g, inverse),), "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return _from_op(bare.reshape(a.data, shape), (a,), lambda g: (reshape(g, old),), "reshape")


def _slice_along(ndim: int, axis: int, start: int, length: int) -> tuple[slice, ...]:
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} out of range for {ndim} axes")
    return (slice(None),) * (axis % ndim) + (slice(start, start + length),)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    return _from_op(bare.narrow(a.data, axis, start, length), (a,),
                    lambda g: (_embed(g, a.shape, axis, start),), "narrow")


def _embed(g: Tensor, shape: tuple[int, ...], axis: int, start: int) -> Tensor:
    """Place a slice gradient into a zero tensor of the original shape."""
    length = g.shape[axis]
    data = np.zeros(shape, dtype=g.dtype)
    data[_slice_along(len(shape), axis, start, length)] = g.data
    return _from_op(data, (g,), lambda gg: (narrow(gg, axis, start, length),), "embed")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    data = bare.concat([t.data for t in ts], axis=axis)

    def vjp(g: Tensor) -> tuple[Tensor, ...]:
        outs = []
        offset = 0
        for t in ts:
            outs.append(narrow(g, axis, offset, t.shape[axis]))
            offset += t.shape[axis]
        return tuple(outs)

    return _from_op(data, tuple(ts), vjp, "concat")


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    ts = list(tensors)
    rows = [reshape(t, (1,) + t.shape) for t in ts]
    return concat(rows, axis=0)


class LengthGroups:
    """Rows of an array grouped by their valid prefix length, for prefix sums.

    ``shape`` is the summed array's shape; the sum runs over its last axis,
    and ``lengths`` broadcasts over the other axes. Built once, it serves every
    prefix sum over rows of that shape and those lengths: a softmax forward,
    its gradient, and every layer that reuses the mask.
    """

    __slots__ = ("shape", "order", "spans")

    def __init__(self, lengths: np.ndarray, shape: tuple[int, ...]) -> None:
        width = shape[-1]
        flat = np.broadcast_to(np.asarray(lengths, dtype=np.int64), shape[:-1]).reshape(-1)
        self.shape = tuple(shape)
        # stable order by length; one (start, stop, length) span per length
        self.order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=width + 1)
        stops = np.cumsum(counts)
        self.spans = tuple((int(stops[n] - counts[n]), int(stops[n]), int(n))
                           for n in np.flatnonzero(counts))


def _prefix_sum(x: np.ndarray, axis: int, groups: LengthGroups) -> np.ndarray:
    """Sum over the last axis (keepdims) of each row's valid prefix, as ``groups`` holds it.

    numpy orders a float sum's additions by the row length, so a row padded
    with zeros can round differently from the same row alone. Summing only
    the valid prefix rounds a padded batch row exactly like the row alone.
    """
    if axis not in (-1, x.ndim - 1):
        raise ValueError(f"a prefix sum runs over the last axis, not axis {axis} of {x.shape}")
    if groups.shape != x.shape:
        raise ValueError(f"length groups for shape {groups.shape} used on {x.shape}")
    ordered = x.reshape(-1, x.shape[-1])[groups.order]
    sums = np.empty(len(ordered), dtype=x.dtype)
    for start, stop, n in groups.spans:
        sums[start:stop] = ordered[start:stop, :n].sum(axis=-1)
    out = np.empty_like(sums)
    out[groups.order] = sums
    return out.reshape(x.shape[:-1] + (1,))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False,
         lengths: LengthGroups | None = None) -> Tensor:
    """Sum over ``axis`` (all axes for None).

    ``lengths`` (the last axis, keepdims only) groups the rows by their
    valid prefix; entries past it must be zero, and are left out of the sum
    so they cannot change its rounding.
    """
    data = bare.tsum(a.data, axis, keepdims, lengths)

    def vjp(g: Tensor) -> tuple[Tensor]:
        gg = g
        if axis is not None and not keepdims:
            kept = list(a.shape)
            kept[axis] = 1
            gg = reshape(gg, tuple(kept))
        elif axis is None:
            gg = reshape(gg, (1,) * a.ndim)
        return (broadcast_to(gg, a.shape),)

    return _from_op(data, (a,), vjp, "sum")


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return _tmean(_tape, a, axis, keepdims)


def _tmean(ops, a, axis: int | None, keepdims: bool):
    """The mean as a sum times 1/n, over ``ops``: this module or :class:`bare`."""
    n = a.size if axis is None else a.shape[axis]
    return ops.mul(ops.tsum(a, axis=axis, keepdims=keepdims), ops.scalar(1.0 / n, a.dtype))


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if a.shape == shape:
        return a
    return _from_op(bare.broadcast_to(a.data, shape), (a,), lambda g: (_sum_to(g, a.shape),),
                    "broadcast")


def gather_rows(table: Tensor, ids: Sequence[int] | np.ndarray) -> Tensor:
    """Select rows of a 2-D table by an integer index array of any shape.

    The index needs at least one axis and one element, each in
    [0, num_rows), the indices :func:`scatter_rows` takes back; any other
    raises before a node is built. (A negative id would wrap, and
    ``scatter_rows`` would key it into the previous sequence's rows.)
    """
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim == 0 or idx.size == 0:
        raise ValueError(f"gather_rows needs a non-empty index of at least one axis, got shape {idx.shape}")
    num_rows = table.shape[0]
    if idx.min() < 0 or idx.max() >= num_rows:
        flat = idx.reshape(-1)
        bad = flat[np.argmax((flat < 0) | (flat >= num_rows))]
        raise ValueError(f"gather_rows id {bad} is outside [0, {num_rows})")
    return _from_op(
        bare.gather_rows(table.data, idx),
        (table,),
        lambda g: (scatter_rows(g, idx, num_rows),),
        "gather_rows",
    )


def scatter_rows(g: Tensor, ids: np.ndarray, num_rows: int) -> Tensor:
    """Add rows of ``g`` into a zero table at the given (non-empty) indices.

    Each last-axis slice of the index array (one sequence of a batch) is
    summed on its own first, and the slices are then added in order, which
    rounds as separate per-sequence graphs do; 1-D indices are one slice.

    Both sums call ``np.add.at`` on the flattened arrays, with one element
    index ``row * width + col`` per entry, which numpy 1.25 and later run
    in a tight loop, 2-3x faster at the model's shapes than its row-by-row
    form on 2-D arrays. ``np.add.at`` adds in index order whatever the
    shapes, so each element gets the same additions, in the same order,
    onto the same +0.0 start, and the same bits. numpy 1.24, the declared
    floor, gives the same bits without the fast loop.
    """
    idx = np.asarray(ids, dtype=np.int64)
    data = np.zeros((num_rows,) + g.shape[idx.ndim:], dtype=g.dtype)
    width = math.prod(data.shape[1:])
    # number the distinct (sequence, row) pairs in sequence order
    seq = np.repeat(np.arange(idx.size // idx.shape[-1]), idx.shape[-1])
    key = seq * num_rows + idx.reshape(-1)
    order = np.argsort(key, kind="stable")
    pairs = key[order]
    first = np.concatenate([[True], pairs[1:] != pairs[:-1]])
    which = np.empty_like(order)
    which[order] = np.cumsum(first) - 1
    partial = np.zeros(int(first.sum()) * width, dtype=g.dtype)
    np.add.at(partial, _elements(which, width), g.data.reshape(-1))
    np.add.at(data.reshape(-1), _elements(pairs[first] % num_rows, width), partial)
    return _from_op(data, (g,), lambda gg: (gather_rows(gg, idx),), "scatter_rows")


def _elements(rows: np.ndarray, width: int) -> np.ndarray:
    """The flat indices of each of ``rows``' ``width`` elements, row after row."""
    return (rows[:, None] * width + np.arange(width)).reshape(-1)


# ---------------------------------------------------------------------------
# softmax family and losses

# A max over a last axis at most this wide, of at least this many rows, is
# faster over the leading axis of a transposed copy (see :func:`_row_max`).
_SHORT_ROWS = 32


def _row_max(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis=axis, keepdims=True)``, the shift of a softmax or logsumexp.

    numpy reduces a last axis row by row. Over many short rows, a max over
    the leading axis of a contiguous transposed copy runs element-wise down
    whole rows instead, and is up to 12x faster; over wide rows it is
    slower, so those keep ``x.max``. A max rounds nothing, so both give
    the same values, and NaN propagates in both. Only the sign of a zero
    maximum can differ, and then exp(x - m) and m + log(total) keep their
    bits: exp(+-0) = 1 and log(total) >= +0.
    """
    if x.ndim >= 2 and axis in (-1, x.ndim - 1):
        width = x.shape[-1]
        if 0 < width <= _SHORT_ROWS <= x.size // width:
            flat = np.ascontiguousarray(x.reshape(-1, width).T)
            return flat.max(axis=0).reshape(x.shape[:-1] + (1,))
    return x.max(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1, lengths: LengthGroups | None = None) -> Tensor:
    """Softmax along ``axis``.

    ``lengths`` (the last axis only) groups the rows by their valid prefix
    when the entries past it are masked to exactly zero weight; the sums
    here and in the gradient then skip them, so a padded row rounds exactly
    like the row alone.
    """
    def vjp(g: Tensor) -> tuple[Tensor]:
        out = ref()
        inner = tsum(mul(g, out), axis=axis if axis >= 0 else out.ndim + axis, keepdims=True,
                     lengths=lengths)
        return (mul(sub(g, inner), out),)

    out = _from_op(bare.softmax(a.data, axis, lengths), (a,), vjp, "softmax")
    ref = weakref.ref(out)
    return out


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(a))) over the last axis, computed against a constant shift."""
    shift = _row_max(a.data, -1)
    total = tsum(exp(sub(a, constant(shift))), axis=-1)
    return add(log(total), constant(shift[..., 0]))


def cross_entropy(logits: Tensor, target: int | Sequence[int] | np.ndarray | Tensor) -> Tensor:
    """Negative log-likelihood of ``target`` under a softmax over the last axis.

    ``logits`` is one logit vector (C,) or a batch of them (B, C), and the
    result is one loss per vector: () or (B,). Integer targets select one
    class per vector; a tensor target holds probability vectors (soft
    labels) of the logits' shape.
    """
    if logits.ndim not in (1, 2):
        raise ValueError(f"cross_entropy expects (C,) or (B, C) logits, got shape {logits.shape}")
    if not isinstance(target, Tensor):
        idx = np.asarray(target, dtype=np.int64)
        classes = logits.shape[-1]
        if idx.shape != logits.shape[:-1]:
            raise ValueError(f"{idx.size} targets for logits of shape {logits.shape}")
        if ((idx < 0) | (idx >= classes)).any():
            raise ValueError(f"target {idx.tolist()} out of range for {classes} classes")
        target = constant(np.eye(classes, dtype=logits.dtype)[idx])
    return sub(logsumexp(logits), tsum(mul(target, logits), axis=-1))


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """KL(p || q) for probability vectors, with q clamped below by KL_EPS.

    Terms where p == 0 contribute exactly zero.
    """
    if p.shape != q.shape:
        raise ValueError(f"KL shape mismatch: {p.shape} vs {q.shape}")
    p_safe = clip(p, lo=KL_EPS)
    q_safe = clip(q, lo=KL_EPS)
    return tsum(mul(p, sub(log(p_safe), log(q_safe))))


def mse(pred: Tensor, target: Tensor) -> Tensor:
    d = sub(pred, target)
    return tmean(mul(d, d))


# ---------------------------------------------------------------------------
# sparsemax


def sparsemax_project(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(z)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("sparsemax expects a non-empty vector")
    order = np.argsort(-v, kind="stable")
    zs = v[order]
    k = np.arange(1, v.size + 1)
    cumulative = np.cumsum(zs)
    support = 1.0 + k * zs > cumulative
    k_max = int(k[support][-1])
    tau = (cumulative[k_max - 1] - 1.0) / k_max
    return np.maximum(v - tau, 0.0).astype(v.dtype)


def sparsemax(z: Tensor) -> Tensor:
    """Sparsemax of a vector, or of each row (last axis) of a stack."""
    p = bare.sparsemax(z.data)

    def vjp(g: Tensor) -> tuple[Tensor]:
        # J = Diag(m) - m m^T / |S| on the support indicator m, per row.
        support = constant((p > 0).astype(z.dtype.type))
        inv_size = constant((1.0 / (p > 0).sum(axis=-1, keepdims=True)).astype(z.dtype))
        masked = mul(g, support)
        total = tsum(masked, axis=-1, keepdims=True)
        correction = mul(support, mul(total, inv_size))
        return (sub(masked, correction),)

    return _from_op(p, (z,), vjp, "sparsemax")


# ---------------------------------------------------------------------------
# backward pass and Hessian-vector products


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and parent not in seen:
                stack.append((parent, False))
    return order


def _sweep(
    loss: Tensor,
    order: list[Tensor],
    reaches: set[Tensor],
    wanted: set[Tensor],
    checked: bool,
) -> dict[Tensor, Tensor]:
    """One reverse pass over ``order``: the gradients of the ``wanted`` tensors.

    ``checked=False`` builds each op's output unchecked and with numpy's
    floating-point warnings off; the caller then checks what is returned.
    """
    global _check_ops
    grads: dict[Tensor, Tensor] = {loss: constant(np.ones(loss.shape, dtype=loss.dtype))}
    prev = _check_ops
    _check_ops = checked
    try:
        with np.errstate() if checked else np.errstate(all="ignore"):
            for node in reversed(order):
                g = grads.get(node)
                if g is None or node._vjp is None or node not in reaches:
                    continue
                try:
                    parent_grads = node._vjp(g)
                except NonFiniteError as err:
                    raise NonFiniteError(
                        f"non-finite gradient while differentiating '{node._op}': {err}"
                    ) from err
                for parent, pg in zip(node._parents, parent_grads):
                    if pg is None or parent not in reaches:
                        continue
                    held = grads.get(parent)
                    grads[parent] = pg if held is None else add(held, pg)
                if node not in wanted:
                    del grads[node]
    finally:
        _check_ops = prev
    return grads


def backward(
    loss: Tensor,
    wrt: Sequence[Tensor],
    create_graph: bool = False,
) -> list[Tensor]:
    """Gradients of a scalar loss with respect to each tensor in ``wrt``.

    The recorded graph is traversed exactly once. Only nodes that lie on a
    path to some tensor in ``wrt`` are differentiated: a branch that reaches
    none of them (say, one behind a tensor that requires grad but is not
    asked for) feeds no returned gradient, so its vector-Jacobian closures
    never run. Parameters the loss does not reach get a zero gradient and a
    logged warning. With ``create_graph=True`` the returned gradients are
    themselves graph nodes, so they can be differentiated again.

    With ``create_graph=True`` every op the pass builds is checked for
    NaN and Inf. Otherwise only the returned gradients are, once each; if
    one is non-finite the pass is replayed with every op checked, and
    raises the :class:`NonFiniteError` that checking gives.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GradientError("loss does not depend on any tracked tensor")

    order = _toposort(loss)
    wanted = set(wrt)
    # Parents come before children in ``order``, so one pass marks every node
    # on a path to a wrt tensor; only those collect gradients and run closures.
    reaches = {t for t in wrt if t.requires_grad}
    for node in order:
        for p in node._parents:
            if p in reaches:
                reaches.add(node)
                break

    with enable_grad() if create_graph else no_grad():
        grads = _sweep(loss, order, reaches, wanted, checked=create_graph)
        if not create_graph and not all(all_finite(g.data) for g in grads.values()):
            # the same sweep with every op checked raises naming the op
            grads = _sweep(loss, order, reaches, wanted, checked=True)

    out: list[Tensor] = []
    for t in wrt:
        g = grads.get(t)
        if g is None:
            logger.warning("parameter %r is not reached by the loss; gradient is zero", t)
            g = constant(np.zeros(t.shape, dtype=t.dtype))
        out.append(g)
    return out


def central_difference(
    grad_at: Callable[[list[Tensor]], Sequence[np.ndarray]],
    params: Sequence[Tensor],
    v: Sequence[np.ndarray],
    eps0: float = HVP_EPS0,
    delta: float = HVP_DELTA,
) -> list[np.ndarray]:
    """Derivative of ``grad_at`` at ``params`` along ``v``, by central differences.

    The one step rule for every finite-difference hypergradient. The step
    is eps = eps0 / max(||v||, delta), the norm taken in float64. Each shift
    +-eps * v is taken in float64 and rounded once to its parameter's dtype.
    ``grad_at`` gets both probes, params +- shift, as fresh leaves and
    returns a list of gradient arrays, which may be taken with respect to
    other tensors. The quotient (g+ - g-) / (2 eps) is taken and returned
    in float64.
    """
    vs = [np.asarray(x, dtype=np.float64) for x in v]
    eps = eps0 / max(float(np.sqrt(sum(float((x**2).sum()) for x in vs))), delta)
    sides = []
    for sign in (1.0, -1.0):
        probes = [Tensor(p.data + (sign * eps * x).astype(p.dtype), requires_grad=True, name=p.name)
                  for p, x in zip(params, vs)]
        sides.append([np.asarray(g, dtype=np.float64) for g in grad_at(probes)])
    return [(gp - gm) / (2.0 * eps) for gp, gm in zip(*sides)]
