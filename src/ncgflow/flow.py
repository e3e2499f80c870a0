"""ODE integrators on flat float64 state vectors.

Complex states are packed as interleaved real/imaginary parts (``pack_complex``).
``integrate`` steps a *system* (a ``_System``): a per-call right-hand side
``rhs`` and two steppers, ``rk4`` and ``rk45``.  A system is of one of
two forms:

* an array system (``_array_system``), made of a *stage* and a
  ghost-padded layout.  A stage ``bind(x, k)`` gives ``rates(t)``, which
  fills the pads of x that it reads, writes the rates at x and time t
  into the sites of k and returns nothing: that one contract holds for
  every array stage.  ``rhs`` maps the float64 vector to a fresh float64
  vector through a padded buffer of its own, and the complex structure
  is reassembled inside the stage.  Its rk4 run is ``_rk4_arrays`` with
  the stage and layout bound, which keeps the state and the stage
  inputs in that layout and copies, allocates and checks nothing per
  stage.  Its rk45 run is ``_dopri``.  Every caller's own right-hand side
  f (``system=None``, the default) is stepped as the array system of
  ``_plain_stage``, whose stage stores f's result into k, in the layout
  of the packed vector itself; so f may return a buffer that it reuses,
  because rk4 copies each stage at once and rk45 always did.  Z_n from
  ``transport.ZN_SCALAR_CROSSOVER`` sites on is ``connection._zn_arrays``
  and burgers the system of ``classical._burgers_stage``.  Both stages
  are emitted (``_array_rates``): their equations, applied to ``_Expr``
  names of the stage's views, build expression trees, and the walk of
  each tree gives one ufunc call with ``out`` per operation, compiled
  into a factory of ``rates`` once per process for Z_n, whose steps name
  only views, and once per stage for burgers, so ``bind`` only makes
  views;
* a compiled system (``_stage_kernels``): ``rhs`` maps a list of the
  system's entries, Python complex numbers (the packed vector read as
  complex128) or Python floats, to a list of the same length.  For the
  small systems (M2, the m2row module, Z_n below
  ``transport.ZN_SCALAR_CROSSOVER`` sites, the geodesic) numpy's
  per-call overhead costs more than the arithmetic, so steps run on the
  entries themselves.  A system is compiled from its stage, the source
  lines that evaluate its rates at named stage inputs, with its equations
  written out: into ``rhs`` and into ``rk4``, the fused rk4 run
  (``_compile_rk4``) with the stage written out four times per step, so
  rk4 makes no call per stage.  Its rk45 run is ``_dopri`` reading each
  stage input as a list of entries.  The source is made of entry
  indices, fixed names and the ``repr`` of the equations' and the step's
  constants (a constant whose ``repr`` does not read back, such as inf or
  ``complex(-0.0, 1.0)``, is a name bound to it) and the names ``sin``
  and ``cos``, bound to ``math``'s, never of a value (a system's config
  values, such as the row's Q constants, are run arguments, bound with
  ``bind``); compiling
  costs time and memory per entry, so ``_stage_kernels`` refuses a state
  of more than ``MAX_SCALAR_STATE`` floats before it compiles.  In a
  complex system every number that multiplies an entry is complex: the
  equations' constants, such as beta's 1/2, written as ``(0.5+0j)``
  because the stage's ``_Expr`` leaves are of type ``complex``, and the
  fused run's step coefficients h, h / 2, h / 6 and 2.  CPython 3.11
  computes a float x times a complex z by converting x to ``complex(x,
  0.0)`` and taking the complex product, so the bytes are the same and
  only the mixed-type dispatch goes: 84 of the 359 operations of an M2
  step and 66 of the 276 of a Z_3 step.  The time t stays a float.

So each equation is written once, as an elementwise function, with two
backends: applied to ``_Expr`` symbols it gives an expression whose text
is compiled on scalars (``_stage_kernels``) and whose tree is emitted as
ufunc calls on arrays (``_array_rates``), and applied to arrays or
numbers it is the reference.  An equation that takes a sine or a cosine
calls this module's ``sin`` and ``cos``, which apply to all three.

In both forms the right-hand side must return one entry per entry of the
state (ValueError otherwise), ``y0`` is the packed float64 vector and the
samples land in the same float64 ``Trajectory.states`` block.  The caller
passes the system's ``rhs`` (or a wrapper of it) as f, the positional
argument, so a wrapper of ``integrate`` that wraps f (as the benchmark's
tracer does, naming the Z_n right-hand sides by ``len(y0)``) sees every
call that rk45 makes, every stage of a plain f's rk4 run and the first
stage of an array system's rk4 run, which ``_rk4_arrays`` takes from f:
an array system's rk4 run calls f once, for its first stage.  A compiled
system's rk4 run never calls f.

``integrate`` checks its arguments and the initial state, builds the
time grid and the sample block, preallocated from the step count and the
stride, and hands the whole run to one call of the system's stepper of
``method``, inside ``np.errstate(all="ignore")``: numpy reports no
floating-point event of a run, in either form or method, and a state
that an overflow or an invalid operation makes non-finite or too large
ends the run in :class:`BlowupError`.  Each stepper takes ``(f, y, h,
n_steps, stride, out)``, the packed float64 state and sample block, and
owns its loop: from t = 0 it takes ``n_steps`` steps of h (rk45 lands
on the sampled steps of the same grid with adaptive substeps), checks
every accepted state, writes the state after step k into row ``k //
stride`` of ``out`` when ``stride`` divides k and the final state into
the last row; row 0 holds the initial state already.  The default
method is fixed-step classical RK4; ``method="rk45"`` is an adaptive
Dormand-Prince 4(5) pair.  rk45 lands only on the sampled steps (every
``stride``-th and the last), so an attempt can grow to ``stride * h``
and its states depend on the stride.  On the scenario defaults with
``t_end`` 2 (h = 1e-3, stride 10) a run makes at most 202 attempts for
its 200 sample intervals; at stride 1 every attempt is one whole grid
step and is accepted.  Every stepper aborts with :class:`BlowupError`
when an accepted state leaves the finite ball ``|entry| <= MAX_ABS``,
naming the start of the step as the last good time.  A run may take at
most ``MAX_STEPS`` steps, and an rk45 run of n steps at most
``MAX_ATTEMPTS_PER_STEP * n`` attempts.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MAX_STEPS",
    "MAX_ATTEMPTS_PER_STEP",
    "MAX_ABS",
    "RTOL",
    "ATOL",
    "MAX_SAMPLE_VALUES",
    "MAX_SCALAR_STATE",
    "BlowupError",
    "Trajectory",
    "pack_complex",
    "rk4_step",
    "step_count",
    "sample_count",
    "integrate",
]

Rhs = Callable[[float, np.ndarray], np.ndarray]

MAX_STEPS = 10**8  # grid steps of a run; cli also bounds steps x state floats by MAX_STEPS * MAX_SCALAR_STATE
# rk45 attempts a run may make, per grid step.  The largest measured need is
# 11.2 (y' = -50 y at h = 0.1, where trial steps fail error control); the
# scenario defaults need 0.1 at the default stride and 1 at stride 1.
MAX_ATTEMPTS_PER_STEP = 100
MAX_ABS = 1e9  # an accepted state has every float entry within [-MAX_ABS, MAX_ABS]
RTOL = ATOL = 1e-9  # rk45 error tolerances, relative and absolute
# Bounds the memory of an accepted config: floats in its (samples, state columns)
# block, 1 GiB of float64.  It admits a MAX_GRID burgers run at the default stride.
MAX_SAMPLE_VALUES = 2**27
# Floats in the state of a compiled system.  It bounds the compile time and
# memory of its rhs and fused rk4 run, once per process and system.  On a
# 2-vCPU Xeon whose speed varies, untraced, with the tracemalloc peak: the
# largest, a flat 128-component geodesic, 31-61 ms and 9.0 MB; Z_17 (51
# complex entries) 10-17 ms and 2.8 MB.  Z_n on scalars, below
# transport.ZN_SCALAR_CROSSOVER sites of 6 floats, fits.
MAX_SCALAR_STATE = 256


class BlowupError(RuntimeError):
    """Integration left the admissible region (non-finite or too large)."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(f"{message} (last good time t={last_good_time:.6g})")
        self.last_good_time = last_good_time


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[k]`` is the flat state at ``times[k]``."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]


def pack_complex(*arrays) -> np.ndarray:
    """Concatenate complex arrays into one float64 vector (re/im interleaved)."""
    parts = [
        np.ascontiguousarray(np.asarray(a, dtype=np.complex128)).ravel().view(np.float64)
        for a in arrays
    ]
    return np.concatenate(parts)


def rk4_step(f: Rhs, t: float, y, h: float):
    """One classical Runge-Kutta step; works for arrays and complex scalars."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_arrays(f, y: np.ndarray, h: float, n_steps: int, stride: int, out: np.ndarray, stage, layout) -> None:
    """A whole rk4 run on arrays, stepped in place in a ghost-padded layout; see the module docstring.

    ``layout = (rows, pad)``: a buffer of the run holds the packed state
    split into ``rows`` equal rows, each with ``pad`` floats of ghost
    cells before and after its sites (``(1, 0)`` is the packed vector
    itself).  The state, the two stage inputs y_a and y_b, the weighted
    stage sum acc (``k1 + 2 k2 + 2 k3 + k4``) and the two rate buffers ka
    and kb are six such buffers, zero at first and made once per run;
    ``y``, the packed initial state, is only read, and the rows of ``out``
    are written from the state's sites.  ``stage(x, k)`` binds a stage to
    the input buffer x and the rate buffer k and returns ``rates(t)``,
    which writes the rates at x and time t into k's sites and returns
    nothing; it is bound once per run to (state, ka), (y_a, kb) and (y_b,
    ka).  ``rates`` fills the pads of x that it reads and never writes
    the pads of k, so a rate's pads stay 0, every pad of the state and the
    stage inputs is a copy of a site of an accepted state or 0, and the
    state check on the whole state buffer is the check on its sites.  The
    first stage at t = 0 is ``f(0.0, y)`` (ValueError unless it has as
    many entries as ``y``), f's one call in the run, so a wrapper of f
    sees every array run; the other stages come from ``stage``.
    ``_plain_stage`` makes the stage of a plain f with layout ``(1, 0)``.

    The stage sum is accumulated as each stage arrives, so the run holds
    at most two stages at a time, and its association is ``rk4_step``'s,
    so the states are bit for bit those of a loop of ``rk4_step``.  Every
    operation is a contiguous 1-d ufunc over whole buffers, with ``out``
    positional and the step's constants (h / 2, h, 2 and h / 6) as 0-d
    float64 arrays made once per run: a stage costs numpy's call overhead
    more than its arithmetic, and with float64 buffers they select the
    same loop and values as the Python floats would, without a conversion
    per call; t stays a Python float.  Each new state is checked by the
    exact rule: its peak ``max |entry|``, taken with acc (free between
    steps) as scratch, must be at most ``MAX_ABS``, which an inf or nan
    fails; otherwise ``_check_state`` raises ``BlowupError`` with the
    start of the step as the last good time.  The state is then written
    into row ``step // stride`` of ``out`` at every ``stride``-th step and
    into the last row at the end.
    """
    rows, pad = layout
    k = f(0.0, y)
    _check_length(len(k), y.shape[0])
    bufs = np.zeros((6, rows * (y.shape[0] // rows + 2 * pad)))
    state, y_a, y_b, acc, ka, kb = bufs
    sites = bufs.reshape(6, rows, -1)[::4, :, pad : -pad or None]  # the state's and ka's
    np.copyto(sites, (y.reshape(rows, -1), np.reshape(k, (rows, -1))))
    sites, out = sites[0], out.reshape(out.shape[0], rows, -1)
    first, second, third = (stage(x, rate) for x, rate in ((state, ka), (y_a, kb), (y_b, ka)))
    half = 0.5 * h
    c_half, c_h, c_two, c_sixth = (np.array(c) for c in (half, h, 2.0, h / 6.0))
    add, multiply, absolute, peak_of = np.add, np.multiply, np.absolute, np.maximum.reduce
    for step in range(1, n_steps + 1):
        t = (step - 1) * h
        if step > 1:
            first(t)  # k1 into ka
        multiply(c_half, ka, y_a)
        add(state, y_a, y_a)
        second(t + half)  # k2 into kb
        multiply(c_half, kb, y_b)
        add(state, y_b, y_b)
        multiply(c_two, kb, acc)
        add(ka, acc, acc)
        third(t + half)  # k3 into ka
        multiply(c_h, ka, y_a)
        add(state, y_a, y_a)
        multiply(c_two, ka, ka)
        add(acc, ka, acc)
        second(t + h)  # k4 into kb
        add(acc, kb, acc)
        multiply(c_sixth, acc, acc)
        add(state, acc, state)
        if not peak_of(absolute(state, acc)) <= MAX_ABS:
            _check_state(state, t)
        if step % stride == 0:
            out[step // stride] = sites
    out[-1] = sites


def _plain_stage(f):
    """The stage of a plain array f in the layout ``(1, 0)``: f's result stored into k (``_store``).

    ``_store`` checks the length and copies at once, so f may return its
    input, a fresh array or a buffer it overwrites on its next call.  A
    0-d result is a TypeError.
    """
    return lambda x, k: lambda t: _store(k, f(t, x))  # bind(x, k) gives rates(t)


def _compile(source: str, name: str, **names):
    """The function ``name`` defined by the generated Python ``source``, with ``names`` as its globals.

    A name ``_k`` + the hex of 8 or 16 bytes, which ``_text`` writes for a
    number, is bound to the float or complex of those bytes.
    """
    for digits in re.findall(r"\b_k((?:[0-9a-f]{16}){1,2})\b", source):
        dtype = np.complex128 if len(digits) > 16 else np.float64
        names["_k" + digits] = np.frombuffer(bytes.fromhex(digits), dtype)[0].item()
    exec(compile(source, f"<ncgflow {name}>", "exec"), names)
    return names[name]


def _text(value) -> str:
    """The source text of an ``_Expr`` or of a Python number.

    A number is written as its ``repr`` where that reads back as the same
    number, bytes and type; any other (inf, nan, a complex with a -0.0 or
    infinite part) as the name ``_k`` + the hex of its float64 or
    complex128 bytes, which ``_compile`` binds to the number.
    """
    if isinstance(value, _Expr):
        return value.text
    text = repr(value)
    if isinstance(value, (float, complex)):
        try:
            back = eval(text, {"__builtins__": {}})  # a float's repr is digits, signs, points, e, j and parentheses
        except NameError:  # inf, nan
            back = None
        if type(back) is not type(value) or np.array(back).tobytes() != np.array(value).tobytes():
            return "_k" + np.array(value).tobytes().hex()
    return text


def _expr_op(op: str, ufunc: str, reflected: bool = False):
    def method(self, other):
        if self.scalars and not isinstance(other, _Expr):  # a number that meets an entry is of the entry's type
            other = self.scalars(other)
        left, right = (other, self) if reflected else (self, other)
        return _Expr(f"({_text(left)} {op} {_text(right)})", ufunc, (left, right), self.scalars)

    return method


class _Expr:
    """An expression, as text and as a tree: an equation applied to these writes itself out as code.

    A leaf is a name (``_Expr(name)``, with no ``ufunc`` and no
    ``operands``).  Each ``+``, ``-``, ``*`` and ``/`` (reflected too) and
    the unary ``-`` return the operation: its fully parenthesised text,
    with a number operand written by ``_text``, the name of its numpy
    ufunc and its operands, ``_Expr`` or Python numbers, in the
    equation's operand order.  ``sin`` and ``cos`` of an ``_Expr`` (the
    module's ``sin`` and ``cos``) return the call ``sin(...)``; the call
    on a leaf x is written as the local ``sin_x``, which ``_assign``
    binds once, before the lines that read it.  So the text and the tree
    evaluate the same operations in the same order and operand order as
    the equation does on numbers.  ``_stage_kernels`` compiles the text on
    scalars as it is, with ``sin`` and ``cos`` bound to ``math``'s (numpy's
    may differ from them by an ulp), and ``_array_rates`` walks the tree
    into ufunc calls on arrays.
    ``scalars`` is the entry type of a leaf (None: unknown).  An operation
    takes it from its left operand (the right one when reflected), and
    converts a number operand to it first, so a complex system's 1/2 is
    written ``(0.5+0j)``.
    """

    __slots__ = ("text", "ufunc", "operands", "scalars")

    def __init__(self, text: str, ufunc: str = "", operands: tuple = (), scalars: type | None = None):
        self.text, self.ufunc, self.operands, self.scalars = text, ufunc, operands, scalars

    __add__, __radd__ = _expr_op("+", "add"), _expr_op("+", "add", True)
    __sub__, __rsub__ = _expr_op("-", "subtract"), _expr_op("-", "subtract", True)
    __mul__, __rmul__ = _expr_op("*", "multiply"), _expr_op("*", "multiply", True)
    __truediv__, __rtruediv__ = _expr_op("/", "divide"), _expr_op("/", "divide", True)

    def __neg__(self):
        return _Expr(f"(-{self.text})", "negative", (self,), self.scalars)


_CALLS = {"sin": math.sin, "cos": math.cos}  # the functions an _Expr may call, as compiled on scalars


def _call(ufunc: str):
    """``ufunc`` of an ``_Expr`` (the call, see there), of a real number (``math``'s) or of an array (numpy's)."""

    def apply(x):
        if isinstance(x, _Expr):
            named = not x.operands and x.text.isidentifier()
            return _Expr(f"{ufunc}_{x.text}" if named else f"{ufunc}({x.text})", ufunc, (x,), x.scalars)
        return _CALLS[ufunc](x) if isinstance(x, numbers.Real) else getattr(np, ufunc)(x)

    return apply


sin, cos = _call("sin"), _call("cos")


def _names(prefix: str, size: int) -> list:
    return [f"{prefix}{i}" for i in range(size)]


def _assign(names, values) -> list:
    """The source lines ``name = value`` of ``_Expr`` or number values.

    They start with one line ``sin_x = sin(x)`` for each call on a name x
    that the values read (see ``_Expr``), as ``_compile`` binds each
    ``_k`` name that a source reads.
    """
    texts = [_text(value) for value in values]
    calls = dict.fromkeys(re.findall(r"\b(sin|cos)_(\w+)", " ".join(texts)))
    return [*(f"{f}_{x} = {f}({x})" for f, x in calls), *(f"{name} = {text}" for name, text in zip(names, texts))]


def _array_rates(steps, scratch: tuple, scalars: type):
    """The factory ``rates_of(**views)`` of an array stage's ``rates(t)``, compiled once from the stage's steps.

    A step is a pair ``(target, expr)``: the name of a view and an
    ``_Expr`` over view names and numbers.  A leaf ``expr`` (a view name)
    is a copy, ``target[...] = expr``, such as a pad fill.  Otherwise the
    walk of ``expr``'s tree gives one ufunc call with ``out`` per
    operation, in its association and operand order.  A leaf operand is
    passed as it is: a view by its name, a number as a 0-d constant made
    here from its value (float64 for ``float`` ``scalars``, complex128 for
    ``complex``), which selects the loop and value that numpy's operators
    would give the number.  The first operand that is an operation is
    evaluated into the target; a right one after it goes into the next
    free view named in ``scratch``, the views after that one being free
    for its own operations.  So the target gets the bytes that numpy's
    operators give on the same expression.  A target or scratch name that
    is a leaf of its own expression is a ValueError, since it would be
    overwritten before it is read, and an expression that needs more
    scratch views than ``scratch`` names is an IndexError.  ``rates_of``
    takes the steps' targets and leaves and the scratch names as keywords
    (more are ignored) and returns ``rates(t)``, which runs the steps and
    returns nothing.
    """
    constants, lines, views = {}, [], set(scratch)

    def emit(expr: _Expr, target: str, free: tuple, leaves: set) -> None:
        args = []
        for operand in expr.operands:
            if not isinstance(operand, _Expr):  # a number: one constant per value, bytes and all
                name = constants.setdefault((c := np.array(operand, scalars)).tobytes(), (f"_c{len(constants)}", c))[0]
            elif not operand.operands:  # a view
                leaves.add(name := operand.text)
            else:  # the first operation goes into the target, a second into scratch
                name, free = (target, free) if target not in args else (free[0], free[1:])
                emit(operand, name, free, leaves)
            args.append(name)
        lines.append(f"{expr.ufunc}({', '.join(args)}, {target})")

    for target, expr in steps:
        leaves = set() if expr.operands else {expr.text}
        if expr.operands:
            emit(expr, target, tuple(scratch), leaves)
        else:  # a copy
            lines.append(f"{target}[...] = {expr.text}")
        if {target, *scratch} & leaves:
            raise ValueError(f"{target}: a target or scratch view is a leaf of its own expression")
        views |= {target, *leaves}
    globals_ = {name: getattr(np, name) for name in ("add", "subtract", "multiply", "divide", "negative", *_CALLS)}
    globals_.update(constants.values())
    return _compile("\n".join([f"def rates_of({', '.join(sorted(views))}, **unused):", "    def rates(t):",
                               *("        " + line for line in lines), "    return rates", ""]), "rates_of", **globals_)


@dataclass(frozen=True)
class _System:
    """A system that ``integrate`` steps: its per-call right-hand side and its rk4 and rk45 runs.

    ``rk4`` and ``rk45`` are steppers ``(f, y, h, n_steps, stride, out)``
    on the packed float64 state and sample block, as the module docstring
    describes.  A compiled system (``_stage_kernels``) has its
    ``rhs(*params, t, y)`` on a list of entries, its fused rk4 run
    ``rk4(*params, f, y, h, n_steps, stride, out)``, which never calls f,
    and ``_dopri`` with its entry type bound.  An array system, made by
    ``_array_system`` alone, has the array-form ``rhs(t, y)``,
    ``_rk4_arrays`` with its stage and layout bound and plain ``_dopri``.
    ``floats`` is the length of the packed float64 state; ``bind(*params)``
    gives the system with its run arguments bound to ``rhs`` and ``rk4``.
    """

    rhs: Callable
    rk4: Callable
    rk45: Callable
    floats: int

    def bind(self, *params) -> _System:
        return _System(functools.partial(self.rhs, *params), functools.partial(self.rk4, *params), self.rk45,
                       self.floats)


def _array_system(stage, layout, floats: int) -> _System:
    """The array system of ``stage`` in ``layout`` on a packed state of ``floats`` floats.

    ``rhs(t, y)`` copies y into the sites of its own padded buffer (zero
    at first), runs the stage there and returns a fresh copy of the
    rates' sites; ``rk4`` is ``_rk4_arrays`` with the stage and layout
    bound, ``rk45`` is ``_dopri``.  The stage's scratch and the
    rhs buffers are shared by every call, so one system serves one
    integration at a time.
    """
    rows, pad = layout
    width = floats // rows + 2 * pad
    x, k = np.zeros((2, rows * width))
    sites, rate_sites = (b.reshape(rows, width)[:, pad : width - pad] for b in (x, k))
    rates = stage(x, k)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        sites[...] = y.reshape(sites.shape)
        rates(t)
        return rate_sites.flatten()

    return _System(rhs, functools.partial(_rk4_arrays, stage=stage, layout=layout), _dopri, floats)


def _stage_kernels(size: int, stage, params: tuple, scalars: type) -> _System:
    """The ``_System`` of ``size`` Python scalars of type ``scalars``, its rhs and rk4 run compiled from ``stage``.

    ``rhs`` unpacks y into one local per entry (ValueError unless y has
    ``size`` entries), runs the stage's lines and returns its rates as one
    list, so it evaluates the same text as the stages of ``rk4``, the fused
    rk4 run that ``_compile_rk4`` makes of the stage; ``rk45`` is
    ``_dopri`` reading the stage inputs as lists of ``scalars``.
    ``params`` name the run arguments of ``rhs`` and ``rk4``.  A state of
    more than ``MAX_SCALAR_STATE`` floats is a ValueError, raised before
    anything is compiled.  A complex system's stage makes its ``_Expr``
    leaves of type ``complex``, so its constants are complex, as the
    module docstring says.
    """
    floats = 2 * size if scalars is complex else size
    if floats > MAX_SCALAR_STATE:
        raise ValueError(f"a scalar-form state holds at most {MAX_SCALAR_STATE} floats, not {floats}")
    inputs, rates = _names("s", size), _names("ka", size)
    lines = [f"def rhs({', '.join([*params, 't', 'y'])}):", f"    {', '.join(inputs)}, = y",
             *("    " + line for line in stage("t", inputs, rates)), f"    return [{', '.join(rates)}]", ""]
    return _System(_compile("\n".join(lines), "rhs", nan=math.nan, **_CALLS),
                   _compile_rk4(size, stage, params, scalars), functools.partial(_dopri, scalars=scalars), floats)


def _compile_rk4(size: int, stage, params: tuple, scalars: type):
    """A whole rk4 run on ``size`` Python scalars of type ``scalars``: ``run(*params, f, y, h, n_steps, stride, out)``.

    The run is a stepper of the module docstring that never calls f and
    never reads y: its prologue views ``out`` as complex128 (for
    ``complex``) or float64 and reads the initial entries from row 0.
    ``stage(t, inputs, rates)`` gives the source lines of one stage: they
    set the locals named ``rates`` to the system's rates at the locals
    named ``inputs`` and the time ``t`` (a source expression), and may use
    the run arguments ``params`` and their own temporaries (any name but
    the run's ``y*``, ``s*``, ``ka*``-``kd*``, ``f``, ``h``, ``half``,
    ``sixth``, ``c_h``, ``c_half``, ``c_sixth``, ``t``, ``step``,
    ``n_steps``, ``stride``, ``out``, ``entry`` and ``check``).  On
    ``complex`` entries the coefficients that multiply entries are the
    complex ``c_h``, ``c_half``, ``c_sixth`` and ``(2+0j)``, so every such
    product is complex times complex (see the module docstring); the
    stage times ``t + half`` and ``t + h`` stay floats.
    A system's stage writes its equations out, so no call, list or unpack
    happens per stage.  ``rk4_step`` is
    unrolled entry by entry, in its association, inside one loop over the
    steps; each entry stays in a local from step to step and each stage
    input is assigned once.  Each new state passes at once when every
    entry has ``abs(entry) <= MAX_ABS`` (|z| bounds both parts of z);
    otherwise, or when |z| of a complex entry overflows,
    ``_check_scalars`` applies the exact rule, which raises
    ``BlowupError`` with the start of the step as the last good time.
    ``out`` (``sample_count(n_steps, stride)`` rows) is written by the
    stepper rule of the module docstring.  The states are bit for bit those
    of a loop of ``rk4_step`` on the entries.
    """
    y, s = _names("y", size), _names("s", size)
    ys = ", ".join(y)
    # the coefficients that multiply entries, of the entry type; the stage times step on the float h
    h, half, sixth = ("h", "half", "sixth") if scalars is float else ("c_h", "c_half", "c_sixth")
    two = _text(scalars(2.0))

    def inputs(coef: str, k: str) -> list:
        return [f"s{i} = y{i} + {coef} * {k}{i}" for i in range(size)]

    body = [*stage("t", y, _names("ka", size)), *inputs(half, "ka"),
            *stage("t + half", s, _names("kb", size)), *inputs(half, "kb"),
            *stage("t + half", s, _names("kc", size)), *inputs(h, "kc"),
            *stage("t + h", s, _names("kd", size)),
            *(f"y{i} = y{i} + {sixth} * (ka{i} + {two} * kb{i} + {two} * kc{i} + kd{i})" for i in range(size)),
            "try:", f"    if not ({' and '.join(f'abs({v}) <= {MAX_ABS!r}' for v in y)}):", f"        check([{ys}], t)",
            "except OverflowError:", f"    check([{ys}], t)",
            "if step % stride == 0:", f"    out[step // stride] = [{ys}]"]
    lines = [f"def run({', '.join([*params, 'f', 'y', 'h', 'n_steps', 'stride', 'out'])}):",
             "    out = out.view(entry)", "    half = 0.5 * h", "    sixth = h / 6.0", f"    {ys}, = out[0].tolist()",
             *(["    c_h, c_half, c_sixth = complex(h), complex(half), complex(sixth)"] if scalars is complex else []),
             "    for step in range(1, n_steps + 1):", "        t = (step - 1) * h",
             *("        " + line for line in body), f"    out[-1] = [{ys}]", ""]
    return _compile("\n".join(lines), "run", check=_check_scalars, nan=math.nan, **_CALLS,
                    entry=np.complex128 if scalars is complex else np.float64)


# Dormand-Prince 4(5) tableau: the nodes of stages 2-7, and one row per stage
# 2-7 of the weights of k1..k6 (the last row is the 5th-order solution, so its
# stage is FSAL), then the error weights of k1..k7 (5th order minus 4th order).
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([row + (0.0,) * (7 - len(row)) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
)])


def _dopri_step(f, t: float, h: float, h_coef, stages, y, ks, y5, read, err, scale) -> tuple[float, float]:
    """One Dormand-Prince attempt of size h from ``t`` on the block ``[y, k1, ..., k7]``.

    On entry ``y`` holds the state and ``ks[0]`` its first stage ``f(t, y)``.
    The coefficient rows are ``[1, h a_s1, ..., h a_s,s-1]`` for stages 2-7
    and then ``[1, h E]``; ``h_coef`` is the part after their leading 1 and
    is set to ``h * _DP_A`` here.  Each stage ``(c_s, row, before, out)``
    forms its input in ``y5`` as the product of its coefficient row with
    the block rows before it and puts f's result into its own row ``out``;
    with ``read`` set, f takes the input as a list of scalars and its list
    goes into ``out``, a complex (or float) view.  ``_store`` checks the
    length of what f returns.  The last input, ``y5``, is the 5th-order
    solution, and its stage ``f(t + h, y5)`` (``ks[6]``) is the first
    stage of the next step (FSAL).  ``err`` and ``scale`` are scratch.  Returns the RMS of the error estimate over
    ``ATOL + RTOL * max(|y|, |y5|)`` and the peak ``max |y5|``, nan if
    any entry is.
    """
    np.multiply(h, _DP_A, out=h_coef)
    for c, row, before, out in stages:
        np.dot(row, before, out=y5)
        _store(out, f(t + c * h, y5 if read is None else read()))
    np.abs(y5, out=err)
    peak = np.maximum.reduce(err)
    np.abs(y, out=scale)
    np.maximum(scale, err, out=scale)
    np.multiply(scale, RTOL, out=scale)
    np.add(scale, ATOL, out=scale)
    np.dot(h_coef[6], ks, out=err)
    np.divide(err, scale, out=scale)
    return math.sqrt(np.dot(scale, scale) / y5.shape[0]), peak


def _dopri(f, y: np.ndarray, h: float, n_steps: int, stride: int, out: np.ndarray, scalars=None) -> None:
    """A whole Dormand-Prince 4(5) run on the output grid of step h; see the module docstring.

    It steps one ``(8, N)`` float64 block ``[y, k1, ..., k7]``, made once
    per run, through ``_dopri_step``: each stage input is one ``np.dot`` of
    a coefficient row with the rows before it, and f's result goes straight
    into the stage's own row, so f must not keep a reference to its input
    past the call.  With ``scalars``, the entry type (``complex`` or
    ``float``) that a compiled system binds, f reads the stage input as a
    list and its list is written into the row's complex (or float) view.
    The pair is FSAL (first same as last): the last stage of an accepted
    attempt is the first stage of the next, a row copy, so f is called
    once at t = 0 and then six times per attempt.  The targets
    are the sampled steps, every ``stride``-th and ``n_steps``; towards
    each the attempts run until it is reached, and t is then reset to the
    exact ``step * h``.  An attempt is accepted if and only if the RMS of
    its error estimate over ``ATOL + RTOL * max(|y|, |y5|)`` is at most 1
    (a nan estimate is rejected), and the next size is the usual
    safety-factor rule within 0.2x-5x, cut to the rest of the way to the
    target, so no attempt is longer than ``stride * h``.  A rejected
    attempt whose next size falls below the floor ``1e-13 * max(1,
    t_target)`` (t_target is the target's time) raises ``BlowupError``
    ("non-finite state encountered" when the error estimate is not
    finite, "adaptive step size underflow" otherwise) with the start of
    the attempt as the last good time, and so does a run that would make
    more than ``MAX_ATTEMPTS_PER_STEP * n_steps`` attempts.
    """
    block, coef = np.empty((8, y.shape[0])), np.ones((7, 8))  # coefficient rows: see _dopri_step
    y5, err, scale = np.empty((3, y.shape[0]))
    dtype = np.complex128 if scalars is complex else np.float64
    rows = [k if scalars is None else k.view(dtype) for k in block[1:]]
    stages = tuple((c, coef[i, : i + 2], block[: i + 2], rows[i + 1]) for i, c in enumerate(_DP_C))
    read = None if scalars is None else y5.view(dtype).tolist
    block[0] = y5[:] = y
    y, ks, h_coef = block[0], block[1:], coef[:, 1:]
    _store(rows[0], f(0.0, y5 if read is None else read()))
    h_try, attempts_left = h, MAX_ATTEMPTS_PER_STEP * n_steps
    for step in range(stride, n_steps + stride, stride):  # the sampled steps: past n_steps, land on it
        t = (step - stride) * h
        step = min(step, n_steps)
        t_target = step * h
        while t < t_target - 1e-14 * max(1.0, t_target):
            if not attempts_left:
                raise BlowupError(f"adaptive step attempts exceeded {MAX_ATTEMPTS_PER_STEP} per grid step", t)
            attempts_left -= 1
            hs = min(h_try, t_target - t)
            err_norm, peak = _dopri_step(f, t, hs, h_coef, stages, y, ks, y5, read, err, scale)
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            h_try = hs * factor
            if err_norm <= 1.0:
                _check_peak(peak, t)
                t += hs
                y[:] = y5
                ks[0] = ks[6]
            elif h_try < 1e-13 * max(1.0, t_target):
                if not math.isfinite(err_norm):  # fails error control at every step size
                    raise BlowupError("non-finite state encountered", t)
                raise BlowupError("adaptive step size underflow", t)
        if step % stride == 0:
            out[step // stride] = y
    out[-1] = y


def _store(row: np.ndarray, k) -> None:
    """Write the stage k that f returned into its block row; ValueError unless their lengths agree."""
    _check_length(len(k), len(row))
    row[:] = k


def _check_stride(stride) -> int:
    """``stride`` as an int; ValueError unless it is an integer (Python or numpy) of at least 1."""
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride must be an integer of at least 1, not {stride!r}")
    return int(stride)


def _check_length(entries: int, size: int) -> None:
    """ValueError unless a stage has as many entries as the state: numpy would broadcast a single entry."""
    if entries != size:
        raise ValueError(f"the right-hand side returned {entries} entries for a state of {size}")


def step_count(t_end: float, h: float) -> int:
    """Number of steps, ``round(t_end / h)`` and at least 1, of a run.

    Raises ValueError unless t_end and h are finite and positive and the
    count is at most ``MAX_STEPS``.
    """
    if not (0 < t_end < math.inf):
        raise ValueError("t_end must be positive and finite")
    if not (0 < h < math.inf):
        raise ValueError("step must be positive and finite")
    ratio = t_end / h
    if not math.isfinite(ratio) or round(ratio) > MAX_STEPS:
        raise ValueError(f"t_end / step = {ratio:g} exceeds the limit of {MAX_STEPS} steps")
    return max(1, int(round(ratio)))


def sample_count(n_steps: int, stride: int) -> int:
    """Rows of ``Trajectory.states``: every ``stride``-th step from 0, plus the last step."""
    return n_steps // stride + 1 + (1 if n_steps % stride else 0)


def _check_state(y: np.ndarray, t_good: float) -> None:
    """The state rule on a 1-d float64 vector; ``np.maximum.reduce`` skips the Python wrapper of ``.max()``."""
    _check_peak(np.maximum.reduce(np.abs(y)), t_good)


def _check_peak(peak: float, t_good: float) -> None:
    """The state rule on the peak ``max |entry|`` of a state, nan or inf if any entry is."""
    if not math.isfinite(peak):
        raise BlowupError("non-finite state encountered", t_good)
    if peak > MAX_ABS:
        raise BlowupError(f"state magnitude exceeded {MAX_ABS:g}", t_good)


def _check_scalars(y: list, t_good: float) -> None:
    """``_check_state`` on a list of Python floats or complex numbers, part by part."""
    _check_state(np.array([(z.real, z.imag) for z in y]).ravel(), t_good)


def integrate(
    f: Rhs,
    y0,
    t_end: float,
    *,
    h: float = 1e-3,
    stride: int = 1,
    method: str = "rk4",
    system: _System | None = None,
) -> Trajectory:
    """Integrate ``dy/dt = f(t, y)`` from t=0, sampling every ``stride`` steps.

    The step count is ``step_count(t_end, h)`` and the actual step is
    adjusted so the grid ends exactly at ``t_end``; output times are
    multiples of ``stride * h`` (plus the endpoint); ``stride`` is an
    integer of at least 1.  ``y0`` is the packed float64 vector.  Without
    ``system`` f is an array-form right-hand side, stepped as a plain
    array system; with one, a system with its run arguments bound
    (``_System.bind``), f is its ``rhs`` (or a wrapper of it), in the
    system's form as the module docstring describes, and ``y0`` must hold
    the system's ``floats`` (ValueError, naming both lengths, before any
    step).  The run itself is one call of the system's ``rk4`` or
    ``rk45``: rk4 on a compiled system never calls f; rk4 on an array
    system calls f once, for the first stage, and then the system's
    stage (a plain f's stage calls f); ``rk45`` calls f once at t=0 and then
    six times per attempted step.  The run, f's calls included, is the one
    place that sets numpy's floating-point policy: it runs inside
    ``np.errstate(all="ignore")``, whatever the caller's, so no overflow,
    invalid operation, division by zero or underflow is reported, and a
    state that one makes non-finite or larger than ``MAX_ABS`` is the run's
    ``BlowupError``.  Deterministic for fixed inputs.
    """
    n_steps = step_count(t_end, h)
    stride = _check_stride(stride)
    if method not in ("rk4", "rk45"):
        raise ValueError(f"unknown method {method!r}")

    y = np.ascontiguousarray(np.asarray(y0, dtype=np.float64).ravel())
    if not y.shape[0]:
        raise ValueError("y0 is empty")
    system = system or _array_system(_plain_stage(f), (1, 0), y.shape[0])
    if y.shape[0] != system.floats:
        raise ValueError(f"y0 holds {y.shape[0]} floats for a system of {system.floats}")
    h_eff = t_end / n_steps

    _check_state(y, 0.0)
    rows = sample_count(n_steps, stride)
    sampled = np.arange(rows, dtype=np.int64) * min(stride, n_steps)
    sampled[-1] = n_steps
    states = np.empty((rows, y.shape[0]))
    states[0] = y
    with np.errstate(all="ignore"):
        (system.rk45 if method == "rk45" else system.rk4)(f, y, h_eff, n_steps, stride, states)
    return Trajectory(sampled * h_eff, states)
