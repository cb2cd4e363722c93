"""Porous-medium dynamics u_t + D^alpha phi(u) = 0 on a ball grid.

Each implicit Euler step solves the monotone system
tau A v + beta(v) = u with v = phi(u_next) by damped Newton.  A step from
the u that the problem's last step returned starts Newton from beta
linearized around that step's v, an O(tau) start that halves the Newton
iterations of an evolve run (BENCH_evolve_start.json); any other solve
starts from the cold linearization beta' = 1.
The operator is m-accretive, so the solution is unique; a Newton that
stalls short of its target is accepted only at its computed rounding
floor, else the step raises SolverError with its residual.
A is held in level form (fractional.LevelOperator), so every Newton system
is solved exactly by the O(n) class-tree solve and no n x n array is built.
One Newton loop (_newton_solve) runs every solve, a vector as the batch
of one column: damped Newton in lockstep over the columns of a model that
holds the residual, start, Newton step and rounding floor; here the v
form (_VForm).  A column leaves the loop at one place, the top of an
iteration, once it meets its target or stalls within its rounding floor.
A line search takes its halving ladder in blocks that one residual
evaluation takes as extra columns of A, up to _BLOCK_CELLS = 2^11 cells
(n x columns x trials).  A block in which every column accepts the same
trial ends the search; any other block commits the columns it decides
through one path, and they leave the search.  The first search of a
solve, and each one after a search that took theta = 1, tries theta = 1
alone, as most Newton steps take it; after a search that rejected it,
the next one's first block is full width from theta = 1 on, so up to
dim 44 a solve that keeps damping makes one evaluation per iteration,
not two.
On small grids the fixed cost of numpy calls, not arithmetic, sets the
cost of an evaluation: at dim 16 a block of 45 trials costs about two
single ones.  From dim 2048 on a block holds one trial.  A column of a
batched apply is bit-identical to A applied to it alone, so the width of
a block changes no result.
The update is taken as u_next = u - tau A v, so the discrete mass identity
holds to machine precision against the computed A v, independently of the
nonlinear residual.  Against the exact identity
sum(u - u_next) = tau lambda sum(v) it holds only as well as the level form
reproduces lambda on constants: for one alpha = 2, m = 2, tau = 0.1 step
from indicator data the two differ by 1.4e-5 relative at dim 3^12 and
8.8e-5 at dim 2^20 (ROADMAP.md item 1, the detail-form apply).

The separable closed-form profile rho (T -+ t)^{-nu} |x|^{alpha nu} is
kept alongside, with the relative defect of its amplitude; its companion
branch solves the ball scheme exactly up to a closed-form source, an
oracle for the solver (DiscreteOracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, SolverError, check_int, check_real
from .fractional import LevelOperator, OperatorParams, ball_levels
# the benchmark's tracer wraps pme.ball_matrix; nothing here calls it
from .fractional import ball_matrix  # noqa: F401
from .padic import GridSpec, check_prime, gamma_p


def beta(v, m: float) -> np.ndarray:
    """beta = phi^{-1} for phi(u) = sign(u) |u|^m: sign(v) |v|^{1/m}."""
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.abs(v) ** (1.0 / m)


def _beta_prime(v: np.ndarray, m: float) -> np.ndarray:
    """beta'(v) = |v|^{1/m - 1} / m on a float64 array, +inf at v = 0 for
    m > 1; there the power divides by zero, and the caller silences
    numpy's warning."""
    return (1.0 / m) * np.abs(v) ** (1.0 / m - 1.0)


@dataclass
class PMEProblem:
    """Grid, operator and stepping parameters for one evolution run.

    p, N and M must be ints, the others finite reals (JSON ints included);
    anything else raises DomainError.
    """

    p: int
    alpha: float
    N: int
    M: int
    m: float
    tau: float
    t_end: float
    # (w, epsilon, operator_scale, v) of the last solve on this problem: a
    # solve of this w starts Newton around this v (stationary_solve).  Only
    # the start depends on it, not the target the solve must meet.
    _last_solve: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        check_prime(self.p)
        for name in ("N", "M"):
            check_int(name, getattr(self, name))
        for name in ("alpha", "m", "tau", "t_end"):
            check_real(name, getattr(self, name))
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")
        if not self.m >= 1:
            raise DomainError("m must be >= 1")
        if not self.tau > 0:
            raise DomainError("tau must be positive")

    @cached_property
    def grid(self) -> GridSpec:
        return GridSpec(self.p, self.N, self.M)

    @cached_property
    def operator(self) -> OperatorParams:
        return OperatorParams(self.p, self.alpha, self.grid)

    @cached_property
    def levels(self) -> LevelOperator:
        return ball_levels(self.operator)

    @classmethod
    def from_config(cls, cfg: dict) -> "PMEProblem":
        if not isinstance(cfg, dict):
            raise DomainError("config must be a JSON object")
        required = ["p", "alpha", "N", "M", "m", "tau", "t_end"]
        missing = [k for k in required if k not in cfg]
        if missing:
            raise DomainError(f"config is missing keys: {missing}")
        # other keys are ignored, so configs with retired options still load
        return cls(**{k: cfg[k] for k in required})

    def to_config(self) -> dict:
        return {
            "p": self.p, "alpha": self.alpha, "N": self.N, "M": self.M,
            "m": self.m, "tau": self.tau, "t_end": self.t_end,
        }


@dataclass
class StationaryResult:
    v: np.ndarray          # solution of eps v + s A v + beta(v) = f
    w: np.ndarray          # f - eps v - s A v, the consistent beta(v)
    w_free: np.ndarray     # f - s A v, the L1-contraction object
    iterations: int        # Newton iterations only, summed over columns
    residual: float        # the largest over columns


_NEWTON_TOL = 1e-12      # residual target, relative to max(1, max|f|)
_MAX_ITERS = 80
_BP_CLIP = 1e16
_LADDER = 46             # damping theta = 2^-j for j < _LADDER
_THETA = np.ldexp(1.0, -np.arange(_LADDER))
_DECREASE = (1 - 0.25 * _THETA)[:, None]   # sufficient decrease per theta
_BLOCK_CELLS = 2 ** 11   # n x columns x thetas per G call of a line search


@dataclass(frozen=True)
class _VForm:
    """The Newton model of a solve in v = phi(u): G(v) = eps v + s A v +
    beta(v) - f = 0, one problem per column of f (n, k), with eps a scalar
    or one value per column.  The Newton loop (_newton_solve) asks it for
    the start, G, the Newton step and the rounding floor, and narrows it
    to the columns still iterating with cols."""

    A: LevelOperator
    m: float
    scale: float
    f: np.ndarray
    eps: object
    v_prev: np.ndarray | None = None   # the v Newton starts around

    def cols(self, mask) -> "_VForm":
        eps = self.eps[mask] if np.ndim(self.eps) else self.eps
        return replace(self, f=self.f[:, mask], eps=eps, v_prev=None)

    def target(self) -> np.ndarray:
        return _NEWTON_TOL * np.fmax(1.0, np.abs(self.f).max(0))

    def start(self) -> np.ndarray:
        """The solution with beta linearized, one level solve: around
        v_prev, with the clipped beta' of slope, or cold, as beta(v) ~ v.
        At m = 1 the two are the same bits, since beta' = 1 and
        beta(v) - v = +0 exactly."""
        if self.v_prev is None:
            return self.A.solve(self.eps + 1.0, self.f, self.scale)
        v, bp = self.v_prev, self.slope(self.v_prev)
        return self.A.solve(self.eps + bp, self.f - (beta(v, self.m) - bp * v),
                            self.scale)

    def slope(self, v) -> np.ndarray:
        """beta'(v) clipped at _BP_CLIP; beta' is +inf at v = 0 for m > 1,
        and the caller silences numpy's divide warning there."""
        return np.fmin(_beta_prime(v, self.m), _BP_CLIP)

    def G(self, v) -> tuple:
        """G(v) and s A v for trials v of shape (n, b, k): A takes the b
        trials as extra columns."""
        sav = self.scale * self.A.apply(v.reshape(len(v), -1)).reshape(v.shape)
        eps = self.eps
        if isinstance(eps, np.ndarray):  # 0 v + sav can flip a zero's sign
            lin = np.where(eps != 0, eps * v + sav, sav)
        else:
            lin = eps * v + sav if eps else sav
        return lin + beta(v, self.m) - self.f[:, None], sav

    def step(self, v, g) -> np.ndarray:
        """The Newton step d: (eps + beta'(v)) d + s A d = -g."""
        return self.A.solve(self.eps + self.slope(v), -g, self.scale)

    def floor(self, v) -> np.ndarray:
        """Bound on the rounding of the computed G(v), one per column:
        (p + 2)(K + 3) u max_i(|eps v| + s |A| |v| + |beta(v)| + |f|)_i,
        u = 2^-53, |A| the level operator with weights |c| and |h_L|.

        A.apply folds each class sum from p rows K - L times, (p - 1) K
        roundings relative to the sums of |v|, and tiles back with two per
        level and two for c v: ((p + 1) K + 2) u (|A| |v|)_i in cell i.
        The scalings, beta's power and G's three additions add eight
        roundings of the cell's magnitudes; (p + 2)(K + 3) covers both and
        second order.  Worst case, it sat 5e2-5e6 times above the residual
        Newton reached on radial_power steps, so it only judges a Newton
        that has already stalled."""
        gamma, absAv = _abs_apply(self.A, v)
        size = (np.abs(self.eps * v) + self.scale * absAv
                + np.abs(beta(v, self.m)) + np.abs(self.f))
        return gamma * size.max(0)


def _abs_apply(A: LevelOperator, v: np.ndarray) -> tuple:
    """(gamma, |A| |v|) for the rounding bounds of a level apply (see
    _VForm.floor): gamma = (p + 2)(K + 3) 2^-53, and |A| the level
    operator with weights |c| and |h_L|."""
    gamma = (A.grid.p + 2) * (len(A.h) + 3) * 2.0 ** -53
    absA = LevelOperator(A.grid, abs(A.c), tuple(abs(h) for h in A.h))
    return gamma, absA.apply(np.abs(v))


def _cols(mask, *arrays) -> list:
    """The columns mask of each column-stacked array or per-column vector."""
    return [a[..., mask] for a in arrays]


def _line_search(model, d, it, target, wide) -> tuple:
    """Damp the Newton step d of each column of the iterate it = (v, G(v),
    s A v, residual): theta = 2^-j for j < _LADDER in blocks of trials on
    axis 1, one model.G call each, of as many thetas as fit in
    _BLOCK_CELLS cells with the columns still searching.  Unless wide, the
    first block is theta = 1 alone, as most searches accept it.  In each
    column the first trial that is accepted or that rounds back to v
    decides, as in a search theta by theta: rounding is monotone, so every
    shorter step rounds back too.  Past the ladder the column stalls.  If
    every column accepts the same trial first (always so for one column
    that accepts), it is taken for all at once.  Else each column that
    decides in a block is committed into it, or marked stalled, and leaves
    the search; a block in which none decides goes on to the next.
    Returns the new iterate, the mask of the columns that stalled and
    whether every column took theta = 1."""
    v, _, _, res = it
    stalled = np.zeros(len(res), bool)
    cols, vs, ds = np.arange(len(res)), v, d  # the columns still searching
    # accepted: sufficient decrease, or the target
    bound = np.fmax(_DECREASE * res, target)
    j, width = 0, max(1, _BLOCK_CELLS // vs.size) if wide else 1
    while j < _LADDER:
        theta = _THETA[j:j + width, None]
        if j or width > 1:
            trial = vs[:, None] + theta * ds[:, None]
        else:  # v + 1 d, without the cost of broadcasting
            trial = (vs + ds)[:, None]
        moved = (trial != vs[:, None]).any(0)
        if not np.count_nonzero(moved[0]):  # every column rounds back to v
            break
        gn, sn = model.G(trial)
        rn = np.abs(gn).max(0)
        accepted = rn <= bound[j:j + len(theta)]  # never where not moved
        first = accepted.argmax() // len(cols)  # first trial any accepts
        if (len(cols) == len(res)
                and np.count_nonzero(accepted[first]) == len(cols)):
            return (trial[:, first], gn[:, first], sn[:, first],
                    rn[first]), stalled, j + first == 0
        stop = accepted | ~moved  # the trials that decide their column
        if np.count_nonzero(stop):
            k = stop.argmax(0)
            c = np.arange(len(k))
            decided = stop[k, c]
            took = decided & moved[k, c]
            stalled[cols[decided & ~took]] = True
            k, c, idx = k[took], c[took], cols[took]
            for a, b in zip(it, (trial, gn, sn, rn)):
                a[..., idx] = b[..., k, c]
            if np.count_nonzero(decided) == len(cols):
                return it, stalled, False
            cols, vs, ds, bound = _cols(~decided, cols, vs, ds, bound)
            model = model.cols(~decided)
        j += len(theta)
        width = max(1, _BLOCK_CELLS // vs.size)
    stalled[cols] = True
    return it, stalled, False


def _newton_solve(model) -> tuple:
    """Damped Newton for the k columns of the model, independent problems
    run in lockstep on one iteration count and one theta ladder
    (_line_search): the (v, s A v, iterations, residual) at which each
    column met its target, or stalled (the stalled iteration counts)
    within the model's rounding floor; else SolverError naming the column.
    Every column leaves at the top of the loop, once it meets its target
    or stalls within its floor, and computes exactly what it would alone.
    Iterations are summed and residuals maximised over the columns."""
    v = model.start()
    g, sav = (x[:, 0] for x in model.G(v[:, None]))
    it = [v, g, sav, np.abs(g).max(0)]
    target = model.target()
    v_out, sav_out = np.empty_like(v), np.empty_like(v)
    live = np.arange(v.shape[1])
    its = total = 0
    worst = 0.0
    full = True  # the last search took theta = 1 in every column (the
    # first search of a solve tries it alone)
    stalled = np.zeros(len(live), bool)
    while True:
        going = it[3] > target
        if np.count_nonzero(stalled):
            # a stalled column leaves at its rounding floor, or refuses
            floor = model.cols(stalled).floor(it[0][:, stalled])
            res = it[3][stalled]
            over = np.flatnonzero(res > floor)
            if over.size:
                j = over[0]
                raise SolverError(f"{stall} above the rounding floor "
                                  f"{floor[j]:.3e}", residual=float(res[j]),
                                  column=int(live[stalled][j]))
            going &= ~stalled
        n_going = np.count_nonzero(going)
        if n_going < len(going):  # the columns not going leave
            done = ~going
            cols = live[done]
            v_out[:, cols], sav_out[:, cols] = it[0][:, done], it[2][:, done]
            total += its * len(cols)
            worst = max(worst, float(it[3][done].max()))
            if not n_going:
                return v_out, sav_out, total, worst
            live, target, *it = _cols(going, live, target, *it)
            model = model.cols(going)
        if its == _MAX_ITERS:
            stall = f"Newton did not converge in {_MAX_ITERS} iterations"
            stalled = np.ones(len(live), bool)
            continue
        its += 1
        try:
            d = model.step(it[0], it[1])
        except SolverError as exc:
            j = exc.column
            raise SolverError(f"singular Newton system: {exc.reason}",
                              residual=float(it[3][j]), column=int(live[j]))
        it, stalled, full = _line_search(model, d, it, target, not full)
        stall = "Newton line search stalled"


def stationary_solve(problem: PMEProblem, f: np.ndarray, epsilon,
                     operator_scale: float = 1.0) -> StationaryResult:
    """Solve eps v + s A v + beta(v) = f; w = f - eps v - s A v.

    One damped Newton run to max|G(v)| <= 1e-12 max(1, max|f|), or to its
    rounding floor if it stalls first; else SolverError propagates with the
    last residual.  If f has the bits of the w of the last solve on this
    problem, with the same epsilon and operator_scale, Newton starts from
    beta linearized around that solve's v: so each step of evolve after
    the first, or of any loop that feeds implicit_step's u_next back to it,
    starts at the step before.  Any other solve starts from the cold
    linearization beta' = 1.  At m = 1 the two starts are the same bits.

    f of shape (n, k) poses k independent problems, one per column, and
    epsilon is then a scalar or a (k,) array.  The columns run in lockstep
    (one iteration count, one damping ladder), and v, w and w_free of each
    column are bit-identical to solving that column alone.  iterations is
    the total over the columns and residual the largest; a column that
    refuses makes the whole call raise SolverError, which names it.  A nan
    or inf in f raises DomainError naming the first one.
    """
    f = np.ascontiguousarray(f, dtype=np.float64)
    n = problem.grid.dim
    if f.shape[:1] != (n,) or f.ndim > 2 or not f.size:
        raise DomainError(f"forcing term must have shape ({n},) or ({n}, k)"
                          f", got {f.shape}")
    finite = np.isfinite(f)
    if not finite.all():
        bad = np.argwhere(~finite.T)   # by column, then by index
        first = (f"index {bad[0][0]}" if f.ndim == 1 else
                 f"index {bad[0][1]} of column {bad[0][0]}")
        raise DomainError(f"forcing term must be finite: {len(bad)} value(s)"
                          f" are nan or inf, the first at {first}")
    eps = epsilon
    if np.ndim(epsilon):
        eps = np.asarray(epsilon, dtype=np.float64)
        if eps.shape != f.shape[1:]:
            raise DomainError(f"epsilon must be a scalar or one value per "
                              f"column, got shape {eps.shape} for {f.shape}")

    last = problem._last_solve
    v_prev = None
    if (last is not None and last[0].shape == f.shape
            and np.array_equal(last[0].view(np.int64), f.view(np.int64))
            and np.array_equal(last[1], eps) and last[2] == operator_scale):
        v_prev = last[3].reshape(n, -1)
    # a vector is solved as the batch of one column
    model = _VForm(problem.levels, problem.m, operator_scale,
                   f.reshape(n, -1), eps, v_prev)
    try:
        with np.errstate(divide="ignore"):  # _VForm.slope at v = 0
            v, av, its, res = _newton_solve(model)
    except SolverError as exc:
        if f.ndim == 2:
            raise
        raise SolverError(exc.reason, residual=exc.residual) from None
    v, av = v.reshape(f.shape), av.reshape(f.shape)
    w = f - eps * v - av
    # copies, so that the caller may change the returned arrays
    problem._last_solve = (w.copy(), np.array(eps), operator_scale,
                           v.copy())
    return StationaryResult(v=v, w=w, w_free=f - av,
                            iterations=its, residual=res)


def implicit_step(problem: PMEProblem, u: np.ndarray) -> tuple:
    """One backward Euler step: returns (u_next, StationaryResult).  u of
    shape (n, k) steps k independent data at once, as stationary_solve
    solves columns.  A step from the u_next of the problem's last step
    starts Newton from beta linearized around that step's v: the two
    steps differ by tau A v, so it is an O(tau) start."""
    result = stationary_solve(problem, u, epsilon=0.0,
                              operator_scale=problem.tau)
    return result.w, result


@dataclass
class EvolutionResult:
    grid: GridSpec
    times: list
    snapshots: list          # ndarray per time, snapshots[0] is u0
    diagnostics: dict = field(default_factory=dict)


def real_initial(values) -> np.ndarray:
    """Initial data as a new float64 array.  The flows here are real, so a
    nonzero imaginary part raises DomainError instead of being dropped, and
    so does a nan or inf value."""
    u = np.asarray(values)
    if np.iscomplexobj(u):
        if np.any(u.imag != 0):
            raise DomainError("initial data must be real, got a nonzero "
                              "imaginary part")
        u = u.real
    u = np.array(u, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        raise DomainError(f"initial data must be finite: {bad.size} value(s)"
                          f" are nan or inf, the first at index {bad[0]}")
    return u


def norms(u: np.ndarray, meas: float) -> tuple:
    """(mass, L1 norm, sup norm) of grid values u on cells of measure meas."""
    return (float(np.sum(u) * meas), float(np.sum(np.abs(u)) * meas),
            float(np.max(np.abs(u))))


def evolve(problem: PMEProblem, u0) -> EvolutionResult:
    """March u_t + A phi(u) = 0 from u0 to t_end with step tau; u0 is an
    array of shape (problem.grid.dim,), real or with zero imaginary part.
    Each step after the first starts Newton from the v of the step before
    (implicit_step)."""
    grid = problem.grid
    u = real_initial(u0)
    if u.shape != (grid.dim,):
        raise DomainError(f"initial state must have shape ({grid.dim},)")

    steps_f = problem.t_end / problem.tau
    steps = int(round(steps_f))
    if steps < 1 or abs(steps_f - steps) > 1e-9:
        raise DomainError("t_end must be a positive integer multiple of tau")

    meas = float(grid.coset_measure)
    diags = {"newton_iterations": [], "residual": [], "mass": [],
             "l1": [], "linf": []}
    times = [0.0]
    snaps = [u.copy()]
    for n in range(1, steps + 1):
        u, res = implicit_step(problem, u)
        times.append(n * problem.tau)
        snaps.append(u.copy())
        diags["newton_iterations"].append(res.iterations)
        diags["residual"].append(res.residual)
        for key, x in zip(("mass", "l1", "linf"), norms(u, meas)):
            diags[key].append(x)
    return EvolutionResult(grid, times, snaps, diags)


@dataclass
class RefinementResult:
    taus: tuple
    gaps: tuple     # sup over coarse times of the L1 gap between ladders
    orders: tuple   # observed convergence orders log2(gap_r / gap_{r+1})


def refinement_ladder(problem: PMEProblem, u0: np.ndarray,
                      halvings: int = 3) -> RefinementResult:
    """Self-convergence study under time step halving."""
    runs = []
    taus = []
    for r in range(halvings + 1):
        sub = replace(problem, tau=problem.tau / 2**r)
        runs.append(evolve(sub, u0))
        taus.append(sub.tau)

    meas = float(problem.grid.coset_measure)
    coarse_steps = int(round(problem.t_end / problem.tau))
    gaps = []
    for r in range(halvings):
        worst = 0.0
        for k in range(1, coarse_steps + 1):
            a = runs[r].snapshots[k * 2**r]
            b = runs[r + 1].snapshots[k * 2 ** (r + 1)]
            worst = max(worst, float(np.sum(np.abs(a - b)) * meas))
        gaps.append(worst)
    orders = tuple(math.log2(gaps[r] / gaps[r + 1]) for r in range(len(gaps) - 1)
                   if gaps[r + 1] > 0)
    return RefinementResult(tuple(taus), tuple(gaps), orders)


# ---------------------------------------------------------------------------
# separable closed-form profile
# ---------------------------------------------------------------------------

def explicit_rho(p: int, alpha: float, m: float) -> float:
    """Amplitude rho < 0 with nu rho + |rho|^m C = 0, where
    C = Gamma_p(alpha m/(m-1) + 1) / Gamma_p(alpha/(m-1) + 1) and
    nu = 1/(m-1):

    rho = -[Gamma_p(1 + alpha/(m-1)) / ((m-1) Gamma_p(1 + alpha m/(m-1)))]^{1/(m-1)}.
    """
    check_prime(p)
    if not check_real("m", m) > 1:
        raise DomainError("the separable profile needs m > 1")
    if not check_real("alpha", alpha) > 0:
        raise DomainError("alpha must be positive")
    nu = 1.0 / (m - 1.0)
    num = gamma_p(p, 1.0 + alpha * nu)
    z = 1.0 + alpha * (nu + 1.0)
    den = gamma_p(p, z)
    if not den:  # p^{z-1} rounds to 1, and so num is 0 too
        raise ArithmeticError(f"gamma_p(p={p}, z={z}) rounds to 0 at alpha="
                              f"{alpha}: the gamma ratio leaves the double "
                              "range")
    ratio = num / ((m - 1.0) * den)
    if not ratio > 0:
        raise ArithmeticError(f"gamma ratio {ratio} is not positive")
    try:
        return -(ratio ** nu)
    except OverflowError:
        raise ArithmeticError(f"rho = -{ratio}^{nu} leaves the double "
                              "range") from None


@dataclass(frozen=True)
class ExplicitSolution:
    """u(t, x) = amp (T -+ t)^{-nu} |x|^{alpha nu}.

    companion=False: amp = rho < 0 with blow-up at t -> T from below, a
    solution of u_t + D^alpha |u|^m = 0 on the modulus branch of the
    nonlinearity (not reachable by the monotone solver).
    companion=True: amp = |rho| > 0 decaying on (T + t), which solves the
    monotone equation u_t + D^alpha(u^m) = 0 and is solver-comparable.
    """

    p: int
    alpha: float
    m: float
    t0: float
    rho: float
    companion: bool = False

    @property
    def nu(self) -> float:
        return 1.0 / (self.m - 1.0)

    @property
    def amplitude(self) -> float:
        return abs(self.rho) if self.companion else self.rho

    def time_factor(self, t: float) -> float:
        check_real("t", t)
        base = self.t0 + t if self.companion else self.t0 - t
        if not base > 0:
            raise DomainError(f"profile undefined at t={t} (T={self.t0})")
        try:
            return base ** (-self.nu)
        except OverflowError:
            raise ArithmeticError(f"time factor {base}^-{self.nu} at t={t} "
                                  "leaves the double range") from None

    def value(self, t: float, shell: int | None) -> float:
        """The profile at time t on the shell |x| = p^shell (None: x = 0);
        a value beyond the double range raises ArithmeticError."""
        if shell is None:
            return 0.0  # |x|^{alpha nu} vanishes at the origin
        factor = self.amplitude * self.time_factor(t)
        try:
            v = factor * float(self.p) ** (shell * self.alpha * self.nu)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise ArithmeticError(f"explicit profile at t={t} leaves the "
                                  f"double range on shell {shell}")
        return v

    def to_grid(self, grid: GridSpec, t: float) -> np.ndarray:
        return grid.radial(lambda k: self.value(t, k))


def _profile_constant(p: int, alpha: float, m: float) -> float:
    """C in D^alpha |x|^{alpha m/(m-1)} = C |x|^{alpha/(m-1)}, from these
    exponents: amplitude_defect checks explicit_rho's rewritten form
    against it, and DiscreteOracle.identity_gap checks it against A."""
    return gamma_p(p, alpha * m / (m - 1) + 1) / gamma_p(p, alpha / (m - 1) + 1)


def amplitude_defect(p: int, alpha: float, m: float, rho: float) -> float:
    """The relative defect |nu rho + |rho|^m C| / max(1, nu |rho|) of rho,
    formed without |rho|^m, which may overflow."""
    nu, r = 1.0 / (m - 1.0), abs(rho)
    return r / max(1.0, nu * r) * abs(math.copysign(nu, rho) + r ** (m - 1.0)
                                      * _profile_constant(p, alpha, m))


def explicit_solution(p: int, alpha: float, m: float, t0: float,
                      companion: bool = False) -> ExplicitSolution:
    if not check_real("t0", t0) > 0:
        raise DomainError("t0 must be positive")
    return ExplicitSolution(p, alpha, m, t0, explicit_rho(p, alpha, m),
                            companion)


class DiscreteOracle:
    """The companion profile a |x|^b, b = alpha nu, as an exact solution of
    the problem's ball scheme (m > 1).  With g = |x|^b on the grid (0 on
    the centre cell), A g^m = C g + c_N - h_M cell by cell: C of
    _profile_constant; c_N = -kappa (1 - 1/p) q^{N+1} / (1 - q), q = p^b,
    the image of |x|^{b + alpha} beyond B_N, continued to q > 1; h_M, the
    image of |x|^{b + alpha} on B_-M, is kappa (1 - 1/p) p^{-M(1+b+alpha)}
    / (1 - p^{-(1+b+alpha)}) |x|^{-alpha-1} off the centre cell and
    kappa (1 - 1/p) p^{-M b} / (1 - p^{-b}) on it.  So the step from a_n g
    with the source tau a_{n+1}^m (c_N - h_M) returns a_{n+1} g, where
    a_{n+1} + tau C a_{n+1}^m = a_n."""

    def __init__(self, problem: PMEProblem):
        p, alpha, m, grid = (float(problem.p), problem.alpha, problem.m,
                             problem.grid)
        if not m > 1:
            raise DomainError("the separable profile needs m > 1")
        b = alpha / (m - 1.0)
        e = 1.0 + b + alpha
        kappa = problem.operator.hypersingular_coefficient * (1.0 - 1.0 / p)
        inner = kappa * p ** (-grid.M * e) / (1.0 - p ** -e)
        centre = kappa * p ** (-grid.M * b) / (1.0 - p ** -b)
        self.problem = problem
        self.g = grid.radial(lambda k: 0.0 if k is None else p ** (k * b))
        self.C = _profile_constant(problem.p, alpha, m)
        self.c_N = -kappa * p ** (b * (grid.N + 1)) / (1.0 - p ** b)
        self.h_M = grid.radial(lambda k: centre if k is None
                               else inner * p ** (-k * (alpha + 1.0)))

    def identity_gap(self) -> tuple:
        """|A g^m - (C g + c_N - h_M)| per cell, and its rounding bound:
        gamma of _VForm.floor times |A| g^m + |C g| + |c_N| + |h_M|."""
        A, gm, cg = self.problem.levels, self.g ** self.problem.m, self.C * self.g
        gamma, absAg = _abs_apply(A, gm)
        return (np.abs(A @ gm - (cg + self.c_N - self.h_M)), gamma * (
            absAg + np.abs(cg) + abs(self.c_N) + np.abs(self.h_M)))

    def step_gap(self, count: int) -> tuple:
        """Solve count steps that end at amplitude 1, with
        a_n = a_{n+1} + tau C a_{n+1}^m, as the columns of one
        stationary_solve; per step, max |w - a_{n+1} g|, the Newton target
        and the rounding floor of G.  The solve is sup-nonexpansive in f,
        so a residual r moves beta(v) by at most r, and w = f - tau A v =
        beta(v) - r adds r again: the gap is at most 2 (target + floor),
        where the floor covers a stalled Newton and the rounding."""
        tau, m = self.problem.tau, self.problem.m
        a = [1.0]
        for _ in range(count):
            a.insert(0, a[0] + tau * self.C * a[0] ** m)
        a = np.array(a)
        f = self.g[:, None] * a[:-1] + tau * a[1:] ** m * (
            self.c_N - self.h_M)[:, None]
        res = stationary_solve(self.problem, f, 0.0, tau)
        model = _VForm(self.problem.levels, m, tau, f, 0.0)
        return (np.abs(res.w - self.g[:, None] * a[1:]).max(0),
                model.target(), model.floor(res.v))
