"""The benchmark's three workloads: their inputs, their operation and its checks.

Each workload draws rows of numbers from a seeded stream, so the same
seed gives the same rows in the same order however many the run needs.
An operation calls the library through the names a user would use,
looked up at call time, so the tracer's wrappers see it.

Checks come in two tiers.  ``check`` is cheap and runs on every
operation: no exception, finite output, and the workload's own
acceptance test.  ``verify`` compares a sampled operation's output with
an mpmath reference at 30+ digits (see reference.py) and is never timed.
Every miss counts as a failed operation.  A miss marks the run
incorrect only when ``required`` says so: a crash, a non-finite value or
a gross error (reference.GROSS_BOUND) on the inputs the library serves
well.  The library's known defects (ROADMAP items 3 and 4), that is
the edge inputs on mixed-points, the oracle disagreements on
quadrature-oracle and accuracy misses between ACCURACY_BOUND and
GROSS_BOUND, are counted but leave the run correct, so later changes
are measured against them instead of hiding them.
"""

import contextlib
import io
import itertools
import math
import random

import epszeta
import epszeta.cli

import reference as ref
from reference import LARGE_REAL, PURE_IMAGINARY, STANDARD

EPSILON, ZETA = 0, 1


def _finite(v):
    return math.isfinite(v.real) and math.isfinite(v.imag)


def _modulus(regime, k):
    if regime == PURE_IMAGINARY:
        return epszeta.Modulus.imaginary(k)
    return epszeta.Modulus.real(k)


def _accuracy(got, want):
    # (failure reasons, relative error) of one value against its reference
    err = ref.rel_err(got, want)
    if err > ref.GROSS_BOUND:
        return ["gross error"], err
    return ([] if err <= ref.ACCURACY_BOUND else ["accuracy"]), err


class Workload:
    """One named workload.  Rows are tuples of numbers stored column-wise."""

    name = ""
    typecodes = ""      # array typecode of each row column
    pool = 0            # distinct rows a run draws; its loop repeats them in order
    n_check = 0         # operations, from the first, that ``verify`` compares with mpmath
    mem_ops = 0         # operations run under tracemalloc
    # Fixed per workload, so every run reports the same percentile: the
    # highest one that the program sets rather than the host (README.md).
    tail_pct = 90.0

    def rows(self, seed):
        """Endless deterministic stream of input rows for ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        for i in itertools.count():
            yield self.draw(rng, i)

    def draw(self, rng, i):
        raise NotImplementedError

    def check(self, row, out):
        """Failure reason for one operation's output, or None."""
        if isinstance(out, Exception):
            return "raised " + type(out).__name__
        return None

    def required(self, row, reason):
        """Whether this failure makes the run incorrect (False for a known defect)."""
        return reason != "accuracy"

    def label(self, row):
        """Input class that failures are counted under in the details."""
        return self.name

    def verify(self, row, out):
        """(failure reasons, largest relative error) of one sampled output against mpmath."""
        raise NotImplementedError


class MixedPoints(Workload):
    """Scattered epsilon_any/zeta_any calls; every operation has a fresh modulus."""

    name = "mixed-points"
    typecodes = "bbbdd"  # function, regime, tag, k, x
    pool = 250_000
    n_check = 400
    mem_ops = 3000
    EDGE_SHARE = 0.1
    TAGS = ("bulk", "k_to_0", "k_to_1_minus", "k_to_1_plus", "big_real_k", "big_imag_k", "big_x")

    def draw(self, rng, i):
        fn = rng.getrandbits(1)
        tag = 0 if rng.random() >= self.EDGE_SHARE else rng.randint(1, 6)
        edge = self.TAGS[tag]
        if tag in (0, 6):
            regime = rng.randrange(3)
            k = (rng.uniform(0.01, 0.999), rng.uniform(1.01, 50.0), rng.uniform(0.05, 50.0))[regime]
        elif edge == "k_to_0":
            regime, k = STANDARD, 10.0 ** rng.uniform(-12.0, -2.0)
        elif edge == "k_to_1_minus":
            regime, k = STANDARD, 1.0 - 10.0 ** rng.uniform(-15.0, -2.0)
        elif edge == "k_to_1_plus":
            # stays above the rejected sliver (1, 1 + 1e-12)
            regime, k = LARGE_REAL, 1.0 + 10.0 ** rng.uniform(-11.9, -2.0)
        elif edge == "big_real_k":
            regime, k = LARGE_REAL, 10.0 ** rng.uniform(math.log10(50.0), 12.0)
        else:
            regime, k = PURE_IMAGINARY, 10.0 ** rng.uniform(math.log10(50.0), 12.0)
        if edge == "big_x":
            x = math.copysign(10.0 ** rng.uniform(1.0, 6.0), rng.random() - 0.5)
        else:
            x = rng.uniform(-10.0, 10.0)
        return fn, regime, tag, k, x

    @staticmethod
    def op(fn, regime, tag, k, x):
        m = _modulus(regime, k)
        if fn == EPSILON:
            return epszeta.epsilon_any(x, m)
        return epszeta.zeta_any(x, m)

    def check(self, row, out):
        reason = super().check(row, out)
        if reason is None and not _finite(out):
            reason = "non-finite"
        return reason

    def required(self, row, reason):
        return row[2] == 0 and super().required(row, reason)

    def label(self, row):
        return self.TAGS[row[2]]

    def verify(self, row, out):
        fn, regime, tag, k, x = row
        if isinstance(out, Exception):
            return [self.check(row, out)], math.inf
        want = (ref.epsilon_ref if fn == EPSILON else ref.zeta_ref)(x, regime, k)
        return _accuracy(out, want)


class CurveExport(Workload):
    """In-process ``epszeta elastica`` exports: a flexural then an in-flexural curve.

    Both kinds go into one operation because a flexural curve costs about
    twice an in-flexural one; a median over single calls would sit in the
    gap between the two modes and jump between them from seed to seed.
    """

    name = "curve-export"
    typecodes = "dd"  # k of the flexural curve, k of the in-flexural curve
    pool = 300
    n_check = 4
    mem_ops = 8
    SAMPLES, U_MAX = 600, 12.0
    CHECK_ROWS = range(0, 600, 60)

    def draw(self, rng, i):
        return rng.uniform(0.05, 0.95), rng.uniform(1.05, 5.0)

    @classmethod
    def _export(cls, kind, k):
        argv = ["elastica", "--kind", kind, "--k", repr(k), "--u-min", "0",
                "--u-max", repr(cls.U_MAX), "--samples", str(cls.SAMPLES)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = epszeta.cli.main(argv)
        return code, buf.getvalue()

    @classmethod
    def op(cls, k_flex, k_inflex):
        return cls._export("flexural", k_flex), cls._export("inflexural", k_inflex)

    @classmethod
    def parse(cls, text):
        """The (u, x, y) rows of one exported CSV, or None when it is malformed."""
        lines = text.split("\n")
        if lines[0] != "u,x,y" or lines[-1] != "" or len(lines) != cls.SAMPLES + 2:
            return None
        try:
            rows = [tuple(map(float, line.split(","))) for line in lines[1:-1]]
        except ValueError:
            return None
        if any(len(r) != 3 or not all(map(math.isfinite, r)) for r in rows):
            return None
        step = cls.U_MAX / (cls.SAMPLES - 1)
        if any(abs(r[0] - i * step) > 1e-13 for i, r in enumerate(rows)):
            return None
        return rows

    def check(self, row, out):
        reason = super().check(row, out)
        if reason is None:
            for code, text in out:
                if code != 0:
                    return f"exit code {code}"
                if self.parse(text) is None:
                    return "malformed csv"
        return reason

    def verify(self, row, out):
        reason = self.check(row, out)
        if reason is not None:
            return [reason], math.inf
        reasons, worst = [], 0.0
        for kind, k, (_, text) in zip(("flexural", "inflexural"), row, out):
            rows = self.parse(text)
            for i in self.CHECK_ROWS:
                u, x, y = rows[i]
                want = ref.elastica_ref(kind, k, u)
                for got, w in zip((x, y), want):
                    bad, err = _accuracy(got, w)
                    reasons += bad
                    worst = max(worst, err)
        return reasons, worst


class QuadratureOracle(Workload):
    """``epszeta check``'s comparison: epsilon_any against epsilon_by_quadrature."""

    name = "quadrature-oracle"
    tail_pct = 99.0
    typecodes = "bdd"  # regime, k, x
    pool = 12_000
    n_check = 300
    mem_ops = 30
    QUAD_TOL, GAP = 1e-11, 1e-9

    def draw(self, rng, i):
        regime = i % 3
        k = (rng.uniform(0.05, 0.95), rng.uniform(1.05, 5.0), rng.uniform(0.1, 3.0))[regime]
        return regime, k, rng.uniform(-3.0, 3.0)

    @classmethod
    def op(cls, regime, k, x):
        m = _modulus(regime, k)
        return epszeta.epsilon_any(x, m), epszeta.epsilon_by_quadrature(x, m, cls.QUAD_TOL)

    def check(self, row, out):
        reason = super().check(row, out)
        if reason is None:
            value, quad = out
            if not (_finite(value) and _finite(quad)):
                reason = "non-finite"
            elif abs(value - quad) > self.GAP:
                reason = "oracle gap"
        return reason

    def required(self, row, reason):
        known = ("oracle gap", "quadrature error over tol")
        return reason not in known and super().required(row, reason)

    def verify(self, row, out):
        regime, k, x = row
        if isinstance(out, Exception):
            return [self.check(row, out)], math.inf
        value, quad = out
        want = ref.epsilon_ref(x, regime, k)
        reasons, err = _accuracy(value, want)
        # integrate() promises |error| <= max(tol, estimate); a miss is the oracle's false PASS
        if abs(quad - want) > self.QUAD_TOL:
            reasons.append("quadrature error over tol")
        return reasons, err


WORKLOADS = {w.name: w for w in (MixedPoints(), CurveExport(), QuadratureOracle())}
