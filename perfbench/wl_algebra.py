"""algebra-large and algebra-small: the squaring map and its algebra, in process.

One op at a signature draws a spinor from the op's seed, squares it,
checks the square conditions and the reconstruction round trip, runs
one property trial (associativity, the quantize homomorphism and its
inverse, the trace, wedge associativity, the involutions) and one
negative control: a perturbed square that both verify_square_conditions
and reconstruct must reject. algebra-small adds the lowdim normal forms
of the same square: the parabolic pair at (3,1), the chiral self-dual
square at (2,2).

Every expected value follows from the mathematics: squares satisfy the
conditions, reconstruction returns the spinor up to sign, quantize is an
algebra isomorphism. Tolerances are the library's own defaults on
unit-scale inputs; none is a benchmark knob.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from kaspin import lowdim
from kaspin.clifford_rep import Spinor, build_pairings, build_rep, dequantize, quantize
from kaspin.ka_core import (
    Multivector,
    Signature,
    geometric_product,
    hodge_star,
    ka_trace,
    pi,
    pi_tau,
    tau,
    wedge,
)
from kaspin.spinor_square import ReconstructionError, reconstruct, square, verify_square_conditions

import yardstick
from outcome import Outcome, OpFailure, close, require
from spans import median_ns

TOL = 1e-9  # spinor_square.DEFAULT_TOL, relative to max(1, |x|_inf)
CONTROL_NOISE = 1e-3  # relative size of the negative control's perturbation
ORACLE_PAIRS = 2  # product and wedge pairs per signature checked against tests/oracles.py
ORACLE_SPARSE = 24  # nonzero blades per operand at (4,4), where the oracle is slow

LORENTZ_DIAG = np.array([1.0, 1.0, 1.0, -1.0])


class _Context:
    def __init__(self, p, q, tag):
        self.sig = Signature(p, q)
        self.tag = tag
        self.label = f"s{p}{q}"
        self.pr = None
        self.gamma_nu = None


class Workload:
    """Alternates one op per signature; with_lowdim adds the normal forms."""

    per_invocation = False
    defect_cases = ()  # no known defect lies on these paths

    def __init__(self, seed, tracer, sigs, with_lowdim, meter):
        self.seed = seed
        self.tracer = tracer
        self.contexts = [_Context(p, q, tag) for p, q, tag in sigs]
        self.cycle_len = len(self.contexts)
        self.with_lowdim = with_lowdim
        self.meter = meter
        self.counts = Counter()

    # -- set-up ------------------------------------------------------------

    def setup(self):
        T = self.tracer.call
        for ctx in self.contexts:
            T(f"ka_core.get_tables.{ctx.label}", ctx.sig.tables)
            ctx.pr = T(
                f"clifford_rep.build.{ctx.label}",
                lambda sig=ctx.sig: build_pairings(build_rep(sig)),
            )
            if self.with_lowdim and ctx.sig.p == ctx.sig.q:
                ctx.gamma_nu = quantize(ctx.pr.rep, Multivector.volume(ctx.sig))

    # -- one op --------------------------------------------------------------

    def run_op(self, i):
        ctx = self.contexts[i % self.cycle_len]
        rng = np.random.default_rng([self.seed, i])
        try:
            self._op(ctx, rng)
        except OpFailure as exc:
            return Outcome(False, ctx.label, reason=str(exc))
        except Exception as exc:  # any crash is a failed op, never a harness crash
            return Outcome(False, ctx.label, reason=f"{type(exc).__name__}: {exc}")
        return Outcome(True, ctx.label)

    def _op(self, ctx, rng):
        T = self.tracer.call
        L = ctx.label
        sig, pr, tag = ctx.sig, ctx.pr, ctx.tag
        n, N = sig.n_blades, pr.rep.N
        probe_seed = int(rng.integers(1 << 31))

        xi = Spinor(pr.rep, rng.standard_normal(N))
        kappa = int(rng.choice((-1, 1)))
        alpha = T(f"spinor_square.square.{L}", square, pr, tag, kappa, xi).alpha
        cond = T(f"spinor_square.verify_square_conditions.{L}",
                 verify_square_conditions, pr, tag, alpha, seed=probe_seed)
        require(cond.is_square, "square rejected by verify_square_conditions")
        rec = T(f"spinor_square.reconstruct.{L}", reconstruct, pr, tag, alpha)
        require(rec.kappa == kappa, "reconstruct returned the wrong kappa")
        got, want = rec.spinor.components, xi.components
        err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
        require(err <= 1e-8 * max(1.0, np.max(np.abs(want))), f"round trip off by {err:.3e}")

        a, b, c = (Multivector(sig, rng.standard_normal(n)) for _ in range(3))
        ab = T(f"ka_core.geometric_product.{L}", geometric_product, a, b)
        left = T(f"ka_core.geometric_product.{L}", geometric_product, ab, c)
        bc = T(f"ka_core.geometric_product.{L}", geometric_product, b, c)
        right = T(f"ka_core.geometric_product.{L}", geometric_product, a, bc)
        close(left.coeffs, right.coeffs, TOL, "associativity")
        ea = T(f"clifford_rep.quantize.{L}", quantize, pr.rep, a)
        eb = T(f"clifford_rep.quantize.{L}", quantize, pr.rep, b)
        eab = T(f"clifford_rep.quantize.{L}", quantize, pr.rep, ab)
        close(eab, ea @ eb, TOL, "quantize homomorphism")
        back = T(f"clifford_rep.dequantize.{L}", dequantize, pr.rep, ea)
        close(back.coeffs, a.coeffs, TOL, "dequantize(quantize(a))")
        tr = T(f"ka_core.ka_trace.{L}", ka_trace, a)
        close(tr, np.trace(ea), TOL, "trace")

        w_left = T(f"ka_core.wedge.{L}", wedge, T(f"ka_core.wedge.{L}", wedge, a, b), c)
        w_right = T(f"ka_core.wedge.{L}", wedge, a, T(f"ka_core.wedge.{L}", wedge, b, c))
        close(w_left.coeffs, w_right.coeffs, TOL, "wedge associativity")
        rev = T(f"ka_core.involutions.{L}", tau, a)
        require(np.array_equal(T(f"ka_core.involutions.{L}", tau, rev).coeffs, a.coeffs),
                "tau is not an involution")
        require(np.array_equal(T(f"ka_core.involutions.{L}", pi, rev).coeffs,
                               T(f"ka_core.involutions.{L}", pi_tau, a).coeffs),
                "pi o tau differs from pi_tau")

        noise = rng.standard_normal(n)
        scale = np.max(np.abs(alpha.coeffs))
        bad = Multivector(sig, alpha.coeffs + CONTROL_NOISE * scale * noise / np.max(np.abs(noise)))
        self.counts["controls"] += 1
        bad_cond = T(f"spinor_square.verify_square_conditions.{L}",
                     verify_square_conditions, pr, tag, bad, seed=probe_seed)
        try:
            T(f"spinor_square.reconstruct.{L}", reconstruct, pr, tag, bad)
            rejected = False
        except ReconstructionError:
            rejected = True
        require(not bad_cond.is_square, "negative control accepted by verify_square_conditions")
        require(rejected, "negative control accepted by reconstruct")
        self.counts["controls_rejected"] += 1

        if self.with_lowdim:
            if sig.p == 3:
                self._lorentz_forms(alpha)
            else:
                self._chiral_forms(ctx, xi)

    def _lorentz_forms(self, alpha):
        T = self.tracer.call
        ld = lowdim
        pp = T("lowdim.polyform_to_pair", ld.polyform_to_pair, alpha)
        again = T("lowdim.pair_to_polyform", ld.pair_to_polyform, pp)
        close(again.coeffs, alpha.coeffs, TOL, "pair_to_polyform(polyform_to_pair(alpha))")
        e4 = Multivector.basis(ld.SIG_LORENTZ, (4,))
        gauged = T("lowdim.normalize_gauge", ld.normalize_gauge, pp, e4)
        l_time = LORENTZ_DIAG[3] * gauged.l.one_form_components()[3]
        require(abs(l_time) <= TOL * max(1.0, gauged.l.norm_inf()), "gauge not fixed")
        flag = T("lowdim.pair_to_flag", ld.pair_to_flag, pp)
        u = pp.u.one_form_components()
        for w in flag.W3:
            dot = float(np.dot(LORENTZ_DIAG * u, w.one_form_components()))
            require(abs(dot) <= TOL * max(1.0, np.max(np.abs(u))) ** 2, "flag W3 not in u-perp")

    def _chiral_forms(self, ctx, xi):
        T = self.tracer.call
        neg = Spinor(ctx.pr.rep, 0.5 * (xi.components - ctx.gamma_nu @ xi.components))
        alpha = T(f"spinor_square.square.{ctx.label}", square, ctx.pr, "plus", 1, neg).alpha
        require(T("lowdim.check_22_chiral_square", lowdim.check_22_chiral_square, alpha),
                "negative-chirality square not recognized")
        dual = T("ka_core.hodge_star.s22", hodge_star, alpha)
        close(dual.coeffs, alpha.coeffs, TOL, "chiral square is not self-dual")

    # -- after the timed phase -------------------------------------------------

    def oracle_agreement(self, load_oracles):
        """max|diff| of the product and wedge kernels against the slow oracles."""
        oracles = load_oracles()
        out = {}
        rng = np.random.default_rng([self.seed, 1 << 40])
        for ctx in self.contexts:
            sig = ctx.sig
            worst = 0.0
            for _ in range(ORACLE_PAIRS):
                a, b = rng.standard_normal((2, sig.n_blades))
                if sig.d == 8:
                    for v in (a, b):
                        v[rng.permutation(sig.n_blades)[ORACLE_SPARSE:]] = 0.0
                A, B = Multivector(sig, a), Multivector(sig, b)
                gp = geometric_product(A, B).coeffs
                wd = wedge(A, B).coeffs
                worst = max(
                    worst,
                    float(np.max(np.abs(gp - oracles.slow_geometric_product(sig.p, sig.q, a, b)))),
                    float(np.max(np.abs(wd - oracles.slow_wedge(sig.p, sig.q, a, b)))),
                )
            out[ctx.label] = worst
        return out

    def layer_metrics(self, durations, traced_ops):
        m = {"spinor_square.control_reject_frac":
             self.counts["controls_rejected"] / max(1, self.counts["controls"])}
        per_call_us = (
            "spinor_square.square", "spinor_square.reconstruct", "ka_core.wedge",
            "ka_core.involutions", "clifford_rep.quantize", "clifford_rep.dequantize",
        )
        for ctx in self.contexts:
            L = ctx.label
            for stem in per_call_us:
                m[f"{stem}.{L}.us"] = median_ns(durations, f"{stem}.{L}") / 1e3
            m[f"spinor_square.verify_square_conditions.{L}.ms"] = (
                median_ns(durations, f"spinor_square.verify_square_conditions.{L}") / 1e6
            )
            gp = durations.get(f"ka_core.geometric_product.{L}", [])
            m[f"ka_core.geometric_product.{L}.us"] = median_ns(durations, f"ka_core.geometric_product.{L}") / 1e3
            m[f"ka_core.geometric_product.{L}.calls"] = len(gp) / max(1, traced_ops)
            m[f"ka_core.geometric_product.{L}.busy_ms"] = sum(gp) / 1e6 / max(1, traced_ops)
            m[f"ka_core.get_tables.{L}.ms"] = median_ns(durations, f"ka_core.get_tables.{L}") / 1e6
            m[f"clifford_rep.build.{L}.ms"] = median_ns(durations, f"clifford_rep.build.{L}") / 1e6
        if self.with_lowdim:
            for fn in ("polyform_to_pair", "pair_to_polyform", "normalize_gauge",
                       "pair_to_flag", "check_22_chiral_square"):
                m[f"lowdim.{fn}.us"] = median_ns(durations, f"lowdim.{fn}") / 1e3
            m["ka_core.hodge_star.s22.us"] = median_ns(durations, "ka_core.hodge_star.s22") / 1e3
        return m


def large(seed, tracer):
    # (4,4) only: mixing (4,2) or (3,3) in makes op latency bimodal
    return Workload(seed, tracer, [(4, 4, "minus")], with_lowdim=False, meter=yardstick.PRODUCT)


def small(seed, tracer):
    # the minus pairing gives the parabolic-pair squares at (3,1); the plus
    # pairing gives the self-dual chiral squares at (2,2)
    return Workload(seed, tracer, [(3, 1, "minus"), (2, 2, "plus")], with_lowdim=True,
                    meter=yardstick.LOOP)
