"""The three closed-loop workloads: set-up, seeded inputs, and checked ops.

Each op returns its checks as (name, residual, tolerance) triples.  A check
passes only when ``residual <= tolerance``, so a NaN or infinite residual
fails; the checks are never folded with Python's ``max``, which drops NaN.
Library functions are called through their module attributes so that the
tracer's wrappers see every call.

Inputs vary per op and come from ``SeededRng(seed).substream(op)``.  The
``solve`` inputs are fixed by design, so no cache of ``solve`` results or of
a comb may be carried from one op to the next: a CLI user pays that cost once
per process.
"""

from __future__ import annotations

import numpy as np

from clonelab import baselines, channels, cloner, haar, irreps, optimizer, protocol

# Sampled protocol rates must sit within this many standard errors of the
# exact value; three two-sided tests at 5.5 sigma give a false failure with
# probability about 1e-7 per op.
K_SIGMA = 5.5
PROTOCOL_ROUNDS = 100_000
SOLVE_TOL = 1e-8


def _max_abs(a) -> float:
    """Largest entry magnitude; NaN if any entry is NaN."""
    return float(np.max(np.abs(a)))


def _inputs_rng(seed: int, op: int) -> haar.SeededRng:
    return haar.SeededRng(seed).substream(op)


class GateCheckD4:
    """Dense-comb stress: insert a Haar gate into the d = 4 cloner comb."""

    name = "gate_check_d4"
    cycle = 1
    setup_repeats = 7
    d = 4

    def setup(self, corrupt=None):
        r1 = cloner.build_cloner(self.d).r1
        if corrupt is not None:
            r1 = channels.CombNetwork(choi=corrupt(r1.choi), d=self.d)
        return {"r1": r1, "f_ref": cloner.closed_form_fidelity(self.d)}

    def make_input(self, state, seed, op):
        return haar.sample_haar_unitary(self.d, _inputs_rng(seed, op))

    def op(self, state, u):
        r1, f_ref = state["r1"], state["f_ref"]
        inserted = channels.insert_gate(r1, u)
        closed = cloner.cloner_channel_closed_form(u)
        f_channel = channels.channel_fidelity_with_double_unitary(inserted, u)
        f_comb = channels.comb_fidelity_functional(r1.choi, u, self.d)
        return [
            ("insert_vs_closed_form", _max_abs(inserted.choi - closed.choi), 1e-9),
            ("channel_fidelity", abs(f_channel - f_ref), 1e-9),
            ("comb_fidelity", abs(f_comb - f_ref), 1e-9),
        ]


class SdpRederive:
    """Covariant route: block SDP solves plus block extraction of comb mixtures."""

    name = "sdp_rederive"
    cycle = 3
    setup_repeats = 25
    dims = (2, 3, 4)
    comb_dims = (2, 3)

    def setup(self, corrupt=None):
        tables = {d: irreps.build_irrep_table(d) for d in self.dims}
        problems = {(d, task): optimizer.build_problem(d, task)
                    for d in self.dims for task in optimizer.TASKS}
        combs = {d: (cloner.choi_r1_of_cloner(d).choi,
                     cloner.choi_r1_of_decohered_cloner(d).choi,
                     cloner.first_factor_network(d).choi) for d in self.comb_dims}
        refs = {d: np.array([cloner.closed_form_fidelity(d), baselines.f_decohered(d),
                             baselines.f_random(d)]) for d in self.comb_dims}
        return {"tables": tables, "problems": problems, "combs": combs,
                "refs": refs, "corrupt": corrupt}

    def make_input(self, state, seed, op):
        rng = _inputs_rng(seed, op)
        return {"d": self.dims[op % self.cycle],
                "weights": rng.generator().dirichlet(np.ones(3)),
                "covariance_rng": rng.substream(0)}

    def op(self, state, inp):
        d = inp["d"]
        clone = optimizer.solve(state["problems"][(d, "clone")], tol=SOLVE_TOL)
        learn = optimizer.solve(state["problems"][(d, "learn")], tol=SOLVE_TOL)
        checks = [
            ("clone_bound", abs(clone.optimal_value - optimizer.analytic_bound(d)), 1e-6),
            ("learn_value", abs(learn.optimal_value - baselines.f_learning(d)), 1e-6),
        ]
        if d not in self.comb_dims:
            return checks
        w = inp["weights"]
        c0, c1, c2 = state["combs"][d]
        mixture = w[0] * c0 + w[1] * c1 + w[2] * c2
        if state["corrupt"] is not None:
            mixture = state["corrupt"](mixture)
        table = state["tables"][d]
        blocks = irreps.blocks_from_choi(mixture, table, rng=inp["covariance_rng"])
        herm = _max_abs([_max_abs(b - b.conj().T) for b in blocks.blocks.values()])
        # np.maximum keeps a NaN eigenvalue, where max(0.0, nan) would drop it
        neg = _max_abs([np.maximum(0.0, -np.linalg.eigvalsh((b + b.conj().T) / 2).min())
                        for b in blocks.blocks.values()])
        f_blocks = irreps.block_fidelity(blocks, table)
        return checks + [
            ("blocks_hermitian", herm, 1e-9),
            ("blocks_psd", neg, 1e-9),
            ("block_fidelity", abs(f_blocks - float(w @ state["refs"][d])), 1e-9),
        ]


class ProtocolSampled:
    """The protocol simulator: sampled rounds against the exact oracle."""

    name = "protocol_sampled"
    cycle = 3
    setup_repeats = 1000

    # exact (symbol error, Eve guess) and the tolerance the exact engine meets
    expected = {
        "none": (0.0, 0.25, 0.0),
        "intercept_resend": (0.375, 0.625, 0.0),
        "clone_attack": (protocol.CLONE_ATTACK_SYMBOL_ERROR,
                         protocol.CLONE_ATTACK_EVE_GUESS, 1e-9),
    }

    def setup(self, corrupt=None):
        return {"bases": protocol.build_bases()}

    def make_input(self, state, seed, op):
        return {"strategy": protocol.STRATEGIES[op % self.cycle],
                "rng": _inputs_rng(seed, op)}

    def op(self, state, inp):
        strategy = inp["strategy"]
        sampled = protocol.run_sampled(strategy, state["bases"], PROTOCOL_ROUNDS, inp["rng"])
        exact = protocol.run_exact(strategy, state["bases"])
        ser, eve, tol = self.expected[strategy]
        n_sift = sampled.sift_rate * PROTOCOL_ROUNDS
        p, q = exact.symbol_error_rate, exact.eve_guess_prob
        return [
            ("exact_sift_rate", abs(exact.sift_rate - 0.5), 0.0),
            ("exact_symbol_error", abs(p - ser), tol),
            ("exact_eve_guess", abs(q - eve), tol),
            ("sampled_sift_rate", abs(sampled.sift_rate - 0.5),
             K_SIGMA * np.sqrt(0.25 / PROTOCOL_ROUNDS)),
            ("sampled_symbol_error", abs(sampled.symbol_error_rate - p),
             K_SIGMA * np.sqrt(p * (1 - p) / n_sift)),
            ("sampled_eve_guess", abs(sampled.eve_guess_prob - q),
             K_SIGMA * np.sqrt(q * (1 - q) / n_sift)),
        ]


WORKLOADS = {w.name: w for w in (GateCheckD4(), SdpRederive(), ProtocolSampled())}
