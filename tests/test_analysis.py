"""Bounds, readout mitigation, energy density, standard errors."""

import json
import os

import numpy as np
import pytest

from qutrit_toric.analysis import (
    ConfusionMatrix,
    energy_density,
    fidelity_bounds,
    mitigated_plaquette_triple,
    topological_qutrit_bounds,
)
from qutrit_toric.encoder import DECODE_BITS
from qutrit_toric.estimators import standard_errors
from qutrit_toric.lattice import A_EXPONENTS, B_EXPONENTS

from oracles import forward_noise, snapshot_from_triple, spam_mitigate

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "prep_6x4_summary.json")


class TestFidelityBounds:
    def test_reference_values_24_sites(self):
        b = fidelity_bounds(0.75, 0.68, 24)
        assert b.lower == pytest.approx(0.43)
        assert b.upper == pytest.approx(0.68)
        assert b.per_site_lower == pytest.approx(0.9654, abs=5e-4)
        assert b.per_site_upper == pytest.approx(0.9841, abs=5e-4)

    def test_entangled_pair_row(self):
        b = fidelity_bounds(0.92, 0.80, 1)
        assert b.lower == pytest.approx(0.72)
        assert b.upper == pytest.approx(0.80)

    def test_perfect_inputs(self):
        b = fidelity_bounds(1.0, 1.0, 10)
        assert (b.lower, b.upper) == (1.0, 1.0)
        assert (b.per_site_lower, b.per_site_upper) == (1.0, 1.0)

    def test_lower_clamped_at_zero(self):
        b = fidelity_bounds(0.5, 0.4, 10)
        assert b.lower == 0.0
        assert b.upper == pytest.approx(0.4)
        assert b.per_site_lower == 0.0

    def test_monotone_in_each_argument(self):
        grid = np.linspace(0, 1, 9)
        for q in (0.3, 0.7):
            lowers = [fidelity_bounds(p, q, 4).lower for p in grid]
            uppers = [fidelity_bounds(p, q, 4).upper for p in grid]
            assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(uppers, uppers[1:]))

    def test_invalid_sites(self):
        with pytest.raises(ValueError):
            fidelity_bounds(0.9, 0.9, 0)

    def test_clamp_flag(self):
        assert fidelity_bounds(1.02, 0.9, 2).inputs_clamped
        assert not fidelity_bounds(0.9, 0.9, 2).inputs_clamped

    def test_se_propagation(self):
        b = fidelity_bounds(0.9, 0.8, 1, se_p=0.03, se_q=0.04)
        assert b.lower_se == pytest.approx(0.05)
        assert b.upper_se == pytest.approx(0.04)

    def test_topological_qutrit_bounds_rows(self):
        b = topological_qutrit_bounds((0.92, 0.07, 0.01), (0.80, 0.09, 0.11), 0)
        assert (b.lower, b.upper) == (pytest.approx(0.72), pytest.approx(0.80))
        b1 = topological_qutrit_bounds((0.009, 0.94, 0.05), (0.75, 0.13, 0.12), 1)
        assert b1.lower == pytest.approx(0.94 + 0.75 - 1)
        with pytest.raises(ValueError):
            topological_qutrit_bounds((1, 0, 0), (1, 0, 0), 5)


class TestSpamMitigation:
    def test_identity_matrix_is_noop(self):
        cm = ConfusionMatrix(0.0, 0.0)
        dist = {(0, 1): 0.25, (1, 1): 0.75}
        out, neg = spam_mitigate(dist, cm)
        assert not neg
        assert out == pytest.approx(dist)

    def test_forward_then_invert_is_exact(self):
        cm = ConfusionMatrix()  # the characterized readout rates
        rng = np.random.default_rng(3)
        for width in (1, 3, 6):
            probs = rng.dirichlet(np.ones(2**width))
            exact = {
                tuple(int(b) for b in np.binary_repr(i, width)): float(p)
                for i, p in enumerate(probs)
            }
            noisy = forward_noise(exact, cm)
            recovered, _ = spam_mitigate(noisy, cm)
            for key, val in exact.items():
                assert recovered.get(key, 0.0) == pytest.approx(val, abs=1e-12)

    def test_negatives_reported_not_clipped(self):
        cm = ConfusionMatrix(0.2, 0.1)
        dist = {(1,): 1.0}
        out, neg = spam_mitigate(dist, cm)
        assert neg
        assert out[(0,)] < 0
        assert sum(out.values()) == pytest.approx(1, abs=1e-12)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(0.6, 0.1)

    def test_width_cap(self):
        cm = ConfusionMatrix()
        with pytest.raises(ValueError, match="capped"):
            spam_mitigate({tuple([0] * 20): 1.0}, cm)

    def test_mitigation_improves_noisy_4x4_estimates(self):
        """Readout-error mitigation strictly raises the mean +1-sector weight
        on the noisy workload."""
        from qutrit_toric.circuit import run_shots
        from qutrit_toric.encoder import (decode_qubit_records, herald_filter,
                                          per_qutrit_two_qubit, simulate_readout)
        from qutrit_toric.estimators import estimate_plaquette_projectors
        from qutrit_toric.lattice import build_lattice, ground_state_circuit, measure_all_circuit

        lat = build_lattice(4, 4)
        prep = ground_state_circuit(lat)
        cm = ConfusionMatrix(p01=12e-3, p10=8e-3)  # exaggerated for a clear signal
        raw_means, mit_means = [], []
        for basis in ("z", "x"):
            circ = prep.with_noise(p2=2e-3)
            circ.extend(measure_all_circuit(lat, basis))
            batch = run_shots(circ, 4000, base_seed=17)
            pairs = simulate_readout(batch.values, per_qutrit_two_qubit(prep, basis),
                                     p01=cm.p01, p10=cm.p10,
                                     leak_per_two_qubit=1e-4, seed=3)
            retained, _ = herald_filter(pairs)
            values = decode_qubit_records(retained)
            snaps = estimate_plaquette_projectors(values, basis, lat)
            raw_means.extend(s["pi1"] for s in snaps)
            want = "A" if basis == "x" else "B"
            for p in lat.plaquettes:
                if p.kind != want:
                    continue
                trip = mitigated_plaquette_triple(retained, p.corners,
                                                  p.exponents, p.kind, cm)
                mit_means.append(trip[0])
        assert np.mean(mit_means) > np.mean(raw_means)


def reference_mitigated_triple(bits, corner_sites, exponents, cm):
    """Per-string oracle: invert the face's marginal string by string as a sum
    of outer products, then decode each corrected string pair by pair."""
    columns = [b for s in corner_sites for b in (2 * s, 2 * s + 1)]
    strings, counts = np.unique(np.asarray(bits)[:, columns], axis=0, return_counts=True)
    inverse = cm.inverse
    corrected = np.zeros((2,) * len(columns))
    for string, count in zip(strings.tolist(), counts.tolist()):
        kron = inverse[:, string[0]]
        for b in string[1:]:
            kron = np.multiply.outer(kron, inverse[:, b])
        corrected += count / len(bits) * kron
    sectors = np.zeros(3)
    for string in np.ndindex(corrected.shape):
        pairs = [tuple(string[2 * i:2 * i + 2]) for i in range(len(corner_sites))]
        if any(p not in DECODE_BITS for p in pairs):
            continue
        values = [DECODE_BITS[p] for p in pairs]
        sectors[sum(e * v for e, v in zip(exponents, values)) % 3] += corrected[string]
    total = sectors.sum()
    if total <= 0:
        raise ValueError("no decodable weight after mitigation")
    return tuple(sectors / total)


class TestMitigationOracle:
    """mitigated_plaquette_triple against the per-string oracle."""

    @pytest.mark.parametrize("rates", [(0.0, 0.0), (2.37e-3, 0.82e-3), (0.03, 0.01), (0.2, 0.1)])
    @pytest.mark.parametrize("kind", ["A", "B"])
    @pytest.mark.parametrize("n_shots", [1, 500])
    def test_matches_reference(self, rates, kind, n_shots):
        cm = ConfusionMatrix(*rates)
        exponents = A_EXPONENTS if kind == "A" else B_EXPONENTS
        rng = np.random.default_rng([n_shots, int(1e4 * rates[0]), ord(kind)])
        for trial in range(6):
            # uniform bits hold herald pairs; every other trial is herald-free
            bits = rng.integers(0, 2, size=(n_shots, 12), dtype=np.uint8)
            if trial % 2:
                bits[:, 1::2] &= bits[:, 0::2]
            pairs = 2 * bits[:, 0::2] + bits[:, 1::2]  # the encoder's pair index 2*hi + lo
            corners = tuple(int(s) for s in rng.permutation(6)[:4])
            try:
                want = reference_mitigated_triple(bits, corners, exponents, cm)
            except ValueError:
                with pytest.raises(ValueError, match="no decodable weight"):
                    mitigated_plaquette_triple(pairs, corners, exponents, kind, cm)
                continue
            got = mitigated_plaquette_triple(pairs, corners, exponents, kind, cm)
            assert got == pytest.approx(want, abs=1e-12, rel=0)

    def test_no_shots_has_no_decodable_weight(self):
        with pytest.raises(ValueError, match="no decodable weight"):
            mitigated_plaquette_triple(np.zeros((0, 4), dtype=np.uint8), (0, 1, 2, 3),
                                       A_EXPONENTS, "A", ConfusionMatrix())

    def test_nine_corners_capped(self):
        pairs = np.zeros((5, 9), dtype=np.uint8)
        with pytest.raises(ValueError, match="capped"):
            mitigated_plaquette_triple(pairs, tuple(range(9)), (1,) * 9, "A", ConfusionMatrix())

    def test_forward_noise_capped(self):
        with pytest.raises(ValueError, match="capped"):
            forward_noise({tuple([0] * 20): 1.0}, ConfusionMatrix())


class TestEnergyDensity:
    def _snaps(self, values):
        return [snapshot_from_triple("A", (i, 0), (v, (1 - v) / 2, (1 - v) / 2))
                for i, v in enumerate(values)]

    def test_ideal(self):
        assert energy_density(self._snaps([1.0] * 24)) == -1.0

    def test_uniform_third(self):
        assert energy_density(self._snaps([1 / 3] * 8)) == pytest.approx(-1 / 3)

    def test_missing_plaquettes_rejected(self):
        with pytest.raises(ValueError):
            energy_density(self._snaps([1.0] * 5), expected_plaquettes=24)
        with pytest.raises(ValueError):
            energy_density([])

    def test_summary_fixture_round_trip(self):
        with open(FIXTURE) as fh:
            doc = json.load(fh)
        snaps = [
            snapshot_from_triple(s["kind"], tuple(s["pos"]),
                                 (s["pi1"], s["pi_omega"], s["pi_omegabar"]))
            for s in doc["plaquettes"]
        ]
        assert energy_density(snaps, 24) == pytest.approx(-0.945, abs=1e-9)

    def test_invariant_under_relabeling(self):
        snaps = self._snaps([0.9, 0.8, 1.0, 0.7])
        assert energy_density(snaps) == pytest.approx(energy_density(snaps[::-1]), abs=1e-15)


class TestStandardErrors:
    def test_reference_shot_count(self):
        ses, worst = standard_errors([259, 129, 129])
        assert worst == pytest.approx(0.022, abs=5e-4)

    def test_degenerate_probabilities(self):
        ses, worst = standard_errors([100, 0, 0])
        assert ses[0] == 0.0 and ses[1] == 0.0

    def test_no_shots(self):
        with pytest.raises(ValueError):
            standard_errors([0, 0, 0])

    def test_stack_equals_rows_bitwise(self):
        counts = np.random.default_rng(4).integers(0, 300, size=(40, 3))
        counts[5] = [17, 0, 0]
        ses, worst = standard_errors(counts)
        rows = [standard_errors(c) for c in counts]
        assert repr((ses, worst)) == repr(([r[0] for r in rows], [r[1] for r in rows]))
        counts[7] = 0
        with pytest.raises(ValueError, match="no shots"):
            standard_errors(counts)

    def test_agreement_with_bootstrap(self):
        rng = np.random.default_rng(9)
        p = np.array([0.6, 0.3, 0.1])
        n = 2000
        draws = rng.multinomial(n, p)
        ses, _ = standard_errors(draws)
        boot = []
        samples = np.repeat(np.arange(3), draws)
        for _ in range(1000):
            res = samples[rng.integers(0, n, n)]
            boot.append([np.mean(res == k) for k in range(3)])
        boot_se = np.std(np.array(boot), axis=0)
        for a, b in zip(ses, boot_se):
            assert a == pytest.approx(b, rel=0.10)
