"""Derived random streams."""

import re
from pathlib import Path

import numpy as np

import repro.engines.sampling
import repro.engines.tensor_parallel
import repro.resilience
import repro.sampling
import repro.serving
from repro.utils.rng import (
    derive_rng,
    derive_seed_sequence,
    derive_uniform,
    hashed_uniforms,
)


class TestDerivation:
    def test_deterministic(self):
        a = derive_rng(7, "workload", "arrivals").random(5)
        b = derive_rng(7, "workload", "arrivals").random(5)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        a = derive_rng(7, "workload", "arrivals").random(5)
        b = derive_rng(7, "workload", "popularity").random(5)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        assert derive_uniform(1, "x") != derive_uniform(2, "x")

    def test_string_components_stable_across_calls(self):
        assert derive_seed_sequence(3, "retry", 1, 2) == derive_seed_sequence(
            3, "retry", 1, 2
        )

    def test_negative_components_masked(self):
        seq = derive_seed_sequence(-5, -1)
        assert all(0 <= part <= 0x7FFFFFFF for part in seq)

    def test_integer_path_matches_legacy_injector_formula(self):
        """The fault injector used to seed directly with
        ``[seed & 0x7FFFFFFF, phase, src, dst, attempt]``; the helper
        must reproduce those draws bit-for-bit so probed chaos traces
        replay unchanged."""
        seed, phase, src, dst, attempt = 42, 3, 1, 2, 0
        legacy = float(
            np.random.default_rng(
                [seed & 0x7FFFFFFF, phase, src, dst, attempt]
            ).random()
        )
        assert derive_uniform(seed, phase, src, dst, attempt) == legacy


class TestHashedUniforms:
    def test_deterministic_and_in_unit_interval(self):
        ids = np.arange(1000)
        a = hashed_uniforms(7, "uniform", 2, ids=ids)
        b = hashed_uniforms(7, "uniform", 2, ids=ids)
        assert np.array_equal(a, b)
        assert (a >= 0.0).all() and (a < 1.0).all()

    def test_streams_are_independent(self):
        ids = np.arange(100)
        a = hashed_uniforms(7, "uniform", ids=ids)
        b = hashed_uniforms(7, "labor", ids=ids)
        assert not np.array_equal(a, b)

    def test_pure_function_of_id(self):
        """Each id's draw is independent of which other ids share the
        call -- what lets the rounds of a kappa-block share their draws."""
        full = hashed_uniforms(3, "uniform", 1, ids=np.arange(50))
        subset = hashed_uniforms(3, "uniform", 1, ids=np.arange(10, 20))
        assert np.array_equal(full[10:20], subset)

    def test_roughly_uniform(self):
        draws = hashed_uniforms(0, "check", ids=np.arange(20000))
        assert abs(draws.mean() - 0.5) < 0.01


class TestNoDirectRngInScannedPackages:
    SCANNED = [
        ("resilience", Path(repro.resilience.__file__).parent),
        ("sampling", Path(repro.sampling.__file__).parent),
        ("engines/sampling.py", Path(repro.engines.sampling.__file__)),
        ("engines/tensor_parallel.py",
         Path(repro.engines.tensor_parallel.__file__)),
        ("serving", Path(repro.serving.__file__).parent),
    ]

    def test_all_draws_route_through_derive_rng(self):
        """Every random draw in the resilience layer, the sampling
        subsystem, and the serving fleet (workload generation, hedge
        jitter, routing hashes) must go through ``repro.utils.rng`` so
        fault jitter and sampled closures stay replayable from a single
        run seed; a direct ``default_rng``/``RandomState`` call would
        fork an untracked stream."""
        direct = re.compile(
            r"np\.random\.(default_rng|RandomState|seed)\s*\("
        )
        offenders = []
        for label, target in self.SCANNED:
            sources = (
                sorted(target.glob("*.py")) if target.is_dir() else [target]
            )
            for source in sources:
                for lineno, line in enumerate(
                    source.read_text().splitlines(), start=1
                ):
                    code = line.split("#", 1)[0]
                    if direct.search(code):
                        offenders.append(
                            f"{label}/{source.name}:{lineno}: {line.strip()}"
                        )
        assert not offenders, (
            "direct RNG construction in scanned packages (use derive_rng):\n"
            + "\n".join(offenders)
        )
