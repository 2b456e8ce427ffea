"""The benchmark's three workloads.

Each workload builds its inputs from the run seed with
`randspec.random_properly_ergodic_spec`, so the library only ever sees
generated specs.  Input i uses spec seed `seed * 1000 + i`, so the first k
inputs of a run do not depend on how many it builds.  `run` is the timed
public call; `serialise` gives the exact output as JSON for the digest;
`check` tests invariants that hold for every seed (outside the timed region).

`ts` is a namespace holding one fresh import of the treeshift modules.
"""

from __future__ import annotations


def spec_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


class Pipeline:
    """One op: generator_ergodic_pipeline on one spec."""

    name = "pipeline"

    def __init__(self, quick: bool):
        self.size, self.rank = (4, 2) if quick else (8, 3)
        self.inputs = 4 if quick else 6
        self.trace_inputs = 2 if quick else 3

    def setup(self, ts, seed: int, n: int):
        gen = ts.randspec.random_properly_ergodic_spec
        return [gen(spec_seed(seed, i), self.size, self.rank) for i in range(n)]

    def run(self, ts, spec):
        return ts.slides.generator_ergodic_pipeline(spec)

    def serialise(self, ts, spec, out):
        final, slides = out
        return {
            "spec": ts.chains.spec_to_json(final),
            "slides": [ts.slides.params_to_json(spec, p) for p in slides],
        }

    def check(self, ts, spec, out):
        final, _ = out
        problems = []
        if not ts.graphs.classify(final).generator_ergodic:
            problems.append("pipeline output is not generator-ergodic")
        if final.pi != spec.pi:
            problems.append("pipeline changed pi")
        return problems


class Verify:
    """One op: verify_slide on every slide the pipeline chose for one spec,
    each against the exact pushforward passed as `candidate`.

    Slide k is checked on spec_k with candidate spec_{k+1}; both come from
    set-up, so `pushforward` is not part of the op.
    """

    name = "verify"

    def __init__(self, quick: bool):
        self.size, self.rank = (3, 2) if quick else (6, 3)
        self.samples = 2 if quick else 5
        self.inputs = 2 if quick else 8
        self.trace_inputs = 1 if quick else 2

    def setup(self, ts, seed: int, n: int):
        inputs = []
        for i in range(n):
            spec = ts.randspec.random_properly_ergodic_spec(spec_seed(seed, i), self.size, self.rank)
            _, slides = ts.slides.generator_ergodic_pipeline(spec)
            chain = [spec]
            for params in slides:
                chain.append(ts.slides.pushforward(chain[-1], params))
            inputs.append((chain, slides))
        return inputs

    def run(self, ts, inp):
        chain, slides = inp
        return [
            ts.slides.verify_slide(chain[k], p, candidate=chain[k + 1], samples=self.samples)
            for k, p in enumerate(slides)
        ]

    def serialise(self, ts, inp, out):
        chain, _ = inp
        return [report.to_json(chain[k]) for k, report in enumerate(out)]

    def check(self, ts, inp, out):
        # markov_factorization is left out on purpose: it is False on every
        # slide of these specs at the seed code (see README, "Known finding").
        problems = []
        for k, r in enumerate(out):
            for flag in (
                "double_recode_identity",
                "orbit_surjective",
                "support_contains_slid_edges",
                "endpoints_aperiodic",
            ):
                if not getattr(r, flag):
                    problems.append(f"slide {k}: {flag} is False")
        return problems


class SampleReplay:
    """One op: sample_ball(spec, r, s), then replay(slides, SampledTree(spec, s), r)."""

    name = "sample-replay"

    def __init__(self, quick: bool):
        self.size, self.rank = (4, 2) if quick else (6, 3)
        self.radius = 3 if quick else 5
        self.check_radius = 2 if quick else 3
        self.inputs = 3 if quick else 8
        self.trace_inputs = 2 if quick else 4

    def setup(self, ts, seed: int, n: int):
        inputs = []
        for i in range(n):
            s = spec_seed(seed, i)
            spec = ts.randspec.random_properly_ergodic_spec(s, self.size, self.rank)
            _, slides = ts.slides.generator_ergodic_pipeline(spec)
            inputs.append((spec, slides, s))
        return inputs

    def run(self, ts, inp):
        spec, slides, s = inp
        sample = ts.chains.sample_ball(spec, self.radius, s)
        replayed = ts.slides.replay(slides, ts.chains.SampledTree(spec, s), self.radius)
        return sample, replayed

    def serialise(self, ts, inp, out):
        sample, replayed = out
        return {
            "sample": [v for _, v in sample.items()],
            "replay": [v for _, v in replayed.items()],
        }

    def check(self, ts, inp, out):
        spec, slides, s = inp
        x = ts.chains.SampledTree(spec, s)
        back = ts.slides.replay(list(slides) + list(reversed(slides)), x, self.check_radius)
        if any(back[w] != x[w] for w in ts.words.ball(spec.rank, self.check_radius)):
            return ["replaying the slides and then their reverse did not restore x"]
        return []


WORKLOADS = {w.name: w for w in (Pipeline, Verify, SampleReplay)}
