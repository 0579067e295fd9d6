package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
)

// pinnedSeeds are the seeds expected.json pins: the default seed and the
// seed held out for confirming claims.
var pinnedSeeds = []int64{1, 7}

// update regenerates the expected-outputs file from in-process
// fault.Simulate runs: the full-universe outcomes of both Table 5 phases,
// and the digest and coverage of every pinned grade.
func update(path string) error {
	cpu, u, err := buildCore(span{})
	if err != nil {
		return err
	}
	r := &run{cpu: cpu, universe: u, comps: core.ClassifyNetlist(cpu.Netlist)}
	e := &expected{
		Sample:       sampleSize,
		UniverseHash: fault.UniverseHash(u),
		Digests:      map[string]string{},
		Coverage:     map[string]float64{},
		Full:         map[string]string{},
	}
	pin := func(key string, res *fault.Result) {
		e.Digests[key] = digest(res.DetectedAt, res.SignatureGroups)
		e.Coverage[key] = round2(res.WeightedCoverage())
		fmt.Printf("%-32s %.2f%%\n", key, res.WeightedCoverage())
	}
	for _, ph := range table5Phases {
		g, err := capturePhase(cpu, r.comps, ph.id, span{})
		if err != nil {
			return err
		}
		full, err := fault.Simulate(cpu, g, u, fault.Options{})
		if err != nil {
			return err
		}
		if e.Full[ph.name], err = packOutcomes(full.DetectedAt, full.SignatureGroups); err != nil {
			return err
		}
		pin(pinKey("table5_full", ph.name, -1), full)
		for _, seed := range pinnedSeeds {
			res, err := fault.Simulate(cpu, g, u, fault.Options{Sample: sampleSize, Seed: seed})
			if err != nil {
				return err
			}
			pin(pinKey("table5_sampled", ph.name, seed), res)
			pin(pinKey("dist_hosts", ph.name, seed), res)
		}
	}
	base, err := r.fragment()
	if err != nil {
		return err
	}
	r.sample = fragSample
	for _, seed := range pinnedSeeds {
		r.seed = seed
		res, err := r.referenceFragment(base.Words, base.Origin)
		if err != nil {
			return err
		}
		pin(pinKey("serve_regrade", fragPhase, seed), res)
		r.sites = redrawSites(base.Words[:min(len(base.Words), fragCycles)])
		r.imms = drawImmediates(base.Words, r.sites, seed, 1)
		if res, err = r.referenceFragment(r.candidate(base.Words, 0), base.Origin); err != nil {
			return err
		}
		pin(pinKey("serve_generate", fragPhase, seed), res)
	}
	return e.write(path)
}
