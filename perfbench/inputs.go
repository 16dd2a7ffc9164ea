package main

import (
	"fmt"

	tess "repro"
	"repro/internal/nbody"
)

// pmSnapshots evolves an ng^3 particle-mesh simulation whose initial
// Gaussian field is drawn from seed, skips its first skip steps (the
// near-lattice Zel'dovich start), and returns the next count consecutive
// snapshots. Consecutive snapshots move little, as in situ inputs do.
func pmSnapshots(ng, skip, count int, seed int64) ([][]tess.Particle, error) {
	cfg := nbody.DefaultConfig(ng)
	cfg.Cosmo.Seed = seed
	sim, err := nbody.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("pm simulation: %w", err)
	}
	sim.Run(skip, nil)
	snaps := make([][]tess.Particle, 0, count)
	for i := 0; i < count; i++ {
		sim.StepOnce()
		snaps = append(snaps, tess.ParticlesFromSim(sim))
	}
	return snaps, nil
}

// realizations returns one snapshot from each of count independent
// ng^3 PM realizations, each evolved skip+1 steps from its own initial
// field. Mixing realizations keeps a run's cost close to the average over
// initial fields instead of that of one draw.
func realizations(ng, skip, count int, seed int64) ([][]tess.Particle, error) {
	out := make([][]tess.Particle, count)
	for k := range out {
		snaps, err := pmSnapshots(ng, skip, 1, subSeed(seed, k))
		if err != nil {
			return nil, err
		}
		out[k] = snaps[0]
	}
	return out, nil
}

// subSeed derives the k-th realization's field seed from the run seed;
// distinct (seed, k) pairs give distinct fields for k < 64.
func subSeed(seed int64, k int) int64 { return seed*64 + int64(k) }

// positions returns the particle positions of a snapshot.
func positions(ps []tess.Particle) []tess.Vec3 {
	out := make([]tess.Vec3, len(ps))
	for i, p := range ps {
		out[i] = p.Pos
	}
	return out
}
