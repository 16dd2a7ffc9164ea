package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/nbody"
)

// balanceGhost is the ghost size of every byte-identity test here. The
// completeness proof is only sound when ghost regions comfortably exceed
// cell diameters (Table I measures what happens below that), and clustered
// input has large void cells, so these oracles run with a wide ghost: at
// this size the 2-, 4-, and 8-block runs of both decompositions reproduce
// the single-block tessellation exactly (verified while choosing it).
const balanceGhost = 4.5

// clusteredParticles builds the deterministic halo-mock particle set the
// load-balance tests and benches share: tight Plummer halos over a uniform
// background (the background keeps every Voronoi cell small enough that a
// moderate ghost proves all cells complete, which the byte-identity oracle
// requires).
func clusteredParticles(t testing.TB, n int, L float64, seed int64) []diy.Particle {
	t.Helper()
	p := cosmo.DefaultClusterParams()
	p.Seed = seed
	p.BackgroundFrac = 0.4
	pos := cosmo.ClusteredPositions(n, L, p)
	ps := make([]diy.Particle, len(pos))
	for i, q := range pos {
		ps[i] = diy.Particle{ID: int64(i), Pos: q}
	}
	return ps
}

// mergedBytes canonically merges an output's meshes and returns the
// encoding, failing the test if any cell was incomplete (the merge oracle
// is only defined for complete tessellations).
func mergedBytes(t testing.TB, out *Output, cfg Config) []byte {
	t.Helper()
	if out.Counts.Incomplete != 0 {
		t.Fatalf("tessellation has %d incomplete cells; byte-identity oracle needs 0 "+
			"(grow the ghost or the background fraction)", out.Counts.Incomplete)
	}
	m, err := meshio.MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The decomposition-independence oracle on clustered input: the canonical
// merged mesh must be byte-identical whether the blocks are an
// equal-volume grid or particle-balanced RCB leaves.
func TestMergeCanonicalByteIdenticalRegularVsRCB(t *testing.T) {
	const L = 12.0
	ps := clusteredParticles(t, 700, L, 42)
	for _, blocks := range []int{2, 4, 8} {
		cfg := baseConfig(L)
		cfg.GhostSize = balanceGhost
		cfg.HullPass = true
		regular, err := Run(cfg, ps, blocks)
		if err != nil {
			t.Fatalf("blocks=%d regular: %v", blocks, err)
		}
		want := mergedBytes(t, regular, cfg)

		cfg.Decomposition = DecomposeRCB
		rcb, err := Run(cfg, ps, blocks)
		if err != nil {
			t.Fatalf("blocks=%d rcb: %v", blocks, err)
		}
		got := mergedBytes(t, rcb, cfg)

		if regular.Counts != rcb.Counts {
			t.Errorf("blocks=%d: counts differ: grid %+v, rcb %+v", blocks, regular.Counts, rcb.Counts)
		}
		requireHullAgrees(t, fmt.Sprintf("blocks=%d", blocks), cfg, rcb.Counts)
		if !bytes.Equal(want, got) {
			t.Errorf("blocks=%d: canonical merged mesh differs between grid and RCB", blocks)
		}
	}
}

// RunTimed must produce the same tessellation as Run under RCB (it shares
// decomposeFor and the loopback exchange is test-verified against the
// message path).
func TestRunTimedRCBMatchesRun(t *testing.T) {
	const L = 12.0
	ps := clusteredParticles(t, 500, L, 7)
	cfg := baseConfig(L)
	cfg.GhostSize = balanceGhost
	cfg.Decomposition = DecomposeRCB
	a, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTimed(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("counts differ: Run %+v, RunTimed %+v", a.Counts, b.Counts)
	}
	if !bytes.Equal(mergedBytes(t, a, cfg), mergedBytes(t, &b.Output, cfg)) {
		t.Error("canonical merged mesh differs between Run and RunTimed under RCB")
	}
}

// driftedParticles translates every particle by a deterministic per-step
// displacement, wrapped into the box — an evolving workload whose motion
// eventually invalidates any fixed particle-balanced decomposition.
func driftedParticles(ps []diy.Particle, L float64, step int) []diy.Particle {
	d := geom.V(0.31, 0.17, 0.23).Scale(float64(step))
	out := make([]diy.Particle, len(ps))
	for i, p := range ps {
		out[i] = diy.Particle{ID: p.ID, Pos: cosmo.Wrap(p.Pos.Add(d), L)}
	}
	return out
}

// Warm re-decomposition: with an always-tripping threshold, every step
// after the first rebuilds the RCB decomposition from the new positions —
// and each step's canonical merged output must stay byte-identical to a
// standalone regular-grid run over the same particles.
func TestSessionRCBRebalanceByteIdentity(t *testing.T) {
	const L = 12.0
	const blocks = 4
	const steps = 3
	base := clusteredParticles(t, 600, L, 11)

	cfg := baseConfig(L)
	cfg.GhostSize = balanceGhost
	cfg.Decomposition = DecomposeRCB
	// Imbalance ratio is always >= 1, so any threshold below 1 requests a
	// re-decomposition after every step.
	cfg.RebalanceThreshold = 0.9
	s, err := OpenSession(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	refCfg := baseConfig(L)
	refCfg.GhostSize = balanceGhost
	for step := 0; step < steps; step++ {
		ps := driftedParticles(base, L, step)
		got, err := s.Step(ps)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := Run(refCfg, ps, blocks)
		if err != nil {
			t.Fatalf("step %d reference: %v", step, err)
		}
		if got.Counts != want.Counts {
			t.Errorf("step %d: counts %+v, want %+v", step, got.Counts, want.Counts)
		}
		if !bytes.Equal(mergedBytes(t, got, cfg), mergedBytes(t, want, refCfg)) {
			t.Errorf("step %d: rebalanced session output diverges from regular-grid run", step)
		}
	}
	if got := s.Rebalances(); got != steps-1 {
		t.Errorf("Rebalances() = %d, want %d (every step after the first)", got, steps-1)
	}
	if s.LastImbalance() <= 0 {
		t.Errorf("LastImbalance() = %g, want > 0 after steps", s.LastImbalance())
	}
}

// Without a threshold (or with an unreachable one) an RCB session must
// never rebalance: the first step's decomposition serves the whole run.
func TestSessionRCBNoRebalanceWithoutThreshold(t *testing.T) {
	const L = 12.0
	base := clusteredParticles(t, 400, L, 13)
	cfg := baseConfig(L)
	cfg.Decomposition = DecomposeRCB
	s, err := OpenSession(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for step := 0; step < 2; step++ {
		if _, err := s.Step(driftedParticles(base, L, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if got := s.Rebalances(); got != 0 {
		t.Errorf("Rebalances() = %d, want 0", got)
	}

	// A huge threshold likewise never trips.
	cfg.RebalanceThreshold = 1e9
	s2, err := OpenSession(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for step := 0; step < 2; step++ {
		if _, err := s2.Step(driftedParticles(base, L, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if got := s2.Rebalances(); got != 0 {
		t.Errorf("threshold 1e9: Rebalances() = %d, want 0", got)
	}
}

// An RCB session must reject ghosts its periodic links cannot support —
// at Open, before any particles are seen.
func TestSessionRCBOversizedGhostFailsAtOpen(t *testing.T) {
	cfg := baseConfig(8)
	cfg.Decomposition = DecomposeRCB
	cfg.GhostSize = 5 // > L/2 = 4
	if _, err := OpenSession(cfg, 4); err == nil {
		t.Fatal("oversized RCB ghost accepted at Open")
	}
}

// pmParticles returns the 16³ PM simulation's particles after steps steps
// from the Zel'dovich start of the field drawn with seed.
func pmParticles(t testing.TB, seed int64, steps int) []diy.Particle {
	t.Helper()
	cfg := nbody.DefaultConfig(16)
	cfg.Cosmo.Seed = seed
	sim, err := nbody.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(steps, nil)
	ps := make([]diy.Particle, len(sim.Pos))
	for i, p := range sim.Pos {
		ps[i] = diy.Particle{ID: int64(i), Pos: p}
	}
	return ps
}

// MergeCanonical must accept near-lattice and evolved inputs with
// Voronoi vertices closer than the block weld quantum, whose welded vertex
// lists a face twice so its first plane triple is degenerate: the built-in
// sim's 16³ Zel'dovich start (once rejected at cell 25) and an evolved
// snapshot (seed 1, step 24; once rejected at cell 179). The merged cells
// must tile the box, and the merged mesh must not depend on the block
// count or the decomposition, which holds only if the weld quantum does
// not either. In seed 3, step 30 the clipping kernel yields two vertices
// of cell 4056 closer than the weld quantum under the grid decomposition
// and one under RCB (once rejected on the grid, merged under RCB).
func TestMergeCanonicalNearLatticeVertices(t *testing.T) {
	inputs := []struct {
		name        string
		seed, steps int64
	}{
		{"zeldovich-start", nbody.DefaultConfig(16).Cosmo.Seed, 0},
		{"seed1-step24", 1, 24},
		{"seed3-step30", 3, 30},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			ps := pmParticles(t, in.seed, int(in.steps))
			const L = 16.0
			cfg := baseConfig(L)
			cfg.GhostSize = 4
			cfg.HullPass = true
			var want []byte
			for _, run := range []struct {
				blocks int
				decomp DecompKind
			}{{1, DecomposeRegular}, {2, DecomposeRegular}, {8, DecomposeRegular}, {8, DecomposeRCB}} {
				blocks := run.blocks
				cfg.Decomposition = run.decomp
				out, err := Run(cfg, ps, blocks)
				if err != nil {
					t.Fatal(err)
				}
				requireHullAgrees(t, fmt.Sprintf("blocks=%d", blocks), cfg, out.Counts)
				m, err := meshio.MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
				if err != nil {
					t.Fatalf("blocks=%d decomposition %d: merge: %v", blocks, run.decomp, err)
				}
				var vol float64
				for _, v := range m.Volumes {
					vol += v
				}
				if len(m.Volumes) != len(ps) || math.Abs(vol-L*L*L) > 1e-9*L*L*L {
					t.Errorf("blocks=%d decomposition %d: %d merged cells of volume %.12g, want %d tiling %g",
						blocks, run.decomp, len(m.Volumes), vol, len(ps), L*L*L)
				}
				got, err := m.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("blocks=%d decomposition %d: merged mesh differs from the single-block merge", blocks, run.decomp)
				}
			}
		})
	}
}
