package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/diy"
)

// requireHullAgrees fails the test if the hull cross-check found a cell
// whose Quickhull volume disagrees with its clipping volume, or (with
// HullPass on) checked nothing at all.
func requireHullAgrees(t testing.TB, label string, cfg Config, c CellCounts) {
	t.Helper()
	if c.HullDisagree != 0 {
		t.Errorf("%s: %d of %d hull-checked cells disagree with clipping", label, c.HullDisagree, c.HullChecked)
	}
	if cfg.HullPass && c.HullChecked == 0 {
		t.Errorf("%s: hull pass on but no cell was hull-checked", label)
	}
}

// blockPass is one decomposition's per-block output of the compute stage.
type blockPass struct {
	meshes [][]byte
	counts CellCounts
}

// computeAllBlocks runs the compute stage of every block of a decomposition
// of ps, with the gated (fullHull false) or the full hull pass.
func computeAllBlocks(t *testing.T, cfg Config, ps []diy.Particle, blocks, workers int, fullHull bool) blockPass {
	t.Helper()
	d, err := decomposeFor(cfg, blocks, ps)
	if err != nil {
		t.Fatal(err)
	}
	parts := diy.PartitionParticles(d, ps)
	var out blockPass
	for rank := 0; rank < d.NumBlocks(); rank++ {
		ghosts := diy.GatherGhosts(d, rank, parts, cfg.GhostSize)
		res, err := computeBlockCells(d.Block(rank), parts[rank], ghosts, cfg, workers, fullHull)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		enc, err := res.Mesh.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out.meshes = append(out.meshes, enc)
		out.counts = out.counts.add(res.Counts)
	}
	return out
}

// The gated hull pass (cells in the hullEps band of a cull bound plus the
// hash sample) must take every cull decision the full pass takes: block
// meshes byte-identical and the same Kept/CulledExact, for every worker
// count and both decompositions. The number of hull-checked cells is a
// property of the particles alone, so it must not move with either.
func TestHullGatedMatchesFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.8)

	ref, err := Run(baseConfig(L), ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	vols := ref.Volumes()
	sort.Float64s(vols)
	q05, q95 := vols[len(vols)*5/100], vols[len(vols)*95/100]
	exact := vols[len(vols)/2] // one cell's clipping volume, on the bound

	bounds := []struct {
		name     string
		min, max float64
	}{
		{"quantiles", q05, q95},
		{"exact-min", exact, 0},
	}
	for _, b := range bounds {
		t.Run(b.name, func(t *testing.T) {
			cfg := baseConfig(L)
			cfg.HullPass = true
			cfg.MinVolume, cfg.MaxVolume = b.min, b.max

			inBand := 0
			for _, v := range vols {
				if nearCullBound(v, cfg) {
					inBand++
				}
			}
			if b.name == "exact-min" && inBand == 0 {
				t.Fatal("no cell in the hullEps band of the exact bound")
			}

			var checked int64 = -1
			for _, kind := range []DecompKind{DecomposeRegular, DecomposeRCB} {
				cfg.Decomposition = kind
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("decomp=%d/workers=%d", kind, workers)
					gated := computeAllBlocks(t, cfg, ps, 4, workers, false)
					full := computeAllBlocks(t, cfg, ps, 4, workers, true)
					for r := range full.meshes {
						if !bytes.Equal(gated.meshes[r], full.meshes[r]) {
							t.Errorf("%s: block %d mesh differs between gated and full hull pass", label, r)
						}
					}
					g, f := gated.counts, full.counts
					if g.Kept != f.Kept || g.CulledExact != f.CulledExact || g.CulledEarly != f.CulledEarly {
						t.Errorf("%s: gated counts %+v, full %+v", label, g, f)
					}
					if g.CulledExact == 0 || g.Kept == 0 {
						t.Errorf("%s: bounds cull nothing or everything: %+v", label, g)
					}
					requireHullAgrees(t, label+" gated", cfg, g)
					requireHullAgrees(t, label+" full", cfg, f)
					if f.HullChecked != f.Kept+f.CulledExact {
						t.Errorf("%s: full pass checked %d cells, want every one of the %d past the early cull",
							label, f.HullChecked, f.Kept+f.CulledExact)
					}
					if g.HullChecked < int64(inBand) || g.HullChecked >= f.HullChecked {
						t.Errorf("%s: gated pass checked %d cells, want >= %d in the band and < %d",
							label, g.HullChecked, inBand, f.HullChecked)
					}
					if checked < 0 {
						checked = g.HullChecked
					} else if g.HullChecked != checked {
						t.Errorf("%s: gated pass checked %d cells, first configuration %d", label, g.HullChecked, checked)
					}
				}
			}
		})
	}
}

// The sample is a hash of the particle ID: about 1 in hullSampleMod IDs,
// with no dependence on anything else.
func TestHullSampleRate(t *testing.T) {
	const n = 1 << 16
	hits := 0
	for id := int64(0); id < n; id++ {
		if hullSampled(id) {
			hits++
		}
	}
	want := float64(n) / hullSampleMod
	if math.Abs(float64(hits)-want) > 4*math.Sqrt(want) {
		t.Errorf("sampled %d of %d IDs, want about %.0f", hits, n, want)
	}
}
