package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	tess "repro"
	"repro/internal/delaunay"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/nbody"
	"repro/internal/qhull"
	"repro/internal/voronoi"
)

// layerCatalog lists every per-layer metric a traced run prints, in
// output order. A workload fills the metrics of the layers it exercises;
// the rest read 0, meaning "not exercised by this workload".
var layerCatalog = []struct{ name, unit string }{
	{"core.exchange_s", "s"},
	{"core.ghost_merge_s", "s"},
	{"core.compute_s", "s"},
	{"core.output_s", "s"},
	{"core.barrier_s", "s"},
	{"core.compute_imbalance", "ratio"},
	{"core.sites_warm", "count"},
	{"core.sites_cold", "count"},
	{"comm.bytes_per_op", "bytes"},
	{"comm.messages_per_op", "count"},
	{"diy.ghosts_per_op", "count"},
	{"voronoi.cell_s_per_op", "s"},
	{"voronoi.allocs_per_op", "count"},
	{"qhull.hull_s_per_op", "s"},
	{"qhull.allocs_per_op", "count"},
	{"qhull.alloc_bytes_per_op", "bytes"},
	{"meshio.build_s_per_op", "s"},
	{"meshio.encode_v1_s_per_op", "s"},
	{"meshio.encode_v1_bytes_per_op", "bytes"},
	{"meshio.encode_v2_s_per_op", "s"},
	{"meshio.encode_v2_bytes_per_op", "bytes"},
	{"meshio.merge_canonical_s_per_op", "s"},
	{"meshio.merge_canonical_rejects", "count"},
	{"delaunay.triangulate_s", "s"},
	{"dtfe.interpolate_s", "s"},
	{"fft.spectrum_s", "s"},
	{"delaunay.cold_build_s", "s"},
	{"delaunay.cold_build_alloc_bytes", "bytes"},
	{"dtfe.samples_degenerate", "count"},
	{"storage.snapshot_write_s", "s"},
	{"storage.source_loads_per_op", "count"},
	{"storage.source_evictions_per_op", "count"},
	{"storage.peak_resident_particles", "count"},
	{"storage.checkpoint_s_per_op", "s"},
	{"storage.checkpoint_bytes_per_op", "bytes"},
	{"jobd.submit_s_p50", "s"},
	{"jobd.queue_wait_s_p50", "s"},
	{"jobd.run_s_p50", "s"},
	{"jobd.stream_bytes_per_op", "bytes"},
	{"nbody.step_s", "s"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_s_per_op", "s"},
	{"trace.overhead_s_per_op", "s"},
}

// layers holds a traced run's per-layer values by name.
type layers map[string]float64

// addLayers appends every catalog metric to r, in catalog order.
func (r *result) addLayers(l layers) error {
	known := make(map[string]bool, len(layerCatalog))
	for _, m := range layerCatalog {
		known[m.name] = true
		r.add(m.name, m.unit, l[m.name])
	}
	for name := range l {
		if !known[name] {
			return fmt.Errorf("per-layer metric %s is not in the catalog", name)
		}
	}
	return nil
}

// runtimeLayers fills the GC metrics and the tracing overhead from the
// untraced and traced regions of a traced run.
func runtimeLayers(l layers, untraced, traced loopStats) {
	ops := float64(untraced.attempted)
	l["runtime.gc_cycles_per_op"] = untraced.gcCycles / ops
	l["runtime.gc_pause_s_per_op"] = untraced.gcPause / ops
	l["trace.overhead_s_per_op"] = median(traced.lat) - median(untraced.lat)
}

// tessReplay re-runs, serially and layer by layer, what a session's ranks
// do per step: ghost gathering over the grid decomposition, then per block
// voronoi.NewIndex + ComputeCellPooled over the local sites, qhull.Compute
// on every kept cell, MeshBuilder.Build, and v1/v2 encoding. Pools and
// builders are retained across replays, as a session retains them.
type tessReplay struct {
	d        *diy.Decomposition
	ghost    float64
	scratch  *voronoi.Scratch
	pools    []voronoi.CellPool
	builders []meshio.MeshBuilder
	kept     []*voronoi.Cell
}

func newTessReplay(cfg tess.Config, blocks int) (*tessReplay, error) {
	d, err := diy.Decompose(cfg.Domain, blocks, cfg.Periodic)
	if err != nil {
		return nil, err
	}
	return &tessReplay{
		d: d, ghost: cfg.GhostSize, scratch: voronoi.NewScratch(),
		pools: make([]voronoi.CellPool, blocks), builders: make([]meshio.MeshBuilder, blocks),
	}, nil
}

// replayCost is one replayed step's cost per layer.
type replayCost struct {
	cellS, cellAllocs                  float64
	hullS, hullAllocs, hullBytes       float64
	buildS, v1S, v1Bytes, v2S, v2Bytes float64
}

func (rp *tessReplay) step(ps []tess.Particle) (replayCost, error) {
	var c replayCost
	parts := diy.PartitionParticles(rp.d, ps)
	for rank := range parts {
		block := rp.d.Block(rank)
		local := parts[rank]
		ghosts := diy.GatherGhosts(rp.d, rank, parts, rp.ghost)
		all := make([]geom.Vec3, 0, len(local)+len(ghosts))
		ids := make([]int64, 0, len(local)+len(ghosts))
		for _, p := range append(local[:len(local):len(local)], ghosts...) {
			all = append(all, p.Pos)
			ids = append(ids, p.ID)
		}
		initBox := block.Bounds.Expand(math.Max(rp.ghost, 1e-9*block.Bounds.Size().MaxAbs()))
		pool := &rp.pools[rank]
		pool.Reset()
		rp.kept = rp.kept[:0]
		secs, allocs, _, err := allocDelta(func() error {
			ix := voronoi.NewIndex(all, ids, 0)
			for _, p := range local {
				cell, err := voronoi.ComputeCellPooled(ix, p.Pos, p.ID, initBox, rp.scratch, pool)
				if err != nil {
					return fmt.Errorf("replay cell %d: %w", p.ID, err)
				}
				if cell.Complete {
					rp.kept = append(rp.kept, cell)
				}
			}
			return nil
		})
		if err != nil {
			return c, err
		}
		c.cellS += secs
		c.cellAllocs += allocs
		secs, allocs, bytes, err := allocDelta(func() error {
			for _, cell := range rp.kept {
				if _, err := qhull.Compute(cell.Verts); err != nil {
					return fmt.Errorf("replay hull of cell %d: %w", cell.SiteID, err)
				}
			}
			return nil
		})
		if err != nil {
			return c, err
		}
		c.hullS += secs
		c.hullAllocs += allocs
		c.hullBytes += bytes
		var mesh *meshio.BlockMesh
		secs, _ = timeIt(func() error {
			mesh = rp.builders[rank].Build(rp.kept, block.Bounds, 0)
			return nil
		})
		c.buildS += secs
		var enc []byte
		secs, err = timeIt(func() (err error) { enc, err = mesh.Encode(); return err })
		if err != nil {
			return c, err
		}
		c.v1S += secs
		c.v1Bytes += float64(len(enc))
		secs, err = timeIt(func() (err error) { enc, err = meshio.EncodeV2(mesh); return err })
		if err != nil {
			return c, err
		}
		c.v2S += secs
		c.v2Bytes += float64(len(enc))
	}
	return c, nil
}

// replayTessLayers replays the first n snapshots and fills the voronoi,
// qhull and meshio metrics with per-step medians.
func replayTessLayers(l layers, cfg tess.Config, blocks int, snaps [][]tess.Particle, n int) error {
	rp, err := newTessReplay(cfg, blocks)
	if err != nil {
		return err
	}
	// One unmeasured replay fills the retained pools and builders.
	if _, err := rp.step(snaps[0]); err != nil {
		return err
	}
	var cs []replayCost
	for i := 0; i < min(n, len(snaps)); i++ {
		c, err := rp.step(snaps[i])
		if err != nil {
			return err
		}
		cs = append(cs, c)
	}
	med := func(f func(replayCost) float64) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	l["voronoi.cell_s_per_op"] = med(func(c replayCost) float64 { return c.cellS })
	l["voronoi.allocs_per_op"] = med(func(c replayCost) float64 { return c.cellAllocs })
	l["qhull.hull_s_per_op"] = med(func(c replayCost) float64 { return c.hullS })
	l["qhull.allocs_per_op"] = med(func(c replayCost) float64 { return c.hullAllocs })
	l["qhull.alloc_bytes_per_op"] = med(func(c replayCost) float64 { return c.hullBytes })
	l["meshio.build_s_per_op"] = med(func(c replayCost) float64 { return c.buildS })
	l["meshio.encode_v1_s_per_op"] = med(func(c replayCost) float64 { return c.v1S })
	l["meshio.encode_v1_bytes_per_op"] = med(func(c replayCost) float64 { return c.v1Bytes })
	l["meshio.encode_v2_s_per_op"] = med(func(c replayCost) float64 { return c.v2S })
	l["meshio.encode_v2_bytes_per_op"] = med(func(c replayCost) float64 { return c.v2Bytes })
	return nil
}

// periodicPad returns pts followed by their periodic images within pad of
// the cube [0, L)^3, tracer-major and offset-minor: the point sequence a
// periodic density pipeline triangulates.
func periodicPad(pts []tess.Vec3, L, pad float64) []tess.Vec3 {
	outer := geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)).Expand(pad)
	out := append([]tess.Vec3(nil), pts...)
	for _, p := range pts {
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					img := p.Add(geom.V(float64(dx)*L, float64(dy)*L, float64(dz)*L))
					if outer.Contains(img) {
						out = append(out, img)
					}
				}
			}
		}
	}
	return out
}

// replayColdBuild times one fresh delaunay.Builder.Build over the padded
// points and counts the bytes it allocates.
func replayColdBuild(l layers, pts []tess.Vec3, L, pad float64) error {
	padded := periodicPad(pts, L, pad)
	secs, _, bytes, err := allocDelta(func() error {
		var b delaunay.Builder
		_, err := b.Build(padded)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay cold delaunay build: %w", err)
	}
	l["delaunay.cold_build_s"] = secs
	l["delaunay.cold_build_alloc_bytes"] = bytes
	return nil
}

// replayNbody times steps of the ng^3 simulation a sim job runs, from its
// initial condition, and returns the median step time.
func replayNbody(l layers, ng, steps int) error {
	sim, err := nbody.New(nbody.DefaultConfig(ng))
	if err != nil {
		return err
	}
	var ts []float64
	for i := 0; i < steps; i++ {
		secs, _ := timeIt(func() error { sim.StepOnce(); return nil })
		ts = append(ts, secs)
	}
	l["nbody.step_s"] = median(ts)
	return nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n float64
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += float64(fi.Size())
		}
	}
	return n, nil
}
