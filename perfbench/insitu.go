package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	tess "repro"
	"repro/internal/qhull"
	"repro/internal/voronoi"
)

// insitu is the in situ host's loop: one Session on NewPeriodicConfig
// defaults (hull pass on, grid decomposition), stepped in order through
// consecutive PM snapshots, each step writing its mesh to a file.
type insitu struct {
	snaps   [][]tess.Particle
	cfg     tess.Config
	sess    *tess.Session
	outPath string
}

// setupInsitu generates the inputs, opens the session (with rec attached
// when non-nil) and runs two warm-up steps: the first cold, the second
// warm.
func setupInsitu(o opts, rec *tess.Recorder) (*insitu, error) {
	z := o.size
	snaps, err := pmSnapshots(z.NG, z.Skip, z.Snaps, o.seed)
	if err != nil {
		return nil, err
	}
	var topts []tess.Option
	if rec != nil {
		topts = append(topts, tess.WithRecorder(rec))
	}
	w := &insitu{
		snaps:   snaps,
		cfg:     tess.NewPeriodicConfig(float64(z.NG), topts...),
		outPath: filepath.Join(o.dir, "insitu-mesh.bin"),
	}
	if w.sess, err = tess.Open(w.cfg, z.Blocks); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if _, err := w.step(i % len(snaps)); err != nil {
			w.sess.Close()
			return nil, err
		}
	}
	return w, nil
}

func (w *insitu) close() { w.sess.Close() }

// step runs one Step on snapshot i. The output is loaned until the next
// step.
//
//tess:loaned
func (w *insitu) step(i int) (*tess.Output, error) {
	out, err := w.sess.Step(w.snaps[i], tess.WithOutputPath(w.outPath))
	if err != nil {
		return nil, fmt.Errorf("insitu step on snapshot %d: %w", i, err)
	}
	return out, nil
}

// loop measures whole passes over the snapshots; each op's output passes
// the per-step checks. perOp, when non-nil, sees every output.
func (w *insitu) loop(r *result, rule passRule, perOp func(*tess.Output)) (loopStats, error) {
	L := w.cfg.Domain.Size().X
	return closedLoop(rule, len(w.snaps), func(i int) (opOutcome, error) {
		t0 := time.Now()
		out, err := w.step(i)
		lat := time.Since(t0).Seconds()
		if err != nil {
			return opOutcome{}, err
		}
		checkPeriodicOutput(r, out, len(w.snaps[i]), L)
		if perOp != nil {
			perOp(out)
		}
		return opOutcome{lat: lat, latency: true, particles: len(w.snaps[i])}, nil
	})
}

// checkPeriodicOutput checks a periodic tessellation's output: every site
// has a complete, kept cell, and the kept volumes tile the box.
func checkPeriodicOutput(r *result, out *tess.Output, n int, L float64) {
	c := out.Counts
	if c.Sites != int64(n) || c.Kept != int64(n) || c.Incomplete != 0 {
		r.fail("tessellation of %d particles: sites=%d kept=%d incomplete=%d", n, c.Sites, c.Kept, c.Incomplete)
		return
	}
	var vol float64
	for _, m := range out.Meshes {
		for _, v := range m.Volumes {
			vol += v
		}
	}
	if relErr(vol, L*L*L) > 1e-9 {
		r.fail("kept cell volumes sum to %.12g, want L^3 = %g", vol, L*L*L)
	}
}

// checkBrute compares a seeded sample of the output's cells against
// voronoi.ComputeCellBrute over the periodic images near each site, and
// each brute cell's clipping volume against its Quickhull volume.
func checkBrute(r *result, out *tess.Output, ps []tess.Particle, L float64, k int, seed int64) {
	vols := make(map[int64]float64, len(ps))
	for _, m := range out.Meshes {
		for i, id := range m.ParticleIDs {
			vols[id] = m.Volumes[i]
		}
	}
	reach := math.Min(6, 0.45*L)
	rng := rand.New(rand.NewSource(seed))
	pts := make([]tess.Vec3, 0, 256)
	ids := make([]int64, 0, 256)
	for _, idx := range rng.Perm(len(ps))[:min(k, len(ps))] {
		site := ps[idx]
		pts, ids = pts[:0], ids[:0]
		for _, q := range ps {
			d := q.Pos.Sub(site.Pos)
			d = tess.Vec3{X: wrap(d.X, L), Y: wrap(d.Y, L), Z: wrap(d.Z, L)}
			if d.Norm() <= reach {
				pts = append(pts, site.Pos.Add(d))
				ids = append(ids, q.ID)
			}
		}
		box := tess.Box{Min: site.Pos.Sub(tess.Vec3{X: reach, Y: reach, Z: reach}), Max: site.Pos.Add(tess.Vec3{X: reach, Y: reach, Z: reach})}
		cell, err := voronoi.ComputeCellBrute(pts, ids, site.Pos, site.ID, box)
		if err != nil || !cell.Complete {
			r.fail("brute cell of particle %d: complete=%v err=%v", site.ID, err == nil && cell.Complete, err)
			continue
		}
		got, ok := vols[site.ID]
		if !ok || relErr(got, cell.Volume()) > 1e-9 {
			r.fail("cell of particle %d: volume %.12g, brute force %.12g", site.ID, got, cell.Volume())
		}
		h, err := qhull.Compute(cell.Verts)
		if err != nil || relErr(h.Volume(), cell.Volume()) > 1e-9 {
			r.fail("cell of particle %d: hull volume disagrees with clip volume %.12g (err %v)", site.ID, cell.Volume(), err)
		}
	}
}

// wrap maps a periodic displacement into [-L/2, L/2).
func wrap(d, L float64) float64 {
	return d - L*math.Floor(d/L+0.5)
}

func runInsitu(o opts) (*result, error) {
	r := &result{correct: true}
	w, setupS, err := repeatSetup(o.size.Setups, func() (*insitu, error) { return setupInsitu(o, nil) }, (*insitu).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	settle()
	passes := 0
	if o.trace {
		passes = o.size.Passes
	}
	ls, err := w.loop(r, o.rule(passes), nil)
	if err != nil {
		return nil, err
	}
	// The sampled cross-engine check runs on a step outside the timed
	// region.
	out, err := w.step(0)
	if err != nil {
		return nil, err
	}
	checkBrute(r, out, w.snaps[0], w.cfg.Domain.Size().X, o.size.Brute, o.seed)
	r.attempted, r.failed = ls.attempted, ls.failed
	if !o.trace {
		return r, endToEnd(r, setupS, ls)
	}

	printEndToEnd("insitu untraced", ls)
	// Close the untraced session first: open sessions share the worker
	// budget, and the traced one must get what the untraced one had.
	w.close()
	l := layers{}
	rec := tess.NewRecorder(o.size.Blocks)
	tw, err := setupInsitu(o, rec)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	settle()
	var steps obsLayers
	traced, err := tw.loop(r, o.rule(o.size.Passes), func(out *tess.Output) {
		if len(steps.imb) == 0 {
			if err := out.Obs.WriteTraceFile(filepath.Join(o.traceDir, fmt.Sprintf("insitu-seed%d.json", o.seed))); err != nil {
				r.fail("write chrome trace: %v", err)
			}
		}
		steps.add(out.Obs)
	})
	if err != nil {
		return nil, err
	}
	printEndToEnd("insitu traced", traced)
	r.attempted += traced.attempted
	r.failed += traced.failed
	steps.fill(l)
	if err := replayTessLayers(l, w.cfg, o.size.Blocks, w.snaps, o.size.Replays); err != nil {
		return nil, err
	}
	runtimeLayers(l, ls, traced)
	return r, r.addLayers(l)
}

// obsLayers collects the core, comm and diy metrics of traced steps from
// their recorder snapshots.
type obsLayers struct {
	phase                                [5][]float64
	imb, warm, cold, bytes, msgs, ghosts []float64
}

var corePhases = [5]tess.Phase{tess.PhaseExchange, tess.PhaseGhostMerge, tess.PhaseCompute, tess.PhaseOutput, tess.PhaseBarrier}

func (a *obsLayers) add(s *tess.ObsSnapshot) {
	for p, ph := range corePhases {
		a.phase[p] = append(a.phase[p], s.SlowestRank(ph).Seconds())
	}
	a.imb = append(a.imb, s.ComputeImbalance)
	a.warm = append(a.warm, counterSum(s, "sites-warm"))
	a.cold = append(a.cold, counterSum(s, "sites-cold"))
	a.ghosts = append(a.ghosts, counterSum(s, "ghosts-recvd"))
	a.bytes = append(a.bytes, float64(s.TotalSentBytes))
	a.msgs = append(a.msgs, float64(s.TotalSentMsgs))
}

// fill sets the metrics: per-step medians of the slowest rank's phase
// times and of the imbalance, per-step means of the counts.
func (a *obsLayers) fill(l layers) {
	for p, name := range []string{"core.exchange_s", "core.ghost_merge_s", "core.compute_s", "core.output_s", "core.barrier_s"} {
		l[name] = median(a.phase[p])
	}
	l["core.compute_imbalance"] = median(a.imb)
	l["core.sites_warm"] = mean(a.warm)
	l["core.sites_cold"] = mean(a.cold)
	l["comm.bytes_per_op"] = mean(a.bytes)
	l["comm.messages_per_op"] = mean(a.msgs)
	l["diy.ghosts_per_op"] = mean(a.ghosts)
}

// counterSum sums a recorder counter over ranks (0 when absent).
func counterSum(s *tess.ObsSnapshot, name string) float64 {
	var t int64
	for _, v := range s.Counters[name] {
		t += v
	}
	return float64(t)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
