package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	tess "repro"
	"repro/internal/dtfe"
)

// densityRun is the analysis side: one Session running StepDensity (DTFE
// onto a sample grid plus the power spectrum) over PM snapshots.
type densityRun struct {
	snaps [][]tess.Particle
	cfg   tess.Config
	dc    tess.DensityConfig
	sess  *tess.Session
}

// setupDensity generates the inputs, opens the session (with rec attached
// when non-nil) and runs one pass over the snapshots: the first StepDensity
// is cold, and the pass grows the retained buffers to fit every snapshot,
// so the timed passes allocate only what a steady state does.
func setupDensity(o opts, rec *tess.Recorder) (*densityRun, error) {
	z := o.size
	snaps, err := realizations(z.NG, z.Skip, z.DSnaps, o.seed)
	if err != nil {
		return nil, err
	}
	var topts []tess.Option
	if rec != nil {
		topts = append(topts, tess.WithRecorder(rec))
	}
	w := &densityRun{
		snaps: snaps,
		cfg:   tess.NewPeriodicConfig(float64(z.NG), topts...),
		dc:    tess.DensityConfig{GridN: z.GridN, Spectrum: true},
	}
	if w.sess, err = tess.Open(w.cfg, z.Blocks); err != nil {
		return nil, err
	}
	for i := range snaps {
		if _, err := w.step(i); err != nil {
			w.sess.Close()
			return nil, err
		}
	}
	return w, nil
}

func (w *densityRun) close() { w.sess.Close() }

// step runs one StepDensity on snapshot i. The result is loaned until the
// next step.
//
//tess:loaned
func (w *densityRun) step(i int) (*tess.DensityResult, error) {
	res, err := w.sess.StepDensity(w.snaps[i], w.dc)
	if err != nil {
		return nil, fmt.Errorf("density step on snapshot %d: %w", i, err)
	}
	return res, nil
}

// loop measures whole passes over the snapshots; before, when non-nil,
// runs ahead of each op outside its timing, and perOp sees every result.
func (w *densityRun) loop(r *result, rule passRule, before func(), perOp func(*tess.DensityResult)) (loopStats, error) {
	return closedLoop(rule, len(w.snaps), func(i int) (opOutcome, error) {
		if before != nil {
			before()
		}
		t0 := time.Now()
		res, err := w.step(i)
		lat := time.Since(t0).Seconds()
		if err != nil {
			return opOutcome{}, err
		}
		checkDensity(r, res, len(w.snaps[i]))
		if perOp != nil {
			perOp(res)
		}
		return opOutcome{lat: lat, latency: true, particles: len(w.snaps[i])}, nil
	})
}

// massTol bounds |grid mass / tracer mass - 1|: the grid integral samples
// the DTFE field at cell centers, so it conserves mass only to sampling
// accuracy.
const massTol = 0.03

// checkDensity checks one periodic density result: every sample inside the
// hull, unit tracers summing to n, the grid conserving mass, and a finite,
// non-negative spectrum.
func checkDensity(r *result, res *tess.DensityResult, n int) {
	if res.Tracers != n || res.Stats.TracerMass != float64(n) {
		r.fail("density: %d tracers of mass %g, want %d", res.Tracers, res.Stats.TracerMass, n)
	}
	if res.Sample.Outside != 0 {
		r.fail("density: %d samples outside the hull of a periodic field", res.Sample.Outside)
	}
	if relErr(res.Stats.GridMass, res.Stats.TracerMass) > massTol {
		r.fail("density: grid mass %g, tracer mass %g", res.Stats.GridMass, res.Stats.TracerMass)
	}
	if len(res.Spectrum) == 0 {
		r.fail("density: no spectrum bins")
	}
	for _, b := range res.Spectrum {
		if math.IsNaN(b.Power) || math.IsInf(b.Power, 0) || b.Power < 0 {
			r.fail("density: spectrum bin k=%g has power %g", b.K, b.Power)
			break
		}
	}
}

// checkIntegratedMass checks the DTFE field of a snapshot's tracers: its
// integral over the Delaunay hull equals the tracer mass sum.
func checkIntegratedMass(r *result, ps []tess.Particle) {
	f, err := dtfe.Estimate(positions(ps), nil)
	if err != nil {
		r.fail("dtfe estimate: %v", err)
		return
	}
	if m := f.IntegratedMass(); relErr(m, float64(len(ps))) > 1e-9 {
		r.fail("dtfe integrated mass %.12g, want %d", m, len(ps))
	}
}

func runDensity(o opts) (*result, error) {
	r := &result{correct: true}
	w, setupS, err := repeatSetup(o.size.Setups, func() (*densityRun, error) { return setupDensity(o, nil) }, (*densityRun).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	settle()
	passes := 0
	if o.trace {
		passes = o.size.Passes
	}
	ls, err := w.loop(r, o.rule(passes), nil, nil)
	if err != nil {
		return nil, err
	}
	checkIntegratedMass(r, w.snaps[0])
	r.attempted, r.failed = ls.attempted, ls.failed
	if !o.trace {
		return r, endToEnd(r, setupS, ls)
	}

	printEndToEnd("density untraced", ls)
	// Close the untraced session first: open sessions share the worker
	// budget, and the traced one must get what the untraced one had.
	w.close()
	l := layers{}
	rec := tess.NewRecorder(o.size.Blocks)
	tw, err := setupDensity(o, rec)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	settle()
	var tri, interp, spec, degen []float64
	traced, err := tw.loop(r, o.rule(o.size.Passes), rec.Reset, func(res *tess.DensityResult) {
		s := res.Obs
		if len(tri) == 0 {
			if err := s.WriteTraceFile(filepath.Join(o.traceDir, fmt.Sprintf("density-seed%d.json", o.seed))); err != nil {
				r.fail("write chrome trace: %v", err)
			}
		}
		tri = append(tri, s.SlowestRank(tess.PhaseTriangulate).Seconds())
		interp = append(interp, s.SlowestRank(tess.PhaseInterpolate).Seconds())
		spec = append(spec, s.SlowestRank(tess.PhaseSpectrum).Seconds())
		degen = append(degen, float64(res.Sample.Degenerate))
	})
	if err != nil {
		return nil, err
	}
	printEndToEnd("density traced", traced)
	r.attempted += traced.attempted
	r.failed += traced.failed
	l["delaunay.triangulate_s"] = median(tri)
	l["dtfe.interpolate_s"] = median(interp)
	l["fft.spectrum_s"] = median(spec)
	l["dtfe.samples_degenerate"] = mean(degen)
	if err := replayColdBuild(l, positions(w.snaps[0]), w.cfg.Domain.Size().X, w.cfg.GhostSize); err != nil {
		return nil, err
	}
	runtimeLayers(l, ls, traced)
	return r, r.addLayers(l)
}
