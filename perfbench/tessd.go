package main

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	tess "repro"
	"repro/internal/jobd"
	"repro/internal/meshio"
	"repro/internal/storage"
)

// jobKind is one kind of job in the tessd schedule.
type jobKind int

const (
	kindInline  jobKind = iota // one inline PM snapshot, counts streamed back
	kindURI                    // a PM snapshot streamed from a file, quarter window, checkpointed
	kindDensity                // small inline snapshot through the density pipeline
	kindSim                    // built-in simulation from its Zel'dovich start, mesh streamed back
)

var kindNames = [...]string{"inline", "uri", "density", "sim"}

// schedJob is one entry of a round.
type schedJob struct {
	kind      jobKind
	spec      jobd.JobSpec
	particles int
	snap      int // inline snapshot index (inline jobs; the twin of a URI job)
}

// snapshotChunks is the chunk count of the URI job's snapshot file; its
// source window is a quarter of it.
const snapshotChunks = 8

// tessdRun is an in-process tessd daemon on a loopback listener plus the
// fixed round of jobs its clients submit.
type tessdRun struct {
	o      opts
	L      float64
	snaps  [][]tess.Particle // inline inputs
	small  []tess.Particle   // density-job input
	uri    string
	writeS float64
	round  []schedJob

	d      *jobd.Daemon
	srv    *http.Server
	served chan struct{}
	client *jobd.Client
	ckSeq  atomic.Int64

	// First completed output of each round position (counts, checkpoint
	// meshes, grid digest or streamed mesh); every later completion must
	// match it byte for byte.
	mu      sync.Mutex
	outputs map[int][]string
}

// toSpec converts particles to a job spec's inline snapshot.
func toSpec(ps []tess.Particle) [][3]float64 {
	out := make([][3]float64, len(ps))
	for i, p := range ps {
		out[i] = [3]float64{p.Pos.X, p.Pos.Y, p.Pos.Z}
	}
	return out
}

// setupTessd generates the inputs, writes the URI job's snapshot file,
// boots the daemon and runs one job of each kind.
func setupTessd(o opts) (*tessdRun, error) {
	z := o.size
	t := &tessdRun{o: o, L: float64(z.NG), outputs: map[int][]string{}}
	var err error
	if t.snaps, err = realizations(z.NG, z.Skip, 5, o.seed); err != nil {
		return nil, err
	}
	small, err := pmSnapshots(z.JobNG, z.Skip, 1, o.seed)
	if err != nil {
		return nil, err
	}
	t.small = small[0]
	if t.uri, err = filepath.Abs(filepath.Join(o.dir, "snapshot.bin")); err != nil {
		return nil, err
	}
	if t.writeS, err = timeIt(func() error { return tess.WriteSnapshot(t.uri, t.snaps[0], snapshotChunks) }); err != nil {
		return nil, err
	}
	t.round = t.schedule()

	t.d = jobd.New(jobd.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.d.Close()
		return nil, err
	}
	t.srv = &http.Server{Handler: t.d.Handler()}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		_ = t.srv.Serve(lis) // ErrServerClosed after Shutdown
	}()
	t.client = &jobd.Client{Base: "http://" + lis.Addr().String(), HTTP: &http.Client{Transport: &http.Transport{}}}

	warm := map[jobKind]bool{}
	for i, j := range t.round {
		if warm[j.kind] {
			continue
		}
		warm[j.kind] = true
		if _, err := t.runJob(nil, i, false); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// schedule is the fixed round: inline jobs are more than half, so the
// median latency falls inside their spread. Only the sim job asks for the
// merged canonical mesh: MergeCanonical rejects a few percent of generic
// snapshots (see README), so on seeded inputs it would fail only on some
// seeds, while on the sim job's fixed start it fails every time.
func (t *tessdRun) schedule() []schedJob {
	z := t.o.size
	n := len(t.snaps[0])
	inline := func(i int) schedJob {
		return schedJob{kind: kindInline, snap: i, particles: n, spec: jobd.JobSpec{
			L: t.L, Blocks: z.Blocks, Snapshots: [][][3]float64{toSpec(t.snaps[i])},
		}}
	}
	uri := schedJob{kind: kindURI, snap: 0, particles: n, spec: jobd.JobSpec{
		L: t.L, Blocks: z.Blocks, SnapshotURI: t.uri, SourceWindow: snapshotChunks / 4,
	}}
	dens := schedJob{kind: kindDensity, particles: len(t.small), spec: jobd.JobSpec{
		L: float64(z.JobNG), Blocks: z.Blocks, Snapshots: [][][3]float64{toSpec(t.small)},
		Density: &jobd.DensitySpec{GridN: z.JobGridN, Spectrum: true},
	}}
	sim := schedJob{kind: kindSim, particles: z.SimNG * z.SimNG * z.SimNG, spec: jobd.JobSpec{
		L: float64(z.SimNG), Blocks: z.Blocks, Sim: &jobd.SimSpec{NG: z.SimNG, Steps: 1}, IncludeMesh: true,
	}}
	return []schedJob{inline(0), uri, inline(1), dens, inline(2), sim, inline(3), inline(4)}
}

// close stops the daemon and its listener and waits for the server
// goroutine to return.
func (t *tessdRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx)
	<-t.served
	t.d.Close()
	t.client.HTTP.CloseIdleConnections()
}

// jobOutcome is one finished job as its client saw it.
type jobOutcome struct {
	lat    float64 // submit to terminal event
	submit float64 // POST round trip
	queue  float64 // queued -> started event times
	run    float64 // started -> terminal event times
	stream float64 // NDJSON bytes of the job's event stream (traced runs)
	failed bool
}

// runJob submits round position i, streams its events to the terminal
// one, and checks its outputs. A transport or protocol error is returned;
// a job that ends in an error event is a failed op. r is nil during
// set-up, where any failed check is an error.
func (t *tessdRun) runJob(r *result, i int, traced bool) (jobOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j := t.round[i]
	spec := j.spec
	if j.kind == kindURI {
		// A fresh directory per job: a committed checkpoint would make
		// the next job resume past its only step.
		spec.CheckpointDir = filepath.Join(filepath.Dir(t.uri), fmt.Sprintf("ckpt-%d", t.ckSeq.Add(1)))
		defer os.RemoveAll(spec.CheckpointDir)
	}
	spec.IncludeObs = traced

	var out jobOutcome
	t0 := time.Now()
	st, err := t.client.Submit(ctx, spec)
	if err != nil {
		return out, fmt.Errorf("submit %s job: %w", kindNames[j.kind], err)
	}
	out.submit = time.Since(t0).Seconds()
	var events []jobd.Event
	err = t.client.Events(ctx, st.ID, 0, func(e jobd.Event) error {
		events = append(events, e)
		if e.Type == "done" || e.Type == "error" || e.Type == "canceled" {
			out.lat = time.Since(t0).Seconds()
		}
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("stream %s job %s: %w", kindNames[j.kind], st.ID, err)
	}
	var queued, started, term *jobd.Event
	var step *jobd.Event
	for k := range events {
		e := &events[k]
		switch e.Type {
		case "queued":
			queued = e
		case "started":
			started = e
		case "step":
			step = e
		case "done", "error", "canceled":
			term = e
		}
	}
	if queued == nil || started == nil || term == nil {
		return out, fmt.Errorf("%s job %s: stream without queued/started/terminal events", kindNames[j.kind], st.ID)
	}
	out.queue = started.Time.Sub(queued.Time).Seconds()
	out.run = term.Time.Sub(started.Time).Seconds()
	if term.Type != "done" {
		out.failed = true
		return out, nil
	}
	if traced {
		if out.stream, err = t.streamBytes(ctx, st.ID); err != nil {
			return out, err
		}
	}

	chk := r
	if chk == nil {
		chk = &result{correct: true}
	}
	t.checkJob(ctx, chk, i, st.ID, spec.CheckpointDir, step)
	if r == nil && !chk.correct {
		return out, fmt.Errorf("set-up %s job: %v", kindNames[j.kind], chk.problems)
	}
	return out, nil
}

// checkJob checks a done job's step event and side outputs. Every output
// must also equal the first completion of the same round position, since
// those jobs run the same input.
func (t *tessdRun) checkJob(ctx context.Context, r *result, i int, id, ckdir string, step *jobd.Event) {
	j := t.round[i]
	if step == nil {
		r.fail("%s job %s: done without a step event", kindNames[j.kind], id)
		return
	}
	if step.Sites != int64(j.particles) || step.Cells != int64(j.particles) {
		r.fail("%s job %s: %d sites, %d cells, want %d complete cells", kindNames[j.kind], id, step.Sites, step.Cells, j.particles)
	}
	var got []string
	switch j.kind {
	case kindInline:
		got = []string{fmt.Sprint(step.Sites, step.Cells)}
	case kindURI:
		if !tess.HasCheckpoint(ckdir) {
			r.fail("uri job %s: no committed checkpoint in %s", id, ckdir)
			return
		}
		ck, err := storage.Load(ckdir)
		if err != nil || ck.Manifest.Steps != 1 {
			r.fail("uri job %s: checkpoint of %d steps (err %v), want 1", id, ck.Manifest.Steps, err)
			return
		}
		for _, m := range ck.Meshes {
			got = append(got, string(m))
		}
	case kindDensity:
		d := step.Density
		if d == nil {
			r.fail("density job %s: no density digest", id)
			return
		}
		if d.Outside != 0 {
			r.fail("density job %s: %d samples outside the hull", id, d.Outside)
		}
		got = []string{d.Digest}
		raw, n, err := t.client.DensityGrid(ctx, id, 1)
		if err != nil {
			r.fail("density job %s: fetch grid: %v", id, err)
			return
		}
		grid, err := tess.DecodeDensityGrid(raw)
		if err != nil || len(grid) != n*n*n {
			r.fail("density job %s: grid of %d values for n=%d (err %v)", id, len(grid), n, err)
			return
		}
		var sum float64
		for _, v := range grid {
			sum += v
		}
		L := j.spec.L
		if mass := sum * L * L * L / float64(len(grid)); relErr(mass, float64(j.particles)) > massTol {
			r.fail("density job %s: grid mass %g, tracer mass %d", id, mass, j.particles)
		}
	case kindSim:
		got = []string{step.MeshB64}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if want, ok := t.outputs[i]; !ok {
		t.outputs[i] = got
	} else if !slices.Equal(want, got) {
		r.fail("%s job %s: output differs from an earlier job on the same input", kindNames[j.kind], id)
	}
}

// streamBytes re-reads a finished job's whole NDJSON event stream and
// counts its bytes on the wire.
func (t *tessdRun) streamBytes(ctx context.Context, id string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.client.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := t.client.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return float64(n), err
}

// loop runs whole rounds of the schedule from min(2, nproc) closed-loop
// clients that claim round positions in order, until rule says the run is
// done. perJob sees every outcome.
func (t *tessdRun) loop(r *result, rule passRule, traced bool, perJob func(schedJob, jobOutcome)) (loopStats, error) {
	latPerRound := 0
	for _, j := range t.round {
		if j.kind != kindSim {
			latPerRound++
		}
	}
	var mu sync.Mutex // guards next, stop and firstErr
	next, stop := 0, false
	var firstErr error
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stop && next%len(t.round) == 0 && rule.done(next/len(t.round), next/len(t.round)*latPerRound) {
			stop = true
		}
		if stop {
			return 0, false
		}
		i := next % len(t.round)
		next++
		return i, true
	}
	var rec recorder
	c0 := readCounters()
	var wg sync.WaitGroup
	for c := 0; c < min(2, runtime.NumCPU()); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				j := t.round[i]
				out, err := t.runJob(r, i, traced)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					stop = true
					mu.Unlock()
					return
				}
				if perJob != nil {
					perJob(j, out)
				}
				// The sim kind is kept out of the latency metrics, so a fix of
				// its failure shows as fewer failures and more particles.
				rec.record(opOutcome{lat: out.lat, latency: j.kind != kindSim && !out.failed, failed: out.failed, particles: j.particles})
			}
		}()
	}
	wg.Wait()
	ls := rec.finish(c0)
	return ls, firstErr
}

// verify checks the outputs recorded during the run against direct
// computations on the same inputs: a fresh session's step on each inline
// job's snapshot tiles the box with one complete cell per particle, the
// URI job's checkpointed block meshes equal those of a direct session on
// its twin snapshot and tile the box, the density job's grid digest equals
// a direct density computation, and a sim job that completed streamed a
// mesh tiling the box. It returns how long MergeCanonical took on the
// direct inline outputs it accepted and how many it rejected.
func (t *tessdRun) verify(r *result) (mergeS []float64, rejects int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.snaps[0])
	for i, j := range t.round {
		got, ok := t.outputs[i]
		if !ok && j.kind != kindSim {
			r.fail("%s job at round position %d never completed", kindNames[j.kind], i)
			continue
		}
		switch j.kind {
		case kindInline:
			err = directStep(t.L, t.o.size.Blocks, t.snaps[j.snap], func(cfg tess.Config, out *tess.Output) error {
				checkPeriodicOutput(r, out, n, t.L)
				secs, err := timeIt(func() error {
					_, err := tess.MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
					return err
				})
				if err != nil {
					rejects++
				} else {
					mergeS = append(mergeS, secs)
				}
				return nil
			})
		case kindURI:
			var vol float64
			for _, raw := range got {
				m, derr := meshio.DecodeBlockMesh([]byte(raw))
				if derr != nil {
					r.fail("uri job checkpoint mesh: %v", derr)
					break
				}
				for _, v := range m.Volumes {
					vol += v
				}
			}
			if relErr(vol, t.L*t.L*t.L) > 1e-9 {
				r.fail("uri job checkpoint meshes: volume %.12g, want %g", vol, t.L*t.L*t.L)
			}
			err = directStep(t.L, t.o.size.Blocks, t.snaps[j.snap], func(_ tess.Config, out *tess.Output) error {
				if len(out.Meshes) != len(got) {
					r.fail("uri job: %d checkpointed blocks, direct session has %d", len(got), len(out.Meshes))
					return nil
				}
				for b, m := range out.Meshes {
					enc, err := meshio.EncodeV2(m)
					if err != nil {
						return err
					}
					if string(enc) != got[b] {
						r.fail("uri job: block %d mesh differs from a direct session on its inline twin", b)
					}
				}
				return nil
			})
		case kindDensity:
			var want string
			if want, err = directDensityDigest(j.spec, t.small); err == nil && got[0] != want {
				r.fail("density job: grid digest differs from a direct computation")
			}
		case kindSim:
			if ok {
				checkCanonicalMesh(r, got[0], j.spec.L, j.particles)
			}
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return mergeS, rejects, nil
}

// directStep runs one step of a fresh session on ps and hands its output
// to fn before the session closes.
func directStep(L float64, blocks int, ps []tess.Particle, fn func(tess.Config, *tess.Output) error) error {
	cfg := tess.NewPeriodicConfig(L)
	sess, err := tess.Open(cfg, blocks)
	if err != nil {
		return err
	}
	defer sess.Close()
	out, err := sess.Step(ps)
	if err != nil {
		return err
	}
	return fn(cfg, out)
}

// checkCanonicalMesh decodes a streamed canonical mesh and checks it holds
// n cells whose volumes tile the box.
func checkCanonicalMesh(r *result, b64 string, L float64, n int) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		r.fail("canonical mesh: %v", err)
		return
	}
	m, err := meshio.DecodeBlockMesh(raw)
	if err != nil {
		r.fail("canonical mesh: %v", err)
		return
	}
	var vol float64
	for _, v := range m.Volumes {
		vol += v
	}
	if m.NumCells() != n || relErr(vol, L*L*L) > 1e-9 {
		r.fail("canonical mesh: %d cells of total volume %.12g, want %d tiling %g", m.NumCells(), vol, n, L*L*L)
	}
}

// directDensityDigest computes a density job's grid without the daemon or
// a session — the periodic box with the job's ghost size as padding — and
// returns the SHA-256 a step event carries.
func directDensityDigest(spec jobd.JobSpec, ps []tess.Particle) (string, error) {
	L := spec.L
	dc := tess.DensityConfig{
		GridN:    spec.Density.GridN,
		Box:      tess.Box{Max: tess.Vec3{X: L, Y: L, Z: L}},
		Periodic: true,
		Pad:      tess.NewPeriodicConfig(L).GhostSize,
		Spectrum: spec.Density.Spectrum,
	}
	res, err := tess.ComputeDensity(dc, positions(ps), nil)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(tess.EncodeDensityGrid(res.Grid))
	return hex.EncodeToString(sum[:]), nil
}

func runTessd(o opts) (*result, error) {
	r := &result{correct: true}
	t, setupS, err := repeatSetup(o.size.Setups, func() (*tessdRun, error) { return setupTessd(o) }, (*tessdRun).close)
	if err != nil {
		return nil, err
	}
	defer t.close()
	settle()
	passes := 0
	if o.trace {
		passes = o.size.Passes
	}
	ls, err := t.loop(r, o.rule(passes), false, nil)
	if err != nil {
		return nil, err
	}
	mergeS, rejects, err := t.verify(r)
	if err != nil {
		return nil, err
	}
	r.attempted, r.failed = ls.attempted, ls.failed
	if !o.trace {
		return r, endToEnd(r, setupS, ls)
	}

	printEndToEnd("tessd untraced", ls)
	var sub, queue, run, stream []float64
	var smu sync.Mutex
	traced, err := t.loop(r, o.rule(o.size.Passes), true, func(j schedJob, out jobOutcome) {
		smu.Lock()
		defer smu.Unlock()
		if j.kind == kindSim {
			return
		}
		sub = append(sub, out.submit)
		queue = append(queue, out.queue)
		run = append(run, out.run)
		stream = append(stream, out.stream)
	})
	if err != nil {
		return nil, err
	}
	printEndToEnd("tessd traced", traced)
	r.attempted += traced.attempted
	r.failed += traced.failed
	l := layers{
		"jobd.submit_s_p50":               median(sub),
		"jobd.queue_wait_s_p50":           median(queue),
		"jobd.run_s_p50":                  median(run),
		"jobd.stream_bytes_per_op":        mean(stream),
		"meshio.merge_canonical_s_per_op": median(mergeS),
		"meshio.merge_canonical_rejects":  float64(rejects),
		"storage.snapshot_write_s":        t.writeS,
	}
	if err := t.replayLayers(l); err != nil {
		return nil, err
	}
	runtimeLayers(l, ls, traced)
	return r, r.addLayers(l)
}

// replayLayers fills the per-layer metrics a tessd job exercises below
// the daemon, by direct calls on the jobs' inputs: the pipeline phases,
// out-of-core source and checkpoint writes of a URI job (a cold session's
// first step), the tessellation layers of an inline
// job (with a Chrome trace of one step), the cold Delaunay build of a
// density job and the simulation step of a sim job.
func (t *tessdRun) replayLayers(l layers) error {
	z := t.o.size
	rec := tess.NewRecorder(z.Blocks)
	cfg := tess.NewPeriodicConfig(t.L, tess.WithRecorder(rec))
	sess, err := tess.Open(cfg, z.Blocks)
	if err != nil {
		return err
	}
	defer sess.Close()
	fs, err := tess.OpenFileSource(t.uri, snapshotChunks/4)
	if err != nil {
		return err
	}
	defer fs.Close()
	out, err := sess.StepFrom(fs)
	if err != nil {
		return err
	}
	if err := out.Obs.WriteTraceFile(filepath.Join(t.o.traceDir, fmt.Sprintf("tessd-seed%d.json", t.o.seed))); err != nil {
		return err
	}
	var steps obsLayers
	steps.add(out.Obs)
	steps.fill(l)
	st := fs.Stats()
	l["storage.source_loads_per_op"] = float64(st.Loads)
	l["storage.source_evictions_per_op"] = float64(st.Evictions)
	l["storage.peak_resident_particles"] = float64(st.PeakResidentParticles)
	var ckS, ckB []float64
	for k := 0; k < 3; k++ {
		dir := filepath.Join(t.o.dir, fmt.Sprintf("replay-ckpt-%d", k))
		secs, err := timeIt(func() error { return sess.Checkpoint(dir) })
		if err != nil {
			return err
		}
		b, err := dirBytes(dir)
		if err != nil {
			return err
		}
		ckS, ckB = append(ckS, secs), append(ckB, b)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	l["storage.checkpoint_s_per_op"] = median(ckS)
	l["storage.checkpoint_bytes_per_op"] = median(ckB)

	if err := replayTessLayers(l, tess.NewPeriodicConfig(t.L), z.Blocks, t.snaps, z.Replays); err != nil {
		return err
	}
	small := float64(z.JobNG)
	if err := replayColdBuild(l, positions(t.small), small, tess.NewPeriodicConfig(small).GhostSize); err != nil {
		return err
	}
	return replayNbody(l, z.SimNG, 5)
}
