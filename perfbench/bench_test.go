package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// tinySizes runs every workload, its checks and its traced replays on
// small inputs in a few seconds. The sim job keeps its real size: its
// failure is part of what the tessd workload measures.
var tinySizes = sizes{
	NG: 8, Skip: 5, Snaps: 2, DSnaps: 2, Blocks: 4, GridN: 16,
	JobNG: 8, JobGridN: 16, SimNG: 16,
	MinOps: 1, Setups: 2, Brute: 4, Replays: 1, Passes: 1,
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	slices.Sort(names)
	return names
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"insitu", "density", "tessd"} {
		for _, trace := range []bool{false, true} {
			key := "end_to_end"
			if trace {
				key = "per_layer"
			}
			t.Run(name+"/"+key, func(t *testing.T) {
				o := opts{seed: 3, trace: trace, size: tinySizes}
				if err := o.makeDirs(t.TempDir(), name); err != nil {
					t.Fatal(err)
				}
				r, err := workloads[name](o)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct {
					t.Fatalf("output checks failed: %v", r.problems)
				}
				// Only the tessd sim job fails, once per round of eight.
				wantFailed := 0
				if name == "tessd" {
					wantFailed = r.attempted / 8
				}
				if r.attempted == 0 || r.failed != wantFailed {
					t.Fatalf("attempted %d, failed %d, want %d failed", r.attempted, r.failed, wantFailed)
				}
				var got []string
				for _, m := range r.metrics {
					got = append(got, m.name+" "+m.unit)
				}
				slices.Sort(got)
				if want := declared(t, key); !slices.Equal(got, want) {
					t.Fatalf("metrics %v\nBENCHMARK.json %s lists %v", got, key, want)
				}
				if _, err := r.json(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestTailLeavesTenOpsBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tail(xs); got != 29 {
		t.Fatalf("tail of 0..39 = %v, want 29 (ten values above it)", got)
	}
}
