package delaunay

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
)

func randomCloud(seed int64, n int, scale float64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*scale, rng.Float64()*scale, rng.Float64()*scale)
	}
	return pts
}

func TestRepRecordsDuplicates(t *testing.T) {
	pts := randomCloud(11, 40, 4)
	// Append exact duplicates of points 3 and 7.
	pts = append(pts, pts[3], pts[7])
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rep == nil {
		t.Fatal("Build left Rep nil")
	}
	if got := tr.Representative(40); got != 3 {
		t.Errorf("Rep[40] = %d, want 3", got)
	}
	if got := tr.Representative(41); got != 7 {
		t.Errorf("Rep[41] = %d, want 7", got)
	}
	for i := 0; i < 40; i++ {
		if tr.Representative(i) != i {
			t.Errorf("Rep[%d] = %d, want identity", i, tr.Representative(i))
		}
	}
	// Duplicates must not appear as tet vertices.
	for _, tet := range tr.Tets {
		for _, v := range tet.V {
			if v >= 40 {
				t.Fatalf("duplicate vertex %d appears in a tet", v)
			}
		}
	}
}

func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	var s Builder
	for round := 0; round < 3; round++ {
		pts := randomCloud(int64(100+round), 120+30*round, 5)
		warm, err := s.Build(pts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cold, err := Build(pts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(warm.Tets, cold.Tets) {
			t.Fatalf("round %d: warm tets differ from cold build", round)
		}
		if !reflect.DeepEqual(warm.Rep, cold.Rep) {
			t.Fatalf("round %d: warm Rep differs from cold build", round)
		}
	}
}

func TestLocatorAgreesWithExhaustive(t *testing.T) {
	pts := randomCloud(7, 300, 6)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	loc := tr.NewLocator(0)

	contains := func(ti int, p geom.Vec3) bool {
		for f := 0; f < 4; f++ {
			fv := faceVerts(tr.Tets[ti].V, f)
			if geom.Orient3DVal(tr.Points[fv[0]], tr.Points[fv[1]], tr.Points[fv[2]], p) < -1e-12 {
				return false
			}
		}
		return true
	}

	// Tet barycenters are unambiguously interior: the locator must find a
	// containing tet for each, and it must actually contain the point.
	for ti := range tr.Tets {
		tet := tr.Tets[ti]
		var c geom.Vec3
		for _, v := range tet.V {
			c = c.Add(tr.Points[v])
		}
		c = c.Scale(0.25)
		got := loc.Locate(c)
		if got < 0 {
			t.Fatalf("locator lost barycenter of tet %d", ti)
		}
		if !contains(got, c) {
			t.Fatalf("locator returned tet %d not containing barycenter of %d", got, ti)
		}
	}

	// Far-outside points must read outside, matching the exhaustive scan.
	outside := []geom.Vec3{geom.V(-50, 0, 0), geom.V(3, 99, 3), geom.V(7, 7, -80)}
	for _, p := range outside {
		if got := loc.Locate(p); got != -1 {
			t.Errorf("locator claims %v is inside tet %d", p, got)
		}
		if got := tr.Locate(p); got != -1 {
			t.Errorf("exhaustive Locate claims %v is inside tet %d", p, got)
		}
	}

	// Locator results are pure functions of (triangulation, point): a second
	// locator over the same mesh answers identically.
	loc2 := tr.NewLocator(0)
	for i := 0; i < 200; i++ {
		p := randomCloud(int64(500+i), 1, 6)[0]
		if loc.Locate(p) != loc2.Locate(p) {
			t.Fatalf("locator nondeterminism at %v", p)
		}
	}
}

// A cold build must allocate bytes linear in its size: about 2 KiB per
// final tet, most of it the geometrically grown tet slice (dead tets are
// kept until the build ends). The cavity stamp array once regrew to
// exactly the tet count whenever it fell short, which made a cold build
// of n points allocate O(n²) bytes — 34 KiB per tet at this size.
func TestColdBuildAllocatesLinearBytes(t *testing.T) {
	pts := randomCloud(91, 4096, 16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, err := Build(pts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	perTet := float64(bytes) / float64(len(tr.Tets))
	t.Logf("%d points, %d tets, %d bytes (%.0f per tet)", len(pts), len(tr.Tets), bytes, perTet)
	if perTet > 4096 {
		t.Errorf("cold build allocated %d bytes, %.0f per final tet; want at most 4096", bytes, perTet)
	}
}
