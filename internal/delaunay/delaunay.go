// Package delaunay implements an incremental 3D Delaunay tetrahedralization
// (Bowyer-Watson with walking point location). The paper treats the Delaunay
// triangulation as the dual of the Voronoi tessellation (Sec. II-B) and its
// lineage of void finders (ZOBOV, the Watershed Void Finder) starts from the
// Delaunay Tessellation Field Estimator; this package provides both the
// dual-extraction cross-check used by the tests and the DTFE density
// estimator (internal/dtfe).
package delaunay

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ErrDegenerate is returned when fewer than 4 non-coplanar points are given.
var ErrDegenerate = errors.New("delaunay: degenerate input")

// Tet is one tetrahedron of the final triangulation, positively oriented
// (Orient3D(V[0], V[1], V[2], V[3]) > 0), with vertex indices into the
// input point slice.
type Tet struct {
	V [4]int
	// Nb[i] is the index (into Triangulation.Tets) of the neighbor across
	// the face opposite V[i], or -1 on the convex hull boundary.
	Nb [4]int
}

// Triangulation is a 3D Delaunay tetrahedralization.
type Triangulation struct {
	Points []geom.Vec3
	Tets   []Tet
	// Rep maps each input point to the vertex that represents it in the
	// triangulation: Rep[i] == i for points that became vertices, and the
	// index of the earlier coincident vertex for points merged away as
	// duplicates. A nil Rep (hand-built triangulations) means the identity
	// mapping.
	Rep []int
}

// Representative returns the vertex index that represents input point i
// (i itself unless i was merged away as a duplicate).
func (tr *Triangulation) Representative(i int) int {
	if tr.Rep == nil {
		return i
	}
	return tr.Rep[i]
}

type tet struct {
	v    [4]int
	nb   [4]int // index of neighbor opposite v[i]; -1 if none
	dead bool
}

// bface is one boundary face of a Bowyer-Watson cavity.
type bface struct {
	verts   [3]int // oriented facing away from the cavity
	outside int    // neighbor tet beyond the face, or -1
}

type builder struct {
	pts  []geom.Vec3 // input points + 4 super vertices at the end
	n    int         // number of real points
	tets []tet
	last int   // walk start hint
	rep  []int // rep[i]: representative vertex of a merged duplicate, else i

	// Per-insert workspace, retained across insertions (and, through
	// Builder, across whole builds).
	cavity   []int
	inCav    []uint32 // stamp array: inCav[t] == stamp means t is in the cavity
	stamp    uint32
	boundary []bface
	faceMap  map[[3]int]int

	// Output buffers reused across builds.
	outTets []Tet
	remap   []int
}

// Builder is a reusable triangulation workspace. The zero value is ready to
// use; successive Builds reuse the previous build's tet, cavity, and output
// storage, removing most allocation from warm in situ rebuilds.
//
// The Triangulation returned by Build aliases the Builder's buffers and is
// valid only until the next Build on the same Builder; callers that need to
// keep the previous mesh must copy it first (the same loan contract as
// Session.Step). A Builder must not be used from multiple goroutines
// concurrently.
type Builder struct {
	b builder
}

// Build computes the Delaunay tetrahedralization of pts. Duplicate points
// (within ~1e-12 of the input extent) are merged: only the first occurrence
// becomes a vertex, and Rep records the mapping.
func Build(pts []geom.Vec3) (*Triangulation, error) {
	var s Builder
	return s.Build(pts)
}

// Build is like the package-level Build but reuses the Builder's retained
// buffers. See the Builder doc for the aliasing contract.
func (s *Builder) Build(pts []geom.Vec3) (*Triangulation, error) {
	if len(pts) < 4 {
		return nil, ErrDegenerate
	}
	for _, p := range pts {
		if !p.IsFinite() {
			return nil, fmt.Errorf("delaunay: non-finite point %v", p)
		}
	}
	bb := geom.BoundingBox(pts)
	size := math.Max(bb.Size().MaxAbs(), 1e-12)
	c := bb.Center()

	b := &s.b
	b.n = len(pts)
	b.pts = append(b.pts[:0], pts...)
	b.pts = append(b.pts, superVertices(c, size)...)
	if cap(b.rep) < len(pts) {
		b.rep = make([]int, len(pts))
	}
	b.rep = b.rep[:len(pts)]
	for i := range b.rep {
		b.rep[i] = i
	}

	// Initial super-tetrahedron.
	s0, s1, s2, s3 := len(pts), len(pts)+1, len(pts)+2, len(pts)+3
	first := tet{v: [4]int{s0, s1, s2, s3}, nb: [4]int{-1, -1, -1, -1}}
	if geom.Orient3DVal(b.pts[s0], b.pts[s1], b.pts[s2], b.pts[s3]) < 0 {
		first.v[2], first.v[3] = first.v[3], first.v[2]
	}
	b.tets = append(b.tets[:0], first)
	b.last = 0

	dupEps := 1e-12 * size
	for i := 0; i < len(pts); i++ {
		if err := b.insert(i, dupEps); err != nil {
			return nil, err
		}
	}

	// Strip tetrahedra using super vertices.
	if cap(b.remap) < len(b.tets) {
		b.remap = make([]int, len(b.tets))
	}
	b.remap = b.remap[:len(b.tets)]
	for i := range b.remap {
		b.remap[i] = -1
	}
	b.outTets = b.outTets[:0]
	for i, t := range b.tets {
		if t.dead || t.v[0] >= b.n || t.v[1] >= b.n || t.v[2] >= b.n || t.v[3] >= b.n {
			continue
		}
		b.remap[i] = len(b.outTets)
		b.outTets = append(b.outTets, Tet{V: t.v})
	}
	if len(b.outTets) == 0 {
		return nil, ErrDegenerate
	}
	for i, t := range b.tets {
		ni := b.remap[i]
		if ni < 0 {
			continue
		}
		for f := 0; f < 4; f++ {
			if t.nb[f] >= 0 && b.remap[t.nb[f]] >= 0 {
				b.outTets[ni].Nb[f] = b.remap[t.nb[f]]
			} else {
				b.outTets[ni].Nb[f] = -1
			}
		}
	}
	return &Triangulation{Points: pts, Tets: b.outTets, Rep: b.rep}, nil
}

// superVertices returns four vertices of a huge regular tetrahedron around
// center c.
func superVertices(c geom.Vec3, size float64) []geom.Vec3 {
	m := 64 * size
	return []geom.Vec3{
		c.Add(geom.V(m, m, m)),
		c.Add(geom.V(m, -m, -m)),
		c.Add(geom.V(-m, m, -m)),
		c.Add(geom.V(-m, -m, m)),
	}
}

// markCavity resets the cavity stamp for a new insertion; the stamp array
// covers the tets that exist before the insertion appends new ones. It
// grows geometrically, as the tet slice does, so a build allocates it in
// amortized linear bytes. Entries past the old length hold zeros or older
// stamps, never the current one: a fresh array is zeroed and the stamp
// only increases until it wraps, which clears the whole backing array.
func (b *builder) markCavity() {
	if cap(b.inCav) < len(b.tets) {
		b.inCav = make([]uint32, len(b.tets), 2*len(b.tets))
		b.stamp = 0
	}
	b.inCav = b.inCav[:len(b.tets)]
	b.stamp++
	if b.stamp == 0 { // wrapped: clear and restart
		clear(b.inCav[:cap(b.inCav)])
		b.stamp = 1
	}
}

func (b *builder) inCavity(ti int) bool {
	return b.inCav[ti] == b.stamp
}

// insert adds point index pi via Bowyer-Watson cavity retriangulation.
func (b *builder) insert(pi int, dupEps float64) error {
	p := b.pts[pi]
	ti, err := b.locate(p)
	if err != nil {
		return err
	}
	// Duplicate check against the containing tet's vertices.
	for _, vi := range b.tets[ti].v {
		if b.pts[vi].Dist(p) <= dupEps {
			if vi < b.n {
				b.rep[pi] = vi
			}
			return nil // merged duplicate
		}
	}

	// Cavity: all tets whose circumsphere contains p, BFS from ti.
	b.markCavity()
	b.cavity = append(b.cavity[:0], ti)
	b.inCav[ti] = b.stamp
	for head := 0; head < len(b.cavity); head++ {
		cur := b.cavity[head]
		for _, nb := range b.tets[cur].nb {
			if nb < 0 || b.inCavity(nb) || b.tets[nb].dead {
				continue
			}
			if b.inSphere(nb, p) {
				b.inCav[nb] = b.stamp
				b.cavity = append(b.cavity, nb)
			}
		}
	}

	// Boundary faces of the cavity.
	b.boundary = b.boundary[:0]
	for _, ci := range b.cavity {
		t := b.tets[ci]
		for f := 0; f < 4; f++ {
			nb := t.nb[f]
			if nb >= 0 && b.inCavity(nb) {
				continue
			}
			fv := faceVerts(t.v, f)
			b.boundary = append(b.boundary, bface{verts: fv, outside: nb})
		}
	}
	if len(b.boundary) < 4 {
		return fmt.Errorf("delaunay: degenerate cavity (%d boundary faces) inserting %v", len(b.boundary), p)
	}

	for _, ci := range b.cavity {
		b.tets[ci].dead = true
	}

	// New tets: each boundary face plus p. Faces from faceVerts are
	// oriented so that Orient3D(fv[0], fv[1], fv[2], apex-of-old-tet) > 0;
	// the cavity interior (where p is) is on the other side, so (fv[0],
	// fv[2], fv[1], p) is positively oriented.
	if b.faceMap == nil {
		b.faceMap = make(map[[3]int]int, 3*len(b.boundary))
	} else {
		clear(b.faceMap)
	}
	firstNew := len(b.tets)
	for _, bf := range b.boundary {
		nt := tet{v: [4]int{bf.verts[0], bf.verts[2], bf.verts[1], pi}, nb: [4]int{-1, -1, -1, -1}}
		if geom.Orient3DVal(b.pts[nt.v[0]], b.pts[nt.v[1]], b.pts[nt.v[2]], b.pts[nt.v[3]]) <= 0 {
			nt.v[1], nt.v[2] = nt.v[2], nt.v[1]
		}
		idx := len(b.tets)
		b.tets = append(b.tets, nt)

		// Link across the boundary face to the outside tet.
		if bf.outside >= 0 {
			// In the new tet, the face not containing p is opposite p.
			fOpp := -1
			for f := 0; f < 4; f++ {
				if b.tets[idx].v[f] == pi {
					fOpp = f
				}
			}
			b.tets[idx].nb[fOpp] = bf.outside
			// And fix the outside tet's pointer (it pointed at a dead tet).
			out := &b.tets[bf.outside]
			for f := 0; f < 4; f++ {
				if out.nb[f] >= 0 && b.tets[out.nb[f]].dead {
					// Check this face matches (same vertex set).
					if sameFace(faceVerts(out.v, f), bf.verts) {
						out.nb[f] = idx
					}
				}
			}
		}
		// Register the three faces containing p for new-new linking.
		for f := 0; f < 4; f++ {
			if b.tets[idx].v[f] == pi {
				continue
			}
			key := sortedFace(faceVerts(b.tets[idx].v, f))
			if other, ok := b.faceMap[key]; ok {
				b.tets[idx].nb[f] = other >> 2
				b.tets[other>>2].nb[other&3] = idx
				delete(b.faceMap, key)
			} else {
				b.faceMap[key] = idx<<2 | f
			}
		}
	}
	if len(b.faceMap) != 0 {
		return fmt.Errorf("delaunay: %d unmatched internal faces inserting %v", len(b.faceMap), p)
	}
	b.last = firstNew
	return nil
}

// inSphere reports whether p is strictly inside the circumsphere of tet ti.
// On-sphere (cospherical) points are treated as outside, which keeps the
// cavity structurally sound on degenerate inputs such as exact lattices at
// the cost of an arbitrary (but valid) triangulation of the cospherical
// configuration.
func (b *builder) inSphere(ti int, p geom.Vec3) bool {
	t := b.tets[ti]
	return geom.InSphere(b.pts[t.v[0]], b.pts[t.v[1]], b.pts[t.v[2]], b.pts[t.v[3]], p) > 0
}

// locate finds a live tet containing p, walking from the last insertion
// site and falling back to exhaustive search on numerical trouble.
func (b *builder) locate(p geom.Vec3) (int, error) {
	ti := b.last
	if ti >= len(b.tets) || b.tets[ti].dead {
		ti = b.firstLive()
	}
	for steps := 0; steps < 4*len(b.tets)+16; steps++ {
		t := b.tets[ti]
		moved := false
		for f := 0; f < 4; f++ {
			fv := faceVerts(t.v, f)
			// Face oriented outward relative to opposite vertex; p beyond
			// it means the containing tet is on the other side.
			if geom.Orient3DVal(b.pts[fv[0]], b.pts[fv[1]], b.pts[fv[2]], p) < 0 {
				if t.nb[f] < 0 {
					return ti, fmt.Errorf("delaunay: walked off the hull locating %v", p)
				}
				ti = t.nb[f]
				moved = true
				break
			}
		}
		if !moved {
			return ti, nil
		}
	}
	// Fallback: exhaustive scan.
	for i := range b.tets {
		if b.tets[i].dead {
			continue
		}
		t := b.tets[i]
		inside := true
		for f := 0; f < 4; f++ {
			fv := faceVerts(t.v, f)
			if geom.Orient3DVal(b.pts[fv[0]], b.pts[fv[1]], b.pts[fv[2]], p) < -1e-12 {
				inside = false
				break
			}
		}
		if inside {
			return i, nil
		}
	}
	return 0, fmt.Errorf("delaunay: no tet contains %v", p)
}

func (b *builder) firstLive() int {
	for i := range b.tets {
		if !b.tets[i].dead {
			return i
		}
	}
	return 0
}

// faceVerts returns the vertices of the face opposite v[f], oriented so
// that Orient3D(face, v[f]) > 0 for a positively oriented tet.
func faceVerts(v [4]int, f int) [3]int {
	// For a positively oriented tet (v0,v1,v2,v3):
	// face opposite 0: (1,3,2), opposite 1: (0,2,3),
	// opposite 2: (0,3,1), opposite 3: (0,1,2).
	switch f {
	case 0:
		return [3]int{v[1], v[3], v[2]}
	case 1:
		return [3]int{v[0], v[2], v[3]}
	case 2:
		return [3]int{v[0], v[3], v[1]}
	default:
		return [3]int{v[0], v[1], v[2]}
	}
}

func sortedFace(f [3]int) [3]int {
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
	if f[1] > f[2] {
		f[1], f[2] = f[2], f[1]
	}
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
	return f
}

func sameFace(a, b [3]int) bool {
	return sortedFace(a) == sortedFace(b)
}

// Circumcenters returns the circumcenter of every tetrahedron — the dual
// Voronoi vertices.
func (tr *Triangulation) Circumcenters() []geom.Vec3 {
	out := make([]geom.Vec3, len(tr.Tets))
	for i, t := range tr.Tets {
		cc, _ := geom.Circumcenter(tr.Points[t.V[0]], tr.Points[t.V[1]], tr.Points[t.V[2]], tr.Points[t.V[3]])
		out[i] = cc
	}
	return out
}

// Edges returns the unique vertex-index edges of the triangulation — the
// dual of the Voronoi face-adjacency graph.
func (tr *Triangulation) Edges() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, t := range tr.Tets {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				a, b := t.V[i], t.V[j]
				if a > b {
					a, b = b, a
				}
				k := [2]int{a, b}
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	return out
}

// VertexStars returns, for each input vertex, the indices of the tets
// incident to it. Vertices merged as duplicates (or outside the final
// triangulation) have empty stars.
func (tr *Triangulation) VertexStars() [][]int {
	stars := make([][]int, len(tr.Points))
	for ti, t := range tr.Tets {
		for _, vi := range t.V {
			stars[vi] = append(stars[vi], ti)
		}
	}
	return stars
}

// TetVolume returns the volume of tet ti.
func (tr *Triangulation) TetVolume(ti int) float64 {
	t := tr.Tets[ti]
	return geom.TetVolume(tr.Points[t.V[0]], tr.Points[t.V[1]], tr.Points[t.V[2]], tr.Points[t.V[3]])
}

// TotalVolume returns the volume of the triangulated region (the convex
// hull of the input).
func (tr *Triangulation) TotalVolume() float64 {
	var v float64
	for i := range tr.Tets {
		v += tr.TetVolume(i)
	}
	return v
}

// Locate returns the index of a tet containing p, or -1 if p is outside
// the convex hull.
func (tr *Triangulation) Locate(p geom.Vec3) int {
	for i, t := range tr.Tets {
		inside := true
		for f := 0; f < 4; f++ {
			fv := faceVerts(t.V, f)
			if geom.Orient3DVal(tr.Points[fv[0]], tr.Points[fv[1]], tr.Points[fv[2]], p) < -1e-12 {
				inside = false
				break
			}
		}
		if inside {
			return i
		}
	}
	return -1
}
