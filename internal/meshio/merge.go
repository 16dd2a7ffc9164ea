package meshio

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// MergeCanonical combines per-block meshes of one complete tessellation into
// a single decomposition-independent global mesh: runs over the same
// particles with different block counts produce byte-identical encodings.
//
// Block-local cell geometry is not reusable for this — clipping order and
// the block-dependent initial box perturb vertex coordinates at the ulp
// level — so the merge re-derives every vertex canonically: each Voronoi
// vertex is the exact intersection of the three bisector planes between the
// cell site and its face neighbors (taking the nearest periodic image of
// each neighbor), solved by Cramer's rule with the planes ordered by
// neighbor ID. Cells are emitted sorted by particle ID, faces sorted by
// neighbor ID, each face loop oriented outward and rotated to start at its
// lexicographically smallest vertex, and volumes and areas are recomputed
// from the canonical geometry. Only the cell *topology* is taken from the
// inputs, and topology is decomposition-invariant.
//
// The merge requires the full tessellation: every cell complete, no wall
// faces (periodic domains satisfy this), and every face neighbor present as
// a cell site somewhere in the inputs. Nil meshes in the slice are skipped,
// so Output.Meshes can be passed directly.
func MergeCanonical(meshes []*BlockMesh, domain geom.Box, periodic bool) (*BlockMesh, error) {
	type srcCell struct {
		id       int64
		site     geom.Vec3
		mesh     *BlockMesh
		idx      int
		complete bool
	}
	nCells, nFaces, nLoop := 0, 0, 0
	for _, m := range meshes {
		if m == nil {
			continue
		}
		nCells += len(m.Particles)
		for _, c := range m.Cells {
			nFaces += len(c.Faces)
			for _, f := range c.Faces {
				nLoop += len(f.Verts)
			}
		}
	}
	sites := make(map[int64]geom.Vec3, nCells)
	cells := make([]srcCell, 0, nCells)
	for _, m := range meshes {
		if m == nil {
			continue
		}
		for i := range m.Particles {
			id := m.ParticleIDs[i]
			if _, dup := sites[id]; dup {
				return nil, fmt.Errorf("meshio: particle %d appears in more than one block", id)
			}
			sites[id] = m.Particles[i]
			cells = append(cells, srcCell{id, m.Particles[i], m, i, m.Complete[i]})
		}
	}
	slices.SortFunc(cells, func(a, b srcCell) int { return cmp.Compare(a.id, b.id) })

	// The output's faces and loops are carved from two arenas sized to the
	// inputs, so the mesh costs a handful of allocations, not one per face.
	// Each Voronoi vertex lies on three faces of each of its four cells,
	// which sizes the vertex pool.
	out := &BlockMesh{
		Extents:     domain,
		Verts:       make([]geom.Vec3, 0, nLoop/12),
		Particles:   make([]geom.Vec3, 0, nCells),
		ParticleIDs: make([]int64, 0, nCells),
		Volumes:     make([]float64, 0, nCells),
		Areas:       make([]float64, 0, nCells),
		Complete:    make([]bool, 0, nCells),
		Cells:       make([]CellConn, 0, nCells),
	}
	faceArena := make([]FaceConn, 0, nFaces)
	loopArena := make([]int32, 0, nLoop)
	weldTol := 1e-9 * maxf(domain.Size().MaxAbs(), 1e-30)
	pool := make(map[weldKey]int32, nLoop/12)
	intern := func(v geom.Vec3) int32 {
		k := weldKey{
			x: int64(roundHalf(v.X / weldTol)),
			y: int64(roundHalf(v.Y / weldTol)),
			z: int64(roundHalf(v.Z / weldTol)),
		}
		if gi, ok := pool[k]; ok {
			return gi
		}
		gi := int32(len(out.Verts))
		out.Verts = append(out.Verts, v)
		pool[k] = gi
		return gi
	}

	// Per-cell scratch, reused from cell to cell.
	var (
		planes        []geom.Plane
		order, rankOf []int
		adjSlot       = map[int32]int{} // block-local vertex -> adjacency slot
		adj           [][]int           // adjacent faces per slot
		canon         = map[int32]geom.Vec3{}
		coords        []geom.Vec3
	)
	for _, cc := range cells {
		src := cc.mesh.Cells[cc.idx]
		nf := len(src.Faces)
		if nf < 4 {
			return nil, fmt.Errorf("meshio: cell %d has %d faces", cc.id, nf)
		}
		// Canonical plane per face, from the nearest periodic image of the
		// neighbor site; faces ordered by (neighbor ID, plane offset).
		planes, order, rankOf = planes[:0], order[:0], rankOf[:0]
		for fi, f := range src.Faces {
			if f.Neighbor < 0 {
				return nil, fmt.Errorf("meshio: cell %d has wall face %d; canonical merge requires a complete tessellation", cc.id, f.Neighbor)
			}
			ns, ok := sites[f.Neighbor]
			if !ok {
				return nil, fmt.Errorf("meshio: neighbor %d of cell %d is not among the merged cells", f.Neighbor, cc.id)
			}
			if periodic {
				ns = nearestImage(ns, cc.site, domain)
			}
			planes = append(planes, geom.Bisector(cc.site, ns))
			order = append(order, fi)
			rankOf = append(rankOf, 0)
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(src.Faces[a].Neighbor, src.Faces[b].Neighbor); c != 0 {
				return c
			}
			return cmp.Compare(planes[a].D, planes[b].D)
		})
		// rankOf gives each face its canonical position, so vertex plane
		// triples can be chosen by canonical order.
		for r, fi := range order {
			rankOf[fi] = r
		}

		// Vertex -> adjacent faces over the block-local welded indices (the
		// decomposition-invariant topology). A face that lists a vertex
		// twice (see below) is adjacent to it once.
		clear(adjSlot)
		clear(canon)
		for fi, f := range src.Faces {
			for _, vi := range f.Verts {
				s, ok := adjSlot[vi]
				if !ok {
					s = len(adjSlot)
					adjSlot[vi] = s
					if s == len(adj) {
						adj = append(adj, nil)
					}
					adj[s] = adj[s][:0]
				}
				if n := len(adj[s]); n > 0 && adj[s][n-1] == fi {
					continue
				}
				adj[s] = append(adj[s], fi)
			}
		}
		canonVert := func(vi int32) (geom.Vec3, error) {
			if v, ok := canon[vi]; ok {
				return v, nil
			}
			fl := adj[adjSlot[vi]]
			if len(fl) < 3 {
				return geom.Vec3{}, fmt.Errorf("meshio: cell %d vertex on %d faces", cc.id, len(fl))
			}
			// Any three adjacent planes meet at the same Voronoi vertex.
			// Take the three canonically first. Where more than three
			// planes meet (near-lattice input, or vertices the block weld
			// joined), those can be (near-)dependent, so fall back to the
			// best-conditioned triple, ties going to the canonically
			// first. Both choices depend only on canonical planes and
			// ranks, so they are decomposition-free.
			slices.SortFunc(fl, func(a, b int) int { return cmp.Compare(rankOf[a], rankOf[b]) })
			p1, p2, p3 := planes[fl[0]], planes[fl[1]], planes[fl[2]]
			det := planeDet(p1, p2, p3)
			if math.Abs(det) < minPlaneDet {
				for a := 0; a < len(fl); a++ {
					for b := a + 1; b < len(fl); b++ {
						for c := b + 1; c < len(fl); c++ {
							q1, q2, q3 := planes[fl[a]], planes[fl[b]], planes[fl[c]]
							if d := planeDet(q1, q2, q3); math.Abs(d) > math.Abs(det) {
								p1, p2, p3, det = q1, q2, q3, d
							}
						}
					}
				}
			}
			if math.Abs(det) < minPlaneDet {
				return geom.Vec3{}, fmt.Errorf("meshio: cell %d has a degenerate vertex (plane determinant %g)", cc.id, det)
			}
			v := p2.N.Cross(p3.N).Scale(-p1.D).
				Add(p3.N.Cross(p1.N).Scale(-p2.D)).
				Add(p1.N.Cross(p2.N).Scale(-p3.D)).
				Scale(1 / det)
			canon[vi] = v
			return v, nil
		}

		firstFace := len(faceArena)
		var vol, area float64
		for _, fi := range order {
			f := src.Faces[fi]
			// Whether the clipping kernel yields two Voronoi vertices closer
			// than the block weld quantum, which the weld joins, or one
			// vertex can depend on the decomposition. A face that then
			// lists a vertex twice in a row keeps it once, so both merge
			// alike; a face left with fewer than three keeps its loop.
			verts := dedupCyclic(f.Verts)
			if len(verts) < 3 {
				verts = f.Verts
			}
			coords = coords[:0]
			for _, vi := range verts {
				v, err := canonVert(vi)
				if err != nil {
					return nil, err
				}
				coords = append(coords, v)
			}
			// Orient the loop outward (agreeing with the bisector normal,
			// which points from the site toward the neighbor), then rotate it
			// to start at the lexicographically smallest vertex. Both are
			// geometric properties, so construction order cannot leak in.
			if newellNormal(coords).Dot(planes[fi].N) < 0 {
				slices.Reverse(coords)
			}
			rotateToMin(coords)
			first := len(loopArena)
			for _, v := range coords {
				loopArena = append(loopArena, intern(v))
			}
			loop := loopArena[first:len(loopArena):len(loopArena)]
			faceArena = append(faceArena, FaceConn{Neighbor: f.Neighbor, Verts: loop})
			// Recompute geometry from the pooled vertices so the stored
			// scalars are exactly consistent with the stored mesh.
			a := out.Verts[loop[0]]
			for k := 1; k+1 < len(loop); k++ {
				b, c := out.Verts[loop[k]], out.Verts[loop[k+1]]
				ab, ac := b.Sub(a), c.Sub(a)
				area += 0.5 * ab.Cross(ac).Norm()
				vol += a.Sub(cc.site).Dot(b.Sub(cc.site).Cross(c.Sub(cc.site))) / 6
			}
		}
		out.Cells = append(out.Cells, CellConn{Faces: faceArena[firstFace:len(faceArena):len(faceArena)]})
		out.Particles = append(out.Particles, cc.site)
		out.ParticleIDs = append(out.ParticleIDs, cc.id)
		out.Volumes = append(out.Volumes, vol)
		out.Areas = append(out.Areas, area)
		out.Complete = append(out.Complete, cc.complete)
	}
	return out, nil
}

// dedupCyclic returns the cyclic loop without the entries equal to their
// predecessor; the loop itself when it has none.
func dedupCyclic(loop []int32) []int32 {
	n := len(loop)
	var out []int32
	for k, vi := range loop {
		if n > 1 && vi == loop[(k+n-1)%n] {
			if out == nil {
				out = append(make([]int32, 0, n), loop[:k]...)
			}
			continue
		}
		if out != nil {
			out = append(out, vi)
		}
	}
	if out == nil {
		return loop
	}
	return out
}

// minPlaneDet is the smallest |det| of three face-plane normals that
// MergeCanonical solves a vertex from.
const minPlaneDet = 1e-12

// planeDet is the determinant of three planes' normals, the divisor of
// their Cramer's-rule intersection.
func planeDet(p1, p2, p3 geom.Plane) float64 {
	return p1.N.Dot(p2.N.Cross(p3.N))
}

// nearestImage returns the periodic image of s closest to p in the domain
// box: q = s - L*round((s-p)/L) componentwise. round is exact and
// order-free, so the image choice is decomposition-independent.
func nearestImage(s, p geom.Vec3, domain geom.Box) geom.Vec3 {
	L := domain.Size()
	return geom.Vec3{
		X: s.X - L.X*math.Round((s.X-p.X)/L.X),
		Y: s.Y - L.Y*math.Round((s.Y-p.Y)/L.Y),
		Z: s.Z - L.Z*math.Round((s.Z-p.Z)/L.Z),
	}
}

// newellNormal is Newell's polygon normal (unnormalized); its direction
// tells the loop's winding.
func newellNormal(loop []geom.Vec3) geom.Vec3 {
	var n geom.Vec3
	for i := range loop {
		a, b := loop[i], loop[(i+1)%len(loop)]
		n.X += (a.Y - b.Y) * (a.Z + b.Z)
		n.Y += (a.Z - b.Z) * (a.X + b.X)
		n.Z += (a.X - b.X) * (a.Y + b.Y)
	}
	return n
}

// rotateToMin rotates the cyclic loop so the lexicographically smallest
// (X, Y, Z) vertex comes first, preserving winding.
func rotateToMin(v []geom.Vec3) {
	min := 0
	for i := 1; i < len(v); i++ {
		if lexLess(v[i], v[min]) {
			min = i
		}
	}
	if min == 0 {
		return
	}
	// Rotate left by min in place: reverse both parts, then the whole.
	slices.Reverse(v[:min])
	slices.Reverse(v[min:])
	slices.Reverse(v)
}

func lexLess(a, b geom.Vec3) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.Z < b.Z
}
