package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"

	"parhull"
)

// counts are the deterministic counters of one call: for a fixed input,
// worker count and shuffle seed they repeat exactly, so they are the
// noise-free regression signal beside wall time. Hull3DDegenerate reports
// no Stats, so only its face and vertex counts are set.
type counts struct {
	HullFacets      int   `json:"hull_facets"`
	HullVertices    int   `json:"hull_vertices"`
	FacetsCreated   int64 `json:"facets_created"`
	VisibilityTests int64 `json:"visibility_tests"`
	ExactFallbacks  int64 `json:"exact_fallbacks"`
	MaxDepth        int   `json:"max_depth"`
	PreHullKept     int   `json:"prehull_kept"`
}

// add folds c into a pass total: sums, except MaxDepth, which is a maximum.
func (a *counts) add(c counts) {
	a.HullFacets += c.HullFacets
	a.HullVertices += c.HullVertices
	a.FacetsCreated += c.FacetsCreated
	a.VisibilityTests += c.VisibilityTests
	a.ExactFallbacks += c.ExactFallbacks
	a.MaxDepth = max(a.MaxDepth, c.MaxDepth)
	a.PreHullKept += c.PreHullKept
}

// outcome is a call's output reduced to what the checks compare.
type outcome struct {
	digest string
	counts counts
}

// summarizer reduces outputs to outcomes, reusing its buffers so the
// reduction between timed calls allocates little.
type summarizer struct {
	h     hash.Hash
	tri   [][3]int
	flat  []int
	cyc   []int
	faces [][]int
	buf   [8]byte
}

func (s *summarizer) reset() {
	if s.h == nil {
		s.h = sha256.New()
	}
	s.h.Reset()
}

func (s *summarizer) put(v int) {
	binary.LittleEndian.PutUint64(s.buf[:], uint64(v))
	s.h.Write(s.buf[:])
}

// sum closes the digest.
func (s *summarizer) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// summarize digests the output: the sorted vertex tuples of the facets (or
// the canonical face cycles) followed by the vertex list.
func (s *summarizer) summarize(o output) outcome {
	s.reset()
	switch {
	case o.hull != nil:
		return s.hull(o)
	case o.hull2d != nil:
		r := o.hull2d
		// The CCW cycle has no fixed start; rotate it to its least index.
		s.cyc = rotateToMin(append(s.cyc[:0], r.Vertices...))
		s.put(len(s.cyc))
		for _, v := range s.cyc {
			s.put(v)
		}
		return outcome{digest: s.sum(), counts: statsCounts(r.Stats.HullSize, len(r.Vertices), r.Stats)}
	default:
		return s.faceCycles(o)
	}
}

func (s *summarizer) hull(o output) outcome {
	r := o.hull
	s.tri = s.tri[:0]
	for _, f := range r.Facets {
		t := [3]int{-1, -1, len(f.Vertices)} // a non-triangle never matches
		if len(f.Vertices) == 3 {
			t = [3]int{f.Vertices[0], f.Vertices[1], f.Vertices[2]}
			slices.Sort(t[:])
		}
		s.tri = append(s.tri, t)
	}
	slices.SortFunc(s.tri, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
	s.put(len(s.tri))
	for _, t := range s.tri {
		s.put(t[0])
		s.put(t[1])
		s.put(t[2])
	}
	s.put(len(r.Vertices))
	for _, v := range r.Vertices {
		s.put(v)
	}
	return outcome{digest: s.sum(), counts: statsCounts(len(r.Facets), len(r.Vertices), r.Stats)}
}

// faceCycles digests Hull3DDegenerate faces: each cycle is rotated to its
// least index and read in the direction whose second entry is smaller (the
// route's face orientation is not part of its contract), and the cycles are
// sorted.
func (s *summarizer) faceCycles(o output) outcome {
	s.faces = s.faces[:0]
	s.flat = s.flat[:0]
	for _, f := range o.faces {
		c := rotateToMin(append([]int(nil), f.Vertices...))
		if len(c) > 2 && c[len(c)-1] < c[1] {
			slices.Reverse(c[1:])
		}
		s.faces = append(s.faces, c)
		s.flat = append(s.flat, c...)
	}
	slices.SortFunc(s.faces, slices.Compare[[]int])
	s.put(len(s.faces))
	for _, f := range s.faces {
		s.put(len(f))
		for _, v := range f {
			s.put(v)
		}
	}
	slices.Sort(s.flat)
	s.flat = slices.Compact(s.flat)
	s.put(len(s.flat))
	for _, v := range s.flat {
		s.put(v)
	}
	return outcome{digest: s.sum(), counts: counts{HullFacets: len(s.faces), HullVertices: len(s.flat)}}
}

func statsCounts(facets, verts int, st parhull.Stats) counts {
	return counts{
		HullFacets:      facets,
		HullVertices:    verts,
		FacetsCreated:   st.FacetsCreated,
		VisibilityTests: st.VisibilityTests,
		ExactFallbacks:  st.ExactFallbacks,
		MaxDepth:        st.MaxDepth,
		PreHullKept:     st.PreHullKept,
	}
}

func rotateToMin(c []int) []int {
	if len(c) == 0 {
		return c
	}
	m := 0
	for i, v := range c {
		if v < c[m] {
			m = i
		}
	}
	slices.Reverse(c[:m])
	slices.Reverse(c[m:])
	slices.Reverse(c)
	return c
}
