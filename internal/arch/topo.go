package arch

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"zac/internal/geom"
)

// topology is the precomputed dense-index view of an architecture: every
// storage trap and Rydberg site gets a small-integer ordinal, positions are
// tabulated once, and the nearest-row-first storage ordering used by initial
// placement is sorted a single time. The placement hot path indexes these
// tables instead of recomputing geometry (or hashing TrapRef/SiteRef map
// keys) on every call.
//
// Topologies are cached per *Architecture; an architecture must not be
// mutated after its first compilation (the same contract Fingerprint-keyed
// caching already relies on).
type topology struct {
	trapCount int
	trapBase  [][]int // [zone][slm] → ordinal of trap (0, 0)
	trapRefs  []TrapRef
	trapPos   []geom.Point

	siteCount int
	siteBase  []int // [zone] → ordinal of site (0, 0)
	maxSlots  int

	// nearestFirst is the storage-trap ordering of TrivialInitial (§VII-D):
	// rows by distance to the first entanglement zone, then columns
	// ascending. Nil when the architecture has no entanglement zone.
	nearestFirst []TrapRef
	// trapNearSite[ord] is NearestSite(trapPos[ord]); nil without zones.
	trapNearSite []SiteRef
}

var (
	topoCache sync.Map // *Architecture → *topology
	topoCount atomic.Int32
)

// topoCacheLimit bounds the number of cached topologies. A long-running
// zac-serve decodes a fresh *Architecture per request, so an unbounded
// pointer-keyed cache would grow forever; past the limit the cache is reset
// wholesale — topologies are pure derivations of the architecture, so an
// evicted entry only costs recomputation, never a behavior change.
const topoCacheLimit = 64

func (a *Architecture) topo() *topology {
	if v, ok := topoCache.Load(a); ok {
		return v.(*topology)
	}
	t := buildTopology(a)
	if v, loaded := topoCache.LoadOrStore(a, t); loaded {
		return v.(*topology)
	}
	if topoCount.Add(1) > topoCacheLimit {
		topoCount.Store(1)
		topoCache.Range(func(k, _ any) bool {
			topoCache.Delete(k)
			return true
		})
		topoCache.Store(a, t)
	}
	return t
}

func buildTopology(a *Architecture) *topology {
	t := &topology{}

	t.trapBase = make([][]int, len(a.Storage))
	for zi, z := range a.Storage {
		t.trapBase[zi] = make([]int, len(z.SLMs))
		for si, s := range z.SLMs {
			t.trapBase[zi][si] = t.trapCount
			t.trapCount += s.Rows * s.Cols
		}
	}
	t.trapRefs = make([]TrapRef, 0, t.trapCount)
	t.trapPos = make([]geom.Point, 0, t.trapCount)
	for zi, z := range a.Storage {
		for si, s := range z.SLMs {
			for r := 0; r < s.Rows; r++ {
				for c := 0; c < s.Cols; c++ {
					ref := TrapRef{Zone: zi, SLM: si, Row: r, Col: c}
					t.trapRefs = append(t.trapRefs, ref)
					t.trapPos = append(t.trapPos, a.TrapPos(ref))
				}
			}
		}
	}

	t.siteBase = make([]int, len(a.Entanglement))
	for zi, z := range a.Entanglement {
		t.siteBase[zi] = t.siteCount
		t.siteCount += z.SiteRows() * z.SiteCols()
		if n := z.SiteSlots(); n > t.maxSlots {
			t.maxSlots = n
		}
	}
	if len(a.Entanglement) > 0 {
		entY := a.Entanglement[0].Offset.Y
		traps := append([]TrapRef(nil), t.trapRefs...)
		sort.Slice(traps, func(i, j int) bool {
			pi, pj := a.TrapPos(traps[i]), a.TrapPos(traps[j])
			di, dj := math.Abs(pi.Y-entY), math.Abs(pj.Y-entY)
			if di != dj {
				return di < dj
			}
			return pi.X < pj.X
		})
		t.nearestFirst = traps

		t.trapNearSite = make([]SiteRef, t.trapCount)
		for i, p := range t.trapPos {
			t.trapNearSite[i] = a.NearestSite(p)
		}
	}
	return t
}

// TrapCount returns the number of storage traps (the ordinal range).
func (a *Architecture) TrapCount() int { return a.topo().trapCount }

// TrapOrdinal maps a storage trap to its dense ordinal in [0, TrapCount).
func (a *Architecture) TrapOrdinal(t TrapRef) int {
	return a.topo().trapBase[t.Zone][t.SLM] + t.Row*a.Storage[t.Zone].SLMs[t.SLM].Cols + t.Col
}

// TrapAt is the inverse of TrapOrdinal.
func (a *Architecture) TrapAt(ord int) TrapRef { return a.topo().trapRefs[ord] }

// TrapPosAt returns the precomputed position of the trap with the given
// ordinal (identical bits to TrapPos of the same trap).
func (a *Architecture) TrapPosAt(ord int) geom.Point { return a.topo().trapPos[ord] }

// SiteCount returns the number of Rydberg sites (the site-ordinal range).
func (a *Architecture) SiteCount() int { return a.topo().siteCount }

// SiteOrdinal maps a Rydberg site to its dense ordinal in [0, SiteCount).
func (a *Architecture) SiteOrdinal(s SiteRef) int {
	return a.topo().siteBase[s.Zone] + s.Row*a.Entanglement[s.Zone].SiteCols() + s.Col
}

// MaxSiteSlots returns the largest trap count of any Rydberg site (0 with no
// entanglement zones).
func (a *Architecture) MaxSiteSlots() int { return a.topo().maxSlots }

// StorageTrapsNearestFirst returns every storage trap ordered by row
// distance to the first entanglement zone, then column — the ordering of the
// paper's Vanilla initial placement. The slice is shared and must be treated
// as read-only. Requires at least one entanglement zone.
func (a *Architecture) StorageTrapsNearestFirst() []TrapRef {
	t := a.topo()
	if t.nearestFirst == nil {
		_ = a.Entanglement[0] // preserve the out-of-range panic of the unindexed path
	}
	return t.nearestFirst
}

// NearestSiteOfTrap returns the precomputed NearestSite of a storage trap's
// position, by trap ordinal. Requires at least one entanglement zone.
func (a *Architecture) NearestSiteOfTrap(ord int) SiteRef {
	t := a.topo()
	if t.trapNearSite == nil {
		_ = a.Entanglement[0]
	}
	return t.trapNearSite[ord]
}
