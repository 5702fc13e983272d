package arch

import (
	"encoding/json"
	"math"
	"testing"

	"zac/internal/geom"
)

func TestReferenceValid(t *testing.T) {
	a := Reference()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.TotalStorageTraps() != 100*100 {
		t.Errorf("storage traps = %d", a.TotalStorageTraps())
	}
	if a.TotalSites() != 7*20 {
		t.Errorf("sites = %d", a.TotalSites())
	}
}

func TestReferenceGeometryMatchesPaper(t *testing.T) {
	a := Reference()
	// Fig. 2b: site ω(0,0) left trap at (35, 307); right trap at (37, 307).
	left := a.SiteTrapPos(SiteRef{0, 0, 0}, 0)
	right := a.SiteTrapPos(SiteRef{0, 0, 0}, 1)
	if !left.Eq(geom.Point{X: 35, Y: 307}, 1e-9) {
		t.Errorf("left trap of ω00 = %v", left)
	}
	if !right.Eq(geom.Point{X: 37, Y: 307}, 1e-9) {
		t.Errorf("right trap of ω00 = %v", right)
	}
	if d := left.Dist(right); math.Abs(d-DRyd) > 1e-9 {
		t.Errorf("in-site trap separation = %v, want %v", d, DRyd)
	}
	// Adjacent sites are 12µm apart in x (dRyd + dω) and 10µm in y (dω).
	s01 := a.SitePos(SiteRef{0, 0, 1})
	s10 := a.SitePos(SiteRef{0, 1, 0})
	if math.Abs(s01.X-left.X-12) > 1e-9 {
		t.Errorf("site x pitch = %v", s01.X-left.X)
	}
	if math.Abs(s10.Y-left.Y-10) > 1e-9 {
		t.Errorf("site y pitch = %v", s10.Y-left.Y)
	}
	// Storage trap s(r,c) at (3c, 3r); top row y = 297, 10µm below the
	// entanglement zone (dsep).
	top := a.TrapPos(TrapRef{0, 0, 99, 0})
	if !top.Eq(geom.Point{X: 0, Y: 297}, 1e-9) {
		t.Errorf("storage trap (99,0) = %v", top)
	}
}

func TestNearestSite(t *testing.T) {
	a := Reference()
	// A point near site (0, 2) must resolve there.
	p := a.SitePos(SiteRef{0, 0, 2}).Add(geom.Point{X: 1.2, Y: -0.7})
	if got := a.NearestSite(p); got != (SiteRef{0, 0, 2}) {
		t.Errorf("NearestSite = %+v", got)
	}
	// Far below the zone it clamps to row 0.
	if got := a.NearestSite(geom.Point{X: 35, Y: 0}); got.Row != 0 {
		t.Errorf("clamp failed: %+v", got)
	}
}

func TestNearestStorageTrap(t *testing.T) {
	a := Reference()
	p := a.TrapPos(TrapRef{0, 0, 3, 4}).Add(geom.Point{X: 0.4, Y: 0.4})
	if got := a.NearestStorageTrap(p); got != (TrapRef{0, 0, 3, 4}) {
		t.Errorf("NearestStorageTrap = %+v", got)
	}
}

func TestAllSitesAndTraps(t *testing.T) {
	a := Arch1Small()
	if got := len(a.AllSites()); got != 60 {
		t.Errorf("Arch1Small sites = %d, want 60", got)
	}
	if got := len(a.AllStorageTraps()); got != 120 {
		t.Errorf("Arch1Small storage traps = %d, want 120", got)
	}
}

func TestBuildersValid(t *testing.T) {
	for name, a := range map[string]*Architecture{
		"reference":  Reference(),
		"monolithic": Monolithic(),
		"arch1":      Arch1Small(),
		"arch2":      Arch2TwoZones(),
		"logical":    Logical832(),
		"triple":     ReferenceTriple(),
		"aods":       WithAODs(Reference(), 4),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestReferenceTripleSites(t *testing.T) {
	a := ReferenceTriple()
	z := a.Entanglement[0]
	if z.SiteSlots() != 3 {
		t.Fatalf("site slots = %d, want 3", z.SiteSlots())
	}
	// The three traps of site (0,0) sit at x = 35, 37, 39 (2µm apart, all
	// within one blockade radius).
	for slot, wantX := range []float64{35, 37, 39} {
		p := a.SiteTrapPos(SiteRef{0, 0, 0}, slot)
		if math.Abs(p.X-wantX) > 1e-9 || math.Abs(p.Y-307) > 1e-9 {
			t.Errorf("slot %d at %v, want (%v,307)", slot, p, wantX)
		}
	}
	// Adjacent sites keep dω between their nearest traps: pitch 14 means
	// trap 2 of site c and trap 0 of site c+1 are 10µm apart.
	right := a.SiteTrapPos(SiteRef{0, 0, 1}, 0)
	last := a.SiteTrapPos(SiteRef{0, 0, 0}, 2)
	if d := right.X - last.X; math.Abs(d-DOmega) > 1e-9 {
		t.Errorf("inter-site gap = %v, want %v", d, DOmega)
	}
}

func TestArch2HasTwoEntanglementZones(t *testing.T) {
	a := Arch2TwoZones()
	if len(a.Entanglement) != 2 {
		t.Fatalf("zones = %d", len(a.Entanglement))
	}
	if a.TotalSites() != 60 {
		t.Errorf("total sites = %d, want 60 (2×3×10)", a.TotalSites())
	}
	// The storage zone must sit between the two entanglement zones.
	sy := a.Storage[0].Offset.Y
	if !(a.Entanglement[0].Offset.Y < sy && a.Entanglement[1].Offset.Y > sy) {
		t.Error("storage zone not between the two entanglement zones")
	}
}

func TestLogical832Shape(t *testing.T) {
	a := Logical832()
	if a.Entanglement[0].SiteRows() != 3 || a.Entanglement[0].SiteCols() != 5 {
		t.Errorf("logical sites = %dx%d, want 3x5 (⌊7/2⌋×⌊20/4⌋)",
			a.Entanglement[0].SiteRows(), a.Entanglement[0].SiteCols())
	}
	if a.TotalStorageTraps() != 128 {
		t.Errorf("logical storage = %d, want 128 blocks", a.TotalStorageTraps())
	}
}

func TestWithAODs(t *testing.T) {
	a := WithAODs(Reference(), 3)
	if len(a.AODs) != 3 {
		t.Fatalf("AODs = %d", len(a.AODs))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if len(Reference().AODs) != 1 {
		t.Fatal("WithAODs mutated source")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	a := Reference()
	a.AODs = nil
	if a.Validate() == nil {
		t.Error("missing AOD not caught")
	}

	b := Reference()
	b.Entanglement[0].SLMs = b.Entanglement[0].SLMs[:1]
	if b.Validate() == nil {
		t.Error("single-SLM entanglement zone not caught")
	}

	c := Reference()
	c.T2 = 0
	if c.Validate() == nil {
		t.Error("zero T2 not caught")
	}

	d := Reference()
	d.Fidelities.TwoQubit = 1.5
	if d.Validate() == nil {
		t.Error("fidelity > 1 not caught")
	}
}

// TestValidateBoundsTraps pins the MaxTraps cap: an SLM too large to build
// a topology for is rejected, including shapes whose row×column product
// would overflow, and the cap counts every zone kind together.
func TestValidateBoundsTraps(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
	}{
		{"20000x20000", 20000, 20000},
		{"overflow", 1 << 40, 1 << 40},
		{"one-row", 1, MaxTraps + 1},
	} {
		a := Reference()
		a.Storage[0].SLMs[0].Rows, a.Storage[0].SLMs[0].Cols = tc.rows, tc.cols
		if err := a.Validate(); err == nil {
			t.Errorf("%s storage SLM not caught", tc.name)
		}
	}

	// Storage and entanglement fill the cap exactly; one readout trap more
	// is rejected.
	a := Reference()
	var ent int
	for _, s := range a.Entanglement[0].SLMs {
		ent += s.Rows * s.Cols
	}
	a.Storage[0].SLMs[0].Rows, a.Storage[0].SLMs[0].Cols = 1, MaxTraps-ent
	if err := a.Validate(); err != nil {
		t.Fatalf("exactly MaxTraps traps rejected: %v", err)
	}
	a.Readout[0].SLMs = []SLMArray{{ID: 9, SepX: 1, SepY: 1, Rows: 1, Cols: 1}}
	if err := a.Validate(); err == nil {
		t.Error("MaxTraps+1 traps across zones not caught")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Reference()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Architecture
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name {
		t.Errorf("name %q", back.Name)
	}
	if back.T2 != orig.T2 || back.Times != orig.Times {
		t.Errorf("parameters lost: %+v", back.Times)
	}
	if len(back.Storage) != 1 || len(back.Entanglement) != 1 {
		t.Fatalf("zones lost")
	}
	if back.Entanglement[0].SiteRows() != 7 || back.Entanglement[0].SiteCols() != 20 {
		t.Error("entanglement shape lost")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONAcceptsArtifactSpelling(t *testing.T) {
	// Trimmed version of the paper's Fig. 20 with its original spellings.
	raw := `{
		"name": "full_compute_store_architecture",
		"operation_duration": {"rydberg": 0.36, "1qGate": 52, "atom_transfer": 15},
		"operation_fidelity": {"two_qubit_gate": 0.995, "single_qubit_gate": 0.9997, "atom_transfer": 0.999},
		"qubit_spec": {"T": 1.5e6},
		"storage_zones": [{
			"zone_id": 0,
			"slms": [{"id": 0, "site_seperation": [3, 3], "r": 100, "c": 100, "location": [0, 0]}],
			"offset": [0, 0],
			"dimenstion": [300, 300]
		}],
		"entanglement_zones": [{
			"zone_id": 0,
			"slms": [
				{"id": 1, "site_seperation": [12, 10], "r": 7, "c": 20, "location": [35, 307]},
				{"id": 2, "site_seperation": [12, 10], "r": 7, "c": 20, "location": [37, 307]}
			],
			"offset": [35, 307],
			"dimension": [240, 70]
		}],
		"aods": [{"id": 0, "site_seperation": 2, "r": 100, "c": 100}],
		"arch_range": [[0, 0], [297, 402]],
		"rydberg_range": [[[5, 305], [292, 402]]]
	}`
	var a Architecture
	if err := json.Unmarshal([]byte(raw), &a); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Times.OneQGate != 52 || a.T2 != 1.5e6 {
		t.Errorf("params: %+v T2=%v", a.Times, a.T2)
	}
	if a.TotalStorageTraps() != 10000 || a.TotalSites() != 140 {
		t.Errorf("geometry: traps=%d sites=%d", a.TotalStorageTraps(), a.TotalSites())
	}
	if a.Fidelities.Excitation != 0.9975 {
		t.Errorf("default excitation fidelity not applied: %v", a.Fidelities.Excitation)
	}
	// Left/right site traps offset by dRyd.
	if d := a.SiteTrapPos(SiteRef{0, 0, 0}, 0).Dist(a.SiteTrapPos(SiteRef{0, 0, 0}, 1)); math.Abs(d-2) > 1e-9 {
		t.Errorf("site trap separation %v", d)
	}
}

func TestMoveTimeCustomAccel(t *testing.T) {
	a := Reference()
	base := a.MoveTime(100)
	a.MovementAccel = 2.75e-3 * 4 // 4x acceleration → half the time
	if got := a.MoveTime(100); math.Abs(got-base/2) > 1e-9 {
		t.Errorf("custom accel MoveTime = %v, want %v", got, base/2)
	}
	if a.MoveTime(0) != 0 || a.MoveTime(-1) != 0 {
		t.Error("non-positive distance should take zero time")
	}
}

func TestSLMNearestTrapClamps(t *testing.T) {
	s := SLMArray{SepX: 3, SepY: 3, Rows: 10, Cols: 10}
	r, c := s.NearestTrap(geom.Point{X: -100, Y: 1000})
	if r != 9 || c != 0 {
		t.Errorf("clamped trap = (%d,%d)", r, c)
	}
	if !s.InRange(0, 0) || s.InRange(10, 0) || s.InRange(0, -1) {
		t.Error("InRange wrong")
	}
}
