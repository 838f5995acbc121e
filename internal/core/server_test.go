package core

import (
	"context"
	"maps"
	"math"
	"slices"
	"testing"

	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func smallSpace() *semantics.Space {
	return semantics.NewSpace(dataset.ESC50().Subset(10), model.VGG16BN())
}

func smallServer(t testing.TB) *Server {
	t.Helper()
	return NewServer(smallSpace(), ServerConfig{Theta: 0.035, Seed: 3, ProfileSamples: 200, InitSamplesPerClass: 16})
}

// testSession opens a session for the given client id.
func testSession(t testing.TB, srv *Server, id int) Session {
	t.Helper()
	sess, err := srv.Open(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// allocate requests an allocation through a fresh session and
// materializes the (full) delta.
func allocate(t testing.TB, sess Session, status StatusReport) (Allocation, error) {
	t.Helper()
	d, err := sess.Allocate(context.Background(), status)
	if err != nil {
		return Allocation{}, err
	}
	v := NewAllocView()
	if err := v.Apply(d); err != nil {
		t.Fatal(err)
	}
	return v.Allocation(), nil
}

func upload(sess Session, upd UpdateReport) error {
	return sess.Upload(context.Background(), upd)
}

func TestServerInitTablePopulated(t *testing.T) {
	srv := smallServer(t)
	tbl := srv.Table()
	if tbl.Populated() != 10*13 {
		t.Fatalf("populated = %d, want %d", tbl.Populated(), 10*13)
	}
	// Entries are unit-norm and close to the class prototype.
	sp := smallSpace()
	for _, c := range []int{0, 5, 9} {
		for _, j := range []int{0, 6, 12} {
			e := tbl.Get(c, j)
			if math.Abs(float64(vecmath.Norm(e))-1) > 1e-5 {
				t.Fatalf("entry (%d,%d) not unit", c, j)
			}
			if cos := vecmath.Cosine(e, sp.Prototype(c, j)); cos < 0.8 {
				t.Fatalf("entry (%d,%d) far from prototype: cos %v", c, j, cos)
			}
		}
	}
}

func TestServerProfileCumulative(t *testing.T) {
	srv := smallServer(t)
	prof := srv.Profile()
	if len(prof) != 13 {
		t.Fatalf("profile length %d", len(prof))
	}
	for j := 1; j < len(prof); j++ {
		if prof[j] < prof[j-1] {
			t.Fatal("cumulative profile must be non-decreasing")
		}
	}
	if prof[len(prof)-1] < 0.3 {
		t.Fatalf("final cumulative hit ratio %v suspiciously low", prof[len(prof)-1])
	}
}

func TestServerRegister(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	defer sess.Close()
	if srv.Sessions() != 1 {
		t.Fatalf("open sessions = %d, want 1", srv.Sessions())
	}
	info := sess.Info()
	if info.NumClasses != 10 || info.NumLayers != 13 {
		t.Fatalf("register info %+v", info)
	}
	if len(info.ProfileHitRatio) != 13 || len(info.SavedMs) != 13 {
		t.Fatal("register vectors wrong length")
	}
	if info.SavedMs[0] <= info.SavedMs[12] {
		t.Fatal("earlier layers must save more compute")
	}
}

func TestServerAllocate(t *testing.T) {
	srv := smallServer(t)
	status := StatusReport{Tau: make([]int, 10), Budget: 30, RoundFrames: 300}
	alloc, err := allocate(t, testSession(t, srv, 1), status)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Layers) == 0 {
		t.Fatal("no layers allocated")
	}
	total := 0
	for _, l := range alloc.Layers {
		total += l.Len()
		if len(l.Classes) != len(alloc.Classes) {
			t.Fatalf("layer %d holds %d classes, hot-spot set has %d", l.Site, len(l.Classes), len(alloc.Classes))
		}
	}
	if total > 30 {
		t.Fatalf("allocated %d entries over budget", total)
	}
	allocs, _ := srv.Stats()
	if allocs < 1 {
		t.Fatal("allocation counter not incremented")
	}
}

func TestServerAllocateValidatesStatus(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	if _, err := allocate(t, sess, StatusReport{Tau: make([]int, 3), Budget: 10}); err == nil {
		t.Error("short tau accepted")
	}
	if _, err := allocate(t, sess, StatusReport{Tau: make([]int, 10), HitRatio: make([]float64, 2), Budget: 10}); err == nil {
		t.Error("short hit-ratio accepted")
	}
}

func TestServerUploadMergesAndCounts(t *testing.T) {
	srv := smallServer(t)
	before := srv.Table().Get(2, 3)
	vec := xrand.NormalVector(xrand.New(1), model.Dim)
	vecmath.Normalize(vec)
	freq := make([]float64, 10)
	freq[2] = 50
	err := upload(testSession(t, srv, 0), UpdateReport{
		Cells: []UpdateCell{{Class: 2, Layer: 3, Count: 8, Vec: vec}},
		Freq:  freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Table().Get(2, 3)
	if vecmath.Cosine(before, after) > 0.99999 {
		t.Fatal("merge did not move the entry")
	}
	if cos := vecmath.Cosine(after, vec); cos <= vecmath.Cosine(before, vec) {
		t.Fatalf("entry did not move toward update: %v", cos)
	}
	gf := srv.GlobalFreq()
	if gf[2] != 16+50 {
		t.Fatalf("global freq = %v, want init+50", gf[2])
	}
	_, merges := srv.Stats()
	if merges != 1 {
		t.Fatalf("merges = %d", merges)
	}
}

func TestServerUploadValidation(t *testing.T) {
	srv := smallServer(t)
	vec := make([]float32, model.Dim)
	vec[0] = 1
	freq := make([]float64, 10)
	sess := testSession(t, srv, 0)
	if err := upload(sess, UpdateReport{Freq: make([]float64, 3)}); err == nil {
		t.Error("short freq accepted")
	}
	if err := upload(sess, UpdateReport{
		Cells: []UpdateCell{{Class: 99, Layer: 0, Count: 1, Vec: vec}}, Freq: freq,
	}); err == nil {
		t.Error("out-of-range class accepted")
	}
	if err := upload(sess, UpdateReport{
		Cells: []UpdateCell{{Class: 0, Layer: 0, Count: 0, Vec: vec}}, Freq: freq,
	}); err == nil {
		t.Error("zero count accepted")
	}
	badFreq := make([]float64, 10)
	badFreq[0] = -1
	if err := upload(sess, UpdateReport{Freq: badFreq}); err == nil {
		t.Error("negative frequency accepted")
	}

	// A report whose later cell is bad is refused whole: the valid cell
	// before it must not merge, and its frequencies must not reach Φ.
	good := xrand.NormalVector(xrand.New(11), model.Dim)
	vecmath.Normalize(good)
	ones := make([]float64, 10)
	for i := range ones {
		ones[i] = 1
	}
	for _, bad := range []struct {
		name string
		cell UpdateCell
	}{
		{"class", UpdateCell{Class: 99, Layer: 0, Count: 1, Vec: vec}},
		{"layer", UpdateCell{Class: 1, Layer: 99, Count: 1, Vec: vec}},
		{"count", UpdateCell{Class: 1, Layer: 0, Count: 0, Vec: vec}},
		{"dim", UpdateCell{Class: 1, Layer: 0, Count: 1, Vec: vec[:3]}},
	} {
		before := srv.Table().Get(1, 1)
		_, mergesBefore := srv.Stats()
		freqBefore := srv.GlobalFreq()
		if err := upload(sess, UpdateReport{
			Cells: []UpdateCell{{Class: 1, Layer: 1, Count: 1, Vec: good}, bad.cell}, Freq: ones,
		}); err == nil {
			t.Fatalf("report with a bad %s accepted", bad.name)
		}
		if _, merges := srv.Stats(); merges != mergesBefore {
			t.Errorf("bad %s: merges %d -> %d after a refused report", bad.name, mergesBefore, merges)
		}
		if !slices.Equal(srv.Table().Get(1, 1), before) {
			t.Errorf("bad %s: cell (1,1) changed by a refused report", bad.name)
		}
		if !slices.Equal(srv.GlobalFreq(), freqBefore) {
			t.Errorf("bad %s: Φ changed by a refused report", bad.name)
		}
	}
}

// tableVersions returns the write version of every populated table cell.
func tableVersions(srv *Server) map[CellRef]uint64 {
	vers := map[CellRef]uint64{}
	for _, c := range srv.AppendCells(nil) {
		vers[CellRef{Site: c.Layer, Class: c.Class}] = c.Ver
	}
	return vers
}

// TestServerUploadRefusesNonFinite: a report with a NaN or infinite
// frequency, or with a vector at cell 2 whose norm is not finite and
// positive, is refused whole — cells 0 and 1 do not merge, no table version
// moves and Φ is unchanged — and the session still accepts a good report.
func TestServerUploadRefusesNonFinite(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	for _, bad := range nonFiniteReports(srv.space.DS.NumClasses) {
		vers, freq := tableVersions(srv), srv.GlobalFreq()
		if err := upload(sess, bad.report); err == nil {
			t.Fatalf("%s: report accepted", bad.name)
		}
		if !maps.Equal(tableVersions(srv), vers) {
			t.Errorf("%s: table versions moved after a refused report", bad.name)
		}
		if got := srv.GlobalFreq(); !slices.Equal(got, freq) {
			t.Errorf("%s: Φ %v after a refused report, was %v", bad.name, got, freq)
		}
	}
	good := nonFiniteReports(srv.space.DS.NumClasses)[0].report
	good.Freq[2] = 1
	if err := upload(sess, good); err != nil {
		t.Fatalf("a good report after refused ones: %v", err)
	}
	if _, merges := srv.Stats(); merges != len(good.Cells) {
		t.Fatalf("%d merges, want %d", merges, len(good.Cells))
	}
}

// nonFiniteReports lists reports a server must refuse whole: two good cells
// then a bad third one, or a non-finite frequency.
func nonFiniteReports(classes int) []struct {
	name   string
	report UpdateReport
} {
	r := xrand.New(5)
	unit := func() []float32 {
		v := xrand.NormalVector(r, model.Dim)
		vecmath.Normalize(v)
		return v
	}
	report := func(vec []float32, freqClass int, f float64) UpdateReport {
		freq := make([]float64, classes)
		freq[freqClass] = f
		return UpdateReport{Freq: freq, Cells: []UpdateCell{
			{Class: 1, Layer: 1, Count: 1, Vec: unit()},
			{Class: 2, Layer: 3, Count: 2, Vec: unit()},
			{Class: 3, Layer: 2, Count: 1, Vec: vec},
		}}
	}
	withNaN, withInf, huge := unit(), unit(), unit()
	withNaN[7] = float32(math.NaN())
	withInf[9] = float32(math.Inf(-1))
	huge[0], huge[1] = math.MaxFloat32, math.MaxFloat32
	return []struct {
		name   string
		report UpdateReport
	}{
		{"NaN frequency", report(unit(), 2, math.NaN())},
		{"+Inf frequency", report(unit(), 3, math.Inf(1))},
		{"NaN component", report(withNaN, 0, 1)},
		{"-Inf component", report(withInf, 0, 1)},
		{"overflowing norm", report(huge, 0, 1)},
		{"zero vector", report(make([]float32, model.Dim), 0, 1)},
	}
}

func TestServerDisableGlobalUpdates(t *testing.T) {
	srv := NewServer(smallSpace(), ServerConfig{
		Theta: 0.035, Seed: 3, ProfileSamples: 100, InitSamplesPerClass: 16,
		DisableGlobalUpdates: true,
	})
	before := srv.Table().Get(1, 1)
	vec := xrand.NormalVector(xrand.New(9), model.Dim)
	vecmath.Normalize(vec)
	err := upload(testSession(t, srv, 0), UpdateReport{
		Cells: []UpdateCell{{Class: 1, Layer: 1, Count: 5, Vec: vec}},
		Freq:  make([]float64, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Table().Get(1, 1)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("table changed despite DisableGlobalUpdates")
		}
	}
}

func TestServerSupportCapBoundsAdaptation(t *testing.T) {
	srv := NewServer(smallSpace(), ServerConfig{
		Theta: 0.035, Seed: 3, ProfileSamples: 100, InitSamplesPerClass: 16, SupportCap: 20,
	})
	vec := xrand.NormalVector(xrand.New(5), model.Dim)
	vecmath.Normalize(vec)
	freq := make([]float64, 10)
	sess := testSession(t, srv, 0)
	// Many merges: with a capped support, later merges keep a fixed
	// adaptation rate, so the entry converges near the update vector.
	for i := 0; i < 60; i++ {
		if err := upload(sess, UpdateReport{
			Cells: []UpdateCell{{Class: 4, Layer: 2, Count: 5, Vec: vec}},
			Freq:  freq,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if cos := vecmath.Cosine(srv.Table().Get(4, 2), vec); cos < 0.95 {
		t.Fatalf("capped support should track updates: cos %v", cos)
	}
}

func TestServerAllocationUsesClientHitRatio(t *testing.T) {
	srv := smallServer(t)
	// A client reporting all hit mass on layer 9 should get layer 9.
	hr := make([]float64, 13)
	for j := 9; j < 13; j++ {
		hr[j] = 0.9
	}
	alloc, err := allocate(t, testSession(t, srv, 0), StatusReport{
		Tau: make([]int, 10), HitRatio: hr, Budget: 10, RoundFrames: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Layers) == 0 || alloc.Layers[0].Site != 9 {
		t.Fatalf("allocation ignored client hit profile: %+v", alloc.Layers)
	}
}

// TestNewServerFromSharedInit pins the construction-sharing contract:
// servers built from one shared ServerInit must be bitwise identical to
// independently constructed ones (same table entries, same profile), and
// a mismatched configuration must be rejected loudly.
func TestNewServerFromSharedInit(t *testing.T) {
	space := smallSpace()
	cfg := ServerConfig{Theta: 0.035, Seed: 7, ProfileSamples: 200, InitSamplesPerClass: 16}
	init := BuildServerInit(space, cfg)
	a := NewServerFrom(space, cfg, init)
	b := NewServerFrom(space, cfg, init)
	c := NewServer(space, cfg)

	pa, pb, pc := a.Profile(), b.Profile(), c.Profile()
	for j := range pa {
		if pa[j] != pb[j] || pa[j] != pc[j] {
			t.Fatalf("profile layer %d diverges: shared %v/%v vs independent %v", j, pa[j], pb[j], pc[j])
		}
	}
	ta, tc := a.Table(), c.Table()
	for cl := 0; cl < ta.Classes(); cl++ {
		for j := 0; j < ta.Layers(); j++ {
			va, vc := ta.Get(cl, j), tc.Get(cl, j)
			if (va == nil) != (vc == nil) {
				t.Fatalf("cell (%d,%d) population diverges", cl, j)
			}
			for d := range va {
				if va[d] != vc[d] {
					t.Fatalf("cell (%d,%d)[%d]: shared %v != independent %v", cl, j, d, va[d], vc[d])
				}
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewServerFrom accepted an init built for a different seed")
		}
	}()
	NewServerFrom(space, ServerConfig{Theta: 0.02, Seed: 8}, init)
}

// TestWireDeltaStagingOnApply checks the view's staging contract, the same
// for in-process and wire deltas: a delta's cells are copied into view-owned
// storage and staged by Apply, a changed cell is overwritten where it lies,
// and an evicted cell's buffer serves the cell the same delta adds.
func TestWireDeltaStagingOnApply(t *testing.T) {
	vec := []float32{0.6, 0.8}
	view := NewAllocView()
	if err := view.Apply(Delta{Version: 1, Full: true, Sites: []int{2},
		Cells: []DeltaCell{{Site: 2, Class: 1, Vec: vec}}}); err != nil {
		t.Fatal(err)
	}
	layers := view.Layers()
	if len(layers) != 1 || len(layers[0].Entries) != 1 {
		t.Fatalf("unexpected view shape: %+v", layers)
	}
	entry := layers[0].Entries[0]
	if layers[0].Wide != nil {
		t.Fatal("the view keeps a float64 mirror: probes read the float32 entries")
	}
	if &entry[0] == &vec[0] {
		t.Fatal("wire-path apply must copy the decoder-owned vector")
	}
	if got, want := layers[0].Norm2[0], vecmath.SquaredNorm(vec); got != want {
		t.Fatalf("staged norm %v != %v", got, want)
	}
	vec[0] = 99 // decoder reuses its arena; the view must be unaffected
	if entry[0] != 0.6 {
		t.Fatal("view cell aliases the decoder buffer")
	}

	// The cell changes: same buffers, new contents, staging redone.
	if err := view.Apply(Delta{Version: 2, BaseVersion: 1, Sites: []int{2},
		Cells: []DeltaCell{{Site: 2, Class: 1, Vec: []float32{0.8, 0.6}}}}); err != nil {
		t.Fatal(err)
	}
	layers = view.Layers()
	if &layers[0].Entries[0][0] != &entry[0] {
		t.Fatal("a changed wire cell must be overwritten in the view's own buffer")
	}
	if entry[0] != 0.8 || entry[1] != 0.6 || layers[0].Norm2[0] != vecmath.SquaredNorm(entry) {
		t.Fatalf("overwritten cell holds %v / %v", entry, layers[0].Norm2[0])
	}

	// The cell is evicted and another added by one delta: the buffers move.
	if err := view.Apply(Delta{Version: 3, BaseVersion: 2, Sites: []int{2},
		Cells: []DeltaCell{{Site: 2, Class: 0, Vec: []float32{0, 1}}},
		Evict: []CellRef{{Site: 2, Class: 1}}}); err != nil {
		t.Fatal(err)
	}
	layers = view.Layers()
	if view.NumCells() != 1 || layers[0].Classes[0] != 0 {
		t.Fatalf("view after evict + add: %+v", layers)
	}
	if &layers[0].Entries[0][0] != &entry[0] || layers[0].Norm2[0] != 1 {
		t.Fatal("the evicted cell's buffer must serve the cell the same delta adds, staged anew")
	}
	if len(view.spare) != 0 {
		t.Fatalf("%d spare buffers kept past Apply", len(view.spare))
	}
}
