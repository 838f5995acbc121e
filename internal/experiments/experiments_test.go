package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryCompleteAndUnique(t *testing.T) {
	want := []string{"fig1a", "fig1b", "fig2", "table1", "fig5", "fig6",
		"table2", "table3", "fig7", "fig8", "fig9", "fig10a", "fig10b",
		"federation", "routing", "churn", "drills"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	seen := map[string]bool{}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, e.ID, want[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Shape == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("table2")
	if err != nil || e.ID != "table2" {
		t.Fatalf("ByID = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestAllExperimentsRunAtSmallScale executes every registered experiment at
// minimal scale, checking they produce well-formed tables.
func TestAllExperimentsRunAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(Options{Scale: 0.1, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q", res.ID)
			}
			if len(res.Table.Rows) == 0 {
				t.Fatal("empty table")
			}
			if !strings.Contains(res.Table.String(), res.Table.Columns[0]) {
				t.Fatal("table render broken")
			}
		})
	}
}

// TestFig1bShape asserts the motivation study's qualitative property at
// moderate scale: mid-network hit accuracy exceeds shallow hit accuracy.
func TestFig1bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check")
	}
	res, err := Fig1b(Options{Scale: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	accAt := func(layer string) float64 {
		for _, row := range res.Table.Rows {
			if row[0] == layer {
				v, _ := strconv.ParseFloat(row[2], 64)
				return v
			}
		}
		return -1
	}
	shallow := accAt("0")
	mid := accAt("12")
	if shallow < 0 || mid < 0 {
		t.Skip("layers without hits at this scale")
	}
	if mid <= shallow {
		t.Fatalf("mid-layer hit accuracy %v not above shallow %v", mid, shallow)
	}
}

// TestTable2Ordering asserts the headline comparative property at moderate
// scale: CoCa has lower latency than Edge-Only and SMTM beats Edge-Only.
func TestTable2Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering check")
	}
	res, err := Table2(Options{Scale: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lat := map[string]float64{}
	for _, row := range res.Table.Rows {
		if row[0] == "ResNet152" {
			v, _ := strconv.ParseFloat(row[2], 64)
			lat[row[1]] = v
		}
	}
	if !(lat["CoCa"] < lat["Edge-Only"]) {
		t.Errorf("CoCa %v not below Edge-Only %v", lat["CoCa"], lat["Edge-Only"])
	}
	if !(lat["SMTM"] < lat["Edge-Only"]) {
		t.Errorf("SMTM %v not below Edge-Only %v", lat["SMTM"], lat["Edge-Only"])
	}
	// Only the two orderings against Edge-Only are asserted: CoCa against
	// SMTM is not checked here, and no test checks it at full scale.
}

// TestRoutingShape asserts the routing registry Shape's three clauses on
// seeds 1–3 at -scale 0.4, the smallest scale at which all three hold
// (at 0.3 the run has three rounds and seed 3's brown-out is still
// recovering when it ends): random and hash placement within 2 points of
// fleet hit ratio; the brown-out migrates clients off the tripped server
// and the fleet hit ratio gets back to its pre-trip level; and the
// force-migrated session's allocations match the uninterrupted run bitwise.
func TestRoutingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := RoutingExp(Options{Scale: 0.4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		col := map[string]int{}
		for i, c := range res.Table.Columns {
			col[c] = i
		}
		hit := map[string]float64{}
		migrations := -1
		for _, row := range res.Table.Rows {
			hit[row[0]], _ = strconv.ParseFloat(row[col["Hit(%)"]], 64)
			if strings.HasPrefix(row[0], "brown-out") {
				migrations, _ = strconv.Atoi(row[col["Migrations"]])
			}
		}
		random, hash := hit["random placement"], hit["consistent-hash"]
		if random == 0 || hash == 0 || math.Abs(random-hash) > 2 {
			t.Errorf("seed %d: random %.2f%% and hash %.2f%% fleet hit ratio not within 2 points", seed, random, hash)
		}
		if migrations <= 0 {
			t.Errorf("seed %d: brown-out migrated %d clients", seed, migrations)
		}
		notes := strings.Join(res.Table.Notes, "\n")
		if !strings.Contains(notes, "recovers to the pre-trip level") {
			t.Errorf("seed %d: fleet hit ratio did not recover after the trip:\n%s", seed, notes)
		}
		if !strings.Contains(notes, "bitwise-identical to an uninterrupted run") {
			t.Errorf("seed %d: migrated allocations diverged:\n%s", seed, notes)
		}
	}
}
