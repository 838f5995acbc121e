package experiments

import (
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

// TestSemanticNoteFollowsTheNumbers: the routing note explains semantic
// placement's concentration effect only when semantic beats both other
// policies, and otherwise names the ones it does not beat.
func TestSemanticNoteFollowsTheNumbers(t *testing.T) {
	const why = "concentrates each server's global table"
	for _, tc := range []struct {
		semantic, hash, random float64
		explains               bool
		beaten                 string
	}{
		{0.86, 0.84, 0.85, true, ""},
		{0.8328, 0.82, 0.8425, false, "does not beat random placement"},
		{0.83, 0.84, 0.82, false, "does not beat hash placement"},
		{0.8367, 0.85, 0.8558, false, "does not beat hash or random placement"},
		{0.85, 0.85, 0.80, false, "does not beat hash placement"},
	} {
		note := semanticNote(tc.semantic, tc.hash, tc.random)
		if strings.Contains(note, why) != tc.explains || !strings.Contains(note, tc.beaten) {
			t.Errorf("semantic %.4f, hash %.4f, random %.4f: note %q", tc.semantic, tc.hash, tc.random, note)
		}
	}
}
