package result

import (
	"strings"
	"testing"
)

// TestTableEmptySeriesPrintsZeros pins the one table's empty-series
// row: an arm with no records reports 0 for every maximum (the SDK's
// behaviour; the engine's table used to print -Inf there).
func TestTableEmptySeriesPrintsZeros(t *testing.T) {
	res := &Result{Name: "n", Caption: "c", Arms: []ArmResult{{Label: "empty", MessagesSent: 4}}}
	table := res.Table()
	if strings.Contains(table, "Inf") || strings.Contains(table, "NaN") {
		t.Fatalf("empty series printed a non-finite maximum:\n%s", table)
	}
	row := strings.Split(table, "\n")[2]
	if fields := strings.Fields(row); len(fields) != 9 || fields[1] != "0.000" || fields[5] != "0.000" || fields[6] != "4" {
		t.Fatalf("empty-series row = %q", row)
	}
	if (ArmResult{}).AtMaxTestAcc() != (RoundRecord{}) {
		t.Fatal("AtMaxTestAcc of an empty series is not the zero record")
	}
}
