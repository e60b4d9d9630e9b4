package experiment

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"gossipmia/internal/mia"
)

func TestRunAttackComparisonTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	cmp, err := RunAttackComparison(sc, AttackComparisonSpec().Arms[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != len(mia.AllMethods()) {
		t.Fatalf("comparison has %d rows, want %d", len(cmp.Rows), len(mia.AllMethods()))
	}
	for _, row := range cmp.Rows {
		if row.MeanAcc < 0.5-1e-9 || row.MeanAcc > 1 {
			t.Fatalf("%s mean accuracy %v out of range", row.Method, row.MeanAcc)
		}
		if row.MaxAcc < row.MeanAcc-1e-9 {
			t.Fatalf("%s max %v below mean %v", row.Method, row.MaxAcc, row.MeanAcc)
		}
	}
	table := cmp.Table()
	for _, want := range []string{"Attack comparison", "mpe", "entropy", "confidence", "loss"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestAttackComparisonMatchesGolden pins every row of the attack
// comparison at tiny scale at full precision: the table's %.3f would
// hide a moved bit.
func TestAttackComparisonMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	cmp, err := RunAttackComparison(TinyScale(), AttackComparisonSpec().Arms[0])
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range cmp.Rows {
		b.WriteString(r.Method.String())
		for _, v := range []float64{r.MeanAcc, r.MaxAcc, r.MeanTPR1FPR} {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	const path = "testdata/attacks_tiny.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("attack comparison diverged from the golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRunDynamicsComparisonTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	fig, err := runEntry("dynamics", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 3 {
		t.Fatalf("dynamics comparison has %d arms, want 3", len(fig.Arms))
	}
	for _, arm := range fig.Arms {
		if len(arm.Series.Records) == 0 {
			t.Fatalf("arm %s has no records", arm.Label)
		}
	}
	table := fig.Table()
	for _, want := range []string{"static", "peerswap", "cyclon"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	bad := TinyScale()
	bad.Rounds = 0
	if _, err := runEntry("dynamics", bad); !errors.Is(err, ErrScale) {
		t.Fatalf("bad scale error = %v", err)
	}
}

func TestReplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	rep, err := Replicate(entryRunner("8"), sc, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repeats != 2 || len(rep.Arms) != 2 {
		t.Fatalf("replicated result shape: %+v", rep)
	}
	for _, arm := range rep.Arms {
		if !(arm.MaxAcc.Lo <= arm.MaxAcc.Point && arm.MaxAcc.Point <= arm.MaxAcc.Hi) {
			t.Fatalf("disordered CI: %+v", arm)
		}
	}
	table := rep.Table()
	for _, want := range []string{"Figure 8", "2 seeds", "90% bootstrap CI", "static", "dynamic"} {
		if !strings.Contains(table, want) {
			t.Fatalf("replicated table missing %q:\n%s", want, table)
		}
	}
	if _, err := Replicate(entryRunner("8"), sc, 1, 0.9); !errors.Is(err, ErrScale) {
		t.Fatalf("repeats=1 error = %v", err)
	}
	if _, err := Replicate(entryRunner("8"), sc, 2, 2); !errors.Is(err, ErrScale) {
		t.Fatalf("confidence error = %v", err)
	}
}

func TestRunAttackComparisonBadScale(t *testing.T) {
	bad := TinyScale()
	bad.Nodes = 0
	if _, err := RunAttackComparison(bad, AttackComparisonSpec().Arms[0]); !errors.Is(err, ErrScale) {
		t.Fatalf("bad scale error = %v", err)
	}
}

func TestArmBytesAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	fig, err := runEntry("8", sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range fig.Arms {
		if arm.BytesSent <= 0 {
			t.Fatalf("arm %s has no byte accounting", arm.Label)
		}
		// Each message is one model frame; bytes must be a multiple of
		// the per-message frame size implied by messages.
		if arm.BytesSent%int64(arm.MessagesSent) != 0 {
			t.Fatalf("arm %s: %d bytes not divisible by %d messages",
				arm.Label, arm.BytesSent, arm.MessagesSent)
		}
	}
	if !strings.Contains(fig.Table(), "MiB") {
		t.Fatal("table missing MiB column")
	}
}
