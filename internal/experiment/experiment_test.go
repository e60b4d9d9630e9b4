package experiment

import (
	"errors"
	"strings"
	"testing"

	"gossipmia/internal/data"
)

func TestScaleValidation(t *testing.T) {
	for _, sc := range []Scale{QuickScale(), PaperScale(), TinyScale()} {
		if err := sc.Validate(); err != nil {
			t.Fatalf("preset scale rejected: %v", err)
		}
	}
	bad := QuickScale()
	bad.Nodes = 1
	if err := bad.Validate(); !errors.Is(err, ErrScale) {
		t.Fatalf("bad scale error = %v", err)
	}
	bad = QuickScale()
	bad.SpectralRuns = 0
	if err := bad.Validate(); !errors.Is(err, ErrScale) {
		t.Fatalf("bad spectral scale error = %v", err)
	}
}

func TestScaleNodesForCIFAR100(t *testing.T) {
	sc := PaperScale()
	if sc.nodesFor("cifar100") != 60 {
		t.Fatalf("cifar100 nodes = %d, want 60", sc.nodesFor("cifar100"))
	}
	if sc.nodesFor("cifar10") != 150 {
		t.Fatalf("cifar10 nodes = %d, want 150", sc.nodesFor("cifar10"))
	}
}

func TestTrainingCatalogCoversAllCorpora(t *testing.T) {
	rows := TrainingCatalog()
	if len(rows) != 4 {
		t.Fatalf("catalog has %d rows", len(rows))
	}
	for _, corpus := range data.AllCorpora() {
		cfg, err := TrainingFor(corpus)
		if err != nil {
			t.Fatalf("%s: %v", corpus, err)
		}
		if cfg.LR <= 0 || cfg.LocalEpochs <= 0 {
			t.Fatalf("%s config invalid: %+v", corpus, cfg)
		}
	}
	if _, err := TrainingFor("nope"); err == nil {
		t.Fatal("unknown corpus accepted")
	}
}

func TestCatalogTables(t *testing.T) {
	t1 := DatasetCatalogTable()
	for _, want := range []string{"Table 1", "cifar10", "purchase100", "157859"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := TrainingCatalogTable()
	for _, want := range []string{"Table 2", "ResNet-8", "cifar100", "hidden"} {
		if !strings.Contains(t2, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestRunFigure2Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	fig, err := runEntry("2", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 8 { // 4 corpora x 2 protocols
		t.Fatalf("figure 2 has %d arms, want 8", len(fig.Arms))
	}
	table := fig.Table()
	for _, want := range []string{"Figure 2", "cifar10/base", "purchase100/samo"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	for _, arm := range fig.Arms {
		if len(arm.Series.Records) == 0 {
			t.Fatalf("arm %s has no records", arm.Label)
		}
		if arm.MessagesSent == 0 {
			t.Fatalf("arm %s sent no messages", arm.Label)
		}
	}
}

func TestRunFigure5Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	fig, err := runEntry("5", sc)
	if err != nil {
		t.Fatal(err)
	}
	// k in {2,5} fit in 6 nodes; 10 and 25 skipped -> 4 arms.
	if len(fig.Arms) != 4 {
		t.Fatalf("figure 5 has %d arms, want 4", len(fig.Arms))
	}
	// SAMO message volume must grow with view size.
	var k2static, k5static int
	for _, arm := range fig.Arms {
		switch arm.Label {
		case "cifar10/samo/k=2/static":
			k2static = arm.MessagesSent
		case "cifar10/samo/k=5/static":
			k5static = arm.MessagesSent
		}
	}
	if k5static <= k2static {
		t.Fatalf("k=5 messages %d should exceed k=2 messages %d", k5static, k2static)
	}
}

func TestRunFigure6Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	fig, err := runEntry("6", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 6 { // {iid, 0.5, 0.1} x {static, dynamic}
		t.Fatalf("figure 6 has %d arms, want 6", len(fig.Arms))
	}
}

func TestRunFigure7NotesAndPlots(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	sc.Rounds = 4
	sc.EvalEvery = 1 // enough points for a rank correlation
	fig, err := runEntry("7", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Notes) == 0 {
		t.Fatal("figure 7 should carry spearman notes")
	}
	if !strings.Contains(fig.Table(), "spearman") {
		t.Fatalf("table missing correlation notes:\n%s", fig.Table())
	}
	scatter, err := fig.TradeoffPlot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scatter, "MIA accuracy") {
		t.Fatalf("tradeoff plot missing labels:\n%s", scatter)
	}
}

func TestRunFigure9Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runner")
	}
	sc := TinyScale()
	fig, err := runEntry("9", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Arms) != 10 { // {nodp, 50, 25, 15, 10} x {static, dynamic}
		t.Fatalf("figure 9 has %d arms, want 10", len(fig.Arms))
	}
	for _, arm := range fig.Arms {
		isDP := strings.Contains(arm.Label, "eps=")
		if isDP && arm.RealizedEpsilon <= 0 {
			t.Fatalf("DP arm %s has no realized epsilon", arm.Label)
		}
		if !isDP && arm.RealizedEpsilon != 0 {
			t.Fatalf("non-DP arm %s has epsilon %v", arm.Label, arm.RealizedEpsilon)
		}
	}
}

func TestRunFigure10Tiny(t *testing.T) {
	sc := TinyScale()
	res, err := RunFigure10(sc)
	if err != nil {
		t.Fatal(err)
	}
	// k in {2,5,10} fit in 16 nodes; 25 skipped -> 6 curves.
	if len(res.Curves) != 6 {
		t.Fatalf("figure 10 has %d curves, want 6", len(res.Curves))
	}
	table := res.Table()
	if !strings.Contains(table, "Figure 10") || !strings.Contains(table, "Dyn, 2-reg") {
		t.Fatalf("table missing headers:\n%s", table)
	}
	// The paper's claim: for every k, the dynamic curve ends at a lower
	// (or equal) lambda2 than the static one, and lambda2 decreases with
	// iterations.
	byLabel := map[string]MixingCurve{}
	for _, c := range res.Curves {
		byLabel[c.Label] = c
	}
	for _, k := range []int{2, 5, 10} {
		stat, ok1 := byLabel[armName("Stat", k)]
		dyn, ok2 := byLabel[armName("Dyn", k)]
		if !ok1 || !ok2 {
			t.Fatalf("missing curves for k=%d: %v", k, byLabel)
		}
		last := len(stat.Mean) - 1
		if dyn.Mean[last] > stat.Mean[last]+1e-9 {
			t.Fatalf("k=%d: dynamic final lambda2 %v above static %v",
				k, dyn.Mean[last], stat.Mean[last])
		}
		if stat.Mean[last] > stat.Mean[0]+1e-9 {
			t.Fatalf("k=%d: static lambda2 not decreasing: %v -> %v",
				k, stat.Mean[0], stat.Mean[last])
		}
	}
}

func armName(setting string, k int) string {
	return setting + ", " + itoa(k) + "-reg"
}

func itoa(k int) string {
	switch k {
	case 2:
		return "2"
	case 5:
		return "5"
	case 10:
		return "10"
	case 25:
		return "25"
	}
	return "?"
}

func TestSpectralCheckpoints(t *testing.T) {
	cps := spectralCheckpoints(60)
	if len(cps) == 0 || cps[len(cps)-1] != 60 {
		t.Fatalf("checkpoints %v must end at 60", cps)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("checkpoints not increasing: %v", cps)
		}
	}
	one := spectralCheckpoints(1)
	if len(one) != 1 || one[0] != 1 {
		t.Fatalf("checkpoints(1) = %v", one)
	}
}

func TestRunArmsRejectsBadScale(t *testing.T) {
	bad := TinyScale()
	bad.Rounds = 0
	if _, err := runEntry("2", bad); !errors.Is(err, ErrScale) {
		t.Fatalf("bad scale error = %v", err)
	}
	if _, err := RunFigure10(bad); !errors.Is(err, ErrScale) {
		t.Fatalf("figure 10 bad scale error = %v", err)
	}
}
