package experiment

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"gossipmia/pkg/dlsim/spec"
)

// runEntry runs a spec entry of the catalog by name — the one way in
// that the CLI, the SDK and these tests share.
func runEntry(name string, sc Scale) (*FigureResult, error) {
	return runOverlaid(name, sc, nil, 0)
}

// runOverlaid is runEntry with a run-wide network filled in.
func runOverlaid(name string, sc Scale, net *spec.Net, churnFraction float64) (*FigureResult, error) {
	e, ok := CatalogEntryByName(name)
	if !ok {
		return nil, fmt.Errorf("no catalog entry %q", name)
	}
	e, err := e.Overlaid(net, churnFraction)
	if err != nil {
		return nil, err
	}
	return e.Run(context.Background(), sc)
}

// entryRunner is runEntry in the shape Replicate takes.
func entryRunner(name string) func(Scale) (*FigureResult, error) {
	return func(sc Scale) (*FigureResult, error) { return runEntry(name, sc) }
}

// TestCatalogRunsEveryEntry is the index's contract: everything `dlsim
// list` prints runs at the tiny scale — as a spec, or by rendering its
// text — and prints the same bytes for 1 and 4 workers.
func TestCatalogRunsEveryEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every catalog entry twice")
	}
	render := func(e CatalogEntry, workers int) string {
		sc := TinyScale()
		sc.Workers = workers
		if !e.Runnable() {
			out, err := e.Render(sc)
			if err != nil {
				t.Fatalf("%s with %d workers: %v", e.Name, workers, err)
			}
			return out
		}
		fig, err := e.Run(t.Context(), sc)
		if err != nil {
			t.Fatalf("%s with %d workers: %v", e.Name, workers, err)
		}
		if len(fig.Arms) == 0 {
			t.Fatalf("%s ran no arms", e.Name)
		}
		return figureDump(fig)
	}
	catalog := Catalog()
	if len(catalog) != 19 {
		t.Fatalf("catalog has %d entries, want 19", len(catalog))
	}
	for _, e := range catalog {
		serial := render(e, 1)
		if serial == "" {
			t.Fatalf("%s printed nothing", e.Name)
		}
		if got := render(e, 4); got != serial {
			t.Fatalf("%s: 4 workers diverged from the serial run\n--- 4 ---\n%s\n--- 1 ---\n%s", e.Name, got, serial)
		}
	}
}

// TestOverfitTiny: four optimiser variants over the same checkpoints,
// epochs strictly increasing within each, every reported rate a rate.
func TestOverfitTiny(t *testing.T) {
	res, err := RunOverfit(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]int{}
	var order []string
	for _, r := range res.Rows {
		if last[r.Variant] == 0 {
			order = append(order, r.Variant)
		}
		if r.Epoch <= last[r.Variant] {
			t.Fatalf("%s: epoch %d follows %d", r.Variant, r.Epoch, last[r.Variant])
		}
		last[r.Variant] = r.Epoch
		for _, x := range []float64{r.TrainAcc, r.TestAcc, r.MIAAcc, r.TPRAt1FPR} {
			if x < 0 || x > 1 {
				t.Fatalf("%s epoch %d: rate %v out of [0,1]: %+v", r.Variant, r.Epoch, x, r)
			}
		}
	}
	if want := []string{"plain-sgd", "lr-decay", "clip-only", "dp-sgd"}; !slices.Equal(order, want) {
		t.Fatalf("variants = %v, want %v", order, want)
	}
	for name, epoch := range last {
		if want := 5 * TinyScale().Rounds; epoch != want {
			t.Fatalf("%s ends at epoch %d, want %d", name, epoch, want)
		}
	}
	bad := TinyScale()
	bad.Rounds = 0
	if _, err := RunOverfit(bad); !errors.Is(err, ErrScale) {
		t.Fatalf("bad scale error = %v", err)
	}
}
