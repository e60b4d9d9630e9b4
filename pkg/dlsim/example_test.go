package dlsim_test

import (
	"context"
	"fmt"
	"log"

	"gossipmia/pkg/dlsim"
)

// One SAMO vs Base Gossip comparison — the paper's RQ1 on one corpus —
// as a declarative spec run in-process at the smallest scale. The same
// spec, written as JSON, is what `dlsim run -spec` and POST /v1/jobs
// take; the catalog entries (`dlsim list`) are specs built the same
// way, and Runner.RunFigure runs one by name.
func Example() {
	runner, err := dlsim.NewRunner(dlsim.WithScale("tiny"), dlsim.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(context.Background(), &dlsim.Spec{
		Name: "samo vs base",
		Sweep: &dlsim.Sweep{
			Base: dlsim.Arm{Label: "fashionmnist/k=3", Corpus: "fashionmnist", ViewSize: 3},
			Axes: []dlsim.Axis{{Field: "protocol", Values: []any{"base", "samo"}}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// res.Table() prints accuracy and MIA vulnerability per arm; the
	// per-round records carry the series behind it.
	for _, arm := range res.Arms {
		fmt.Printf("%s: %d evaluated rounds\n", arm.Label, len(arm.Records))
	}
	// Output:
	// fashionmnist/k=3/protocol=base: 1 evaluated rounds
	// fashionmnist/k=3/protocol=samo: 1 evaluated rounds
}
