package experiment

import (
	"testing"
)

// TestFigureIdenticalAcrossWorkerCounts proves the arm-level engine
// yields the same figure — same arm order, same per-round records, same
// aggregate counters — for 1, 2, and 8 workers at a fixed seed.
func TestFigureIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *FigureResult {
		sc := TinyScale()
		sc.Workers = workers
		fig, err := runEntry("3", sc)
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if len(got.Arms) != len(ref.Arms) {
			t.Fatalf("workers=%d: %d arms, want %d", w, len(got.Arms), len(ref.Arms))
		}
		for i, arm := range got.Arms {
			want := ref.Arms[i]
			if arm.Label != want.Label {
				t.Fatalf("workers=%d: arm %d label %q, want %q", w, i, arm.Label, want.Label)
			}
			if arm.MessagesSent != want.MessagesSent || arm.BytesSent != want.BytesSent {
				t.Fatalf("workers=%d arm %q: messages/bytes %d/%d, want %d/%d",
					w, arm.Label, arm.MessagesSent, arm.BytesSent, want.MessagesSent, want.BytesSent)
			}
			if len(arm.Series.Records) != len(want.Series.Records) {
				t.Fatalf("workers=%d arm %q: %d records, want %d",
					w, arm.Label, len(arm.Series.Records), len(want.Series.Records))
			}
			for j, r := range arm.Series.Records {
				if r != want.Series.Records[j] {
					t.Fatalf("workers=%d arm %q record %d = %+v, want %+v",
						w, arm.Label, j, r, want.Series.Records[j])
				}
			}
		}
	}
}

// TestReplicateIdenticalAcrossWorkerCounts checks that the replication
// harness — repeats fanned out in parallel, bootstrap applied to the
// in-order sample streams — reports identical intervals for any worker
// count.
func TestReplicateIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *ReplicatedResult {
		sc := TinyScale()
		sc.Workers = workers
		rep, err := Replicate(entryRunner("8"), sc, 3, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ref := run(1)
	for _, w := range []int{4} {
		got := run(w)
		if len(got.Arms) != len(ref.Arms) {
			t.Fatalf("workers=%d: %d arms, want %d", w, len(got.Arms), len(ref.Arms))
		}
		for i, arm := range got.Arms {
			if arm != ref.Arms[i] {
				t.Fatalf("workers=%d: arm %d = %+v, want %+v", w, i, arm, ref.Arms[i])
			}
		}
	}
}

// TestInnerWorkersCeilDivision pins the budget split: the division
// rounds up so straggler arms keep most of the budget once short arms
// drain, and a budget smaller than the task count still hands every
// task one worker.
func TestInnerWorkersCeilDivision(t *testing.T) {
	cases := []struct {
		budget, n, want int
	}{
		{8, 3, 3}, // ceil(8/3), not floor
		{8, 2, 4}, // even split unchanged
		{4, 4, 1}, // exact cover
		{2, 5, 1}, // more tasks than workers: one each
		{1, 3, 1}, // serial budget stays serial
		{6, 0, 6}, // degenerate task count clamps to 1
		{6, 1, 6}, // single task gets the whole budget
		{3, 2, 2}, // ceil(3/2)
	}
	for _, c := range cases {
		if got := innerWorkers(c.budget, c.n); got != c.want {
			t.Errorf("innerWorkers(%d, %d) = %d, want %d", c.budget, c.n, got, c.want)
		}
	}
}
