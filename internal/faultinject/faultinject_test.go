package faultinject

import (
	"context"
	"testing"
	"time"
)

// TestParse decodes the CLI spec grammar and rejects malformed input.
func TestParse(t *testing.T) {
	cfg, err := Parse("arm-panic=5,panics=1,event-delay=10ms,upload-corrupt=1,corruptions=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		ArmPanicEvery: 5, ArmPanicBudget: 1, EventDelay: 10 * time.Millisecond,
		UploadCorruptEvery: 1, UploadCorruptBudget: 2,
	}
	if cfg != want {
		t.Fatalf("Parse = %+v, want %+v", cfg, want)
	}
	if cfg, err := Parse(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec = %+v, %v; want disabled, nil", cfg, err)
	}
	for _, bad := range []string{"arm-panic", "arm-panic=x", "arm-panic=-1", "event-delay=fast", "tornado=5"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestNilInjector: the zero config builds no injector and every method
// on the nil injector is a no-op — the production fast path.
func TestNilInjector(t *testing.T) {
	var i *Injector = New(Config{})
	if i != nil {
		t.Fatal("zero config built an injector")
	}
	i.ArmStart("x")                    // must not panic
	i.EventDelay(context.Background()) // must not block or panic
	if i.UploadCorrupt() {
		t.Fatal("nil UploadCorrupt fired")
	}
	if got := FromContext(With(context.Background(), nil)); got != nil {
		t.Fatalf("nil injector attached: %v", got)
	}
}

// TestUploadCorruptSchedule: the corruption schedule fires every Nth
// upload and stops at its budget.
func TestUploadCorruptSchedule(t *testing.T) {
	i := New(Config{UploadCorruptEvery: 2, UploadCorruptBudget: 2})
	var fired []int
	for n := 1; n <= 10; n++ {
		if i.UploadCorrupt() {
			fired = append(fired, n)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 4 {
		t.Fatalf("corruptions fired at %v, want [2 4] (every 2nd, budget 2)", fired)
	}
}

// TestArmPanicSchedule: the panic schedule panics on the Nth start and
// respects its budget.
func TestArmPanicSchedule(t *testing.T) {
	i := New(Config{ArmPanicEvery: 3, ArmPanicBudget: 1})
	panicked := func(n int) (p bool) {
		defer func() { p = recover() != nil }()
		i.ArmStart("arm")
		return false
	}
	for n := 1; n <= 9; n++ {
		if got, want := panicked(n), n == 3; got != want {
			t.Fatalf("start #%d: panicked = %v, want %v", n, got, want)
		}
	}
}

// TestEventDelayHonorsContext: a cancelled run is not pinned down by
// its own injected latency.
func TestEventDelayHonorsContext(t *testing.T) {
	i := New(Config{EventDelay: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	i.EventDelay(ctx)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("EventDelay ignored cancelled context (%v)", elapsed)
	}
}

// TestContextRoundTrip: the injector rides the context to the engine.
func TestContextRoundTrip(t *testing.T) {
	i := New(Config{ArmPanicEvery: 1})
	if got := FromContext(With(context.Background(), i)); got != i {
		t.Fatalf("FromContext = %v, want %v", got, i)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v", got)
	}
}
