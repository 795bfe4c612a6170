package exact

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// bigHetInstance is far beyond what enumerates in milliseconds: n=12
// stages on m=13 fully heterogeneous processors with replication.
func bigHetInstance(t *testing.T) (*pipeline.Pipeline, *platform.Platform) {
	t.Helper()
	n, m := 12, 13
	w := make([]float64, n)
	delta := make([]float64, n+1)
	for i := range w {
		w[i] = float64(3 + i)
	}
	for i := range delta {
		delta[i] = float64(1 + i%2)
	}
	p, err := pipeline.New(w, delta)
	if err != nil {
		t.Fatal(err)
	}
	speed := make([]float64, m)
	fp := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	b := make([][]float64, m)
	for u := 0; u < m; u++ {
		speed[u] = 1 + float64(u)
		fp[u] = 0.1 + 0.02*float64(u)
		bIn[u] = 2
		bOut[u] = 3
		b[u] = make([]float64, m)
		for v := 0; v < m; v++ {
			if u != v {
				b[u][v] = 1 + 0.1*float64(u)
			}
		}
	}
	pl, err := platform.NewFullyHeterogeneous(speed, fp, b, bIn, bOut)
	if err != nil {
		t.Fatal(err)
	}
	return p, pl
}

func TestCancelReturnsPromptlyWithIncumbent(t *testing.T) {
	p, pl := bigHetInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := MinFPUnderLatency(p, pl, 1e9, Options{MaxEnum: 1 << 62, Ctx: ctx})
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled enumeration took %v, want well under 500ms", elapsed)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err must also wrap context.Canceled: %v", err)
	}
	// 20ms of enumeration has certainly visited complete mappings: the
	// incumbent must be surfaced as best-so-far.
	if res.Mapping == nil {
		t.Error("cancelled search should return its incumbent")
	}
}

func TestPreCancelledContextAbortsBeforeWork(t *testing.T) {
	p, pl := bigHetInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := MinFPUnderLatency(p, pl, 1e9, Options{MaxEnum: 1 << 62, Ctx: ctx})
	if since := time.Since(start); since > 100*time.Millisecond {
		t.Errorf("pre-cancelled enumeration took %v, want < 100ms", since)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestDeadlineExceededWrapsThrough(t *testing.T) {
	p, pl := bigHetInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := MinLatencyUnderFP(p, pl, 1, Options{MaxEnum: 1 << 62, Ctx: ctx})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

func TestUncancelledContextDoesNotPerturbResults(t *testing.T) {
	p, pl := fig5Like(t)
	plain, err := MinFPUnderLatency(p, pl, 25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := MinFPUnderLatency(p, pl, 25, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != withCtx.Metrics || plain.Mapping.String() != withCtx.Mapping.String() {
		t.Errorf("context plumbing changed the result: %+v vs %+v", plain, withCtx)
	}
}

// fig5Like is a small CommHom+FailureHet instance solvable in
// milliseconds.
func fig5Like(t *testing.T) (*pipeline.Pipeline, *platform.Platform) {
	t.Helper()
	p, err := pipeline.New([]float64{1, 100}, []float64{10, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	speeds := []float64{1}
	fps := []float64{0.1}
	for i := 0; i < 7; i++ {
		speeds = append(speeds, 100)
		fps = append(fps, 0.8)
	}
	pl, err := platform.NewCommHomogeneous(speeds, fps, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, pl
}

// TestCanceledReplicationStopsWithinOneSubset: once the abort flag is up
// (the cancel watcher sets it), a replication level pushes no further
// replica subset. The prune hook raises the flag at the first push below
// the root and prunes it, so a level that only re-checked the flag on
// descent would go on pushing its other ~2^12 pruned subsets.
func TestCanceledReplicationStopsWithinOneSubset(t *testing.T) {
	p, pl := bigHetInstance(t)
	ev, err := mapping.NewEvaluator(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Replication: true}, forceWide(Options{Replication: true})} {
		g, err := newEngine(ev, p.NumStages(), pl.NumProcs(), opts)
		if err != nil {
			t.Fatal(err)
		}
		pushes, afterAbort := 0, 0
		prune := func(float64, float64) bool {
			pushes++
			switch {
			case g.abort.Load():
				afterAbort++
			case pushes == 2:
				g.abort.Store(true)
			}
			return pushes > 1
		}
		visit := func(int64, []int, []uint64, mapping.Metrics) bool { return true }
		if err := g.run(1, func(int) (pruneFunc, visitFunc) { return prune, visit }); err != nil {
			t.Fatal(err)
		}
		if pushes < 2 || afterAbort != 0 {
			t.Errorf("wide=%v: %d subsets pushed after the abort (of %d pushes), want 0", g.wide, afterAbort, pushes)
		}
	}
}
