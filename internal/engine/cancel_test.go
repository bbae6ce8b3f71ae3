package engine_test

// Cancellation tests: context views (View) must stop promptly once their
// context ends, must release every admission slot they reserved (the
// cancel-storm tests assert Busy() == 0 afterwards under -race), and
// must change nothing when the context stays live — the differential
// check pins canceled==never-canceled output equality.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/oracle"
)

func TestViewNoDeadlineIsIdentity(t *testing.T) {
	e := engine.New(engine.Options{Workers: 4})
	if got := e.View(0, context.Background()); got != *e {
		t.Fatal("View(0, Background) is not the engine")
	}
	if got := e.View(0, nil); got != *e { //nolint:staticcheck // nil ctx tolerance is part of the contract
		t.Fatal("View(0, nil) is not the engine")
	}
}

func TestViewLiveIsTransparent(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	set := randomSubSet(t, fix.base, newRng(3))
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range dataset.Queries() {
		q, err := core.PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		want := o.Results(set, spec.Text, 0, fix.doc)
		for _, w := range []int{1, 4} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			v := engine.New(engine.Options{Workers: w}).View(0, ctx)
			e := &v
			assertSameResults(t, fmt.Sprintf("%s workers=%d", spec.ID, w), want, e.EvaluateAcross(q, set, one(fix.doc), bt))
			assertSameResults(t, fmt.Sprintf("%s basic workers=%d", spec.ID, w), want, e.EvaluateBasicAcross(q, set, one(fix.doc)))
			cancel()
		}
	}
}

func TestPreCanceledEvaluatesNothing(t *testing.T) {
	fix := newDiffFixture(t)
	set := randomSubSet(t, fix.base, newRng(5))
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := engine.New(engine.Options{Workers: 4}).View(0, ctx)
	e := &v
	// Evaluation on a dead context returns promptly; the (partial) output
	// is unspecified and discarded by callers, so only termination and
	// slot accounting are asserted here.
	spec := dataset.Queries()[0]
	q, err := core.PrepareQuery(spec.Text, set)
	if err != nil {
		t.Fatal(err)
	}
	_ = e.EvaluateAcross(q, set, one(fix.doc), bt)
	_ = e.EvaluateBasicAcross(q, set, one(fix.doc))
	resps := e.EvaluateBatchAcross(set, one(fix.doc), bt, []engine.Request{{Pattern: spec.Text}})
	if len(resps) != 1 || !errors.Is(resps[0].Err, engine.ErrCanceled) {
		t.Fatalf("batch on dead context: want ErrCanceled, got %+v", resps)
	}
	if busy := e.Busy(); busy != 0 {
		t.Fatalf("busy slots after canceled evaluation: %d", busy)
	}
}

// TestCancelStormReleasesSlots is the admission-slot leak check from the
// acceptance criteria: a storm of concurrent evaluations on Sub views is
// canceled mid-flight, and once every call returns the engine's pool must
// be empty — a canceled request frees every slot it took.
func TestCancelStormReleasesSlots(t *testing.T) {
	fix := newDiffFixture(t)
	set := randomSubSet(t, fix.base, newRng(7))
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := dataset.Queries()
	root := engine.New(engine.Options{Workers: 8})

	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := root.View(2+g%3, ctx)
				e := &v
				for i := 0; i < 8; i++ {
					spec := specs[(g+i)%len(specs)]
					q, err := e.Prepare(spec.Text, set)
					if err != nil {
						t.Error(err)
						return
					}
					switch i % 3 {
					case 0:
						_ = e.EvaluateAcross(q, set, one(fix.doc), bt)
					case 1:
						_ = e.EvaluateBasicAcross(q, set, one(fix.doc))
					default:
						_ = e.EvaluateTopKAcross(q, set, one(fix.doc), bt, 5)
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		cancel()
		wg.Wait()
		if busy := root.Busy(); busy != 0 {
			t.Fatalf("round %d: %d slots still reserved after cancel storm", round, busy)
		}
	}
}

// TestCancelStormAcrossReleasesSlots repeats the storm over a sharded
// collection through the scatter-gather evaluators.
func TestCancelStormAcrossReleasesSlots(t *testing.T) {
	fix := newCollFixture(t, 4, 4000)
	set := randomSubSet(t, fix.base, newRng(9))
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := dataset.Queries()
	root := engine.New(engine.Options{Workers: 8})
	sh := engine.Shards{Docs: fix.members}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := root.View(4, ctx)
			e := &v
			for i := 0; i < 6; i++ {
				spec := specs[(g+i)%len(specs)]
				q, err := e.Prepare(spec.Text, set)
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 0:
					_ = e.EvaluateAcross(q, set, sh, bt)
				case 1:
					_ = e.EvaluateBasicAcross(q, set, sh)
				default:
					_ = e.EvaluateTopKAcross(q, set, sh, bt, 5)
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	wg.Wait()
	if busy := root.Busy(); busy != 0 {
		t.Fatalf("%d slots still reserved after across cancel storm", busy)
	}
}

// TestCancelMidEvaluationReportsErrCanceled: a batch member whose view is
// canceled while its plan runs — here by the observer, once the first of
// two shards has reported — answers ErrCanceled, never a partial answer
// without an error.
func TestCancelMidEvaluationReportsErrCanceled(t *testing.T) {
	fix := newCollFixture(t, 2, 2400)
	bt, err := core.Build(fix.base, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v := engine.New(engine.Options{Workers: 1}).View(0, ctx)
	e := &v
	sh := engine.Shards{Docs: fix.members, Observe: func(int, time.Duration) { cancel() }}
	resps := e.EvaluateBatchAcross(fix.base, sh, bt, []engine.Request{{Pattern: dataset.Queries()[0].Text}})
	if !errors.Is(resps[0].Err, engine.ErrCanceled) || resps[0].Results != nil {
		t.Fatalf("canceled mid-evaluation: err %v with %d results, want ErrCanceled and none", resps[0].Err, len(resps[0].Results))
	}
}
