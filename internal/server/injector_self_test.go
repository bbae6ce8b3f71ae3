package server_test

import (
	"errors"
	"testing"
	"time"
)

func TestInjectorDeterministic(t *testing.T) {
	run := func() []bool {
		in := newInjector(42)
		in.Set("p", faultConfig{ErrorRate: 0.5})
		out := make([]bool, 50)
		for i := range out {
			out[i] = in.Hit("p") != nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at hit %d", i)
		}
	}
	saw := false
	for _, v := range a {
		if v {
			saw = true
		}
	}
	if !saw {
		t.Fatal("ErrorRate 0.5 injected nothing in 50 hits")
	}
}

func TestInjectorSentinelAndCounts(t *testing.T) {
	in := newInjector(7)
	in.Set("p", faultConfig{ErrorRate: 1})
	err := in.Hit("p")
	if !errors.Is(err, errInjected) {
		t.Fatalf("injected error does not wrap sentinel: %v", err)
	}
	if err := in.Hit("unconfigured"); err != nil {
		t.Fatalf("unconfigured point injected: %v", err)
	}
	c := in.Counts()["p"]
	if c.Hits != 1 || c.Errors != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if in.TotalFaults() != 1 {
		t.Fatalf("total faults: %d", in.TotalFaults())
	}
}

func TestInjectorMaxFaultsConverges(t *testing.T) {
	in := newInjector(3)
	in.Set("p", faultConfig{ErrorRate: 1, TornRate: 1, MaxFaults: 4})
	faults := 0
	for i := 0; i < 100; i++ {
		if err := in.Hit("p"); err != nil {
			faults++
			continue
		}
		if _, torn := in.Torn("p"); torn {
			faults++
		}
	}
	if faults != 4 {
		t.Fatalf("MaxFaults 4 injected %d faults", faults)
	}
	// Past the budget every operation passes — retries converge.
	if err := in.Hit("p"); err != nil {
		t.Fatalf("exhausted point still injecting: %v", err)
	}
}

func TestInjectorTornFraction(t *testing.T) {
	in := newInjector(11)
	in.Set("p", faultConfig{TornRate: 1})
	for i := 0; i < 20; i++ {
		keep, torn := in.Torn("p")
		if !torn {
			t.Fatalf("TornRate 1 did not tear at call %d", i)
		}
		if keep <= 0 || keep >= 1 {
			t.Fatalf("torn fraction out of (0,1): %v", keep)
		}
	}
}

func TestNilInjectorPasses(t *testing.T) {
	var in *injector
	if err := in.Hit("p"); err != nil {
		t.Fatal(err)
	}
	if _, torn := in.Torn("p"); torn {
		t.Fatal("nil injector tore")
	}
	if in.Counts() != nil || in.TotalFaults() != 0 {
		t.Fatal("nil injector counted")
	}
}

func TestInjectorLatency(t *testing.T) {
	in := newInjector(5)
	in.Set("p", faultConfig{LatencyRate: 1, Latency: 5 * time.Millisecond})
	start := time.Now()
	if err := in.Hit("p"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 5*time.Millisecond {
		t.Fatalf("latency not injected: %v", took)
	}
	if c := in.Counts()["p"]; c.Slept != 1 {
		t.Fatalf("slept count: %+v", c)
	}
}
