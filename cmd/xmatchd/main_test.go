package main

// Kill-and-restart crash recovery over the real binary: xmatchd is
// SIGKILLed in the middle of a mutation burst — no graceful shutdown, no
// final fsync beyond the per-batch ones — and restarted on the same edit
// log. Every acknowledged mutation must survive, the replayed epoch must
// be consistent (never past what was sent, never short of what was
// acknowledged), and the reopened log must accept new appends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping binary crash tests in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "xmatchd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startDaemon launches xmatchd serving built-in D1 with a durable edit
// log in dir, and waits until it answers /healthz.
func startDaemon(t *testing.T, bin, addr, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-datasets", "D1", "-m", "8", "-doc", "300", "-seed", "3",
		"-editlog-dir", dir,
		"-log-level", "error",
	)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// daemonEpoch reads dataset D1's epoch from the daemon's /statsz.
func daemonEpoch(t *testing.T, addr string) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Series []obs.ExpositionMetric `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, m := range st.Series {
		if m.Name == "xmatch_delta_epoch" && slices.Contains(m.Labels, obs.Label{Name: "dataset", Value: "D1"}) {
			return uint64(m.Value)
		}
	}
	t.Fatal("statsz has no D1 epoch")
	return 0
}

// TestSLOObjectiveOneRefused: an objective of 1 leaves no error budget,
// so the daemon refuses it at startup instead of serving it.
func TestSLOObjectiveOneRefused(t *testing.T) {
	err := run(config{datasets: "D1", sloObjective: 1, logFormat: "text", logLevel: "error"})
	if err == nil || !strings.Contains(err.Error(), "SLO objective") {
		t.Fatalf("run with -slo-objective 1: %v, want a refusal", err)
	}
}

func TestCrashRecoveryAfterSIGKILL(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()
	addr := freeAddr(t)
	cmd := startDaemon(t, bin, addr, dir)

	// The daemon's built-in D1 is deterministic: regenerate the same
	// document in-process to learn stable edit paths.
	cat, err := server.BuildCatalog(&store.Catalog{Entries: []store.CatalogEntry{
		{Name: "D1", Dataset: "D1", Mappings: 8, DocNodes: 300, DocSeed: 3},
	}}, ".", engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc := cat.Get("D1").Doc()
	var textPaths []string
	for _, p := range doc.Paths() {
		if ns := doc.NodesByPath(p); len(ns) > 0 && ns[0].Text != "" {
			textPaths = append(textPaths, p)
		}
	}
	if len(textPaths) == 0 {
		t.Fatal("fixture has no text leaves")
	}

	mutate := func(i int) (uint64, error) {
		body, _ := json.Marshal(server.MutateRequest{Dataset: "D1", Edits: []delta.Edit{{
			Op:   delta.OpSetText,
			Path: textPaths[i%len(textPaths)],
			Text: fmt.Sprintf("crash-%d-%s", i, strings.Repeat("y", i%7)),
		}}})
		resp, err := http.Post("http://"+addr+"/v1/admin/mutate", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var mr server.MutateResponse
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("mutate %d: status %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			return 0, err
		}
		return mr.Epoch, nil
	}

	// Burst mutations from a background writer and SIGKILL the daemon
	// mid-burst. acked is the highest epoch the daemon acknowledged — the
	// durability floor; sent bounds the ceiling.
	var acked, sent atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			sent.Store(uint64(i + 1))
			epoch, err := mutate(i)
			if err != nil {
				return // the kill landed; in-flight mutation dies with it
			}
			acked.Store(epoch)
		}
	}()
	for acked.Load() < 8 { // let the burst get going before the kill
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	<-done
	ackedN, sentN := acked.Load(), sent.Load()
	if ackedN >= 500 {
		t.Fatal("burst completed before the kill; raise the burst size")
	}
	t.Logf("killed daemon with %d mutations acknowledged, %d sent", ackedN, sentN)

	// Restart on the same edit log: replay must reach at least every
	// acknowledged epoch and at most what was ever sent.
	addr2 := freeAddr(t)
	startDaemon(t, bin, addr2, dir)
	epoch := daemonEpoch(t, addr2)
	if epoch < ackedN {
		t.Fatalf("recovered epoch %d lost acknowledged mutations (acked %d)", epoch, ackedN)
	}
	if epoch > sentN {
		t.Fatalf("recovered epoch %d exceeds the %d mutations ever sent", epoch, sentN)
	}

	// The reopened log must keep working: one more acknowledged mutation
	// advances the epoch by exactly one.
	addr = addr2
	next, err := mutate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if next != epoch+1 {
		t.Fatalf("post-recovery mutation produced epoch %d, want %d", next, epoch+1)
	}
}
