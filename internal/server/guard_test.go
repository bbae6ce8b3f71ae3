package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newBareServer builds just enough Server for middleware unit tests: no
// catalog, no mux — guard and the admission gate don't touch either.
func newBareServer(opts Options) *Server {
	return &Server{opts: opts, logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

func TestGuardRecoversPanic(t *testing.T) {
	s := newBareServer(Options{QueryTimeout: time.Second})
	h := s.guard("test", http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		panic("evaluation exploded")
	})
	w := httptest.NewRecorder()
	w.Header().Set("X-Request-Id", "req-123")
	h(w, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "req-123") {
		t.Fatalf("500 body does not carry the request ID: %s", w.Body.String())
	}
	if got := s.stats.panics.Load(); got != 1 {
		t.Fatalf("panics counter %d, want 1", got)
	}
	if got := s.stats.errors.Load(); got != 1 {
		t.Fatalf("errors counter %d, want 1", got)
	}
}

func TestGuardAppliesDeadline(t *testing.T) {
	s := newBareServer(Options{QueryTimeout: time.Second})
	var hasDeadline bool
	h := s.guard("test", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		_, hasDeadline = r.Context().Deadline()
	})
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/datasets", nil))
	if !hasDeadline {
		t.Fatal("guard did not put a deadline on the request context")
	}

	// Negative disables the server-wide deadline.
	s = newBareServer(Options{QueryTimeout: -1})
	h = s.guard("test", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		_, hasDeadline = r.Context().Deadline()
	})
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/datasets", nil))
	if hasDeadline {
		t.Fatal("disabled deadline still set one")
	}
}

// TestWriteJSONRefusesUnencodable: a value JSON cannot carry (an
// infinite burn rate, say) answers 500 with an error body, never a 200
// whose body the encoder silently dropped.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]any{"burnRate": math.Inf(1)})
	var body errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusInternalServerError || body.Error == "" {
		t.Fatalf("unencodable value: status %d body %q (%v), want a 500 with an error", w.Code, w.Body.String(), err)
	}
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusAccepted, map[string]any{"ok": true})
	if w.Code != http.StatusAccepted || w.Body.String() != "{\"ok\":true}\n" {
		t.Fatalf("plain value: status %d body %q", w.Code, w.Body.String())
	}
}

func TestAdmissionQueueAndShed(t *testing.T) {
	adm := newAdmission(1, 1)
	release, err := adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if adm.inFlight() != 1 {
		t.Fatalf("inFlight %d, want 1", adm.inFlight())
	}

	// Second request queues; once the queue holds it, a third sheds.
	got := make(chan error, 1)
	var release2 func()
	go func() {
		r2, err := adm.acquire(context.Background())
		release2 = r2
		got <- err
	}()
	waitFor(t, func() bool { return adm.queueDepth() == 1 })
	if _, err := adm.acquire(context.Background()); err != errQueueFull {
		t.Fatalf("third acquire: %v, want errQueueFull", err)
	}

	release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	release2()
	if adm.inFlight() != 0 || adm.queueDepth() != 0 {
		t.Fatalf("gate not drained: inFlight=%d queued=%d", adm.inFlight(), adm.queueDepth())
	}
}

func TestAdmissionWaitRespectsContext(t *testing.T) {
	adm := newAdmission(1, 4)
	release, err := adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := adm.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("acquire under expired deadline: %v", err)
	}
	if adm.queueDepth() != 0 {
		t.Fatalf("abandoned waiter left queue depth %d", adm.queueDepth())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
