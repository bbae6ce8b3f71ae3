package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The wire pass is a sanity check against the real binary, not a timed
// workload: sub-millisecond ping-pong over loopback on a shared host
// measures the hypervisor's wake-ups (1,254 to 3,734 qps between 2.5 s
// stretches of one run, see README), so its numbers are diagnostics. What
// it does assert is that xmatchd serves, over a socket, the bytes the
// in-process handler serves.

// wireSpec is the dataset the wire pass serves: the t3 workloads'.
var wireSpec = workloadSpec{
	name: "wire", shards: 1, docNodes: 3473, twigs: allTwigs,
	modes: []string{"basic", "compact", "topk"}, chunkOps: 10,
}

const wireReps = 10 // passes over the 30-request cycle

// errWireUnavailable marks failures of the environment (no toolchain, no
// loopback), which skip the pass, as opposed to wrong bytes, which fail
// the run.
var errWireUnavailable = errors.New("wire pass unavailable")

// wirePass builds and starts xmatchd, replays the Table III cycle in all
// three modes over one keep-alive connection, and compares every body with
// the in-process handler's.
func (lr *layerRun) wirePass() error {
	var p50, overhead time.Duration
	err := fmt.Errorf("%w: not run in the smoke configuration", errWireUnavailable)
	if !lr.cfg.smoke {
		p50, overhead, err = lr.wire()
	}
	if errors.Is(err, errWireUnavailable) {
		fmt.Fprintln(os.Stderr, "bench: warning:", err)
		lr.diag["wire_skipped"] = 1
		p50, overhead, err = 0, 0, nil
	}
	if err != nil {
		return err
	}
	lr.set("wire.query_p50_ms", "ms", ms(p50))
	lr.set("wire.overhead_us", "us", us(overhead))
	return nil
}

func (lr *layerRun) wire() (p50, overhead time.Duration, err error) {
	reqs, err := cycleRequests(wireSpec)
	if err != nil {
		return 0, 0, err
	}
	// In-process side: the same dataset behind the handler.
	in, err := build(wireSpec, lr.cfg.seed, "", lr.cnt)
	if err != nil {
		return 0, 0, err
	}
	defer in.close()
	want := make([]digest, len(reqs))
	var local []time.Duration
	for pass := 0; pass <= wireReps; pass++ {
		for i, r := range reqs {
			d := in.serve(in.queryReq, r.body)
			if !in.check(nil) {
				return 0, 0, fmt.Errorf("wire pass: in-process %s/%s answered %d", r.twig, r.mode, in.w.code)
			}
			want[i] = in.w.d
			if pass > 0 { // pass 0 warms the caches
				local = append(local, d)
			}
		}
	}

	bin := filepath.Join(outDir(), "bin", "xmatchd")
	compile := exec.Command("go", "build", "-o", bin, "./cmd/xmatchd")
	if out, err := compile.CombinedOutput(); err != nil {
		return 0, 0, fmt.Errorf("%w: go build ./cmd/xmatchd: %v\n%s", errWireUnavailable, err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", errWireUnavailable, err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	daemon := exec.CommandContext(ctx, bin, "-addr", addr, "-datasets", datasetName,
		"-m", strconv.Itoa(numMappings), "-doc", strconv.Itoa(wireSpec.docNodes),
		"-seed", strconv.FormatInt(docSeed(lr.cfg.seed), 10), "-log-level", "error")
	daemon.Cancel = func() error { return daemon.Process.Signal(syscall.SIGTERM) }
	daemon.WaitDelay = 5 * time.Second // then it is killed
	if err := daemon.Start(); err != nil {
		return 0, 0, fmt.Errorf("%w: starting xmatchd: %v", errWireUnavailable, err)
	}
	// Stop the daemon and wait until it has ended, whatever happens below.
	defer func() {
		cancel()
		_ = daemon.Wait() // the exit status of a signalled daemon is not news
	}()

	conn, err := dialReady(addr, 10*time.Second)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", errWireUnavailable, err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var remote []time.Duration
	for pass := 0; pass <= wireReps; pass++ {
		for i, r := range reqs {
			start := time.Now()
			got, code, err := roundTrip(conn, br, "/v1/query", r.body)
			took := time.Since(start)
			if err != nil {
				return 0, 0, fmt.Errorf("wire pass: %s/%s: %w", r.twig, r.mode, err)
			}
			lr.cnt.attempted++
			if code != http.StatusOK || got != want[i] {
				lr.cnt.failed++
			}
			if pass > 0 {
				remote = append(remote, took)
			}
		}
	}
	p50 = medianDuration(remote)
	return p50, p50 - medianDuration(local), nil
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[(len(s)-1)/2]
}

// dialReady connects once the daemon answers /readyz with 200.
func dialReady(addr string, within time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(within)
	var last error
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			br := bufio.NewReader(conn)
			if _, werr := fmt.Fprintf(conn, "GET /readyz HTTP/1.1\r\nHost: bench\r\n\r\n"); werr == nil {
				if resp, rerr := http.ReadResponse(br, nil); rerr == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						return conn, nil
					}
					last = fmt.Errorf("/readyz answered %d", resp.StatusCode)
				} else {
					last = rerr
				}
			} else {
				last = werr
			}
			conn.Close()
		} else {
			last = err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("xmatchd at %s not ready within %v: %v", addr, within, last)
}

// roundTrip posts one body on the raw connection and digests the answer.
func roundTrip(conn net.Conn, br *bufio.Reader, path string, body []byte) (digest, int, error) {
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body); err != nil {
		return digest{}, 0, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return digest{}, 0, err
	}
	defer resp.Body.Close()
	var w countingWriter
	if _, err := io.Copy(&w, resp.Body); err != nil {
		return digest{}, 0, err
	}
	return w.d, resp.StatusCode, nil
}
