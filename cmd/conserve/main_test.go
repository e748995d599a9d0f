package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"plurality/internal/service"
)

// TestMain doubles as the child entry point for the crash tests: with
// CONSERVE_CHILD=1 the test binary boots a real conserve server
// (flags from CONSERVE_CHILD_ARGS, bound address announced on stdout)
// and serves until killed or SIGTERMed — the same signal path as
// production main.
func TestMain(m *testing.M) {
	if os.Getenv("CONSERVE_CHILD") == "1" {
		onListen = func(a net.Addr) { fmt.Printf("conserve-child-listening %s\n", a) }
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := run(ctx, strings.Fields(os.Getenv("CONSERVE_CHILD_ARGS"))); err != nil {
			fmt.Fprintln(os.Stderr, "conserve child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// childCommand re-execs the test binary as a conserve server with
// args (see TestMain).
func childCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CONSERVE_CHILD=1",
		"CONSERVE_CHILD_ARGS="+strings.Join(args, " "))
	return cmd
}

// startChild starts a conserve server child and waits for its bound
// address.
func startChild(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := childCommand(args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "conserve-child-listening "); ok {
				lines <- addr
				return
			}
		}
		close(lines)
	}()
	select {
	case addr, ok := <-lines:
		if !ok {
			t.Fatal("child exited before listening")
		}
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("child did not announce its address")
		return nil, ""
	}
}

const killSweepBody = `{"base":{"protocol":"3-majority","n":20000,"seed":12,"trials":4},"sweep":"k","values":[2,4,8,16,32],"protocols":["3-majority","2-choices"]}`

// TestKillRestartByteIdenticalSweep is the crash-recovery smoke from
// the durability contract: SIGKILL a durable conserve mid-sweep,
// restart it on the same data dir, re-issue the sweep, and require the
// NDJSON byte-identical to an uninterrupted in-process run — completed
// points served from the on-disk result cache, interrupted ones
// resumed/re-run, nothing lost, nothing changed.
func TestKillRestartByteIdenticalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dataDir := t.TempDir()

	// The ground truth: the same sweep, uninterrupted, in-process.
	var sr service.SweepRequest
	if err := json.Unmarshal([]byte(killSweepBody), &sr); err != nil {
		t.Fatal(err)
	}
	rn := service.NewRunner(service.Options{Workers: 2})
	defer rn.Close()
	var want bytes.Buffer
	if err := rn.Sweep(context.Background(), sr, func(p service.SweepPoint) error {
		return service.EncodeJSONLine(&want, p)
	}); err != nil {
		t.Fatal(err)
	}

	// First server: stream the sweep, SIGKILL after the first point's
	// line arrives (so at least one completed result is on disk, and
	// whatever was in flight dies mid-execution).
	child1, base1 := startChild(t, "-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", dataDir)
	resp, err := http.Post(base1+"/sweep", "application/json", strings.NewReader(killSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	firstLine, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("first sweep line: %v", err)
	}
	child1.Process.Kill()
	child1.Wait()
	resp.Body.Close()
	if !bytes.HasPrefix(want.Bytes(), []byte(firstLine)) {
		t.Fatalf("pre-kill stream already diverged:\n got %s want prefix of %s", firstLine, want.Bytes())
	}

	// Second server on the same data dir: replays the journal, then the
	// re-issued sweep must complete byte-identically.
	_, base2 := startChild(t, "-addr", "127.0.0.1:0", "-workers", "2", "-data-dir", dataDir)
	resp, err = http.Post(base2+"/sweep", "application/json", strings.NewReader(killSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("post-restart sweep diverged:\n got:\n%s\nwant:\n%s", got, want.Bytes())
	}

	// The point that completed before the kill must have come from the
	// durable result cache, not a re-simulation.
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	m := regexp.MustCompile(`conserve_disk_hits_total (\d+)`).FindSubmatch(metrics)
	if m == nil {
		t.Fatalf("metrics missing conserve_disk_hits_total:\n%s", metrics)
	}
	if n, _ := strconv.Atoi(string(m[1])); n < 1 {
		t.Fatalf("restart re-simulated the completed point: conserve_disk_hits_total %d", n)
	}
}

// TestSigtermDrainsGracefully: a durable conserve under SIGTERM stops
// intake with 503, checkpoints in-flight work, and exits 0 — the
// production graceful-shutdown path, end to end.
func TestSigtermDrainsGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dataDir := t.TempDir()
	child, base := startChild(t, "-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", dataDir, "-drain-timeout", "20s")

	// Warm request so the server is demonstrably serving.
	resp, err := http.Post(base+"/run", "application/json",
		strings.NewReader(`{"protocol":"voter","n":500,"k":3,"seed":2,"trials":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}

	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- child.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("child exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("child did not drain and exit after SIGTERM")
	}

	// The journal survived the shutdown with the completed result: the
	// LRU is cold in a fresh process, so a "hit" can only come from the
	// durable store.
	_, base2 := startChild(t, "-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", dataDir)
	resp, err = http.Post(base2+"/run", "application/json",
		strings.NewReader(`{"protocol":"voter","n":500,"k":3,"seed":2,"trials":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(service.CacheHeader) != "hit" {
		t.Fatal("completed result lost across SIGTERM restart")
	}
}

// TestServeEndToEnd boots the real server on an ephemeral port, hits
// /healthz and /run, and shuts it down via context cancellation.
func TestServeEndToEnd(t *testing.T) {
	addrs := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrs <- a }
	defer func() { onListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"})
	}()

	var base string
	select {
	case a := <-addrs:
		base = fmt.Sprintf("http://%s", a)
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/run", "application/json",
		strings.NewReader(`{"protocol":"3-majority","n":1000,"k":4,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"consensus":true`) {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestAnalyticTierSmoke boots the real server and exercises the
// analytic answer tier end to end: a planet-scale /run answers 200
// with method "analytic" and an interval-carrying prediction, an
// over-cap n is promoted to the tier instead of rejected, the metric
// counts both, and the handler answers cache-miss analytic requests in
// well under a millisecond (each request below varies k, so none is a
// cache hit — the latency bound is on the compute path, not the LRU).
func TestAnalyticTierSmoke(t *testing.T) {
	addrs := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrs <- a }
	defer func() { onListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"})
	}()
	var base string
	select {
	case a := <-addrs:
		base = fmt.Sprintf("http://%s", a)
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("non-JSON body (%d): %s", resp.StatusCode, raw)
		}
		return resp.StatusCode, m
	}

	// The quickstart request: n = 10^9, explicit tier.
	code, m := post(`{"protocol":"3-majority","n":1000000000,"k":100,"tier":"analytic"}`)
	if code != http.StatusOK || m["method"] != "analytic" {
		t.Fatalf("analytic run: code %d, method %v", code, m["method"])
	}
	pred, ok := m["analytic"].(map[string]any)
	if !ok {
		t.Fatalf("response missing analytic prediction: %v", m)
	}
	lo, _ := pred["rounds_lo"].(float64)
	mid, _ := pred["rounds"].(float64)
	hi, _ := pred["rounds_hi"].(float64)
	if !(0 < lo && lo <= mid && mid <= hi) {
		t.Fatalf("prediction interval not ordered: lo=%v rounds=%v hi=%v", lo, mid, hi)
	}

	// Auto-promotion: n beyond the sync simulation cap answers 200
	// analytically instead of 400.
	code, m = post(`{"protocol":"2-choices","n":10000000000,"k":64}`)
	if code != http.StatusOK || m["method"] != "analytic" {
		t.Fatalf("promoted run: code %d, method %v", code, m["method"])
	}

	// Latency: every request below is a cache miss (k varies), and the
	// fastest of 50 must still clear a millisecond with wide margin.
	minLatency := time.Hour
	for k := 2; k < 52; k++ {
		body := fmt.Sprintf(`{"protocol":"3-majority","n":1000000000,"k":%d,"tier":"analytic"}`, k)
		start := time.Now()
		code, _ := post(body)
		if d := time.Since(start); d < minLatency {
			minLatency = d
		}
		if code != http.StatusOK {
			t.Fatalf("analytic run k=%d: code %d", k, code)
		}
	}
	if minLatency >= time.Millisecond {
		t.Fatalf("analytic tier too slow: fastest of 50 cache-miss requests took %s (want < 1ms)", minLatency)
	}
	t.Logf("fastest analytic cache-miss request: %s", minLatency)

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	mm := regexp.MustCompile(`conserve_analytic_requests_total (\d+)`).FindSubmatch(metrics)
	if mm == nil {
		t.Fatalf("metrics missing conserve_analytic_requests_total:\n%s", metrics)
	}
	if n, _ := strconv.Atoi(string(mm[1])); n != 52 {
		t.Fatalf("conserve_analytic_requests_total %d, want 52", n)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-addr"}); err == nil {
		t.Fatal("dangling flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:99999"}); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}
