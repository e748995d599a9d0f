package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Runner) {
	t.Helper()
	rn := NewRunner(opts)
	srv := httptest.NewServer(NewServer(rn))
	t.Cleanup(func() {
		srv.Close()
		rn.Close()
	})
	return srv, rn
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const runBody = `{"protocol":"3-majority","n":1000,"k":4,"seed":9,"trials":2}`

// TestRunColdCacheAndCLIByteIdentical is the acceptance test: the same
// request+seed yields byte-identical bodies served cold, from cache,
// and via the CLI path (service.Execute + EncodeJSONLine, what
// consim -json prints).
func TestRunColdCacheAndCLIByteIdentical(t *testing.T) {
	srv, rn := newTestServer(t, Options{Workers: 2})

	cold := postJSON(t, srv.URL+"/run", runBody)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", cold.StatusCode)
	}
	if got := cold.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("cold cache header %q", got)
	}
	coldData := readAll(t, cold)

	warm := postJSON(t, srv.URL+"/run", runBody)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", warm.StatusCode)
	}
	if got := warm.Header.Get(CacheHeader); got != "hit" {
		t.Fatalf("warm cache header %q", got)
	}
	warmData := readAll(t, warm)

	if !bytes.Equal(coldData, warmData) {
		t.Fatalf("cold and cached bodies differ:\n%s\n%s", coldData, warmData)
	}
	if m := rn.Metrics(); m.Executions != 1 {
		t.Fatalf("cache hit re-simulated: %+v", m)
	}

	// The CLI path: decode the posted JSON exactly as the server does,
	// execute directly, encode with the shared serialisation.
	var req Request
	if err := json.Unmarshal([]byte(runBody), &req); err != nil {
		t.Fatal(err)
	}
	cli, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeJSONLine(&buf, cli); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldData, buf.Bytes()) {
		t.Fatalf("server and CLI bodies differ:\nserver: %s\ncli:    %s", coldData, buf.Bytes())
	}
}

func TestRunBadConfig(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	for name, body := range map[string]string{
		"unknown protocol": `{"protocol":"nope","n":1000,"k":4}`,
		"missing n":        `{"protocol":"voter","k":4}`,
		"unknown field":    `{"protocol":"voter","n":100,"k":4,"sneed":1}`,
		"malformed json":   `{"protocol":`,
	} {
		resp := postJSON(t, srv.URL+"/run", body)
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, data)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %s", name, data)
		}
	}
}

func TestRunQueueFull(t *testing.T) {
	srv, rn := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	rn.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		started <- struct{}{}
		<-release
		return &Response{Key: q.Key()}, nil
	}
	defer close(release)

	// Occupy the worker, then fill the one queue slot.
	go func() {
		resp, err := http.Post(srv.URL+"/run", "application/json",
			strings.NewReader(`{"protocol":"voter","n":100,"k":2,"seed":1}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	if _, _, err := rn.Submit(Request{Protocol: "voter", N: 100, K: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, srv.URL+"/run", `{"protocol":"voter","n":100,"k":2,"seed":3}`)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestBusyRetryAfterJitterRange: the 429 Retry-After hint is jittered
// per response, always inside [RetryAfterMinSeconds,
// RetryAfterMaxSeconds] — never a fixed value that would synchronise
// rejected clients into a retry stampede.
func TestBusyRetryAfterJitterRange(t *testing.T) {
	for i := 0; i < 100; i++ {
		rec := httptest.NewRecorder()
		writeSubmitError(rec, ErrBusy)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status %d", rec.Code)
		}
		after, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
		}
		if after < RetryAfterMinSeconds || after > RetryAfterMaxSeconds {
			t.Fatalf("Retry-After %d outside [%d, %d]", after, RetryAfterMinSeconds, RetryAfterMaxSeconds)
		}
	}
}

// TestDrainingReturns503: while the runner drains for shutdown, /run
// answers 503 (load balancers stop routing here) rather than 429
// (which invites retries against a dying instance).
func TestDrainingReturns503(t *testing.T) {
	rn := NewRunner(Options{Workers: 1, QueueDepth: 4})
	srv := httptest.NewServer(NewServer(rn))
	defer srv.Close()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	rn.exec = func(_ context.Context, q Request, _ int, _ *ShardResult, _ func(*ShardResult)) (*Response, error) {
		started <- struct{}{}
		<-release
		return &Response{Key: q.Key()}, nil
	}

	if _, _, err := rn.Submit(Request{Protocol: "voter", N: 100, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-started // a job is running; Drain will block on it

	drained := make(chan error, 1)
	go func() { drained <- rn.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !rn.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("runner never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, srv.URL+"/run", `{"protocol":"voter","n":100,"k":2,"seed":2}`)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	sweep := postJSON(t, srv.URL+"/sweep", sweepBody)
	if readAll(t, sweep); sweep.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep status %d", sweep.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestRunDetachAndJobs(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	resp := postJSON(t, srv.URL+"/run?detach=1", runBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detach status %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	var info Info
	if err := json.Unmarshal(readAll(t, resp), &info); err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := json.Unmarshal([]byte(runBody), &req); err != nil {
		t.Fatal(err)
	}
	if info.ID != req.Key() || info.Key != info.ID || loc != "/jobs/"+info.ID {
		t.Fatalf("info %+v location %q: the job ID must be the request key", info, loc)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readAll(t, r), &info); err != nil {
			t.Fatal(err)
		}
		if info.Status == StatusDone {
			break
		}
		if info.Status == StatusFailed || time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.Result == nil || info.Result.Summary.Trials != 2 {
		t.Fatalf("job result %+v", info.Result)
	}

	// Detaching the same request again is now a cache hit: 200 + body.
	again := postJSON(t, srv.URL+"/run?detach=1", runBody)
	if again.StatusCode != http.StatusOK || again.Header.Get(CacheHeader) != "hit" {
		t.Fatalf("cached detach: status %d header %q", again.StatusCode, again.Header.Get(CacheHeader))
	}
	readAll(t, again)

	// The finished job keeps answering under its key; an unknown but
	// well-formed key and a malformed ID are both 404.
	for id, want := range map[string]int{
		info.ID:                  http.StatusOK,
		testRequest(999).Key():   http.StatusNotFound,
		"j000001":                http.StatusNotFound,
		"..%2F..%2Fjournal.log":  http.StatusNotFound,
		strings.ToUpper(info.ID): http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != want {
			t.Errorf("GET /jobs/%s: status %d, want %d", id, resp.StatusCode, want)
		}
	}
}

const sweepBody = `{"base":{"protocol":"3-majority","n":800,"seed":4,"trials":2},"sweep":"k","values":[2,4],"protocols":["3-majority","voter"]}`

// TestSweepStreamsNDJSONIdenticalToRunner: the HTTP stream equals the
// shared runner's emission (what consweep -ndjson prints), point for
// point, byte for byte.
func TestSweepStreamsNDJSONIdenticalToRunner(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 2})
	resp := postJSON(t, srv.URL+"/sweep", sweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	streamed := readAll(t, resp)

	var sr SweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &sr); err != nil {
		t.Fatal(err)
	}
	rn2 := NewRunner(Options{Workers: 2})
	defer rn2.Close()
	var cli bytes.Buffer
	if err := rn2.Sweep(context.Background(), sr, func(p SweepPoint) error {
		return EncodeJSONLine(&cli, p)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, cli.Bytes()) {
		t.Fatalf("server and CLI sweeps differ:\nserver:\n%s\ncli:\n%s", streamed, cli.Bytes())
	}
	if lines := bytes.Count(streamed, []byte("\n")); lines != 4 {
		t.Fatalf("want 4 NDJSON lines, got %d", lines)
	}
}

func TestSweepBadRequest(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	for name, body := range map[string]string{
		"bad axis":     `{"base":{"protocol":"voter","n":100},"sweep":"q","values":[2]}`,
		"no values":    `{"base":{"protocol":"voter","n":100},"sweep":"k","values":[]}`,
		"bad protocol": `{"base":{"protocol":"voter","n":100},"sweep":"k","values":[2],"protocols":["nope"]}`,
		"bad point":    `{"base":{"protocol":"voter","n":100},"sweep":"k","values":[0]}`,
	} {
		resp := postJSON(t, srv.URL+"/sweep", body)
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s", name, resp.StatusCode, data)
		}
	}
}

// TestSweepPointsShareRunCache: a /run of one sweep point is a cache
// hit after the sweep, because points are plain Requests.
func TestSweepPointsShareRunCache(t *testing.T) {
	srv, rn := newTestServer(t, Options{Workers: 2})
	readAll(t, postJSON(t, srv.URL+"/sweep", sweepBody))
	execs := rn.Metrics().Executions
	resp := postJSON(t, srv.URL+"/run", `{"protocol":"voter","n":800,"k":2,"seed":4,"trials":2}`)
	readAll(t, resp)
	if resp.Header.Get(CacheHeader) != "hit" {
		t.Fatal("sweep point not served from cache via /run")
	}
	if rn.Metrics().Executions != execs {
		t.Fatal("sweep point re-simulated")
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	readAll(t, postJSON(t, srv.URL+"/run", runBody))
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	for _, metric := range []string{
		"conserve_requests_total 1",
		"conserve_executions_total 1",
		"conserve_cache_misses_total 1",
		"conserve_queue_cap",
		"conserve_workers 1",
		"conserve_job_retries_total 0",
		"conserve_jobs_recovered_total 0",
		"conserve_disk_hits_total 0",
		"conserve_store_errors_total 0",
		"conserve_journal_replay_seconds 0",
		"conserve_drain_inflight 0",
	} {
		if !bytes.Contains(data, []byte(metric)) {
			t.Errorf("metrics missing %q in:\n%s", metric, data)
		}
	}
}

// TestMetricsExpositionTyped parses /metrics strictly: every family
// has one HELP and one TYPE line (counter or gauge) before its single
// sample, and no family appears twice. The job-table gauge counts the
// one done job an in-memory runner keeps in its finished ring.
func TestMetricsExpositionTyped(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	readAll(t, postJSON(t, srv.URL+"/run", runBody))
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	help, kind, sampled, value := map[string]bool{}, map[string]string{}, map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(readAll(t, resp)), "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) >= 4 && fields[0] == "#" && fields[1] == "HELP":
			if help[fields[2]] || sampled[fields[2]] {
				t.Errorf("HELP for %s repeated or after its sample", fields[2])
			}
			help[fields[2]] = true
		case len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE":
			if kind[fields[2]] != "" || sampled[fields[2]] {
				t.Errorf("TYPE for %s repeated or after its sample", fields[2])
			}
			if fields[3] != "counter" && fields[3] != "gauge" {
				t.Errorf("%s has type %q", fields[2], fields[3])
			}
			kind[fields[2]] = fields[3]
		case len(fields) == 2 && !strings.HasPrefix(line, "#"):
			name := fields[0]
			if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
				t.Errorf("%s: value %q: %v", name, fields[1], err)
			}
			if kind[name] == "" || !help[name] {
				t.Errorf("sample %s has no TYPE or HELP line", name)
			}
			if sampled[name] {
				t.Errorf("family %s appears twice", name)
			}
			if strings.HasSuffix(name, "_total") != (kind[name] == "counter") {
				t.Errorf("%s: type %s does not match its _total suffix", name, kind[name])
			}
			sampled[name], value[name] = true, fields[1]
		default:
			t.Errorf("unparseable line %q", line)
		}
	}
	for name := range kind {
		if !sampled[name] {
			t.Errorf("family %s has no sample", name)
		}
	}
	if len(sampled) < 20 {
		t.Errorf("only %d families exposed", len(sampled))
	}
	if kind["conserve_jobs"] != "gauge" || value["conserve_jobs"] != "1" {
		t.Errorf("conserve_jobs: type %q value %q, want a gauge reading 1", kind["conserve_jobs"], value["conserve_jobs"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(srv.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run status %d", resp.StatusCode)
	}
}
