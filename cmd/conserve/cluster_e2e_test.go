package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"plurality/internal/service"
)

// clusterStatus mirrors the GET /cluster/status body.
type clusterStatus struct {
	ID       string `json:"id"`
	Leader   string `json:"leader"`
	IsLeader bool   `json:"is_leader"`
	Role     string `json:"role"`
}

// clusterJob mirrors the GET /cluster/jobs entries.
type clusterJob struct {
	Key        string `json:"key"`
	DoneShards int    `json:"done_shards"`
	Shards     []struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	} `json:"shards"`
}

// reservePorts grabs n distinct loopback addresses and releases them:
// cluster children need the whole fleet's addresses before any of them
// starts, so ephemeral binding (-addr :0) cannot work here.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// doneShardResults reads a node's /cluster/jobs and returns each job's
// shard results, concatenated in shard order, by key. It fails unless
// the ledger holds want distinct keys, each with every shard done.
func doneShardResults(base string, want int) (map[string]string, error) {
	var jobs []clusterJob
	if err := getJSON(base, "/cluster/jobs", &jobs); err != nil {
		return nil, err
	}
	results := make(map[string]string, len(jobs))
	for _, j := range jobs {
		if _, dup := results[j.Key]; dup {
			return nil, fmt.Errorf("key %s admitted twice", j.Key)
		}
		if len(j.Shards) == 0 || j.DoneShards != len(j.Shards) {
			return nil, fmt.Errorf("job %s: %d/%d shards done", j.Key, j.DoneShards, len(j.Shards))
		}
		var b strings.Builder
		for _, s := range j.Shards {
			b.Write(s.Result)
		}
		results[j.Key] = b.String()
	}
	if len(results) != want {
		return nil, fmt.Errorf("ledger holds %d jobs, want %d (one per sweep point)", len(results), want)
	}
	return results, nil
}

func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s%s: %s", base, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestClusterRequiresDataDir: a cluster node without -data-dir would
// vote and acknowledge appends it forgets on a restart, so conserve
// refuses to start one, and its error names the missing flag.
func TestClusterRequiresDataDir(t *testing.T) {
	addr := reservePorts(t, 1)[0]
	cmd := childCommand("-addr", addr, "-cluster", "worker", "-node-id", "w1",
		"-peers", "w1=http://"+addr, "-coordinators", "w1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("conserve -cluster without -data-dir: %v, want a non-zero exit", err)
	}
	if !strings.Contains(stderr.String(), "requires -data-dir") {
		t.Fatalf("stderr does not name the missing -data-dir:\n%s", stderr.String())
	}
}

// TestClusterKillFailoverByteIdenticalSweep is the distributed
// counterpart of TestKillRestartByteIdenticalSweep: a real 5-process
// fleet (2 coordinators, 3 workers) runs the reference sweep with every
// point sharded across the workers through the replicated job ledger.
// After the first NDJSON line arrives, the ledger leader and one worker
// are SIGKILLed. The surviving coordinator must win the election,
// rerun the shards the dead nodes had in flight, finish the stream —
// and the merged NDJSON must be byte-identical to an uninterrupted
// single-process run. Every surviving node's ledger must then hold
// every request key with all shards done and the same shard-result
// bytes, so every node merges each key to the same answer.
func TestClusterKillFailoverByteIdenticalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary into a 5-process fleet")
	}

	ids := []string{"c1", "c2", "w1", "w2", "w3"}
	addrs := reservePorts(t, len(ids))
	var peerParts []string
	for i, id := range ids {
		peerParts = append(peerParts, id+"=http://"+addrs[i])
	}
	peersArg := strings.Join(peerParts, ",")

	children := make(map[string]*exec.Cmd, len(ids))
	bases := make(map[string]string, len(ids))
	for i, id := range ids {
		role := "worker"
		if strings.HasPrefix(id, "c") {
			role = "coordinator"
		}
		cmd, base := startChild(t,
			"-addr", addrs[i], "-workers", "2",
			"-cluster", role, "-node-id", id,
			"-peers", peersArg, "-coordinators", "c1,c2",
			"-cluster-heartbeat", "25ms", "-lease-timeout", "30s",
			"-data-dir", t.TempDir())
		children[id] = cmd
		bases[id] = base
	}

	// Wait for a coordinator to win the ledger election.
	var leader string
	deadline := time.Now().Add(30 * time.Second)
	for leader == "" {
		if time.Now().After(deadline) {
			t.Fatal("no cluster leader elected")
		}
		var st clusterStatus
		if err := getJSON(bases["c1"], "/cluster/status", &st); err == nil && st.Leader != "" {
			leader = st.Leader
		}
		time.Sleep(50 * time.Millisecond)
	}
	if leader != "c1" && leader != "c2" {
		t.Fatalf("initial leader %q is not a coordinator", leader)
	}
	follower := "c1"
	if leader == "c1" {
		follower = "c2"
	}
	t.Logf("leader=%s; streaming sweep through follower %s", leader, follower)

	// Ground truth: the same sweep, uninterrupted, in one process.
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

	// Stream the sweep through the follower coordinator, so the process
	// answering the client survives the leader kill.
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		bases[follower]+"/sweep", strings.NewReader(killSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	firstLine, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("first sweep line: %v", err)
	}
	if !bytes.HasPrefix(want.Bytes(), []byte(firstLine)) {
		t.Fatalf("pre-kill stream already diverged:\n got %s want prefix of %s", firstLine, want.Bytes())
	}

	// Mid-sweep, kill the ledger leader and one worker: 3 of 5 replicas
	// survive, which is still a majority for the surviving coordinator.
	for _, id := range []string{leader, "w3"} {
		children[id].Process.Kill()
		children[id].Wait()
	}
	t.Logf("killed leader %s and worker w3 mid-sweep", leader)

	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatalf("stream after failover: %v", err)
	}
	got := append([]byte(firstLine), rest...)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("fleet sweep diverged from single-process run:\n got:\n%s\nwant:\n%s", got, want.Bytes())
	}

	// The survivors' applied ledgers: distinct keys, one per sweep
	// point, every shard done, and the same shard-result bytes on every
	// surviving node. The answer is a pure merge of those bytes, so the
	// nodes agree on it. A worker may apply the last entries a
	// heartbeat after the coordinator, so its ledger is polled.
	wantPoints := len(sr.Values) * len(sr.Protocols)
	var ref map[string]string
	for _, id := range []string{follower, "w1", "w2"} {
		var results map[string]string
		var err error
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
			if results, err = doneShardResults(bases[id], wantPoints); err == nil || time.Now().After(deadline) {
				break
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if ref == nil {
			ref = results
			continue
		}
		for key, b := range ref {
			if results[key] != b {
				t.Fatalf("%s holds different shard results for %s than %s", id, key, follower)
			}
		}
	}

	// The surviving coordinator wins the election and exports the
	// cluster counters. The stream can end before the election does:
	// shards whose shard_done committed before the kill need no leader.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var st clusterStatus
		if err := getJSON(bases[follower], "/cluster/status", &st); err == nil && st.IsLeader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("surviving coordinator %s never won the election", follower)
		}
	}
	mresp, err := http.Get(bases[follower] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !regexp.MustCompile(`conserve_cluster_leader 1`).Match(metrics) {
		t.Fatalf("surviving coordinator does not lead:\n%s", metrics)
	}
	for _, name := range []string{"conserve_shard_requeues_total", "conserve_peer_cache_hits_total"} {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Fatalf("metrics missing %s:\n%s", name, metrics)
		}
	}
}
