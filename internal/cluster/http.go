package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"plurality/internal/service"
)

// HTTPDoer is the client-side HTTP surface the node needs; *http.Client
// satisfies it, tests may substitute an in-process doer.
type HTTPDoer interface {
	Do(req *http.Request) (*http.Response, error)
}

func defaultHTTPClient() HTTPDoer {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
}

// maxClusterBody bounds intra-cluster request bodies. Shard results
// carry full trial arrays, so this is far above the client-facing 1MB.
const maxClusterBody = 64 << 20

// httpTransport carries replica RPCs over the peers' /cluster/vote and
// /cluster/append endpoints.
type httpTransport struct {
	peers  map[string]string
	client HTTPDoer
}

func (t *httpTransport) roundTrip(ctx context.Context, peer, path string, in, out any) error {
	addr, ok := t.peers[peer]
	if !ok {
		return fmt.Errorf("cluster: unknown peer %q", peer)
	}
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("cluster: %s %s: %s: %s", peer, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxClusterBody)).Decode(out)
}

func (t *httpTransport) Vote(ctx context.Context, peer string, req VoteRequest) (VoteResponse, error) {
	var resp VoteResponse
	err := t.roundTrip(ctx, peer, "/cluster/vote", req, &resp)
	return resp, err
}

func (t *httpTransport) Append(ctx context.Context, peer string, req AppendRequest) (AppendResponse, error) {
	var resp AppendResponse
	err := t.roundTrip(ctx, peer, "/cluster/append", req, &resp)
	return resp, err
}

// executeRequest is the worker shard-execution RPC body.
type executeRequest struct {
	Request json.RawMessage `json:"request"`
	Lo      int             `json:"lo"`
	Hi      int             `json:"hi"`
}

// client reaches a peer for the node's own RPCs.
func (n *Node) client() *httpTransport {
	t, _ := n.replica.cfg.Transport.(*httpTransport)
	return t
}

// executeOn runs one shard synchronously on worker. A refused, dropped
// or timed-out call is a failed attempt: the dispatch moves the shard
// to the next worker.
func (n *Node) executeOn(ctx context.Context, worker string, reqJSON json.RawMessage, rng ShardRange) (json.RawMessage, error) {
	var out json.RawMessage
	err := n.client().roundTrip(ctx, worker, "/cluster/execute",
		executeRequest{Request: reqJSON, Lo: rng.Lo, Hi: rng.Hi}, &out)
	return out, err
}

// forwardPropose routes a ledger record to the current leader, which
// proposes it and waits for commit before answering 200.
func (n *Node) forwardPropose(ctx context.Context, leader string, rec LedgerRecord) error {
	return n.client().roundTrip(ctx, leader, "/cluster/propose", rec, nil)
}

// Handler returns the node's /cluster/* HTTP surface, mounted into the
// conserve server via service.Extra.Routes:
//
//	POST /cluster/vote        replica vote RPC
//	POST /cluster/append      replica append/heartbeat RPC
//	POST /cluster/propose     leader-only: commit a ledger record
//	POST /cluster/execute     run one shard here (workers)
//	GET  /cluster/status      replica status snapshot
//	GET  /cluster/jobs        applied ledger job views
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/vote", func(w http.ResponseWriter, r *http.Request) {
		var req VoteRequest
		if !decodeClusterJSON(w, r, &req) {
			return
		}
		resp, err := n.replica.HandleVote(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeClusterJSON(w, resp)
	})
	mux.HandleFunc("POST /cluster/append", func(w http.ResponseWriter, r *http.Request) {
		var req AppendRequest
		if !decodeClusterJSON(w, r, &req) {
			return
		}
		resp, err := n.replica.HandleAppend(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeClusterJSON(w, resp)
	})
	mux.HandleFunc("POST /cluster/propose", func(w http.ResponseWriter, r *http.Request) {
		var rec LedgerRecord
		if !decodeClusterJSON(w, r, &rec) {
			return
		}
		idx, term, err := n.replica.Propose(rec)
		if err != nil {
			http.Error(w, fmt.Sprintf("not leader (leader=%s)", n.replica.Leader()), http.StatusConflict)
			return
		}
		if err := n.replica.WaitCommitted(r.Context().Done(), idx, term); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeClusterJSON(w, map[string]uint64{"index": idx, "term": term})
	})
	mux.HandleFunc("POST /cluster/execute", func(w http.ResponseWriter, r *http.Request) {
		var req executeRequest
		if !decodeClusterJSON(w, r, &req) {
			return
		}
		var q service.Request
		if err := json.Unmarshal(req.Request, &q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The shard's trials are byte-identical to the same range of a
		// single-process run by the (seed, trial) stream contract.
		res, err := service.ExecuteShard(r.Context(), q, n.cfg.Parallelism, req.Lo, req.Hi)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeClusterJSON(w, res)
	})
	mux.HandleFunc("GET /cluster/status", func(w http.ResponseWriter, r *http.Request) {
		st := n.replica.Status()
		writeClusterJSON(w, struct {
			Status
			Role Role `json:"role"`
		}{Status: st, Role: n.cfg.Role})
	})
	mux.HandleFunc("GET /cluster/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeClusterJSON(w, n.ledger.Jobs())
	})
	return mux
}

func decodeClusterJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, maxClusterBody)).Decode(v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeClusterJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// WaitLeader blocks until some coordinator leads (as seen from this
// replica) or the timeout lapses; a convenience for tests and startup.
func (n *Node) WaitLeader(timeout time.Duration) (string, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if l := n.replica.Leader(); l != "" {
			return l, true
		}
		select {
		case <-deadline.C:
			return "", false
		case <-n.replica.LeaderChanged():
		case <-time.After(10 * time.Millisecond):
		}
	}
}
