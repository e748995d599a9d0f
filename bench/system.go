package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"plurality/internal/cluster"
	"plurality/internal/durable"
	"plurality/internal/service"
)

// conserveOptions are the runner options cmd/conserve builds from its
// flag defaults (-workers 0 -parallelism 0 -queue 64 -cache 256
// -max-retries 0 -job-timeout 0).
func conserveOptions() service.Options {
	return service.Options{QueueDepth: 64, CacheSize: 256, MaxAttempts: 1}
}

// Fleet settings: conserve's -cluster-heartbeat and -lease-timeout
// defaults, one coordinator and two workers.
const (
	fleetHeartbeat = 150 * time.Millisecond
	fleetLease     = 2 * time.Minute
)

var fleetIDs = []string{"c1", "w1", "w2"}

// member is one served node: its runner behind an httptest listener,
// plus the cluster node and ledger journal on a fleet, and on c1 the
// Remote its runner calls.
type member struct {
	id      string
	runner  *service.Runner
	srv     *httptest.Server
	node    *cluster.Node
	remote  service.Remote
	journal *durable.Journal
	jpath   string
}

// system is the service as cmd/conserve assembles it, in-process.
// members[0] is the one clients talk to (c1 on the fleet).
type system struct {
	members  []*member
	store    *durable.Store
	storeDir string
	// setup is the time from nothing to a listening system; election is
	// the part of it spent waiting for c1 to lead (fleet only).
	setup, election time.Duration
	closeOnce       sync.Once
}

func (s *system) url() string { return s.members[0].srv.URL }

func (s *system) runner() *service.Runner { return s.members[0].runner }

// setup assembles w's system under dir: store, runner and listener, and
// on the fleet the journals, nodes and c1's election. The time to that
// point is the system's set-up time; a /healthz answer then confirms it
// serves. With tr set, the durable FS, the cluster HTTP client, c1's
// Remote and every handler are tracing wrappers.
func setup(w *workload, dir string, tr *tracer) (*system, error) {
	start := time.Now()
	s := &system{}
	var err error
	if w.fleet {
		err = s.startFleet(dir, tr)
	} else {
		err = s.startSingle(w, dir, tr)
	}
	s.setup = time.Since(start)
	if err == nil {
		err = healthy(s.url())
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) startSingle(w *workload, dir string, tr *tracer) error {
	opts := conserveOptions()
	if w.durable {
		fsys := durable.FS(durable.OSFS{})
		if tr != nil {
			fsys = tr.fs("store")
		}
		s.storeDir = filepath.Join(dir, "data")
		store, err := durable.Open(fsys, s.storeDir)
		if err != nil {
			return err
		}
		s.store = store
		opts.Store = store
	}
	m := &member{id: "single", runner: service.NewRunner(opts)}
	var h http.Handler = service.NewServerWith(m.runner, service.Extra{})
	if tr != nil {
		h = tr.handler(m.id, h)
	}
	m.srv = httptest.NewServer(h)
	s.members = append(s.members, m)
	return nil
}

func (s *system) startFleet(dir string, tr *tracer) error {
	// Every node needs every peer URL at construction, so the listeners
	// are bound first and start serving once their node exists.
	peers := make(map[string]string)
	for _, id := range fleetIDs {
		m := &member{id: id, srv: httptest.NewUnstartedServer(nil)}
		s.members = append(s.members, m)
		host := m.srv.Listener.Addr().String()
		peers[id] = "http://" + host
		if tr != nil {
			tr.peers.Store(host, id)
		}
	}
	for _, m := range s.members {
		fsys := durable.FS(durable.OSFS{})
		if tr != nil {
			fsys = tr.fs("ledger")
		}
		m.jpath = filepath.Join(dir, m.id, "cluster.journal")
		if err := fsys.MkdirAll(filepath.Dir(m.jpath)); err != nil {
			return err
		}
		j, recs, _, err := durable.OpenJournal(fsys, m.jpath)
		if err != nil {
			return fmt.Errorf("cluster journal: %w", err)
		}
		m.journal = j
		role := cluster.RoleWorker
		if m.id == "c1" {
			role = cluster.RoleCoordinator
		}
		cfg := cluster.NodeConfig{
			ID:           m.id,
			Role:         role,
			Peers:        peers,
			Coordinators: []string{"c1"},
			Parallelism:  runtime.GOMAXPROCS(0),
			Heartbeat:    fleetHeartbeat,
			LeaseTimeout: fleetLease,
			Journal:      j,
			Records:      recs,
		}
		if tr != nil {
			cfg.Client = tr.doer(m.id)
		}
		if m.node, err = cluster.NewNode(cfg); err != nil {
			return err
		}
		opts := conserveOptions()
		if role == cluster.RoleCoordinator {
			m.remote = m.node
			if tr != nil {
				m.remote = tracedRemote{next: m.node, tr: tr}
			}
			opts.Remote = m.remote
		}
		m.runner = service.NewRunner(opts)
		var h http.Handler = service.NewServerWith(m.runner, service.Extra{
			Routes:  map[string]http.Handler{"/cluster/": m.node.Handler()},
			Metrics: m.node.WriteMetrics,
		})
		if tr != nil {
			h = tr.handler(m.id, h)
		}
		m.srv.Config.Handler = h
		m.srv.Start()
	}
	electStart := time.Now()
	if leader, ok := s.members[0].node.WaitLeader(30 * time.Second); !ok || leader != "c1" {
		return fmt.Errorf("fleet: c1 did not win the election (leader %q)", leader)
	}
	s.election = time.Since(electStart)
	return nil
}

// healthy asks for one /healthz answer.
func healthy(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close tears the system down in conserve's shutdown order: runners,
// then cluster nodes, then listeners, then journals and the store.
func (s *system) close() {
	s.closeOnce.Do(func() {
		for _, m := range s.members {
			if m.runner != nil {
				m.runner.Close()
			}
		}
		for _, m := range s.members {
			if m.node != nil {
				m.node.Close()
			}
		}
		for _, m := range s.members {
			m.srv.Close()
			if m.journal != nil {
				m.journal.Close()
			}
		}
		if s.store != nil {
			s.store.Close()
		}
	})
}

// journalBytes sums the ledger journals' valid lengths.
func (s *system) journalBytes() int64 {
	var n int64
	for _, m := range s.members {
		if m.journal != nil {
			n += m.journal.Size()
		}
	}
	return n
}

// post sends one /run body and reads the whole answer.
func post(ctx context.Context, hc *http.Client, base string, body []byte, hdr map[string]string) (status int, cache string, out []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(service.CacheHeader), out, err
}
