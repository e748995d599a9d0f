package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/cluster"
	"plurality/internal/durable"
	"plurality/internal/service"
)

// Request-correlation headers the traced client sends; the handler
// wrapper reads them back. They are not part of any /run body.
const (
	reqHeader  = "X-Bench-Request"
	spanHeader = "X-Bench-Span"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer was created. Req is the list position
// of the request that caused the span, or -1 where the boundary does
// not carry it (replication RPCs, fsyncs).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// ioCount counts one owner's filesystem work ("store" or "ledger").
type ioCount struct {
	syncs, bytes, renames atomic.Int64
}

// rpcCount counts one kind of intra-cluster RPC.
type rpcCount struct {
	calls, bytes atomic.Int64
}

// tracer records spans in memory from wrappers that delegate unchanged
// to the public interfaces the service already takes: durable.FS,
// cluster.HTTPDoer, service.Remote and http.Handler. A nil *tracer
// means tracing is off and no wrapper is installed.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// keys maps a request key to its {list position, client span}, so
	// Remote spans, which see only the key, can name their request.
	keys sync.Map
	io   map[string]*ioCount
	rpc  map[string]*rpcCount
	// peers maps a listener's host:port to its node ID.
	peers sync.Map
}

var rpcKinds = []string{"append", "vote", "propose", "execute", "cache", "other"}

func newTracer() *tracer {
	tr := &tracer{
		t0:  time.Now(),
		io:  map[string]*ioCount{"store": {}, "ledger": {}},
		rpc: make(map[string]*rpcCount),
	}
	for _, k := range rpcKinds {
		tr.rpc[k] = &rpcCount{}
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) newID() int64 { return tr.nextID.Add(1) }

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// since returns the spans named name that started at or after from.
func (tr *tracer) since(name string, from int64, keep func(span) bool) []time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name && s.Start >= from && (keep == nil || keep(s)) {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans writes every span as one JSON line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS counts and times one owner's filesystem calls.
type tracedFS struct {
	durable.FS
	tr    *tracer
	owner string
}

func (tr *tracer) fs(owner string) durable.FS {
	return tracedFS{FS: durable.OSFS{}, tr: tr, owner: owner}
}

func (f tracedFS) OpenAppend(name string) (durable.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, fs: f}, nil
}

// Create is timed: each result put creates a file, and on ext4 a create
// in a fresh directory can cost more than the fsync that follows it.
func (f tracedFS) Create(name string) (durable.File, error) {
	start := f.tr.now()
	file, err := f.FS.Create(name)
	f.tr.record(span{ID: f.tr.newID(), Parent: -1, Req: -1, Name: "fs.create", Note: f.owner, Start: start, End: f.tr.now()})
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, fs: f}, nil
}

func (f tracedFS) Rename(oldname, newname string) error {
	f.tr.io[f.owner].renames.Add(1)
	return f.FS.Rename(oldname, newname)
}

type tracedFile struct {
	durable.File
	fs tracedFS
}

func (f tracedFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.fs.tr.io[f.fs.owner].bytes.Add(int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	tr := f.fs.tr
	start := tr.now()
	err := f.File.Sync()
	tr.io[f.fs.owner].syncs.Add(1)
	tr.record(span{ID: tr.newID(), Parent: -1, Req: -1, Name: "fs.sync", Note: f.fs.owner, Start: start, End: tr.now()})
	return err
}

// tracedDoer times one node's outgoing cluster RPCs, from send until
// the caller closes the response body.
type tracedDoer struct {
	next cluster.HTTPDoer
	tr   *tracer
	from string
}

func (tr *tracer) doer(from string) cluster.HTTPDoer {
	// The same client configuration the cluster package defaults to.
	next := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	return tracedDoer{next: next, tr: tr, from: from}
}

func rpcKind(path string) string {
	rest, ok := strings.CutPrefix(path, "/cluster/")
	if !ok {
		return "other"
	}
	kind, _, _ := strings.Cut(rest, "/")
	for _, k := range rpcKinds {
		if k == kind {
			return k
		}
	}
	return "other"
}

func (d tracedDoer) Do(req *http.Request) (*http.Response, error) {
	tr := d.tr
	kind := rpcKind(req.URL.Path)
	c := tr.rpc[kind]
	c.calls.Add(1)
	if req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	to, _ := tr.peers.Load(req.URL.Host)
	s := span{ID: tr.newID(), Parent: -1, Req: -1, Name: "rpc." + kind,
		Note: fmt.Sprint(d.from, "->", to), Start: tr.now()}
	resp, err := d.next.Do(req)
	if err != nil {
		s.End = tr.now()
		tr.record(s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, s: s, tr: tr, c: c}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	s    span
	tr   *tracer
	c    *rpcCount
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.bytes.Add(int64(n))
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.tr.now()
		b.tr.record(b.s)
	})
	return err
}

// tracedRemote times the coordinator runner's calls into the cluster.
type tracedRemote struct {
	next service.Remote
	tr   *tracer
}

func (r tracedRemote) span(name, key string) span {
	s := span{ID: r.tr.newID(), Parent: -1, Req: -1, Name: name, Start: r.tr.now()}
	if v, ok := r.tr.keys.Load(key); ok {
		ids := v.([2]int64)
		s.Req, s.Parent = ids[0], ids[1]
	}
	return s
}

func (r tracedRemote) Lookup(ctx context.Context, key string) (*service.Response, bool) {
	s := r.span("remote.lookup", key)
	resp, ok := r.next.Lookup(ctx, key)
	s.End = r.tr.now()
	r.tr.record(s)
	return resp, ok
}

func (r tracedRemote) Run(ctx context.Context, req service.Request) (*service.Response, error) {
	s := r.span("remote.run", req.Normalize().Key())
	resp, err := r.next.Run(ctx, req)
	s.End = r.tr.now()
	r.tr.record(s)
	return resp, err
}

// handler times every request a node serves. The note carries the node
// and, for /run, the cache header it answered with.
func (tr *tracer) handler(node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: tr.newID(), Parent: -1, Req: -1, Start: tr.now()}
		if v, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			s.Req = v
		}
		if v, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			s.Parent = v
		}
		next.ServeHTTP(w, r)
		s.End = tr.now()
		s.Name = "http." + r.URL.Path
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			s.Name = "http./cluster/" + rpcKind(r.URL.Path)
		}
		s.Note = strings.TrimSpace(node + " " + w.Header().Get(service.CacheHeader))
		tr.record(s)
	})
}
