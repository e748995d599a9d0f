package gossip

import (
	"errors"
	"fmt"
	"sync"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sim"
)

// pullRequest asks a peer for its current opinion. The reply channel
// is buffered so servers never block.
type pullRequest struct {
	reply chan pullReply
}

type pullReply struct {
	opinion int32
	failed  bool
}

// command drives a node's state machine.
type commandKind int

const (
	cmdSample commandKind = iota + 1
	cmdCommit
	cmdStop
)

type command struct {
	kind commandKind
}

// doneMsg reports a node's tentative next opinion to the coordinator.
type doneMsg struct {
	id      int
	opinion int32
}

// node is one participant; its goroutine owns all mutable state.
type node struct {
	id      int
	rule    sim.Rule
	crashed bool
	loss    float64
	r       *rng.Rand

	cur  int32
	next int32

	ctrl  chan command
	inbox chan pullRequest
	done  chan<- doneMsg

	peers []*node // shared read-only topology (complete graph)
}

// Config describes a gossip network.
type Config struct {
	// N is the number of nodes; required.
	N int
	// Rule is the update rule; required.
	Rule sim.Rule
	// Init supplies the initial opinion counts; required, with
	// Init.N() == N.
	Init *population.Vector
	// Seed makes executions reproducible given a fixed scheduler-
	// independent protocol (all randomness is per-node PRNG).
	Seed uint64
	// Crashed lists node IDs that are crashed from the start.
	Crashed []int
	// LossProb is the per-pull loss probability in [0, 1).
	LossProb float64
}

// ErrConfig reports invalid gossip configuration.
var ErrConfig = errors.New("gossip: invalid config")

// Network is a running gossip system. Create with New, drive with
// Round or Run, and always Close it to stop the node goroutines.
type Network struct {
	nodes    []*node
	done     chan doneMsg
	opinions []int32 // coordinator's authoritative copy
	crashed  []bool
	k        int
	wg       sync.WaitGroup
	closed   bool
}

// New builds and starts a gossip network; the caller must Close it.
func New(cfg Config) (*Network, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: N = %d", ErrConfig, cfg.N)
	}
	if cfg.Rule.Samples() == 0 {
		return nil, fmt.Errorf("%w: unknown rule", ErrConfig)
	}
	if cfg.Init == nil || cfg.Init.N() != int64(cfg.N) {
		return nil, fmt.Errorf("%w: Init must cover exactly N=%d nodes", ErrConfig, cfg.N)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("%w: LossProb = %v", ErrConfig, cfg.LossProb)
	}
	crashed := make([]bool, cfg.N)
	for _, id := range cfg.Crashed {
		if id < 0 || id >= cfg.N {
			return nil, fmt.Errorf("%w: crashed id %d out of range", ErrConfig, id)
		}
		crashed[id] = true
	}

	nw := &Network{
		done:     make(chan doneMsg, cfg.N),
		opinions: make([]int32, 0, cfg.N),
		crashed:  crashed,
		k:        cfg.Init.K(),
	}
	for op := 0; op < cfg.Init.K(); op++ {
		for j := int64(0); j < cfg.Init.Count(op); j++ {
			nw.opinions = append(nw.opinions, int32(op))
		}
	}

	nw.nodes = make([]*node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		nw.nodes[i] = &node{
			id:      i,
			rule:    cfg.Rule,
			crashed: crashed[i],
			loss:    cfg.LossProb,
			r:       rng.New(rng.DeriveSeed(cfg.Seed, uint64(i))),
			cur:     nw.opinions[i],
			ctrl:    make(chan command),
			inbox:   make(chan pullRequest, 8),
			done:    nw.done,
		}
	}
	for _, n := range nw.nodes {
		n.peers = nw.nodes
	}
	nw.wg.Add(cfg.N)
	for _, n := range nw.nodes {
		go func(n *node) {
			defer nw.wg.Done()
			n.run()
		}(n)
	}
	return nw, nil
}

// run is the node goroutine's state machine.
func (n *node) run() {
	for {
		select {
		case req := <-n.inbox:
			n.serve(req)
		case cmd := <-n.ctrl:
			switch cmd.kind {
			case cmdSample:
				n.sample()
				n.done <- doneMsg{id: n.id, opinion: n.next}
				// Keep serving round-(t-1) opinions until commit.
				if !n.serveUntilCommit() {
					return
				}
			case cmdCommit:
				// Commit without a preceding sample only happens on
				// protocol misuse; adopt next defensively.
				n.cur = n.next
			case cmdStop:
				return
			}
		}
	}
}

// serveUntilCommit keeps answering pulls until the commit command,
// then adopts the tentative opinion. It returns false on stop.
func (n *node) serveUntilCommit() bool {
	for {
		select {
		case req := <-n.inbox:
			n.serve(req)
		case cmd := <-n.ctrl:
			switch cmd.kind {
			case cmdCommit:
				n.cur = n.next
				return true
			case cmdStop:
				return false
			case cmdSample:
				panic("gossip: sample during commit wait")
			}
		}
	}
}

// serve answers one pull request.
func (n *node) serve(req pullRequest) {
	if n.crashed {
		req.reply <- pullReply{failed: true}
		return
	}
	req.reply <- pullReply{opinion: n.cur}
}

// sample executes one round's pulls and computes the tentative next
// opinion. Crashed nodes never update.
func (n *node) sample() {
	if n.crashed {
		n.next = n.cur
		return
	}
	// A node pulls its rule's Samples() up front, 3-Majority's w3
	// included even when w1 = w2, and stops at the first failed pull:
	// an omission that keeps the current opinion for this round.
	// Otherwise the rule reads the replies in pull order.
	var got [3]int32
	count := n.rule.Samples()
	for s := 0; s < count; s++ {
		op, ok := n.pullOne()
		if !ok {
			n.next = n.cur
			return
		}
		got[s] = op
	}
	i := 0
	n.next = n.rule.Next(n.cur, func() int32 { i++; return got[i-1] })
}

// pullOne samples one uniformly random peer (self-loops included) and
// returns its opinion, or ok = false on loss/crash.
func (n *node) pullOne() (int32, bool) {
	if n.loss > 0 && n.r.Bernoulli(n.loss) {
		return 0, false
	}
	peer := n.r.Intn(len(n.peers))
	if peer == n.id {
		return n.cur, true // self-loop: local read
	}
	target := n.peers[peer]
	req := pullRequest{reply: make(chan pullReply, 1)}
	sent := false
	for {
		if !sent {
			select {
			case target.inbox <- req:
				sent = true
			case incoming := <-n.inbox:
				// Serve while waiting so mutually pulling nodes
				// cannot deadlock on full inboxes.
				n.serve(incoming)
			}
			continue
		}
		select {
		case rep := <-req.reply:
			if rep.failed {
				return 0, false
			}
			return rep.opinion, true
		case incoming := <-n.inbox:
			// Serve while awaiting the reply, or a requester cycle
			// (A waits on B waits on C waits on A) would deadlock.
			n.serve(incoming)
		}
	}
}

// Round executes one synchronous round: every node samples, then, past
// the barrier, every node commits. Counts reads the result.
func (nw *Network) Round() {
	if nw.closed {
		panic("gossip: Round after Close")
	}
	// Phase 1: everyone samples.
	for _, n := range nw.nodes {
		n.ctrl <- command{kind: cmdSample}
	}
	for range nw.nodes {
		msg := <-nw.done
		nw.opinions[msg.id] = msg.opinion
	}
	// Phase 2: everyone commits.
	for _, n := range nw.nodes {
		n.ctrl <- command{kind: cmdCommit}
	}
}

// Counts returns the coordinator's view of the opinion counts (valid
// between rounds).
func (nw *Network) Counts() *population.Vector {
	counts := make([]int64, nw.k)
	for _, op := range nw.opinions {
		counts[op]++
	}
	v, err := population.FromCounts(counts)
	if err != nil {
		panic(fmt.Sprintf("gossip: invalid counts: %v", err))
	}
	return v
}

// AliveConsensus reports whether all non-crashed nodes agree, and on
// what. Crashed nodes are frozen and excluded.
func (nw *Network) AliveConsensus() (opinion int32, ok bool) {
	first := int32(-1)
	for id, op := range nw.opinions {
		if nw.crashed[id] {
			continue
		}
		if first == -1 {
			first = op
			continue
		}
		if op != first {
			return 0, false
		}
	}
	if first == -1 {
		return 0, false // everyone crashed
	}
	return first, true
}

// Run executes rounds through sim.Rounds until all alive nodes agree
// or maxRounds. The final Γ and live count the full population,
// crashed (frozen) nodes included, so they can stay below 1 and above
// 1 respectively even at alive-consensus.
//
// observer, if non-nil, reads the coordinator's authoritative opinion
// counts after the commit barrier, when no node goroutine is mutating
// them, and never touches the node PRNG streams — so traces are
// deterministic in the network's seed regardless of goroutine
// scheduling.
func (nw *Network) Run(maxRounds int, observer *sim.Observer) sim.Result {
	return sim.Rounds(&networkRun{nw: nw}, maxRounds, observer)
}

// networkRun is the gossip network as sim.Rounds drives it.
type networkRun struct {
	nw *Network
	// counts caches this round's materialised counts (nil until asked).
	counts *population.Vector
}

func (e *networkRun) Step(int) {
	e.nw.Round()
	e.counts = nil
}

func (e *networkRun) Consensus() (int, bool) {
	op, ok := e.nw.AliveConsensus()
	return int(op), ok
}

func (e *networkRun) View() sim.View {
	if e.counts == nil {
		e.counts = e.nw.Counts()
	}
	return e.counts
}

// Close stops all node goroutines and waits for them to exit. It is
// idempotent. Between rounds every node is parked on its control
// channel, so delivery cannot block.
func (nw *Network) Close() {
	if nw.closed {
		return
	}
	nw.closed = true
	for _, n := range nw.nodes {
		n.ctrl <- command{kind: cmdStop}
	}
	nw.wg.Wait()
}
