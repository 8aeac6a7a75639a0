package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	heavykeeper "repro"
	"repro/client"
	"repro/internal/collector"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// HealthState is the aggregator's judgment of one hkd node, a three-state
// machine with hysteresis so one dropped fetch doesn't flap the global
// answer in and out of "degraded":
//
//	healthy --SuspectAfter consecutive failures--> suspect
//	suspect --DownAfter total consecutive failures--> down
//	suspect --RecoverAfter consecutive successes--> healthy
//	down    --one success--> suspect (must still earn healthy)
//
// Entering suspect already backs collection off; only down excludes the
// node from the coverage fraction. The asymmetry (one failure is enough
// to suspect, several successes to trust again) mirrors the hkd server's
// degraded-mode exit hysteresis.
type HealthState int32

const (
	Healthy HealthState = iota
	Suspect
	Down
)

// String returns the lowercase state name used in JSON and metrics.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(h))
	}
}

// Aggregator defaults. The health thresholds are deliberately quick to
// suspect and slow to trust: Suspect after the first failure, Down after
// three in a row, Healthy again only after two consecutive successes.
const (
	DefaultInterval     = 2 * time.Second
	DefaultTimeout      = 5 * time.Second
	DefaultBackoffBase  = 100 * time.Millisecond
	DefaultBackoffMax   = 5 * time.Second
	DefaultSuspectAfter = 1
	DefaultDownAfter    = 3
	DefaultRecoverAfter = 2
)

// Config parameterizes an Aggregator.
type Config struct {
	// Nodes is the hkd member list: HTTP base URLs ("http://host:port")
	// or bare "host:port" addresses. Required, at least one.
	Nodes []string
	// Policy selects the fold. Max treats the nodes as replicas — every
	// packet of a flow reached each node that owns it, so per-node counts
	// are duplicates and the global count is the per-flow maximum; this is
	// the ring-replicated deployment and is exact under single-node loss.
	// Sum treats the nodes as partitions (disjoint traffic) and folds the
	// raw same-seed sketches bucket by bucket via Merge, recovering flows
	// spread too thin for any single node's report.
	Policy collector.Policy
	// Interval bounds the time between a healthy node's collects (default
	// 2s). Collection is event-driven: each collect long-polls the member
	// for its next state change, parking at most min(Interval, Timeout/2)
	// and never starting sooner than a twentieth of that after the
	// previous collect began, so a busy member is collected at most 20
	// times per bound and an idle one about once. Failures back off
	// exponentially from BackoffBase to BackoffMax with ±50% jitter.
	// Members that predate long-polls are collected once per Interval.
	Interval time.Duration
	// Timeout bounds one collect end to end, connect through body
	// (default 5s) — a stalled node must not wedge its collection loop.
	// Long-polls park for at most half of it, so a quiet, healthy member
	// never reaches it.
	Timeout time.Duration
	// BackoffBase/BackoffMax shape the failure backoff (defaults 100ms/5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// SuspectAfter/DownAfter/RecoverAfter are the health-machine
	// thresholds, in consecutive failures (respectively successes); zero
	// selects the defaults 1/3/2.
	SuspectAfter int
	DownAfter    int
	RecoverAfter int
	// Live collects the member's current state (?live=1) instead of its
	// newest on-disk generation. Fresh answers for a live cluster; leave
	// false to observe exactly what would survive a crash. Either way the
	// Max policy fetches top-k report frames and Sum whole sketches.
	Live bool
	// Seed parameterizes the backoff jitter (deterministic in tests).
	Seed uint64
	// Client performs the fetches; nil builds one from Timeout. Tests
	// inject fault-wrapped transports here. It is handed to the SDK
	// query client wholesale, so custom round-trippers see every fetch.
	Client *http.Client
	// Token authenticates snapshot fetches against token-protected hkd
	// members (sent as a bearer token by the SDK client).
	Token string
	// CACertFile trusts the PEM certificate(s) in this file for members
	// serving their API over TLS.
	CACertFile string
	// Logger receives structured operational logs (component=cluster).
	// Nil discards them.
	Logger *slog.Logger
}

// node is the aggregator's per-member record: identity, health machine
// and the last-good state it answers from while the member is away.
type node struct {
	name string // as configured, the stable identity in stats and metrics
	url  string // resolved base URL
	api  *client.Client
	lat  obs.Histogram // collect latency: fetch + verify + decode, long-poll wait excluded

	mu          sync.Mutex
	state       HealthState
	consecFails int
	consecOKs   int
	data        *nodeData // newest verified state, decoded; nil before any
	token       string    // member's state token for data: the next long-poll's after
	lastFetch   time.Time // when data was last confirmed current
	lastSeq     string    // X-Snapshot-Seq of data, "" for live serves
	collects    uint64    // successful collects, unchanged answers included
	unchanged   uint64    // collects the member answered "unchanged"
	bytes       uint64    // response bytes collected
	failures    uint64    // failed collects
	transitions uint64    // health-state changes
}

// nodeData is one member's last-good state, decoded once when collected:
// its top-k report and k under Max, its sketch under Sum.
type nodeData struct {
	k      int
	report []metrics.Entry
	body   []byte                 // Sum: the verified snapshot envelope
	sketch heavykeeper.Summarizer // Sum: body, decoded
}

// Aggregator maintains the member list, collects member state on a
// per-node loop, and folds the last-good set into the global top-k on
// demand. It is the collector of the paper's footnote-2 deployment,
// hardened for partial failure: a dead member costs staleness and
// coverage, never an error, and the HTTP tier (Handler) annotates every
// answer with both so callers can tell a degraded global answer from a
// complete one.
type Aggregator struct {
	cfg     Config
	nodes   []*node
	log     *slog.Logger // component=cluster
	started time.Time

	// pollWait bounds one long-poll; spacing is the least time between
	// the starts of one node's collects (pollWait/20).
	pollWait time.Duration
	spacing  time.Duration

	ctx    context.Context // the loops' collects; cancelled by Stop
	cancel context.CancelFunc
	done   sync.WaitGroup

	// changes counts collects that replaced some node's data; the cached
	// fold is current while folded equals it.
	changes atomic.Uint64

	// foldMu serializes folds and guards the cached result, so a /topk
	// storm between two collects shares one fold.
	foldMu  sync.Mutex
	fold    []heavykeeper.Flow
	folded  uint64
	hasFold bool
}

// New validates cfg and returns an Aggregator. Start launches collection.
func New(cfg Config) (*Aggregator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: aggregator needs at least one node")
	}
	if cfg.Policy != collector.Sum && cfg.Policy != collector.Max {
		return nil, fmt.Errorf("cluster: unknown fold policy %d", int(cfg.Policy))
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.DownAfter == 0 {
		cfg.DownAfter = DefaultDownAfter
	}
	if cfg.RecoverAfter == 0 {
		cfg.RecoverAfter = DefaultRecoverAfter
	}
	if cfg.Interval < 0 || cfg.Timeout < 0 || cfg.BackoffBase < 0 || cfg.BackoffMax < cfg.BackoffBase {
		return nil, fmt.Errorf("cluster: invalid timing (interval %v, timeout %v, backoff %v..%v)",
			cfg.Interval, cfg.Timeout, cfg.BackoffBase, cfg.BackoffMax)
	}
	if cfg.SuspectAfter < 1 || cfg.DownAfter < cfg.SuspectAfter || cfg.RecoverAfter < 1 {
		return nil, fmt.Errorf("cluster: invalid health thresholds (suspect %d, down %d, recover %d)",
			cfg.SuspectAfter, cfg.DownAfter, cfg.RecoverAfter)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.Timeout}
	}
	pollWait := min(cfg.Interval, cfg.Timeout/2)
	ctx, cancel := context.WithCancel(context.Background())
	a := &Aggregator{
		cfg:      cfg,
		log:      obs.Component(cfg.Logger, "cluster"),
		started:  time.Now(),
		pollWait: pollWait,
		spacing:  pollWait / 20,
		ctx:      ctx,
		cancel:   cancel,
	}
	seen := map[string]struct{}{}
	for _, raw := range cfg.Nodes {
		if raw == "" {
			return nil, errors.New("cluster: empty node address")
		}
		if _, dup := seen[raw]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", raw)
		}
		seen[raw] = struct{}{}
		url := raw
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		opts := []client.Option{client.WithHTTPClient(cfg.Client)}
		if cfg.Token != "" {
			opts = append(opts, client.WithToken(cfg.Token))
		}
		if cfg.CACertFile != "" {
			opts = append(opts, client.WithCACertFile(cfg.CACertFile))
		}
		api, err := client.New(url, opts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %q: %w", raw, err)
		}
		a.nodes = append(a.nodes, &node{name: raw, url: strings.TrimRight(url, "/"), api: api})
	}
	return a, nil
}

// Start launches one collection loop per node. Each loop makes its first
// fetch immediately, so a freshly started aggregator converges after one
// round trip per healthy node.
func (a *Aggregator) Start() {
	for i, n := range a.nodes {
		a.done.Add(1)
		go a.collectLoop(n, xrand.NewSplitMix64(a.cfg.Seed+uint64(i)))
	}
}

// Stop terminates the collection loops, cutting short any parked
// long-poll, and waits for them to exit. The last-good state remains
// queryable after Stop.
func (a *Aggregator) Stop() {
	a.cancel()
	a.done.Wait()
}

// collectLoop drives one node until Stop: a first fetch at once, then
// long-polls for each next change, at least spacing apart; after a
// failure, an exponentially backed-off, jittered delay instead.
func (a *Aggregator) collectLoop(n *node, rng *xrand.SplitMix64) {
	defer a.done.Done()
	poll := false
	for {
		start := time.Now()
		err := a.collectOnce(a.ctx, n, poll)
		if a.ctx.Err() != nil {
			return
		}
		poll = true
		next := start.Add(a.spacing)
		switch {
		case err != nil:
			next = time.Now().Add(a.nextDelay(n, rng))
		case !n.longPolls():
			next = start.Add(a.cfg.Interval)
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-a.ctx.Done():
				return
			case <-time.After(d):
			}
		}
	}
}

// longPolls reports whether n's member answers long-polls: it sent a
// state token with its last state.
func (n *node) longPolls() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.token != ""
}

// nextDelay picks the sleep before n's next fetch after a failure:
// exponential backoff with ±50% jitter (so a dead node isn't hammered,
// and restarts aren't greeted by every aggregator loop at once).
func (a *Aggregator) nextDelay(n *node, rng *xrand.SplitMix64) time.Duration {
	n.mu.Lock()
	fails := n.consecFails
	n.mu.Unlock()
	d := a.cfg.BackoffBase
	for i := 1; i < fails && d < a.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > a.cfg.BackoffMax {
		d = a.cfg.BackoffMax
	}
	// Jitter to d/2 + [0, d): expected d, never zero.
	return d/2 + time.Duration(rng.Next()%uint64(d))
}

// CollectNow fetches from every node once, concurrently, and returns when
// all fetches have settled — the deterministic collection step tests and
// the smoke harness use instead of waiting for the loops. It runs the
// same fetch+health path as the background loops, without long-polling.
func (a *Aggregator) CollectNow() {
	var wg sync.WaitGroup
	for _, n := range a.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			a.collectOnce(context.Background(), n, false)
		}(n)
	}
	wg.Wait()
}

// collectOnce fetches n's state, verifies it end to end before trusting
// a byte (the report frame's CRC, or the snapshot envelope's), decodes
// it once, and feeds the outcome to the health machine. With poll set,
// the fetch long-polls on the state token of n's last-good data and may
// come back "unchanged", which confirms that data as current. Fetched
// state replaces n's last-good only after verification — a torn serve
// can never overwrite good state.
//
// Each collect carries its own request ID: the SDK stamps it as
// X-Request-Id on the fan-out fetch and the hkd member access-logs it,
// so one logical collection is greppable across both processes.
func (a *Aggregator) collectOnce(parent context.Context, n *node, poll bool) error {
	reqID := obs.NewRequestID()
	ctx, cancel := context.WithTimeout(parent, a.cfg.Timeout)
	defer cancel()
	ctx = obs.WithRequestID(ctx, reqID)
	req := client.SnapshotRequest{Live: a.cfg.Live, Report: a.cfg.Policy == collector.Max}
	if poll {
		n.mu.Lock()
		req.After = n.token
		n.mu.Unlock()
		req.Wait = a.pollWait
	}
	start := time.Now()
	p, err := n.api.PollSnapshot(ctx, req)
	var data *nodeData
	if err == nil && !p.Unchanged {
		data, err = a.decode(p)
	}
	d := time.Since(start)
	if err != nil {
		if parent.Err() != nil {
			return err // Stop cut the poll short: not the member's failure
		}
		n.lat.Observe(d)
		a.log.Debug("collect failed", "request_id", reqID, "node", n.name, "duration_us", d.Microseconds(), "err", err)
		return a.recordFailure(n, err)
	}
	d -= p.Waited
	if !p.Unchanged {
		n.lat.Observe(d)
	}
	a.log.Debug("collect", "request_id", reqID, "node", n.name, "duration_us", d.Microseconds(),
		"seq", p.Seq, "generation", p.Generation, "unchanged", p.Unchanged, "bytes", len(p.Data))
	a.recordSuccess(n, data, p)
	return nil
}

// decode verifies and decodes one fetched state. Under Max it keeps only
// the top-k report, whether the member sent a report frame or (predating
// them) a whole snapshot.
func (a *Aggregator) decode(p *client.SnapshotPoll) (*nodeData, error) {
	if p.Report != nil {
		return reportData(p.Report.K, p.Report.Flows), nil
	}
	s, err := heavykeeper.ReadSnapshot(bytes.NewReader(p.Data))
	if err != nil {
		return nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	if a.cfg.Policy == collector.Max {
		return reportData(s.K(), s.List()), nil
	}
	return &nodeData{body: p.Data, sketch: s}, nil
}

// reportData keeps a member's top-k in the form the Max fold consumes.
func reportData(k int, flows []heavykeeper.Flow) *nodeData {
	rep := make([]metrics.Entry, len(flows))
	for i, f := range flows {
		rep[i] = metrics.Entry{Key: string(f.ID), Count: f.Count}
	}
	return &nodeData{k: k, report: rep}
}

// recordFailure advances the health machine on a failed fetch.
func (a *Aggregator) recordFailure(n *node, err error) error {
	n.mu.Lock()
	n.failures++
	n.consecFails++
	n.consecOKs = 0
	prev := n.state
	switch {
	case n.consecFails >= a.cfg.DownAfter:
		n.state = Down
	case n.consecFails >= a.cfg.SuspectAfter:
		if n.state == Healthy {
			n.state = Suspect
		}
	}
	changed := n.state != prev
	if changed {
		n.transitions++
	}
	state := n.state
	n.mu.Unlock()
	if changed {
		a.log.Warn("node health transition", "node", n.name, "from", prev.String(), "to", state.String(), "err", err)
	}
	return err
}

// recordSuccess stores newly collected state (data nil: the member
// answered "unchanged") and advances the health machine on a successful
// collect. Down demotes only to Suspect — a node must string
// RecoverAfter successes together before it counts toward coverage again
// (hysteresis against a flapping member).
func (a *Aggregator) recordSuccess(n *node, data *nodeData, p *client.SnapshotPoll) {
	n.mu.Lock()
	n.collects++
	n.bytes += uint64(len(p.Data))
	n.consecFails = 0
	n.consecOKs++
	n.lastFetch = time.Now()
	if data == nil {
		n.unchanged++
	} else {
		n.data = data
		n.token = p.Generation
		n.lastSeq = p.Seq
		a.changes.Add(1)
	}
	prev := n.state
	switch n.state {
	case Down:
		n.state = Suspect
		n.consecOKs = 1
	case Suspect:
		if n.consecOKs >= a.cfg.RecoverAfter {
			n.state = Healthy
		}
	}
	changed := n.state != prev
	if changed {
		n.transitions++
	}
	state := n.state
	n.mu.Unlock()
	if changed {
		a.log.Info("node health transition", "node", n.name, "from", prev.String(), "to", state.String())
	}
}

// NodeStatus is one member's externally visible condition.
type NodeStatus struct {
	Name             string  `json:"name"`
	State            string  `json:"state"`
	StalenessSeconds float64 `json:"staleness_seconds"` // age of last-good data; -1 before any
	SnapshotSeq      string  `json:"snapshot_seq,omitempty"`
	Collects         uint64  `json:"collects"`
	Unchanged        uint64  `json:"unchanged"`     // collects answered "unchanged"
	CollectBytes     uint64  `json:"collect_bytes"` // response bytes collected
	Failures         uint64  `json:"failures"`
	Transitions      uint64  `json:"transitions"`
	HasData          bool    `json:"has_data"`
}

// Status reports every member's condition plus the coverage fraction:
// the share of members currently in the Healthy state. Coverage < 1
// means the global answer leans on last-good (stale) data for at least
// one vantage point.
func (a *Aggregator) Status() (nodes []NodeStatus, coverage float64) {
	healthy := 0
	now := time.Now()
	for _, n := range a.nodes {
		n.mu.Lock()
		st := NodeStatus{
			Name:             n.name,
			State:            n.state.String(),
			StalenessSeconds: -1,
			SnapshotSeq:      n.lastSeq,
			Collects:         n.collects,
			Unchanged:        n.unchanged,
			CollectBytes:     n.bytes,
			Failures:         n.failures,
			Transitions:      n.transitions,
			HasData:          n.data != nil,
		}
		if !n.lastFetch.IsZero() {
			st.StalenessSeconds = now.Sub(n.lastFetch).Seconds()
		}
		if n.state == Healthy {
			healthy++
		}
		n.mu.Unlock()
		nodes = append(nodes, st)
	}
	return nodes, float64(healthy) / float64(len(a.nodes))
}

// GlobalTopK folds every member's last-good state into the global
// top-k. Members without any data yet contribute nothing (and are visible
// as HasData=false in Status); a fold over zero members returns an empty
// report, not an error — the degraded-answer contract is that the caller
// learns about gaps from coverage and staleness, never from a refusal to
// answer. The fold is cached: calls between two collects that change
// nothing share one result.
func (a *Aggregator) GlobalTopK() ([]heavykeeper.Flow, error) {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	// Read the change count before the data it covers: a collect racing
	// this fold leaves the cache one change behind, never ahead.
	v := a.changes.Load()
	if !a.hasFold || a.folded != v {
		flows, err := a.refold()
		if err != nil {
			return nil, err
		}
		a.fold, a.folded, a.hasFold = flows, v, true
	}
	return append([]heavykeeper.Flow(nil), a.fold...), nil
}

// refold folds the nodes' current last-good data.
func (a *Aggregator) refold() ([]heavykeeper.Flow, error) {
	var data []*nodeData
	for _, n := range a.nodes {
		n.mu.Lock()
		if n.data != nil {
			data = append(data, n.data)
		}
		n.mu.Unlock()
	}
	if len(data) == 0 {
		return nil, nil
	}
	if a.cfg.Policy == collector.Max {
		return foldMax(data)
	}
	return foldSum(data)
}

// foldMax folds replica reports: every packet of a flow reached each
// replica that owns it, so candidate counts are duplicates and the
// per-flow maximum reconstructs the true count. Exact whenever at least
// one replica per flow survives, which is precisely the ring's guarantee
// under single-node loss.
func foldMax(data []*nodeData) ([]heavykeeper.Flow, error) {
	k := 0
	reports := make([][]metrics.Entry, len(data))
	for i, d := range data {
		k = max(k, d.k)
		reports[i] = d.report
	}
	merged, err := collector.MergeReports(k, collector.Max, reports...)
	if err != nil {
		return nil, err
	}
	out := make([]heavykeeper.Flow, len(merged))
	for i, e := range merged {
		out[i] = heavykeeper.Flow{ID: []byte(e.Key), Count: e.Count}
	}
	return out, nil
}

// foldSum folds partition sketches bucket by bucket via the public Merge
// path. The cached sketches must stay as collected, so the accumulator
// is a fresh decode of the first member's snapshot, and the others merge
// into it.
func foldSum(data []*nodeData) ([]heavykeeper.Flow, error) {
	acc, err := heavykeeper.ReadSnapshot(bytes.NewReader(data[0].body))
	if err != nil {
		// Can't happen for bytes that verified and decoded at collect
		// time; surface it rather than silently drop.
		return nil, fmt.Errorf("cluster: decoding stored snapshot: %w", err)
	}
	for _, d := range data[1:] {
		if err := acc.Merge(d.sketch); err != nil {
			return nil, fmt.Errorf("cluster: folding snapshots: %w", err)
		}
	}
	return acc.List(), nil
}
