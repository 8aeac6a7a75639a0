package cluster

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	heavykeeper "repro"
	"repro/internal/collector"
	"repro/server"
	"repro/wire"
)

// newNodeSummarizer builds the summarizer every test node runs: same
// seed, so Sum-policy sketch folds are bucket-compatible across nodes.
func newNodeSummarizer() heavykeeper.Summarizer {
	return heavykeeper.MustNew(20, heavykeeper.WithConcurrency(),
		heavykeeper.WithSeed(42), heavykeeper.WithMemory(32<<10))
}

// serveReport answers a collect the way hkd does under max: sum's top-k as
// a report frame, with the X-Snapshot-Generation state token.
func serveReport(w http.ResponseWriter, sum heavykeeper.Summarizer) {
	frame, err := wire.AppendReport(nil, wire.Report{Generation: 1, K: sum.K(), Flows: sum.List()})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Snapshot-Generation", "1")
	w.Write(frame)
}

// startNode boots one hkd member on ephemeral loopback ports.
func startNode(t *testing.T, opts ...func(*server.Config)) *server.Server {
	t.Helper()
	cfg := server.Config{
		Summarizer: newNodeSummarizer(),
		TCPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
	}
	for _, o := range opts {
		o(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// sendKeys streams keys to a node's TCP ingest as one wire frame per 64.
func sendKeys(t *testing.T, addr net.Addr, keys [][]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial %v: %v", addr, err)
	}
	defer conn.Close()
	var frame []byte
	for lo := 0; lo < len(keys); lo += 64 {
		hi := min(lo+64, len(keys))
		frame, err = wire.AppendFrame(frame[:0], keys[lo:hi], nil)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
}

// waitIngested polls a node's /stats until it has ingested want records.
func waitIngested(t *testing.T, srv *server.Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Server struct {
				Records uint64 `json:"records"`
			} `json:"server"`
		}
		resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/stats")
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.Server.Records >= want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node never ingested %d records", want)
}

// replicatedIngest routes every key through the ring to its replica set
// and returns the exact per-flow truth counts. keysFor[i] collects node
// i's share for one sendKeys call per node.
func replicatedIngest(t *testing.T, ring *Ring, nodes []*server.Server, flows map[string]int) map[string]uint64 {
	t.Helper()
	truth := map[string]uint64{}
	perNode := make([][][]byte, len(nodes))
	var buf [8]int
	for flow, count := range flows {
		truth[flow] = uint64(count)
		locs := ring.Locations(buf[:0], []byte(flow))
		for i := 0; i < count; i++ {
			for _, n := range locs {
				perNode[n] = append(perNode[n], []byte(flow))
			}
		}
	}
	var want []uint64
	for i, srv := range nodes {
		want = append(want, uint64(len(perNode[i])))
		sendKeys(t, srv.TCPAddr(), perNode[i])
	}
	for i, srv := range nodes {
		waitIngested(t, srv, want[i])
	}
	return truth
}

// testFlows builds a skewed flow set: flow-0 largest, descending.
func testFlows(n, base int) map[string]int {
	flows := map[string]int{}
	for i := 0; i < n; i++ {
		flows[fmt.Sprintf("flow-%02d", i)] = base - i*base/(n+1)
	}
	return flows
}

func nodeURLs(nodes []*server.Server) []string {
	urls := make([]string, len(nodes))
	for i, s := range nodes {
		urls[i] = s.HTTPAddr().String()
	}
	return urls
}

// TestAggregatorReplicatedFoldExact is the tentpole's core correctness
// claim: with ring-replicated ingest and the Max fold, the aggregator's
// global top-k equals the exact per-flow truth — every replica of a flow
// saw all of its packets, so the fold reconstructs true counts, not
// approximations of split ones.
func TestAggregatorReplicatedFoldExact(t *testing.T) {
	nodes := []*server.Server{startNode(t), startNode(t), startNode(t)}
	ring, err := NewRing(RingConfig{MaxReplica: 2, Seed: 9}, nodeURLs(nodes))
	if err != nil {
		t.Fatal(err)
	}
	truth := replicatedIngest(t, ring, nodes, testFlows(10, 300))

	a, err := New(Config{
		Nodes:  nodeURLs(nodes),
		Policy: collector.Max,
		Live:   true,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()
	flows, err := a.GlobalTopK()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, f := range flows {
		got[string(f.ID)] = f.Count
	}
	for flow, want := range truth {
		if got[flow] != want {
			t.Errorf("flow %s: global count %d, truth %d", flow, got[flow], want)
		}
	}
	if _, coverage := a.Status(); coverage != 1 {
		t.Errorf("coverage = %v with all nodes up", coverage)
	}
}

// TestAggregatorSumFold: partitioned (unreplicated) ingest with the Sum
// policy folds raw same-seed sketches via Merge; per-flow counts add up.
func TestAggregatorSumFold(t *testing.T) {
	nodes := []*server.Server{startNode(t), startNode(t)}
	var keys0, keys1 [][]byte
	for i := 0; i < 200; i++ {
		keys0 = append(keys0, []byte("shared-flow"))
	}
	for i := 0; i < 150; i++ {
		keys1 = append(keys1, []byte("shared-flow"))
	}
	keys1 = append(keys1, []byte("only-node1"))
	sendKeys(t, nodes[0].TCPAddr(), keys0)
	sendKeys(t, nodes[1].TCPAddr(), keys1)
	waitIngested(t, nodes[0], uint64(len(keys0)))
	waitIngested(t, nodes[1], uint64(len(keys1)))

	a, err := New(Config{Nodes: nodeURLs(nodes), Policy: collector.Sum, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()
	flows, err := a.GlobalTopK()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, f := range flows {
		got[string(f.ID)] = f.Count
	}
	if got["shared-flow"] != 350 {
		t.Errorf("summed count = %d want 350", got["shared-flow"])
	}
	if got["only-node1"] != 1 {
		t.Errorf("single-node flow = %d want 1", got["only-node1"])
	}
}

// TestAggregatorPartialFailure: killing one of three nodes degrades
// coverage and health but never the answer — the survivors still cover
// every flow (MaxReplica=2), and the dead node's last-good snapshot keeps
// answering for anything only it would have seen.
func TestAggregatorPartialFailure(t *testing.T) {
	nodes := []*server.Server{startNode(t), startNode(t), startNode(t)}
	ring, err := NewRing(RingConfig{MaxReplica: 2, Seed: 4}, nodeURLs(nodes))
	if err != nil {
		t.Fatal(err)
	}
	truth := replicatedIngest(t, ring, nodes, testFlows(10, 200))

	a, err := New(Config{
		Nodes:        nodeURLs(nodes),
		Policy:       collector.Max,
		Live:         true,
		Timeout:      2 * time.Second,
		DownAfter:    2,
		RecoverAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()

	// Kill node 0 hard.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	nodes[0].Shutdown(ctx)
	cancel()

	// Enough failed rounds to drive it to Down.
	a.CollectNow()
	a.CollectNow()

	statuses, coverage := a.Status()
	if coverage >= 1 {
		t.Errorf("coverage = %v after killing a node", coverage)
	}
	if statuses[0].State != Down.String() {
		t.Errorf("killed node state = %s want down", statuses[0].State)
	}
	if !statuses[0].HasData {
		t.Error("killed node's last-good snapshot was discarded")
	}
	if statuses[0].StalenessSeconds < 0 {
		t.Error("killed node has no staleness measurement")
	}

	flows, err := a.GlobalTopK()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, f := range flows {
		got[string(f.ID)] = f.Count
	}
	for flow, want := range truth {
		if got[flow] != want {
			t.Errorf("flow %s after node death: global count %d, truth %d", flow, got[flow], want)
		}
	}
}

// TestAggregatorHTTPSurface drives the handler tier: /topk carries
// coverage + flows, /stats the per-node machine, /healthz flips 200/503
// with Retry-After, /metrics exposes the hkagg_* series.
func TestAggregatorHTTPSurface(t *testing.T) {
	nodes := []*server.Server{startNode(t), startNode(t)}
	sendKeys(t, nodes[0].TCPAddr(), [][]byte{[]byte("f1"), []byte("f1"), []byte("f2")})
	waitIngested(t, nodes[0], 3)

	a, err := New(Config{Nodes: nodeURLs(nodes), Policy: collector.Max, Live: true, DownAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	var top struct {
		Coverage float64      `json:"coverage"`
		Nodes    []NodeStatus `json:"nodes"`
		Flows    []struct {
			ID    string `json:"id"`
			Count uint64 `json:"count"`
		} `json:"flows"`
	}
	getTestJSON(t, ts.URL+"/topk", &top)
	if top.Coverage != 1 {
		t.Errorf("coverage = %v", top.Coverage)
	}
	if len(top.Flows) == 0 {
		t.Fatal("no flows in global /topk")
	}
	id, _ := hex.DecodeString(top.Flows[0].ID)
	if string(id) != "f1" || top.Flows[0].Count != 2 {
		t.Errorf("top flow = %s/%d want f1/2", id, top.Flows[0].Count)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz with full coverage = %d", resp.StatusCode)
	}

	// Degrade: kill node 1, collect until down.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	nodes[1].Shutdown(ctx)
	cancel()
	a.CollectNow()
	a.CollectNow()

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz degraded = %d want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded /healthz missing Retry-After")
	}

	var st statsResponse
	getTestJSON(t, ts.URL+"/stats", &st)
	if st.NodesHealthy != 1 || st.NodesTotal != 2 {
		t.Errorf("stats nodes = %d/%d want 1/2", st.NodesHealthy, st.NodesTotal)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, series := range []string{
		"hkagg_nodes_healthy 1",
		"hkagg_collect_failures_total",
		"hkagg_staleness_seconds",
		"hkagg_coverage 0.5",
		"hkagg_collect_bytes_total",
		"hkagg_collects_unchanged_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestAggregatorHealthMachineHysteresis walks the full state machine
// against a fake member whose /snapshot can be switched between serving
// and failing: healthy -> suspect -> down -> suspect -> healthy, with
// RecoverAfter successes required before trust returns, and last_error
// set by a failure and cleared by a success.
func TestAggregatorHealthMachineHysteresis(t *testing.T) {
	sum := newNodeSummarizer()
	sum.Add([]byte("flow"))
	var fail atomic.Bool
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		serveReport(w, sum)
	}))
	defer fake.Close()

	a, err := New(Config{
		Nodes:        []string{fake.URL},
		Policy:       collector.Max,
		SuspectAfter: 1,
		DownAfter:    3,
		RecoverAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := func() string {
		st, _ := a.Status()
		return st[0].State
	}
	a.CollectNow()
	if state() != "healthy" {
		t.Fatalf("initial state %s", state())
	}

	fail.Store(true)
	a.CollectNow()
	if state() != "suspect" {
		t.Errorf("after 1 failure: %s want suspect", state())
	}
	a.CollectNow()
	if state() != "suspect" {
		t.Errorf("after 2 failures: %s want suspect (down needs 3)", state())
	}
	a.CollectNow()
	if state() != "down" {
		t.Errorf("after 3 failures: %s want down", state())
	}
	if e := nodeStatus(a).LastError; !strings.Contains(e, "injected") {
		t.Errorf("last_error after a failure = %q, want the injected 500", e)
	}

	fail.Store(false)
	a.CollectNow()
	if state() != "suspect" {
		t.Errorf("first success from down: %s want suspect (hysteresis)", state())
	}
	if e := nodeStatus(a).LastError; e != "" {
		t.Errorf("last_error after a success = %q, want it cleared", e)
	}
	a.CollectNow()
	if state() != "healthy" {
		t.Errorf("after %d successes: %s want healthy", 2, state())
	}
	if _, coverage := a.Status(); coverage != 1 {
		t.Errorf("recovered coverage = %v", coverage)
	}
}

// TestAggregatorRejectsCorruptSnapshot: a member serving bytes that fail
// CRC verification is a collection failure, and the previous last-good
// report survives.
func TestAggregatorRejectsCorruptSnapshot(t *testing.T) {
	sum := newNodeSummarizer()
	for i := 0; i < 50; i++ {
		sum.Add([]byte("flow"))
	}
	var corrupt atomic.Bool
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if corrupt.Load() {
			w.Header().Set("X-Snapshot-Generation", "2")
			w.Write([]byte("HKR1 this is not a valid report frame"))
			return
		}
		serveReport(w, sum)
	}))
	defer fake.Close()

	a, err := New(Config{Nodes: []string{fake.URL}, Policy: collector.Max})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()
	corrupt.Store(true)
	a.CollectNow()

	st, _ := a.Status()
	if st[0].Failures != 1 {
		t.Errorf("corrupt serve not counted as failure: %+v", st[0])
	}
	flows, err := a.GlobalTopK()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 || string(flows[0].ID) != "flow" || flows[0].Count != 50 {
		t.Errorf("last-good answer lost after corrupt serve: %v", flows)
	}
}

// TestAggregatorValidation covers Config rejection paths.
func TestAggregatorValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no nodes":       {Policy: collector.Max},
		"empty node":     {Nodes: []string{""}},
		"duplicate node": {Nodes: []string{"a:1", "a:1"}},
		"bad policy":     {Nodes: []string{"a:1"}, Policy: collector.Policy(9)},
		"bad thresholds": {Nodes: []string{"a:1"}, SuspectAfter: 3, DownAfter: 1},
		"bad backoff":    {Nodes: []string{"a:1"}, BackoffBase: time.Second, BackoffMax: time.Millisecond},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestAggregatorLifecycle: Start/Stop cycles cleanly with a mix of live
// and dead members, and the loops make progress without CollectNow.
func TestAggregatorLifecycle(t *testing.T) {
	node := startNode(t)
	sendKeys(t, node.TCPAddr(), [][]byte{[]byte("x")})
	waitIngested(t, node, 1)
	a, err := New(Config{
		Nodes:    []string{node.HTTPAddr().String(), "127.0.0.1:1"}, // second is dead
		Policy:   collector.Max,
		Live:     true,
		Interval: 20 * time.Millisecond,
		Timeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := a.Status()
		if st[0].Collects >= 2 && st[1].Failures >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loops made no progress: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.Stop()
	// After Stop the last-good state still answers.
	flows, err := a.GlobalTopK()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Error("no answer after Stop")
	}
}

func getTestJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
