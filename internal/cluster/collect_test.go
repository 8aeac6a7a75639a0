package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	heavykeeper "repro"
	"repro/client"
	"repro/internal/collector"
	"repro/server"
	"repro/wire"
)

// foldSnapshotsOracle is the collection path reports replaced: fetch each
// member's whole snapshot, verify and decode it, and fold the decoded
// summarizers' List() with the Max policy. Windowed members have no
// snapshot format, so for them (viaTopK) the oracle folds /topk instead,
// the same List() in JSON. The fold is written out here (a map of maxima,
// sorted by count descending then ID ascending, cut at k) so the oracle
// does not share code with the aggregator's.
func foldSnapshotsOracle(t *testing.T, apis []*client.Client, viaTopK bool) []heavykeeper.Flow {
	t.Helper()
	k := 0
	maxima := map[string]uint64{}
	for _, api := range apis {
		var flows []heavykeeper.Flow
		if viaTopK {
			var err error
			if flows, err = api.TopK(context.Background(), 0); err != nil {
				t.Fatalf("oracle /topk from %s: %v", api.Base(), err)
			}
			k = max(k, 12)
		} else {
			body, _, err := api.Snapshot(context.Background(), true)
			if err != nil {
				t.Fatalf("oracle snapshot from %s: %v", api.Base(), err)
			}
			if err := heavykeeper.VerifySnapshot(bytes.NewReader(body)); err != nil {
				t.Fatalf("oracle snapshot from %s: %v", api.Base(), err)
			}
			s, err := heavykeeper.ReadSnapshot(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("oracle decode from %s: %v", api.Base(), err)
			}
			k = max(k, s.K())
			flows = s.List()
		}
		for _, f := range flows {
			maxima[string(f.ID)] = max(maxima[string(f.ID)], f.Count)
		}
	}
	var out []heavykeeper.Flow
	for id, c := range maxima {
		out = append(out, heavykeeper.Flow{ID: []byte(id), Count: c})
	}
	slices.SortFunc(out, func(a, b heavykeeper.Flow) int {
		if a.Count != b.Count {
			if a.Count > b.Count {
				return -1
			}
			return 1
		}
		return bytes.Compare(a.ID, b.ID)
	})
	return out[:min(len(out), k)]
}

// TestReportFoldMatchesSnapshotOracle: the Max fold over report frames
// equals the fold over whole decoded snapshots, flow for flow and in
// order, for every frontend shape hkd serves and for a tenant-scoped
// collector.
func TestReportFoldMatchesSnapshotOracle(t *testing.T) {
	opts := []heavykeeper.Option{heavykeeper.WithSeed(42), heavykeeper.WithMemory(16 << 10)}
	factories := map[string]func(k int) (heavykeeper.Summarizer, error){
		"shards-1": func(k int) (heavykeeper.Summarizer, error) {
			return heavykeeper.New(k, append(opts, heavykeeper.WithConcurrency())...)
		},
		"shards-2": func(k int) (heavykeeper.Summarizer, error) {
			return heavykeeper.New(k, append(opts, heavykeeper.WithShards(2))...)
		},
		"epoch": func(k int) (heavykeeper.Summarizer, error) {
			return heavykeeper.NewWindow(k, 700, opts...)
		},
	}
	// Two tenants per member; the collector's token selects which one it
	// folds.
	tokens := map[string]string{"tok-default": server.DefaultTenant, "tok-b": "tenant-b"}
	for name, factory := range factories {
		for _, token := range []string{"tok-default", "tok-b"} {
			t.Run(name+"/"+tokens[token], func(t *testing.T) {
				var urls []string
				var apis []*client.Client
				for i := 0; i < 3; i++ {
					sum, err := factory(12)
					if err != nil {
						t.Fatal(err)
					}
					srv := startNode(t, func(c *server.Config) {
						c.Summarizer = sum
						c.NewSummarizer = factory
						c.Tokens = tokens
					})
					// Members see overlapping, differently weighted traffic
					// in both tenants, so the fold has real maxima to pick.
					var keys [][]byte
					for f := 0; f < 30; f++ {
						for j := 0; j < (30-f)*(i+1)+f%7; j++ {
							keys = append(keys, []byte(fmt.Sprintf("flow-%02d", (f+5*i+len(token))%30)))
						}
					}
					for tok := range tokens {
						in, err := client.Dial("tcp", srv.TCPAddr().String(), client.IngestWithToken(tok))
						if err != nil {
							t.Fatal(err)
						}
						if err := in.SendBatch(keys); err != nil {
							t.Fatal(err)
						}
						in.Close()
					}
					// A default-tenant client waits on the server-wide count.
					def, err := client.New(srv.HTTPAddr().String(), client.WithToken("tok-default"))
					if err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					err = def.WaitForRecords(ctx, uint64(len(tokens)*len(keys)))
					cancel()
					if err != nil {
						t.Fatal(err)
					}
					api, err := client.New(srv.HTTPAddr().String(), client.WithToken(token))
					if err != nil {
						t.Fatal(err)
					}
					urls = append(urls, srv.HTTPAddr().String())
					apis = append(apis, api)
				}
				a, err := New(Config{Nodes: urls, Policy: collector.Max, Live: true, Token: token})
				if err != nil {
					t.Fatal(err)
				}
				a.CollectNow()
				got, err := a.GlobalTopK()
				if err != nil {
					t.Fatal(err)
				}
				want := foldSnapshotsOracle(t, apis, name == "epoch")
				if len(want) == 0 {
					t.Fatal("oracle fold is empty")
				}
				if !slices.EqualFunc(got, want, func(a, b heavykeeper.Flow) bool {
					return bytes.Equal(a.ID, b.ID) && a.Count == b.Count
				}) {
					t.Errorf("report fold differs from snapshot fold:\n got %v\nwant %v", got, want)
				}
				st, _ := a.Status()
				for _, n := range st {
					if n.CollectBytes == 0 || n.CollectBytes > 2048 {
						t.Errorf("node %s collected %d bytes; a 12-flow report is a few hundred", n.Name, n.CollectBytes)
					}
				}
			})
		}
	}
}

// TestCollectIsEventDriven: with an interval of a minute, a change at a
// live member reaches the global answer within a long-poll round trip,
// not an interval.
func TestCollectIsEventDriven(t *testing.T) {
	srv := startNode(t)
	a, err := New(Config{Nodes: []string{srv.HTTPAddr().String()}, Policy: collector.Max, Live: true, Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Stop()
	waitCollects(t, a, 1)

	in, err := client.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	sent := time.Now()
	if err := in.SendWeighted([][]byte{[]byte("heartbeat")}, []uint64{1000}); err != nil {
		t.Fatal(err)
	}
	for {
		flows, err := a.GlobalTopK()
		if err != nil {
			t.Fatal(err)
		}
		if len(flows) == 1 && string(flows[0].ID) == "heartbeat" && flows[0].Count == 1000 {
			break
		}
		if time.Since(sent) > 2*time.Second {
			t.Fatalf("key not in the global answer 2s after it was sent: %v", flows)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollectIdleMemberIsQuiet: a member whose state does not change is
// collected about once per interval — the loop parks on the long-poll and
// never spins at the minimum spacing.
func TestCollectIdleMemberIsQuiet(t *testing.T) {
	srv := startNode(t)
	a, err := New(Config{Nodes: []string{srv.HTTPAddr().String()}, Policy: collector.Max, Live: true, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Stop()
	waitCollects(t, a, 1)
	const window = 2 * time.Second
	before := nodeStatus(a).Collects
	time.Sleep(window)
	st := nodeStatus(a)
	if n := st.Collects - before; n > 2*uint64(window/time.Second) {
		t.Errorf("%d collects of an idle member in %v, want at most 2/s", n, window)
	}
	if st.Unchanged == 0 {
		t.Errorf("idle member never answered unchanged: %+v", st)
	}
	if st.StalenessSeconds > 1.5 {
		t.Errorf("unchanged answers did not refresh staleness: %+v", st)
	}
}

// TestSumFoldIsRepeatable: the Sum fold merges into a fresh accumulator,
// so folding the same cached sketches twice gives the same counts; an
// accumulator that reused a cached sketch would double-count.
func TestSumFoldIsRepeatable(t *testing.T) {
	nodes := []*server.Server{startNode(t), startNode(t)}
	for i, srv := range nodes {
		keys := make([][]byte, 100*(i+1))
		for j := range keys {
			keys[j] = []byte("shared-flow")
		}
		sendKeys(t, srv.TCPAddr(), keys)
		waitIngested(t, srv, uint64(len(keys)))
	}
	a, err := New(Config{Nodes: nodeURLs(nodes), Policy: collector.Sum, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()
	first, err := a.GlobalTopK()
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.GlobalTopK()
	if err != nil {
		t.Fatal(err)
	}
	refolded, err := a.refold()
	if err != nil {
		t.Fatal(err)
	}
	for _, flows := range [][]heavykeeper.Flow{first, second, refolded} {
		if len(flows) != 1 || flows[0].Count != 300 {
			t.Fatalf("sum folds = %v, %v, %v; want shared-flow at 300 each time", first, second, refolded)
		}
	}
}

// TestCollectTokenlessMemberFails: a member whose answer carries no
// X-Snapshot-Generation state token cannot be long-polled, so its collect
// fails, the node goes suspect, and /stats names the missing token.
func TestCollectTokenlessMemberFails(t *testing.T) {
	sum := newNodeSummarizer()
	sum.Add([]byte("flow"))
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame, err := wire.AppendReport(nil, wire.Report{K: sum.K(), Flows: sum.List()})
		if err != nil {
			t.Error(err)
		}
		w.Write(frame)
	}))
	defer fake.Close()
	a, err := New(Config{Nodes: []string{fake.URL}, Policy: collector.Max})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()
	front := httptest.NewServer(a.Handler())
	defer front.Close()
	var doc statsResponse
	getTestJSON(t, front.URL+"/stats", &doc)
	st := doc.Nodes[0]
	if st.State != "suspect" || st.Failures != 1 || st.HasData {
		t.Errorf("tokenless member: %+v, want a failed collect and suspect", st)
	}
	if !strings.Contains(st.LastError, "X-Snapshot-Generation") {
		t.Errorf("last_error %q does not name the missing state token", st.LastError)
	}
	if flows, err := a.GlobalTopK(); err != nil || len(flows) != 0 {
		t.Errorf("tokenless member folded to %v, %v", flows, err)
	}
}

// TestSumFoldNamesWindowMembers: a windowed (-epoch) member has no
// snapshot format, so under sum it answers 501 not_implemented. Each
// node's last_error says so, where coverage 0 and an empty list alone
// would not.
func TestSumFoldNamesWindowMembers(t *testing.T) {
	var nodes []*server.Server
	for i := 0; i < 2; i++ {
		nodes = append(nodes, startNode(t, func(c *server.Config) {
			c.Summarizer = heavykeeper.MustNewWindow(20, 1000, heavykeeper.WithSeed(42))
		}))
		sendKeys(t, nodes[i].TCPAddr(), [][]byte{[]byte("flow")})
		waitIngested(t, nodes[i], 1)
	}
	a, err := New(Config{Nodes: nodeURLs(nodes), Policy: collector.Sum, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	a.CollectNow()
	st, coverage := a.Status()
	if coverage != 0 {
		t.Errorf("coverage = %v, want 0", coverage)
	}
	for _, n := range st {
		if n.State != "suspect" || !strings.Contains(n.LastError, "501") || !strings.Contains(n.LastError, "not_implemented") {
			t.Errorf("node %s: state %s, last_error %q; want suspect and the 501 not_implemented answer", n.Name, n.State, n.LastError)
		}
	}
}

func nodeStatus(a *Aggregator) NodeStatus {
	st, _ := a.Status()
	return st[0]
}

func waitCollects(t *testing.T, a *Aggregator, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for nodeStatus(a).Collects < n {
		if time.Now().After(deadline) {
			t.Fatalf("no collect within 5s: %+v", nodeStatus(a))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
