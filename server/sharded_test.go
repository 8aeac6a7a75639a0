package server

import (
	"context"
	"encoding/hex"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	heavykeeper "repro"
	"repro/wire"
)

// TestTwoConnsIntoShards streams two TCP connections into a two-shard
// Sharded, the shape whose AddBatch hands each shard's share to that
// shard's drainer. Every record must be applied, /query must see every
// weighted heartbeat, and the Shutdown snapshot must restore to an
// identical /topk.
func TestTwoConnsIntoShards(t *testing.T) {
	const (
		conns    = 2
		batch    = 256
		hbEvery  = 8 // frames between weighted heartbeats
		hbWeight = 1_000_000
	)
	snap := filepath.Join(t.TempDir(), "hkd.snap")
	opts := []heavykeeper.Option{heavykeeper.WithShards(2),
		heavykeeper.WithSeed(42), heavykeeper.WithMemory(32 << 10)}
	srv, _ := startTestServer(t, func(c *Config) {
		c.Summarizer = heavykeeper.MustNew(20, opts...)
		c.SnapshotPath = snap
		c.SnapshotInterval = time.Hour // only the shutdown snapshot is written
	})
	keys := testKeys(40000)
	twin := heavykeeper.MustNew(20, opts...)
	hbKeys := make([][]byte, conns)
	hbSent := make([]uint64, conns)
	var records uint64
	for c := range conns {
		hbKeys[c] = fmt.Appendf(nil, "heartbeat-%d", c)
		for lo, f := c*batch, 0; lo < len(keys); lo, f = lo+conns*batch, f+1 {
			if f%hbEvery == 0 {
				twin.AddN(hbKeys[c], hbWeight)
				hbSent[c]++
				records++
			}
			part := keys[lo:min(lo+batch, len(keys))]
			twin.AddBatch(part)
			records += uint64(len(part))
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = sendWithHeartbeats(srv.TCPAddr(), keys, c, conns, batch, hbEvery, hbKeys[c], hbWeight)
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("connection %d: %v", c, err)
		}
	}
	waitRecords(t, srv.HTTPAddr(), records)

	var st struct {
		Server struct {
			Records uint64 `json:"records"`
		} `json:"server"`
		Engine heavykeeper.Stats `json:"engine"`
	}
	getJSON(t, srv.HTTPAddr(), "/stats", &st)
	if st.Server.Records != records || st.Engine.Packets != twin.Stats().Packets {
		t.Fatalf("applied %d records, engine saw %d packets; sent %d records, twin saw %d packets",
			st.Server.Records, st.Engine.Packets, records, twin.Stats().Packets)
	}
	for c := range conns {
		var q struct {
			Count uint64 `json:"count"`
		}
		getJSON(t, srv.HTTPAddr(), "/query?id="+hex.EncodeToString(hbKeys[c]), &q)
		if want := hbSent[c] * hbWeight; q.Count != want {
			t.Errorf("/query %s = %d, want %d heartbeats × %d", hbKeys[c], q.Count, hbSent[c], hbWeight)
		}
	}

	var before topKDoc
	getJSON(t, srv.HTTPAddr(), "/topk", &before)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	restored, err := LoadSnapshot(snap)
	if err != nil || restored == nil {
		t.Fatalf("LoadSnapshot: %v (nil summarizer: %t)", err, restored == nil)
	}
	if _, ok := restored.(*heavykeeper.Sharded); !ok {
		t.Fatalf("restored a %T, want *heavykeeper.Sharded", restored)
	}
	srv2, err := New(Config{Summarizer: restored, TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatalf("Start (restart): %v", err)
	}
	defer srv2.Shutdown(context.Background())
	var after topKDoc
	getJSON(t, srv2.HTTPAddr(), "/topk", &after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("restored /topk differs:\nbefore %+v\nafter  %+v", before, after)
	}
}

// sendWithHeartbeats streams frames c, c+conns, c+2·conns, … of keys over
// one TCP connection, preceding every hbEvery-th of them with a one-record
// frame carrying hbKey at weight hbWeight.
func sendWithHeartbeats(addr net.Addr, keys [][]byte, c, conns, batch, hbEvery int, hbKey []byte, hbWeight uint64) error {
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		return err
	}
	defer conn.Close()
	var frame []byte
	for lo, f := c*batch, 0; lo < len(keys); lo, f = lo+conns*batch, f+1 {
		if f%hbEvery == 0 {
			if frame, err = wire.AppendFrame(frame[:0], [][]byte{hbKey}, []uint64{hbWeight}); err != nil {
				return err
			}
			if _, err := conn.Write(frame); err != nil {
				return err
			}
		}
		if frame, err = wire.AppendFrame(frame[:0], keys[lo:min(lo+batch, len(keys))], nil); err != nil {
			return err
		}
		if _, err := conn.Write(frame); err != nil {
			return err
		}
	}
	return nil
}
