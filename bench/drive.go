package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	heavykeeper "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/obs"
)

// runOptions select how one measurement runs.
type runOptions struct {
	seconds float64
	starts  int     // cold starts timed for setup_s; the last set is measured
	tracer  *tracer // nil for an untraced run
	seed    uint64
}

// measurement is everything one run of a workload observed.
type measurement struct {
	setup []float64 // s, one per cold start

	sentFrames  []int // bulk frames per connection
	bulkRecords int
	heartbeats  int   // heartbeat records sent, the priming one included
	hbPos       []int // connection-0 bulk frames sent before each heartbeat
	resent      int

	applied   uint64
	elapsed   float64 // s, first send until hkd has applied every record
	daemonCPU float64 // s, hkd plus hkagg over the same interval
	clientCPU float64 // s, this process while sending
	peakRSS   float64 // MB, the larger VmHWM of the two daemons

	gauge        float64 // ns per record, the host gauge's mean sample
	gaugeSamples int
	steal        float64 // share of the machine's CPU time the host took

	fresh, globalFresh, query, globalQuery, late []float64 // ms
	// globalLag is, per heartbeat, from hkd's /query first counting it to
	// hkagg's /topk first counting it.
	globalLag []float64 // ms

	attempted, failed int
	failures          map[string]int

	stats      *client.Stats
	topk       []heavykeeper.Flow
	uncleanHKD int // hkd exits after SIGTERM with a non-zero status

	restoreSecs   float64
	restoredOK    bool
	restoreDetail string

	// scr and layers hold a traced run's daemon-side per-layer numbers.
	scr    *scraper
	layers map[string]float64
}

func (m *measurement) fail(reason string, n int) {
	if n > 0 {
		m.failed += n
		m.failures[reason] += n
	}
}

func (m *measurement) records() int { return m.bulkRecords + m.heartbeats }

// mpps is the rate hkd applied records at, first send to drained.
func (m *measurement) mpps() float64 { return float64(m.applied) / m.elapsed / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// measure runs w once and measures the host's speed over the same span:
// the host gauge's mean cost and the share of CPU time stolen.
func measure(bins binaries, tf *traffic, dir string, opt runOptions) (*measurement, error) {
	m := &measurement{failures: map[string]int{}}
	steal0, total0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	gauge := startGauge(stop)
	err = m.run(bins, tf, dir, opt)
	close(stop)
	samples, gerr := gauge.wait()
	if gerr == nil && len(samples) == 0 {
		gerr = errors.New("host gauge took no samples")
	}
	for _, s := range samples {
		m.gauge += s / float64(len(samples))
	}
	m.gaugeSamples = len(samples)
	steal1, total1, serr := cpuTicks()
	m.steal = ratio(steal1-steal0, total1-total0)
	return m, errors.Join(err, gerr, serr)
}

// run cold-starts w's daemon set opt.starts times, drives the last one for
// opt.seconds, waits until hkd has applied every record, and collects what
// the run observed. Snapshot workloads end with a restart of hkd from its
// shutdown snapshot.
func (m *measurement) run(bins binaries, tf *traffic, dir string, opt runOptions) error {
	var ds *daemonSet
	for i := 0; i < opt.starts; i++ {
		if ds != nil {
			m.countExit(ds.stop())
		}
		var err error
		if ds, err = startDaemons(bins, tf.w, filepath.Join(dir, fmt.Sprintf("set-%d", i))); err != nil {
			return err
		}
		m.setup = append(m.setup, ds.setup.Seconds())
	}
	err := m.drive(ds, tf, opt)
	if err == nil {
		err = m.collect(ds, opt)
	}
	m.countExit(ds.stop())
	if err == nil && ds.snap != "" {
		err = m.restore(bins, tf.w, ds)
	}
	return err
}

// cpuSpeed is how fast the host ran during the run, relative to the
// gauge's nominal host: 0.8 when the reference loop cost 25 % more CPU
// time. CPU-time metrics are scaled by it.
func (m *measurement) cpuSpeed() float64 { return gaugeNominal / m.gauge }

// wallSpeed also counts the time the host kept the guest's CPUs from
// running (steal), which CPU time leaves out and wall-clock time does not.
// Wall-clock metrics are scaled by it.
func (m *measurement) wallSpeed() float64 { return m.cpuSpeed() * (1 - m.steal) }

func (m *measurement) countExit(hkdCode int) {
	if hkdCode != 0 {
		m.uncleanHKD++
	}
}

// heartbeats is the freshness probe's schedule: heartbeat i (1-based) is due
// at slot i of a heartbeatEvery schedule (spreadDue) and carries
// heartbeatWeight. The heartbeat flow already holds its sketch buckets when
// the run starts (primeHeartbeat), so each heartbeat adds exactly
// heartbeatWeight to hkd's count.
type heartbeats struct {
	t0    time.Time
	total int    // heartbeats due before the deadline
	base  uint64 // hkd's count for heartbeatKey before the first one

	mu   sync.Mutex
	sent int
	pos  []int       // connection-0 bulk frames sent before each heartbeat
	refs []time.Time // when each heartbeat's freshness clock started
	// notify carries each sent heartbeat's index to the freshness poller;
	// it holds every heartbeat, so the sender never blocks on it.
	notify chan int
}

func newHeartbeats(t0 time.Time, run time.Duration, base uint64) *heartbeats {
	h := &heartbeats{t0: t0, base: base}
	for h.due(h.total + 1).Before(t0.Add(run)) {
		h.total++
	}
	h.notify = make(chan int, h.total)
	return h
}

// applied reports whether a count for heartbeatKey includes heartbeat i.
func (h *heartbeats) applied(i int, count uint64) bool {
	return count >= h.base+uint64(i)*heartbeatWeight
}

func (h *heartbeats) due(i int) time.Time { return spreadDue(h.t0, i, heartbeatEvery) }

// spreadDue is when event i of a schedule with mean period every falls due:
// in slot i, at a golden-ratio offset within the slot. The offsets fill the
// slots evenly, so over a run heartbeats and polls meet every phase of
// hkagg's 200 ms collect timer. On a strict grid they would meet one phase,
// set by start-up timing, and freshness would jump between runs by up to a
// poll or heartbeat period.
func spreadDue(t0 time.Time, i int, every time.Duration) time.Time {
	_, u := math.Modf(float64(i) * 0.6180339887498949)
	return t0.Add(time.Duration((float64(i) + u) * float64(every)))
}

func (h *heartbeats) sentCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sent
}

// ref is when heartbeat i's freshness clock started.
func (h *heartbeats) ref(i int) time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.refs[i-1]
}

// sendDue sends every heartbeat due by now, after frames bulk frames of the
// same connection. Freshness is timed from when a heartbeat was due, or
// from woke, when the sender last returned from sleeping, if that was
// later: a late wake-up is the generator's timer slack, while a sender
// held up by the daemon's backpressure counts against the daemon.
func (h *heartbeats) sendDue(now, woke time.Time, frames int, s *sender) error {
	for h.sent < h.total && !now.Before(h.due(h.sent+1)) {
		i := h.sent + 1
		ref := h.due(i)
		s.late = append(s.late, ms(now.Sub(ref)))
		if woke.After(ref) {
			ref = woke
		}
		start := time.Now()
		if err := s.in.SendWeighted([][]byte{heartbeatKey}, []uint64{heartbeatWeight}); err != nil {
			return err
		}
		s.rec.end("client.heartbeat", "ingest.conn", start)
		h.mu.Lock()
		h.sent = i
		h.pos = append(h.pos, frames)
		h.refs = append(h.refs, ref)
		h.mu.Unlock()
		h.notify <- i
	}
	return nil
}

// sender streams one connection's frames until the deadline: back to back
// in a closed loop, or each frame at its due time in an open loop.
type sender struct {
	tf      *traffic
	c       int
	in      *client.Ingest
	hb      *heartbeats // connection 0 only
	rec     *recorder
	t0, end time.Time
	frames  int
	records int
	late    []float64
	err     error
}

func (s *sender) run() {
	defer func() {
		if s.hb != nil {
			close(s.hb.notify)
		}
	}()
	w := s.tf.w
	var interval time.Duration
	if w.rate > 0 {
		interval = time.Duration(float64(w.batch) / w.rate * float64(time.Second))
	}
	buf := make([][]byte, 0, w.batch)
	loopStart := time.Now()
	var woke time.Time
	for {
		now := time.Now()
		if interval > 0 {
			due := s.t0.Add(time.Duration(s.frames) * interval)
			if !due.Before(s.end) {
				break
			}
			if now.Before(due) {
				time.Sleep(due.Sub(now))
				now = time.Now()
				woke = now
			}
			s.late = append(s.late, ms(now.Sub(due)))
		} else if !now.Before(s.end) {
			break
		}
		if s.hb != nil {
			if s.err = s.hb.sendDue(now, woke, s.frames, s); s.err != nil {
				return
			}
		}
		keys := s.tf.keys(s.tf.frameOf(s.c, s.frames), buf)
		sendStart := now
		if s.rec != nil {
			sendStart = time.Now()
		}
		if s.err = s.in.SendBatch(keys); s.err != nil {
			return
		}
		s.rec.end("client.send", "ingest.conn", sendStart)
		s.frames++
		s.records += len(keys)
	}
	if s.hb != nil && s.hb.sent < s.hb.total {
		// The last frame can go out before the last heartbeat falls due.
		time.Sleep(time.Until(s.hb.due(s.hb.total)))
		now := time.Now()
		s.err = s.hb.sendDue(now, now, s.frames, s)
	}
	s.rec.end("ingest.conn", "", loopStart)
}

// reader is one read-side loop's results.
type reader struct {
	lat, late         []float64
	attempted, failed int
	fresh             []float64 // freshness samples observed by this loop
	rec               *recorder
}

func (r *reader) call(name string, start time.Time, err error) bool {
	r.attempted++
	r.rec.end(name, "", start)
	if err != nil {
		r.failed++
		return false
	}
	return true
}

// topkLoop asks for the full report on a fixed schedule (spreadDue) from t0
// until end.
// A request is timed from when it was due, or from when it was sent if the
// loop slept past its due time: waking late is the generator's timer
// slack, while waiting on the previous request counts against the server.
// With hb set, the loop also records when each heartbeat first shows in a
// report (hkagg's global freshness), and keeps polling after end until
// every heartbeat has shown or 5 s have passed.
func (r *reader) topkLoop(ctx context.Context, api *client.Client, global bool, hb *heartbeats, t0, end time.Time) {
	name := "http.hkd_topk"
	if global {
		name = "http.hkagg_topk"
	}
	seen := 0
	for i := 0; ; i++ {
		due := spreadDue(t0, i, queryEvery)
		tail := !due.Before(end)
		if tail && (hb == nil || seen >= hb.sentCount()) {
			return
		}
		if tail && time.Since(end) > 5*time.Second {
			r.failed += hb.sentCount() - seen
			return
		}
		slept := false
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			slept = true
		}
		start := time.Now()
		ref := due
		if slept {
			ref = start
		}
		var flows []heavykeeper.Flow
		var err error
		if global {
			var g *client.GlobalTopK
			if g, err = api.GlobalTopK(ctx, 0); err == nil {
				flows = g.Flows
			}
		} else {
			flows, err = api.TopK(ctx, 0)
		}
		done := time.Now()
		if !r.call(name, start, err) {
			continue
		}
		if !tail {
			r.late = append(r.late, ms(start.Sub(due)))
			r.lat = append(r.lat, ms(done.Sub(ref)))
		}
		if hb == nil {
			continue
		}
		for _, f := range flows {
			if bytes.Equal(f.ID, heartbeatKey) {
				for n := hb.sentCount(); seen < n && hb.applied(seen+1, f.Count); seen++ {
					r.fresh = append(r.fresh, ms(done.Sub(hb.ref(seen+1))))
				}
			}
		}
	}
}

// freshnessLoop polls hkd's point query for heartbeatKey while heartbeats
// are outstanding and records, per heartbeat, the time from when it was
// sent until the count first includes it. Polls run back to back for the
// first 2 ms, then sleep a twentieth of the oldest outstanding heartbeat's
// age (at least the timer's 1 ms granularity), so resolution stays within
// about 5 % of the value without flooding a backlogged daemon. The sleep is
// capped at 4 ms, so the error this adds to the global lag does not grow
// with hkd's backlog.
func (r *reader) freshnessLoop(ctx context.Context, api *client.Client, hb *heartbeats) {
	seen, sent, open := 0, 0, true
	for open || seen < sent {
		if seen == sent {
			i, ok := <-hb.notify
			if !ok {
				return
			}
			sent = i
		}
	drain:
		for {
			select {
			case i, ok := <-hb.notify:
				if !ok {
					open = false
					break drain
				}
				sent = i
			default:
				break drain
			}
		}
		start := time.Now()
		count, err := api.Query(ctx, heartbeatKey)
		now := time.Now()
		if r.call("http.hkd_query", start, err) {
			for seen < sent && hb.applied(seen+1, count) {
				seen++
				r.fresh = append(r.fresh, ms(now.Sub(hb.ref(seen))))
			}
		}
		if seen < sent {
			age := now.Sub(hb.ref(seen + 1))
			if age > 10*time.Second {
				r.failed += sent - seen
				return
			}
			if age >= 2*time.Millisecond {
				time.Sleep(min(max(age/20, time.Millisecond), 4*time.Millisecond))
			}
		}
	}
}

// drive runs the workload's traffic and read side against ds and waits
// until hkd has applied every record sent.
func (m *measurement) drive(ds *daemonSet, tf *traffic, opt runOptions) error {
	ctx := context.Background()
	w := tf.w
	run := time.Duration(opt.seconds * float64(time.Second))
	senders := make([]*sender, w.conns)
	for c := range senders {
		in, err := client.Dial("tcp", ds.hkd.tcp, client.IngestWithBatchSize(w.batch), client.IngestWithSeed(opt.seed+uint64(c)))
		if err != nil {
			return err
		}
		defer in.Close()
		senders[c] = &sender{tf: tf, c: c, in: in, rec: opt.tracer.recorder()}
	}
	if opt.tracer != nil {
		m.scr = &scraper{ds: ds}
		if err := m.scr.sample(ctx); err != nil {
			return err
		}
	}
	base, err := primeHeartbeat(ctx, senders[0].in, ds.hkd.api)
	if err != nil {
		return err
	}
	cpu0, err := daemonCPU(ds)
	if err != nil {
		return err
	}
	self0 := selfCPU()

	t0 := time.Now()
	end := t0.Add(run)
	hb := newHeartbeats(t0, run, base)
	senders[0].hb = hb
	readers := []*reader{{}, {}, {}}
	for _, r := range readers {
		r.rec = opt.tracer.recorder()
	}
	var readWG, sendWG sync.WaitGroup
	readWG.Add(3)
	go func() { defer readWG.Done(); readers[0].topkLoop(ctx, ds.hkd.api, false, nil, t0, end) }()
	go func() { defer readWG.Done(); readers[1].topkLoop(ctx, ds.agg.api, true, hb, t0, end) }()
	go func() { defer readWG.Done(); readers[2].freshnessLoop(ctx, ds.hkd.api, hb) }()
	stopScrape := make(chan struct{})
	if m.scr != nil {
		readWG.Add(1)
		go func() { defer readWG.Done(); m.scr.loop(ctx, stopScrape) }()
	}
	for _, s := range senders {
		s.t0, s.end = t0, end
		sendWG.Add(1)
		go func() { defer sendWG.Done(); s.run() }()
	}
	sendWG.Wait()
	m.clientCPU = selfCPU() - self0

	var sendErr error
	m.sentFrames = make([]int, w.conns)
	for c, s := range senders {
		m.sentFrames[c] = s.frames
		m.bulkRecords += s.records
		m.late = append(m.late, s.late...)
		m.attempted += s.frames
		st := s.in.Stats()
		m.resent += st.ResentFrames
		if s.err != nil {
			sendErr = errors.Join(sendErr, fmt.Errorf("connection %d: %w", c, s.err))
		}
	}
	// The priming heartbeat went out before frame 0 of connection 0.
	m.heartbeats, m.hbPos = 1+hb.sent, append([]int{0}, hb.pos...)
	m.attempted += m.heartbeats
	if sendErr != nil {
		m.fail("send errors", 1)
	}
	m.fail("resent frames", m.resent)

	applied, drained, derr := waitDrain(ctx, ds.hkd.api, uint64(m.records()))
	m.applied = applied
	m.elapsed = drained.Sub(t0).Seconds()
	close(stopScrape)
	readWG.Wait()
	for i, r := range readers {
		m.attempted += r.attempted
		m.fail("http errors and timeouts", r.failed)
		m.late = append(m.late, r.late...)
		switch i {
		case 0:
			m.query = r.lat
		case 1:
			m.globalQuery, m.globalFresh = r.lat, r.fresh
		case 2:
			m.fresh = r.fresh
		}
	}
	// Both loops record heartbeats in order, timed from the same start.
	for i := range min(len(m.fresh), len(m.globalFresh)) {
		m.globalLag = append(m.globalLag, m.globalFresh[i]-m.fresh[i])
	}
	cpu1, err := daemonCPU(ds)
	if err != nil {
		return err
	}
	m.daemonCPU = cpu1 - cpu0
	if sendErr != nil {
		return sendErr
	}
	return derr
}

// primeHeartbeat sends one heartbeat before the run, while hkd's sketch is
// still empty, so the heartbeat flow takes its buckets with the whole
// weight and every later heartbeat adds exactly heartbeatWeight. (A
// weighted arrival landing on buckets other flows hold spends part of its
// weight decaying them, which would leave its count unpredictable.) It
// returns hkd's count for heartbeatKey afterwards.
func primeHeartbeat(ctx context.Context, in *client.Ingest, api *client.Client) (uint64, error) {
	if err := in.SendWeighted([][]byte{heartbeatKey}, []uint64{heartbeatWeight}); err != nil {
		return 0, err
	}
	if _, _, err := waitDrain(ctx, api, 1); err != nil {
		return 0, err
	}
	count, err := api.Query(ctx, heartbeatKey)
	if err == nil && count < heartbeatWeight {
		err = fmt.Errorf("priming heartbeat counts %d, want %d", count, heartbeatWeight)
	}
	return count, err
}

// waitDrain polls hkd's /stats every millisecond until it reports want
// records applied, returning the count and when it was seen.
func waitDrain(ctx context.Context, api *client.Client, want uint64) (uint64, time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := api.Stats(ctx)
		now := time.Now()
		if err == nil && st.Server.Records >= want {
			return st.Server.Records, now, nil
		}
		if now.After(deadline) {
			var got uint64
			if st != nil {
				got = st.Server.Records
			}
			return got, now, fmt.Errorf("hkd applied %d of %d records within 60 s (last error: %v)", got, want, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// daemonCPU is the CPU time hkd and hkagg have used so far, in seconds.
func daemonCPU(ds *daemonSet) (float64, error) {
	a, err1 := ds.hkd.cpuSeconds()
	b, err2 := ds.agg.cpuSeconds()
	return a + b, errors.Join(err1, err2)
}

// selfCPU is this process's CPU time so far, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// collect reads hkd's final counters and report, and the daemons' peak
// memory, before the daemons are stopped.
func (m *measurement) collect(ds *daemonSet, opt runOptions) error {
	ctx := context.Background()
	var err error
	if m.stats, err = ds.hkd.api.Stats(ctx); err != nil {
		return err
	}
	if m.topk, err = ds.hkd.api.TopK(ctx, 0); err != nil {
		return err
	}
	for _, p := range []*proc{ds.hkd.proc, ds.agg.proc} {
		rss, err := p.peakRSSMB()
		if err != nil {
			return err
		}
		m.peakRSS = max(m.peakRSS, rss)
	}
	srv := m.stats.Server
	if want := uint64(m.records()); m.applied < want {
		m.fail("records not applied", int(want-m.applied))
	}
	m.fail("decode errors", int(srv.DecodeErrors))
	// Closing the ingest connections after the drain ends their streams
	// cleanly; any transport error the daemon counted is a failed frame.
	m.fail("transport errors", int(srv.TransportErrors))
	m.fail("shed records", int(srv.ShedRecords))
	if opt.tracer != nil {
		return m.collectLayers(ctx, ds)
	}
	return nil
}

// collectLayers records the per-layer numbers that need the daemons alive:
// their own counters, response and snapshot sizes, and snapshot
// verification and the aggregator's fold, each a timed public call.
func (m *measurement) collectLayers(ctx context.Context, ds *daemonSet) error {
	m.layers = map[string]float64{}
	if err := m.daemonLayers(ctx, ds); err != nil {
		return err
	}
	body, err := getBody(ctx, ds.hkd.hc, "http://"+ds.hkd.http+"/topk")
	if err != nil {
		return err
	}
	m.layers["http.topk_bytes"] = float64(len(body))

	snap, _, err := ds.hkd.api.Snapshot(ctx, true)
	if err != nil {
		return err
	}
	m.layers["snapshot.bytes"] = float64(len(snap))
	var verify []float64
	for range 10 {
		start := time.Now()
		if err := heavykeeper.VerifySnapshot(bytes.NewReader(snap)); err != nil {
			return fmt.Errorf("verifying hkd snapshot: %w", err)
		}
		verify = append(verify, ms(time.Since(start)))
	}
	m.layers["snapshot.verify_ms"] = quantile(verify, 0.5)

	agg, err := cluster.New(cluster.Config{
		Nodes: []string{ds.hkd.http}, Policy: collector.Max, Live: true, Logger: obs.Discard(),
	})
	if err != nil {
		return err
	}
	agg.CollectNow()
	var fold []float64
	for range 20 {
		start := time.Now()
		flows, err := agg.GlobalTopK()
		if err != nil {
			return err
		}
		if len(flows) == 0 {
			return errors.New("in-process aggregator collected no snapshot from hkd")
		}
		fold = append(fold, ms(time.Since(start)))
	}
	m.layers["cluster.fold_ms"] = quantile(fold, 0.5)
	return nil
}

// restore restarts hkd from the snapshot its shutdown wrote and checks the
// restored report equals the one served before the shutdown.
func (m *measurement) restore(bins binaries, w workload, ds *daemonSet) error {
	dir := filepath.Join(ds.dir, "restore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	d, err := startHKD(bins.hkd, w, dir, ds.snap)
	if err != nil {
		return fmt.Errorf("restarting hkd from its snapshot: %w", err)
	}
	m.restoreSecs = time.Since(start).Seconds()
	flows, err := d.api.TopK(context.Background(), 0)
	m.countExit(d.stop())
	d.hc.CloseIdleConnections()
	if err != nil {
		return err
	}
	m.restoredOK, m.restoreDetail = sameFlows(flows, m.topk)
	return nil
}
