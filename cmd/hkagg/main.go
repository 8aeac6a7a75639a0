// Command hkagg is the cluster aggregator: it maintains a member list of
// hkd nodes, long-polls each one's CRC-authenticated GET /snapshot
// endpoint for its next state change (top-k report frames under -policy
// max, whole sketches under sum; timeout, exponential backoff with
// jitter, three-state health machine), and serves the global top-k with
// failure-aware annotations — a coverage fraction and per-node staleness
// — so callers can tell a complete answer from a degraded one.
//
// Usage:
//
//	hkagg -nodes 10.0.0.1:8474,10.0.0.2:8474,10.0.0.3:8474
//	hkagg -nodes ... -policy max            # ring-replicated ingest (default)
//	hkagg -nodes ... -policy sum            # partitioned ingest, sketch fold
//	hkagg -nodes ... -live=false            # fold on-disk generations only
//	hkagg -listen-http 127.0.0.1:0 -addr-file /tmp/hkagg.addr
//
// Policy must match the ingest topology: with hkbench -cluster (every
// flow replicated to its ring replica set) each member holds a full count
// for the flows it owns, so -policy max reconstructs exact global counts
// and tolerates any single node's death; with disjoint per-node traffic,
// -policy sum folds the raw same-seed sketches instead. See
// doc/cluster.md for the topology and the staleness/coverage contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nodesFlag  = flag.String("nodes", "", "comma-separated hkd members (host:port or http://host:port); required")
		listenHTTP = flag.String("listen-http", ":8574", "global query/metrics API listen address")
		policy     = flag.String("policy", "max", "fold policy: max (replicated ingest) or sum (partitioned ingest)")
		interval   = flag.Duration("interval", cluster.DefaultInterval, "staleness bound: most time between a healthy node's collects (they follow its changes, at most 20 per interval)")
		timeout    = flag.Duration("timeout", cluster.DefaultTimeout, "one collect end to end; long-polls park for at most half of it")
		live       = flag.Bool("live", true, "request on-demand snapshots (?live=1) instead of newest on-disk generations")
		seed       = flag.Uint64("seed", 31337, "backoff jitter seed")
		addrFile   = flag.String("addr-file", "", "write the bound HTTP address to this file (for ephemeral ports)")
		token      = flag.String("token", "", "bearer token for snapshot fetches from auth-protected hkd members")
		caCert     = flag.String("ca", "", "PEM CA certificate file to trust for TLS hkd members")
		quiet      = flag.Bool("quiet", false, "suppress operational logging")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		debugAddr  = flag.String("debug-addr", "", "opt-in debug listener (net/http/pprof) address ('' disables)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hkagg:", err)
		return 2
	}
	if *quiet {
		logger = obs.Discard()
	}
	log := obs.Component(logger, "main")

	if *nodesFlag == "" {
		fmt.Fprintln(os.Stderr, "hkagg: -nodes is required")
		return 2
	}
	var nodes []string
	for _, n := range strings.Split(*nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	var pol collector.Policy
	switch *policy {
	case "max":
		pol = collector.Max
	case "sum":
		pol = collector.Sum
	default:
		fmt.Fprintf(os.Stderr, "hkagg: -policy must be max or sum, got %q\n", *policy)
		return 2
	}

	agg, err := cluster.New(cluster.Config{
		Nodes:      nodes,
		Policy:     pol,
		Interval:   *interval,
		Timeout:    *timeout,
		Live:       *live,
		Seed:       *seed,
		Token:      *token,
		CACertFile: *caCert,
		Logger:     logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hkagg:", err)
		return 1
	}
	log.Info("starting",
		"nodes", len(nodes), "policy", *policy, "interval", interval.String(),
		"timeout", timeout.String(), "live", *live, "http", *listenHTTP,
		"debug", *debugAddr, "auth", *token != "", "tls", *caCert != "")
	agg.Start()
	defer agg.Stop()

	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hkagg: debug listener:", err)
			return 1
		}
		debugSrv := &http.Server{Handler: obs.DebugHandler()}
		go func() {
			if err := debugSrv.Serve(debugLn); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				log.Error("debug listener failed", "err", err)
			}
		}()
		log.Info("debug listener up", "addr", debugLn.Addr().String())
		defer debugLn.Close()
	}

	ln, err := net.Listen("tcp", *listenHTTP)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hkagg:", err)
		return 1
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, ln.Addr()); err != nil {
			fmt.Fprintln(os.Stderr, "hkagg:", err)
			return 1
		}
	}
	httpSrv := &http.Server{Handler: agg.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Info("serving global top-k", "addr", ln.Addr().String(), "members", len(nodes))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "hkagg:", err)
		return 1
	}
	log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hkagg: shutdown:", err)
		return 1
	}
	return 0
}

// writeAddrFile publishes the bound address atomically (temp + rename) so
// a polling reader never sees a partial file.
func writeAddrFile(path string, addr net.Addr) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte("http="+addr.String()+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
