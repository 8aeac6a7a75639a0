// Command hkd is the network-facing top-k telemetry daemon: it ingests
// flow arrivals over the binary wire protocol (TCP stream or one frame
// per UDP datagram), serves top-k/point queries and Prometheus metrics
// over HTTP, and survives restarts through snapshot persistence.
//
// Usage:
//
//	hkd                                   # defaults: tcp+udp :4774, http :8474
//	hkd -k 200 -mem 128 -shards 8        # sharded engine, 128 KB budget
//	hkd -algo spacesaving                # any registry algorithm (no snapshots)
//	hkd -epoch 10000000                  # windowed reports over the last ~10M items
//	hkd -snapshot /var/lib/hkd.snap -snapshot-interval 30s
//	hkd -listen-tcp 127.0.0.1:0 -addr-file /tmp/hkd.addrs   # ephemeral ports
//	hkd -tls-cert cert.pem -tls-key key.pem \
//	    -token-file tokens.txt -admin-token S3CRET           # multi-tenant TLS
//	hkd -log-level debug -log-format json                    # structured logs
//	hkd -debug-addr 127.0.0.1:6060                           # opt-in pprof listener
//
// With -snapshot, state is restored at startup from the newest intact
// snapshot generation rooted at the path, written periodically, on
// SIGHUP (checkpoint without restart), and once more on graceful
// shutdown (SIGINT/SIGTERM), so a restarted daemon resumes with the
// counts it had even after a crash mid-write. Snapshots cover the
// HeavyKeeper algorithm family; registry engines and -epoch windows run
// in-memory only.
//
// Under sustained overload the daemon degrades gracefully instead of
// falling over: -max-conns, -idle-timeout and -max-inflight bound
// admission, and past the queue (or -mem-highwater) watermark it sheds
// load by weighted batch sampling. See doc/operations.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	heavykeeper "repro"
	"repro/internal/obs"
	"repro/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listenTCP  = flag.String("listen-tcp", ":4774", "stream-ingest listen address ('' disables)")
		listenUDP  = flag.String("listen-udp", ":4774", "datagram-ingest listen address ('' disables)")
		listenHTTP = flag.String("listen-http", ":8474", "query/metrics API listen address ('' disables)")
		algo       = flag.String("algo", heavykeeper.AlgorithmHeavyKeeper, "registered algorithm backing the daemon")
		k          = flag.Int("k", 100, "report size")
		memKB      = flag.Int("mem", 64, "memory budget in KB")
		seed       = flag.Uint64("seed", 31337, "hash/decay seed (deterministic across restarts)")
		shards     = flag.Int("shards", 0, "per-core engine shards (0 = single engine behind one mutex)")
		epoch      = flag.Int("epoch", 0, "report over approximately the last N items instead of the whole stream (two-pane window; 0 = cumulative)")
		snapshot   = flag.String("snapshot", "", "snapshot base path: restored at start (newest intact generation), written periodically, on SIGHUP and on shutdown")
		snapEvery  = flag.Duration("snapshot-interval", time.Minute, "periodic snapshot cadence")
		snapKeep   = flag.Int("snapshot-keep", 3, "snapshot generations to retain")
		addrFile   = flag.String("addr-file", "", "write the bound listener addresses to this file (for ephemeral ports)")
		drainGrace = flag.Duration("drain-grace", time.Second, "how long established connections get to finish in-flight frames at shutdown (0..10m)")
		maxConns   = flag.Int("max-conns", 256, "stream-ingest connection cap (-1 = unlimited)")
		idleAfter  = flag.Duration("idle-timeout", 0, "evict stream connections idle for this long (0 disables)")
		maxInfl    = flag.Int("max-inflight", 0, "concurrent summarizer batch calls (0 = 2 per core)")
		memHigh    = flag.Int("mem-highwater", 0, "heap megabytes that trigger degraded load shedding (0 disables)")
		tlsCert    = flag.String("tls-cert", "", "PEM certificate file; with -tls-key, serves TCP ingest and the HTTP API over TLS")
		tlsKey     = flag.String("tls-key", "", "PEM private key file for -tls-cert")
		tokenFile  = flag.String("token-file", "", "tenant token file ('token tenant' per line, # comments); enables auth and is re-read on SIGHUP")
		adminToken = flag.String("admin-token", "", "bearer token granting cross-tenant queries and POST /config (enables auth)")
		maxTenants = flag.Int("max-tenants", 0, "dynamically admitted tenant cap (0 = server default)")
		tenantMem  = flag.Int("tenant-mem", 0, "total KB budget across dynamically admitted tenants, LRU-evicted past it (0 = unlimited)")
		quiet      = flag.Bool("quiet", false, "suppress operational logging")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		debugAddr  = flag.String("debug-addr", "", "opt-in debug listener (net/http/pprof) address ('' disables)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hkd:", err)
		return 2
	}
	if *quiet {
		logger = obs.Discard()
	}
	log := obs.Component(logger, "main")

	sum, restored, restoreDur, err := buildSummarizer(*algo, *k, *memKB, *seed, *shards, *epoch, *snapshot, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hkd:", err)
		return 1
	}

	// /config is the contract hkbench -verify rebuilds its twin from, so it
	// must describe the summarizer actually serving — which after a restore
	// is the snapshot's construction config, not this invocation's flags.
	// The construction config rides in an .info sidecar written next to
	// the snapshot on fresh start; a restore reads it back, so a restart
	// with different flags still reports (and serves) the original shape.
	info := map[string]string{
		"algo":      *algo,
		"mem_bytes": strconv.Itoa(*memKB * 1024),
		"seed":      strconv.FormatUint(*seed, 10),
		"shards":    strconv.Itoa(*shards),
		"epoch":     strconv.Itoa(*epoch),
	}
	if *snapshot != "" {
		if restored {
			saved, err := readInfoSidecar(*snapshot + ".info")
			if err != nil {
				log.Warn("no usable config sidecar; /config reports this invocation's flags", "err", err)
				// The structural shape at least is derivable from the
				// restored summarizer itself.
				if sh, ok := sum.(*heavykeeper.Sharded); ok {
					info["shards"] = strconv.Itoa(sh.Shards())
				} else {
					info["shards"] = "0"
				}
			} else {
				info = saved
			}
		} else if err := writeInfoSidecar(*snapshot+".info", info); err != nil {
			fmt.Fprintln(os.Stderr, "hkd:", err)
			return 1
		}
	}
	info["restored"] = strconv.FormatBool(restored)
	if *memHigh < 0 {
		fmt.Fprintln(os.Stderr, "hkd: -mem-highwater must not be negative")
		return 1
	}
	tokens := map[string]string{}
	if *tokenFile != "" {
		if tokens, err = loadTokenFile(*tokenFile); err != nil {
			fmt.Fprintln(os.Stderr, "hkd:", err)
			return 1
		}
		log.Info("tenant tokens loaded", "count", len(tokens), "path", *tokenFile)
	}

	// One structured line carries the whole effective configuration, so a
	// log scrape can always reconstruct how a given daemon was launched.
	log.Info("starting",
		"algo", *algo, "k", *k, "mem_kb", *memKB, "seed", *seed,
		"shards", *shards, "epoch", *epoch,
		"snapshot", *snapshot, "restored", restored,
		"tcp", *listenTCP, "udp", *listenUDP, "http", *listenHTTP,
		"debug", *debugAddr, "max_conns", *maxConns, "max_inflight", *maxInfl,
		"mem_highwater_mb", *memHigh, "auth", *tokenFile != "" || *adminToken != "",
		"tls", *tlsCert != "")

	srv, err := server.New(server.Config{
		Summarizer:         sum,
		NewSummarizer:      tenantFactory(*algo, *memKB, *seed, *shards, *epoch),
		MaxTenants:         *maxTenants,
		TenantMemoryBudget: *tenantMem * 1024,
		Tokens:             tokens,
		AdminToken:         *adminToken,
		TLSCertFile:        *tlsCert,
		TLSKeyFile:         *tlsKey,
		TCPAddr:            *listenTCP,
		UDPAddr:            *listenUDP,
		HTTPAddr:           *listenHTTP,
		MaxConns:           *maxConns,
		IdleTimeout:        *idleAfter,
		MaxInflight:        *maxInfl,
		DrainGrace:         *drainGrace,
		MemHighWater:       uint64(*memHigh) << 20,
		SnapshotPath:       *snapshot,
		SnapshotInterval:   *snapEvery,
		SnapshotKeep:       *snapKeep,
		Info:               info,
		Logger:             logger,
		RestoreDuration:    restoreDur,
	})
	if err != nil {
		if errors.Is(err, server.ErrInvalidDrainGrace) {
			fmt.Fprintln(os.Stderr, "hkd: -drain-grace:", err)
			return 2
		}
		fmt.Fprintln(os.Stderr, "hkd:", err)
		return 1
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "hkd:", err)
		return 1
	}

	// The debug listener is opt-in and separate from the API port so pprof
	// never rides on an operator-exposed address by accident.
	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hkd: debug listener:", err)
			srv.Shutdown(context.Background())
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

	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, srv, debugLn); err != nil {
			fmt.Fprintln(os.Stderr, "hkd:", err)
			srv.Shutdown(context.Background())
			return 1
		}
	}

	// SIGHUP = "checkpoint and reload": operators snapshot before risky
	// moments (deploys, migrations) and rotate tenant tokens, both
	// without bouncing the daemon.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if *tokenFile != "" {
				if tokens, err := loadTokenFile(*tokenFile); err != nil {
					log.Warn("SIGHUP token reload failed, keeping previous tokens", "err", err)
				} else {
					srv.SetTokens(tokens)
					log.Info("SIGHUP tokens reloaded", "count", len(tokens))
				}
			}
			if *snapshot == "" {
				if *tokenFile == "" {
					log.Info("SIGHUP ignored: no -snapshot path or -token-file configured")
				}
				continue
			}
			if err := srv.Snapshot(); err != nil {
				log.Error("SIGHUP snapshot failed", "err", err)
			} else {
				log.Info("SIGHUP snapshot written")
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hkd: shutdown:", err)
		return 1
	}
	return 0
}

// buildSummarizer restores from the snapshot when one exists (restored
// reports which and restoreDur how long the load took), otherwise
// constructs the summarizer the flags describe.
func buildSummarizer(algo string, k, memKB int, seed uint64, shards, epoch int, snapshot string, log *slog.Logger) (sum heavykeeper.Summarizer, restored bool, restoreDur time.Duration, err error) {
	if snapshot != "" && epoch != 0 {
		return nil, false, 0, fmt.Errorf("-snapshot and -epoch are mutually exclusive (windowed state expires within one window)")
	}
	if snapshot != "" {
		start := time.Now()
		sum, err := server.LoadSnapshot(snapshot)
		if err != nil {
			return nil, false, 0, err
		}
		if sum != nil {
			restoreDur = time.Since(start)
			log.Info("state restored",
				"path", snapshot, "k", sum.K(), "bytes", sum.MemoryBytes(),
				"duration_ms", restoreDur.Milliseconds())
			return sum, true, restoreDur, nil
		}
	}
	sum, err = tenantFactory(algo, memKB, seed, shards, epoch)(k)
	return sum, false, 0, err
}

// tenantFactory builds the per-tenant summarizer constructor: every
// dynamically admitted tenant gets the same engine shape as the default
// (algorithm, memory budget, seed, sharding, windowing), differing only
// in k, which hot reconfiguration may grow per tenant.
func tenantFactory(algo string, memKB int, seed uint64, shards, epoch int) func(k int) (heavykeeper.Summarizer, error) {
	return func(k int) (heavykeeper.Summarizer, error) {
		opts := []heavykeeper.Option{
			heavykeeper.WithAlgorithm(algo),
			heavykeeper.WithMemory(memKB * 1024),
			heavykeeper.WithSeed(seed),
		}
		if epoch != 0 {
			return heavykeeper.NewWindow(k, epoch, opts...)
		}
		if shards > 0 {
			opts = append(opts, heavykeeper.WithShards(shards))
		} else {
			opts = append(opts, heavykeeper.WithConcurrency())
		}
		return heavykeeper.New(k, opts...)
	}
}

// loadTokenFile parses a tenant token file: one "token tenant" pair per
// line (any whitespace between), blank lines and #-comments ignored.
func loadTokenFile(path string) (map[string]string, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tokens := map[string]string{}
	for i, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want 'token tenant', got %q", path, i+1, line)
		}
		if _, dup := tokens[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate token", path, i+1)
		}
		tokens[fields[0]] = fields[1]
	}
	return tokens, nil
}

// writeInfoSidecar records the construction config next to the snapshot
// (atomically), so a restarted daemon's /config describes the restored
// state rather than whatever flags the restart happened to use.
func writeInfoSidecar(path string, info map[string]string) error {
	body, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readInfoSidecar loads the construction config written by a previous run.
func readInfoSidecar(path string) (map[string]string, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var info map[string]string
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return info, nil
}

// writeAddrFile publishes the bound addresses atomically (temp + rename)
// so a polling reader never sees a partial file.
func writeAddrFile(path string, srv *server.Server, debugLn net.Listener) error {
	var body string
	if a := srv.TCPAddr(); a != nil {
		body += "tcp=" + a.String() + "\n"
	}
	if a := srv.UDPAddr(); a != nil {
		body += "udp=" + a.String() + "\n"
	}
	if a := srv.HTTPAddr(); a != nil {
		body += "http=" + a.String() + "\n"
	}
	if debugLn != nil {
		body += "debug=" + debugLn.Addr().String() + "\n"
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
