package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/client"
)

// binaries are the daemons built from the checkout under test.
type binaries struct{ hkd, hkagg string }

// buildBinaries builds cmd/hkd and cmd/hkagg of the module at root into dir.
func buildBinaries(root, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/hkd", "./cmd/hkagg")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("building daemons: %w\n%s", err, out)
	}
	return binaries{hkd: filepath.Join(dir, "hkd"), hkagg: filepath.Join(dir, "hkagg")}, nil
}

// proc is one started daemon process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once Wait has returned
}

// startProc starts bin with its output in logPath. The child gets SIGKILL
// if this process dies first, so no daemon outlives the benchmark.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		f.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the exit (SIGKILL after 15 s) and returns
// the exit code, -1 when a signal ended the process.
func (p *proc) stop() int {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	return p.cmd.ProcessState.ExitCode()
}

// logTail returns the last lines of the process's output, for errors.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

// cpuSeconds is the process's user plus system time from /proc/<pid>/stat.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// positional: state is field 3, utime 14 and stime 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB is the process's VmHWM from /proc/<pid>/status, in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// waitAddrFile polls a daemon's -addr-file until it names every listener
// in want.
func waitAddrFile(p *proc, path string, want ...string) (map[string]string, error) {
	var addrs map[string]string
	err := waitUntil(p, func(context.Context) bool {
		b, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		addrs = map[string]string{}
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, "="); ok {
				addrs[k] = v
			}
		}
		for _, k := range want {
			if addrs[k] == "" {
				return false
			}
		}
		return true
	})
	return addrs, err
}

// newAPI returns an SDK client for one server with its own keep-alive
// connection pool.
func newAPI(addr string) (*client.Client, *http.Client, error) {
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
	api, err := client.New(addr, client.WithHTTPClient(hc))
	return api, hc, err
}

// getJSON fetches one JSON document the SDK has no typed call for.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	body, err := getBody(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// hkd is one running hkd with its listener addresses and API client.
type hkd struct {
	*proc
	tcp, http string
	api       *client.Client
	hc        *http.Client
}

// startHKD starts hkd for w in dir and waits until /healthz answers 200.
// snapPath, when set, makes hkd persist there (and restore from it).
func startHKD(bin string, w workload, dir, snapPath string) (*hkd, error) {
	addrFile := filepath.Join(dir, "hkd.addr")
	os.Remove(addrFile)
	args := []string{
		"-listen-tcp", "127.0.0.1:0", "-listen-udp", "", "-listen-http", "127.0.0.1:0",
		"-addr-file", addrFile, "-k", strconv.Itoa(topK), "-mem", strconv.Itoa(w.memKB),
		"-seed", strconv.Itoa(hkdSeed), "-log-level", "warn",
	}
	if w.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if snapPath != "" {
		args = append(args, "-snapshot", snapPath, "-snapshot-interval", "1s")
	}
	p, err := startProc("hkd", bin, args, filepath.Join(dir, "hkd.log"))
	if err != nil {
		return nil, err
	}
	d := &hkd{proc: p}
	if err := d.ready(addrFile); err != nil {
		p.stop()
		return nil, err
	}
	return d, nil
}

func (d *hkd) ready(addrFile string) error {
	addrs, err := waitAddrFile(d.proc, addrFile, "tcp", "http")
	if err != nil {
		return err
	}
	d.tcp, d.http = addrs["tcp"], addrs["http"]
	if d.api, d.hc, err = newAPI(d.http); err != nil {
		return err
	}
	return waitUntil(d.proc, func(ctx context.Context) bool {
		h, err := d.api.Healthz(ctx)
		return err == nil && h.OK
	})
}

// hkagg is one running aggregator.
type hkagg struct {
	*proc
	http string
	api  *client.Client
	hc   *http.Client
}

// aggStats is the part of hkagg's /stats the benchmark reads.
type aggStats struct {
	Coverage float64 `json:"coverage"`
	Nodes    []struct {
		Collects uint64 `json:"collects"`
		Failures uint64 `json:"failures"`
	} `json:"nodes"`
}

// startHKAgg starts hkagg over one hkd and waits until it answers with
// full coverage and at least one collected snapshot.
func startHKAgg(bin, node, dir string) (*hkagg, error) {
	addrFile := filepath.Join(dir, "hkagg.addr")
	os.Remove(addrFile)
	args := []string{
		"-nodes", node, "-listen-http", "127.0.0.1:0", "-addr-file", addrFile,
		"-policy", "max", "-live", "-interval", "200ms", "-log-level", "warn",
	}
	p, err := startProc("hkagg", bin, args, filepath.Join(dir, "hkagg.log"))
	if err != nil {
		return nil, err
	}
	a := &hkagg{proc: p}
	addrs, err := waitAddrFile(p, addrFile, "http")
	if err == nil {
		a.http = addrs["http"]
		a.api, a.hc, err = newAPI(a.http)
	}
	if err == nil {
		err = waitUntil(p, func(ctx context.Context) bool {
			var st aggStats
			if h, err := a.api.Healthz(ctx); err != nil || !h.OK {
				return false
			}
			return getJSON(ctx, a.hc, "http://"+a.http+"/stats", &st) == nil &&
				st.Coverage == 1 && len(st.Nodes) == 1 && st.Nodes[0].Collects > 0
		})
	}
	if err != nil {
		p.stop()
		return nil, err
	}
	return a, nil
}

// waitUntil polls ok until it holds, failing early if the process exits
// and after 20 s. Polls run back to back for the first 100 ms: a daemon
// starts in a few milliseconds, and a sleep here lasts about a millisecond
// however short it is asked to be, which would dominate setup_s.
func waitUntil(p *proc, ok func(ctx context.Context) bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	for !ok(ctx) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during startup:\n%s", p.name, p.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		default:
		}
		if time.Since(start) < 100*time.Millisecond {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// daemonSet is one workload's hkd and the hkagg folding it.
type daemonSet struct {
	hkd   *hkd
	agg   *hkagg
	dir   string
	snap  string // hkd's snapshot base path, "" without persistence
	setup time.Duration
}

// startDaemons cold-starts w's daemon set in a fresh directory under dir
// and times it from exec until every addr-file is published and every
// /healthz answers 200 (hkagg's with a collected snapshot).
func startDaemons(bins binaries, w workload, dir string) (*daemonSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds := &daemonSet{dir: dir}
	if w.snapshot {
		ds.snap = filepath.Join(dir, "snap", "hkd")
		if err := os.MkdirAll(filepath.Dir(ds.snap), 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var err error
	if ds.hkd, err = startHKD(bins.hkd, w, dir, ds.snap); err != nil {
		return nil, err
	}
	if ds.agg, err = startHKAgg(bins.hkagg, ds.hkd.http, dir); err != nil {
		ds.hkd.stop()
		return nil, err
	}
	ds.setup = time.Since(start)
	return ds, nil
}

// stop terminates hkagg, then hkd, and returns hkd's exit code.
func (ds *daemonSet) stop() int {
	ds.agg.stop()
	code := ds.hkd.stop()
	ds.agg.hc.CloseIdleConnections()
	ds.hkd.hc.CloseIdleConnections()
	return code
}
