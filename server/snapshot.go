package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	heavykeeper "repro"
)

// genStore writes and retains crash-safe snapshot generations. Each
// generation is a separate file next to the configured base path —
// "<base>.g<seq>" — written to a temp file, fsync'd, renamed into place
// and followed by a directory fsync, so a crash at any instant leaves at
// most one torn file and never disturbs older generations. After each
// successful write, generations past the retention count are pruned
// oldest-first.
type genStore struct {
	base string
	keep int

	mu  sync.Mutex
	seq uint64
	// written mirrors seq for GET /snapshot long-polls: it advances after
	// each generation is renamed into place.
	written *genCounter

	// wrap is the fault-injection seam: when set, snapshot bytes flow
	// through wrap(tempFile) so chaos tests can tear a write mid-frame.
	wrap func(io.Writer) io.Writer
}

// newGenStore returns a store rooted at base, resuming the sequence
// counter past any generations already on disk.
func newGenStore(base string, keep int) (*genStore, error) {
	g := &genStore{base: base, keep: keep}
	gens, err := g.generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		g.seq = gens[0].seq
	}
	g.written = newGenCounter(g.seq)
	return g, nil
}

// generation is one on-disk snapshot file.
type generation struct {
	path string
	seq  uint64
}

// generations lists the store's on-disk generations, newest first.
// Files whose suffix doesn't parse as a sequence number are ignored —
// they aren't ours.
func (g *genStore) generations() ([]generation, error) {
	dir := filepath.Dir(g.base)
	prefix := filepath.Base(g.base) + ".g"
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var gens []generation
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) {
			continue
		}
		seq, err := strconv.ParseUint(name[len(prefix):], 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, generation{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].seq > gens[j].seq })
	return gens, nil
}

// write persists one new generation. Serialized under mu so concurrent
// callers (periodic loop, SIGHUP, shutdown) can't interleave sequence
// numbers or prune each other's in-flight renames.
func (g *genStore) write(sw heavykeeper.SnapshotWriter) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	dir := filepath.Dir(g.base)
	tmp, err := os.CreateTemp(dir, ".hkd-snap-*")
	if err != nil {
		return fmt.Errorf("server: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var w io.Writer = tmp
	if g.wrap != nil {
		w = g.wrap(tmp)
	}
	if _, err := heavykeeper.WriteSnapshot(w, sw); err != nil {
		tmp.Close()
		return fmt.Errorf("server: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: snapshot close: %w", err)
	}
	g.seq++
	dst := fmt.Sprintf("%s.g%09d", g.base, g.seq)
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("server: snapshot rename: %w", err)
	}
	// The rename is durable only once the directory entry is; without
	// this fsync a crash can lose the rename and resurrect the old view.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("server: snapshot dir sync: %w", err)
	}
	g.written.advance()
	g.prune()
	return nil
}

// newestIntact returns the newest generation whose checksummed envelope
// verifies end to end, for serving to remote readers (GET /snapshot).
// Generations are immutable once renamed into place, so no lock is held:
// a concurrent write only adds newer files, and a concurrent prune of a
// file we already opened leaves our descriptor readable. Returns
// os.ErrNotExist when no generation exists at all, and the newest
// verification failure when files exist but none are intact.
func (g *genStore) newestIntact() (generation, error) {
	gens, err := g.generations()
	if err != nil {
		return generation{}, err
	}
	var firstErr error
	for _, gen := range gens {
		err := func() error {
			f, err := os.Open(gen.path)
			if err != nil {
				return err
			}
			defer f.Close()
			return heavykeeper.VerifySnapshot(f)
		}()
		if err == nil {
			return gen, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", gen.path, err)
		}
	}
	if firstErr == nil {
		firstErr = os.ErrNotExist
	}
	return generation{}, firstErr
}

// prune removes generations past the retention count, oldest first.
// Best-effort: a failed remove leaves an extra file, never loses data.
func (g *genStore) prune() {
	gens, err := g.generations()
	if err != nil {
		return
	}
	for i, gen := range gens {
		if i >= g.keep {
			os.Remove(gen.path)
		}
	}
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSnapshot restores a summarizer from the snapshot generations rooted
// at path (path.g<seq>): it walks them newest to oldest, skipping corrupt
// or torn ones (a crash mid-write must never block restart). A file at path
// itself is not a generation and is not read. The restored summarizer is
// wrapped for concurrent serving. Returns (nil, nil) when no generation
// exists, and an error only when generations exist but none is intact.
func LoadSnapshot(path string) (heavykeeper.Summarizer, error) {
	gens, err := (&genStore{base: path}).generations()
	if err != nil {
		return nil, fmt.Errorf("server: listing snapshot generations: %w", err)
	}
	var firstErr error
	for _, gen := range gens {
		sum, err := readSnapshotFile(gen.path)
		if err == nil {
			return heavykeeper.Synchronized(sum), nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", gen.path, err)
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("server: no intact snapshot generation (%d on disk, newest failure: %w)", len(gens), firstErr)
	}
	return nil, nil
}

// readSnapshotFile restores one snapshot generation file.
func readSnapshotFile(path string) (heavykeeper.Summarizer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return heavykeeper.ReadSnapshot(f)
}
