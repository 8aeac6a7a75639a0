package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	heavykeeper "repro"
)

// DefaultTenant is the name of the implicit tenant every v1 frame (and
// every v2 frame with an empty tenant id) ingests into. It is backed by
// Config.Summarizer and is never evicted.
const DefaultTenant = "default"

// Typed tenancy errors; callers branch with errors.Is.
var (
	// ErrUnknownTenant is returned when a frame or query names a tenant
	// the registry does not hold and cannot admit (no NewSummarizer
	// factory configured).
	ErrUnknownTenant = errors.New("server: unknown tenant")
	// ErrTenantLimit is returned when admitting a tenant would exceed
	// MaxTenants or TenantMemoryBudget and no idle tenant can be evicted
	// to make room.
	ErrTenantLimit = errors.New("server: tenant limit reached")
)

// tenant is one isolated principal: its own summarizer instance plus
// audit counters. The summarizer is held behind an atomic pointer so hot
// reconfig (grow_k) can swap in a larger instance while ingest
// continues; readers never take the registry lock.
type tenant struct {
	name string
	sum  atomic.Pointer[sumBox]
	// gen advances after every change to the tenant's state: an applied
	// ingest batch, grow_k, rotate_epoch. It starts at the wall clock in
	// nanoseconds, so a restarted (restored) daemon or a re-admitted
	// tenant never repeats a value a poller saw from its predecessor.
	gen *genCounter

	// Audit counters: every frame that reaches ingest for this tenant is
	// accounted here, whether or not degraded-mode sampling later sheds
	// it — the audit trail answers "who sent what", not "what was kept".
	frames   atomic.Uint64
	records  atomic.Uint64
	lastUsed atomic.Int64 // unix nanos; drives LRU eviction
}

// sumBox wraps the Summarizer interface value so it can live behind an
// atomic.Pointer.
type sumBox struct{ s heavykeeper.Summarizer }

func (t *tenant) summarizer() heavykeeper.Summarizer { return t.sum.Load().s }

func (t *tenant) setSummarizer(s heavykeeper.Summarizer) { t.sum.Store(&sumBox{s: s}) }

func (t *tenant) touch(now time.Time) { t.lastUsed.Store(now.UnixNano()) }

// newTenant returns a tenant serving sum, marked used now.
func newTenant(name string, sum heavykeeper.Summarizer) *tenant {
	now := time.Now()
	t := &tenant{name: name, gen: newGenCounter(uint64(now.UnixNano()))}
	t.setSummarizer(sum)
	t.touch(now)
	return t
}

// registry maps tenant names to live tenants, admits new ones through
// the configured factory under a bounded total-memory budget, and evicts
// least-recently-used tenants when the bounds are hit. The default
// tenant is pinned: it is never a candidate for eviction.
type registry struct {
	mu      sync.Mutex
	tenants map[string]*tenant
	def     *tenant
	factory func(k int) (heavykeeper.Summarizer, error)
	defK    int
	maxN    int // live-tenant cap, including the default
	budget  int // total MemoryBytes across dynamic tenants; 0 = unlimited

	admitted  atomic.Uint64
	evictions atomic.Uint64
	rejected  atomic.Uint64
}

func newRegistry(def heavykeeper.Summarizer, factory func(k int) (heavykeeper.Summarizer, error), maxTenants, budget int) *registry {
	d := newTenant(DefaultTenant, def)
	return &registry{
		tenants: map[string]*tenant{DefaultTenant: d},
		def:     d,
		factory: factory,
		defK:    def.K(),
		maxN:    maxTenants,
		budget:  budget,
	}
}

// resolve returns the tenant for name, admitting it through the factory
// if it does not exist yet. An empty name is the default tenant. The
// argument is []byte so the ingest hot path resolves known tenants
// without allocating (map lookups on string(b) do not copy).
func (r *registry) resolve(name []byte) (*tenant, error) {
	if len(name) == 0 {
		return r.def, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[string(name)]; ok {
		return t, nil
	}
	return r.admitLocked(string(name))
}

// admitLocked creates and registers a new dynamic tenant, evicting LRU
// tenants as needed to respect MaxTenants and the memory budget.
func (r *registry) admitLocked(name string) (*tenant, error) {
	if r.factory == nil {
		r.rejected.Add(1)
		return nil, fmt.Errorf("%w: %q (no tenant factory configured)", ErrUnknownTenant, name)
	}
	if r.maxN > 0 && len(r.tenants) >= r.maxN && !r.evictLRULocked() {
		r.rejected.Add(1)
		return nil, fmt.Errorf("%w: %d tenants live, cannot admit %q", ErrTenantLimit, len(r.tenants), name)
	}
	sum, err := r.factory(r.defK)
	if err != nil {
		r.rejected.Add(1)
		return nil, fmt.Errorf("server: tenant %q: factory: %w", name, err)
	}
	if r.budget > 0 {
		need := sum.MemoryBytes()
		for r.dynamicMemoryLocked()+need > r.budget {
			if !r.evictLRULocked() {
				r.rejected.Add(1)
				return nil, fmt.Errorf("%w: memory budget %d bytes exhausted, cannot admit %q", ErrTenantLimit, r.budget, name)
			}
		}
	}
	t := newTenant(name, sum)
	r.tenants[name] = t
	r.admitted.Add(1)
	return t, nil
}

// dynamicMemoryLocked sums the footprint of every evictable tenant.
func (r *registry) dynamicMemoryLocked() int {
	total := 0
	for _, t := range r.tenants {
		if t != r.def {
			total += t.summarizer().MemoryBytes()
		}
	}
	return total
}

// evictLRULocked removes the least-recently-used dynamic tenant,
// discarding its summarizer. Reports false when nothing is evictable
// (only the pinned default remains).
func (r *registry) evictLRULocked() bool {
	var victim *tenant
	for _, t := range r.tenants {
		if t == r.def {
			continue
		}
		if victim == nil || t.lastUsed.Load() < victim.lastUsed.Load() {
			victim = t
		}
	}
	if victim == nil {
		return false
	}
	delete(r.tenants, victim.name)
	r.evictions.Add(1)
	return true
}

// get returns the tenant for name without admitting it; queries against
// a tenant that never ingested are a 404, not an admission.
func (r *registry) get(name string) (*tenant, bool) {
	if name == "" {
		return r.def, true
	}
	r.mu.Lock()
	t, ok := r.tenants[name]
	r.mu.Unlock()
	return t, ok
}

// evict explicitly removes a named tenant, discarding its state. The
// default tenant cannot be evicted.
func (r *registry) evict(name string) error {
	if name == "" || name == DefaultTenant {
		return errors.New("server: the default tenant cannot be evicted")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	delete(r.tenants, name)
	r.evictions.Add(1)
	return nil
}

// snapshot returns the live tenants sorted by name, for /stats and
// /metrics rendering.
func (r *registry) snapshot() []*tenant {
	r.mu.Lock()
	out := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// tokenTable is the bearer-token → tenant-name map, mutable at runtime
// (hot rotation via POST /config or SIGHUP token-file reload) under a
// read-mostly lock.
type tokenTable struct {
	mu     sync.RWMutex
	tokens map[string]string
}

func newTokenTable(tokens map[string]string) *tokenTable {
	m := make(map[string]string, len(tokens))
	for tok, tenant := range tokens {
		m[tok] = tenant
	}
	return &tokenTable{tokens: m}
}

// lookup resolves a presented token to its tenant name. The argument is
// []byte so the TCP hello path avoids an allocation.
func (tt *tokenTable) lookup(token []byte) (string, bool) {
	tt.mu.RLock()
	name, ok := tt.tokens[string(token)]
	tt.mu.RUnlock()
	return name, ok
}

func (tt *tokenTable) add(token, tenant string) {
	tt.mu.Lock()
	tt.tokens[token] = tenant
	tt.mu.Unlock()
}

func (tt *tokenTable) revoke(token string) bool {
	tt.mu.Lock()
	_, ok := tt.tokens[token]
	delete(tt.tokens, token)
	tt.mu.Unlock()
	return ok
}

// replace swaps the whole table (SIGHUP token-file reload).
func (tt *tokenTable) replace(tokens map[string]string) {
	m := make(map[string]string, len(tokens))
	for tok, tenant := range tokens {
		m[tok] = tenant
	}
	tt.mu.Lock()
	tt.tokens = m
	tt.mu.Unlock()
}

func (tt *tokenTable) len() int {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	return len(tt.tokens)
}

// SetTokens atomically replaces the tenant-token table; hkd calls this
// on SIGHUP after re-reading its token file. It does not change whether
// auth is required — a server started with auth stays authenticated even
// if the new table is momentarily empty.
func (s *Server) SetTokens(tokens map[string]string) { s.tokens.replace(tokens) }

// AddToken grants token access to tenant at runtime.
func (s *Server) AddToken(token, tenant string) { s.tokens.add(token, tenant) }

// RevokeToken removes a token at runtime; in-flight connections already
// bound by a hello handshake stay bound (revocation gates new
// handshakes and new HTTP requests).
func (s *Server) RevokeToken(token string) bool { return s.tokens.revoke(token) }
