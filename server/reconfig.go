package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	heavykeeper "repro"
)

// reconfigRequest is the POST /config body: each field is an optional
// action, applied in the order the fields are declared. Token changes
// take effect for new handshakes and requests immediately; connections
// already bound by a hello stay bound.
type reconfigRequest struct {
	// Tenant scopes GrowK and RotateEpoch ("" = the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// GrowK swaps the tenant's summarizer for one with a larger report
	// size, carrying the current top-k estimates over. Requires
	// Config.NewSummarizer. Estimates are reseeded from the old report,
	// so residual sketch state (non-top-k counters) is not carried.
	GrowK int `json:"grow_k,omitempty"`
	// RotateEpoch forces a pane rotation on a Window summarizer,
	// starting a fresh epoch now.
	RotateEpoch bool `json:"rotate_epoch,omitempty"`
	// AddTokens grants token → tenant-name mappings.
	AddTokens map[string]string `json:"add_tokens,omitempty"`
	// RevokeTokens removes tokens from the table.
	RevokeTokens []string `json:"revoke_tokens,omitempty"`
	// EvictTenants discards the named tenants' state explicitly.
	EvictTenants []string `json:"evict_tenants,omitempty"`
}

// reconfigResponse reports what was applied.
type reconfigResponse struct {
	SchemaVersion int      `json:"schema_version"`
	Tenant        string   `json:"tenant,omitempty"`
	K             int      `json:"k,omitempty"`
	Rotated       bool     `json:"rotated,omitempty"`
	TokensAdded   int      `json:"tokens_added,omitempty"`
	TokensRevoked int      `json:"tokens_revoked,omitempty"`
	Evicted       []string `json:"evicted,omitempty"`
}

// handleReconfig is hot reconfig: grow k, rotate the epoch, rotate
// tenant tokens and evict tenants without restarting the daemon. On an
// authenticated server only the admin token may call it; an open
// (dev/loopback) server accepts it from anyone who can reach the API.
func (s *Server) handleReconfig(w http.ResponseWriter, r *http.Request) {
	if info, authed := r.Context().Value(authCtxKey{}).(authInfo); authed && !info.admin {
		writeError(w, http.StatusForbidden, "forbidden", "reconfig requires the admin token")
		return
	}
	var req reconfigRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	resp := reconfigResponse{SchemaVersion: StatsSchemaVersion}

	if req.GrowK > 0 || req.RotateEpoch {
		t, ok := s.reg.get(req.Tenant)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown tenant %q", req.Tenant))
			return
		}
		resp.Tenant = t.name
		if req.GrowK > 0 {
			k, err := s.growK(t, req.GrowK)
			if err != nil {
				status, code := http.StatusBadRequest, "bad_request"
				if errors.Is(err, errNoFactory) {
					status, code = http.StatusNotImplemented, "not_implemented"
				}
				writeError(w, status, code, err.Error())
				return
			}
			resp.K = k
			s.tenantLog.Info("k grown", "tenant", t.name, "k", k)
		}
		if req.RotateEpoch {
			win, ok := t.summarizer().(*heavykeeper.Window)
			if !ok {
				writeError(w, http.StatusBadRequest, "bad_request",
					fmt.Sprintf("tenant %q summarizer %T has no epochs to rotate", t.name, t.summarizer()))
				return
			}
			win.Rotate()
			t.gen.advance()
			resp.Rotated = true
			s.tenantLog.Info("epoch rotated", "tenant", t.name)
		}
	}

	for tok, tenant := range req.AddTokens {
		if tok == "" || tenant == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "add_tokens entries need a non-empty token and tenant name")
			return
		}
		s.tokens.add(tok, tenant)
		resp.TokensAdded++
	}
	for _, tok := range req.RevokeTokens {
		if s.tokens.revoke(tok) {
			resp.TokensRevoked++
		}
	}
	if resp.TokensAdded > 0 || resp.TokensRevoked > 0 {
		s.tenantLog.Info("tokens rotated",
			"added", resp.TokensAdded, "revoked", resp.TokensRevoked, "live", s.tokens.len())
	}

	for _, name := range req.EvictTenants {
		if err := s.reg.evict(name); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		resp.Evicted = append(resp.Evicted, name)
		s.tenantLog.Info("tenant evicted", "tenant", name)
	}

	writeJSON(w, resp)
}

var errNoFactory = errors.New("server: grow_k requires Config.NewSummarizer")

// growK swaps t's summarizer for one with report size newK, reseeding
// it from the old report. The swap is atomic for readers; frames being
// ingested into the old instance during the window between reseed and
// swap are lost to the new one — grow is a best-effort operational move,
// not a transactional migration.
func (s *Server) growK(t *tenant, newK int) (int, error) {
	if s.cfg.NewSummarizer == nil {
		return 0, errNoFactory
	}
	old := t.summarizer()
	if newK <= old.K() {
		return 0, fmt.Errorf("server: grow_k %d must exceed current k %d", newK, old.K())
	}
	grown, err := s.cfg.NewSummarizer(newK)
	if err != nil {
		return 0, fmt.Errorf("server: grow_k factory: %w", err)
	}
	// Prefer a structural merge (keeps sketch state when shapes allow),
	// fall back to reseeding from the report: the old top-k estimates
	// become exact-count seeds in the grown instance.
	if err := grown.Merge(old); err != nil {
		for _, f := range old.List() {
			grown.AddN(f.ID, f.Count)
		}
	}
	t.setSummarizer(grown)
	t.gen.advance()
	return grown.K(), nil
}
