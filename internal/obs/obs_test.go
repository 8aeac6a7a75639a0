package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNewLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger("warn", "text", &buf)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("info leaked through warn level: %q", out)
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "k=v") {
		t.Fatalf("warn record malformed: %q", out)
	}

	buf.Reset()
	lg, err = NewLogger("debug", "json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	Component(lg, "server").Debug("boot", "port", 9)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line not parseable: %v (%q)", err, buf.String())
	}
	if rec["component"] != "server" || rec["msg"] != "boot" {
		t.Fatalf("json record = %v", rec)
	}

	if _, err := NewLogger("loud", "text", &buf); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger("info", "xml", &buf); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestComponentNilBase(t *testing.T) {
	lg := Component(nil, "anything")
	lg.Info("must not panic")
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("id lengths: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("consecutive ids collided: %q", a)
	}
	ctx := WithRequestID(context.Background(), "deadbeef00000000")
	if got := RequestIDFrom(ctx); got != "deadbeef00000000" {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("empty context returned %q", got)
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := NewRuntimeSampler()
	st := s.Sample()
	if st.Goroutines == 0 {
		t.Fatal("goroutine count is zero")
	}
	if st.HeapBytes == 0 || st.RuntimeBytes == 0 {
		t.Fatalf("memory stats zero: %+v", st)
	}
	// Sample again to exercise the reused slice path.
	st2 := s.Sample()
	if st2.Goroutines == 0 {
		t.Fatal("second sample empty")
	}
}

func TestDebugHandlerServesPprof(t *testing.T) {
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	resp2, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Request.URL.Path != "/debug/pprof/" {
		t.Fatalf("root did not redirect to pprof index: %v", resp2.Request.URL)
	}
}
