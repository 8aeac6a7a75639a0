package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds a slog.Logger writing to w. level is one of
// debug|info|warn|error (case-insensitive); format is text|json.
// Component-scoped child loggers are derived with Component.
func NewLogger(level, format string, w io.Writer) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(strings.TrimSpace(level)) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
	return slog.New(h), nil
}

// Discard returns a logger that drops every record.
func Discard() *slog.Logger { return slog.New(slog.DiscardHandler) }

// Component derives a child logger tagged with a component attribute
// (server, snapshot, tenant, cluster, client, ...). A nil base yields a
// discarding logger so call sites never nil-check.
func Component(base *slog.Logger, name string) *slog.Logger {
	if base == nil {
		return Discard()
	}
	return base.With(slog.String("component", name))
}
