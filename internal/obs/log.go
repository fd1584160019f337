package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps a RAMP_LOG value ("debug", "info", "warn", "error",
// case-insensitive) to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// NewLogger builds the module's standard logger writing to w at the
// given level, as text (human terminals) or JSON (log pipelines).
func NewLogger(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// discardHandler drops every record. Hand-rolled rather than using
// slog.DiscardHandler, which did not exist in the module's minimum Go
// version.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Discard returns a logger that drops everything — the default for
// library code (e.g. serve.Config.Log) when the caller wires nothing.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }
