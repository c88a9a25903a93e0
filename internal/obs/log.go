package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"strings"
)

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger returns a structured JSON logger writing to w at the given
// level — one line per record, machine-parseable, the access-log shape
// the serving middleware emits.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// NopLogger returns a logger that discards every record — the default
// when a Server is constructed without one, keeping call sites
// branch-free.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// Recover contains a panic at a request or goroutine boundary. Defer it
// directly (recover only works in the deferred call itself):
//
//	defer obs.Recover(ctx, logger, span, where, func(v any) { ... })
//
// Without a panic it does nothing. On one it marks span with outcome
// "panic" (the caller still ends it), writes one error line carrying the
// request id, the panic value and the stack to logger (nil discards it),
// and hands the value to onPanic, which turns it into the caller's
// failure: a 500, an error result.
func Recover(ctx context.Context, logger *slog.Logger, span *Span, where string, onPanic func(v any)) {
	v := recover()
	if v == nil {
		return
	}
	span.SetAttr("outcome", "panic")
	span.SetAttr("panic", fmt.Sprint(v))
	if logger != nil {
		logger.LogAttrs(ctx, slog.LevelError, "panic",
			slog.String("request_id", RequestIDFrom(ctx)),
			slog.String("trace_id", span.TraceID()),
			slog.String("where", where),
			slog.String("panic", fmt.Sprint(v)),
			slog.String("stack", string(debug.Stack())),
		)
	}
	onPanic(v)
}
