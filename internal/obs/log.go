// Structured logging. The repository standardises on log/slog; this file
// only adds the small amount of glue the daemons share: level/format flag
// parsing, a constructor, and the convention that per-request /
// per-query records are keyed by query_id (the session ID rendered as hex)
// so one grep stitches coordinator and site logs together.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
)

// ParseLogLevel maps a -log-level flag value to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// NewLogger builds a slog.Logger writing to w. format selects the
// handler: "text" (the default) or "json" (one object per line, for log
// shippers). Records below level are dropped inside the handler, so a
// disabled level costs one atomic load per call site.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
}

// QueryID renders a query ID (the query's session ID, which every request
// of the query carries) the way every log record spells it: 16 hex
// digits, zero-padded, so coordinator and site logs join on the exact
// same string.
func QueryID(id uint64) string {
	const digits = 16
	s := strconv.FormatUint(id, 16)
	if len(s) >= digits {
		return s
	}
	return strings.Repeat("0", digits-len(s)) + s
}
