package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestQueryID(t *testing.T) {
	if got := QueryID(0xabc); got != "0000000000000abc" {
		t.Fatalf("QueryID = %q", got)
	}
	if got := QueryID(0); len(got) != 16 {
		t.Fatalf("QueryID(0) = %q", got)
	}
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"":      slog.LevelInfo,
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	for _, format := range []string{"text", "json"} {
		buf.Reset()
		l, err := NewLogger(&buf, format, slog.LevelInfo)
		if err != nil {
			t.Fatal(err)
		}
		l.Info("hello", "query_id", QueryID(7))
		if !strings.Contains(buf.String(), QueryID(7)) {
			t.Fatalf("%s logger dropped the attr: %q", format, buf.String())
		}
		l.Debug("below level")
		if strings.Contains(buf.String(), "below level") {
			t.Fatalf("%s logger ignored the level", format)
		}
	}
	if _, err := NewLogger(&buf, "yaml", slog.LevelInfo); err == nil {
		t.Fatal("bad format accepted")
	}
}
